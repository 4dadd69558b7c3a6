"""Golden digests of seeded CLI artifacts.

Each case runs ``dynls.cli.main`` at a small size and pins the SHA-256 of
the artifacts a seeded run must reproduce byte for byte: the run-utm trace
and report, the transformed stream, and the secrecy reports.  A refactor
that keeps these digests keeps the observable behaviour.  ``manifest.json``
is left out because it records the temporary paths of the run.
"""

import hashlib
import random

import pytest

from dynls.cli import main
from dynls.tm import endless_counter, write_machine


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture
def counter_tm(tmp_path):
    program, config = endless_counter()
    path = tmp_path / "counter.tm"
    write_machine(program, config, path)
    return str(path)


RUN_UTM = {
    "xorfam": (
        "a68232889802a6d2f5b32523e993ba1ec9e5fd8c329c07837b641715bd1fd8ce",
        "9dc35efac1563d242832d285c72a7e29bc220b9552ac9e1f3449e37381e31d9b",
    ),
    "affine:7": (
        "fcf2e7481f8ca93804aad05ac45e23970c8d4b085eec92f513a0aa0feee12294",
        "9dc35efac1563d242832d285c72a7e29bc220b9552ac9e1f3449e37381e31d9b",
    ),
}


@pytest.mark.parametrize("dls", sorted(RUN_UTM))
def test_run_utm_digests(dls, counter_tm, tmp_path):
    out = tmp_path / "run"
    argv = [
        "run-utm", "--tm", counter_tm, "--dls", dls,
        "--steps", "200", "--rng", "seeded:7", "--out", str(out),
    ]
    assert main(argv) == 0
    trace, report = RUN_UTM[dls]
    assert _sha256(out / "trace.jsonl") == trace
    assert _sha256(out / "report.txt") == report


# 6000 bytes: a whole number of 16-bit and of 12-bit blocks
STREAM_INPUT = random.Random("golden-stream").randbytes(6000)

STREAM = {
    "w16-periodic": (["--maps", "xorfam", "--width", "16", "--count", "6",
                      "--sched", "periodic:6"],
                     "a83eb3353a9b16c30eec992951c2ef2b3b3653cf8364cd61d68413bf0f91faa4"),
    "w12-trace": (["--maps", "affine:11", "--width", "12", "--count", "5",
                   "--sched", "trace:{tm}"],
                  "f9f50a0676d5dfb83d8ee50cbd60eb5fdeed38439870d36229e165a449ef9444"),
}


@pytest.mark.parametrize("case", sorted(STREAM))
def test_stream_digests(case, counter_tm, tmp_path):
    flags, digest = STREAM[case]
    flags = [flag.format(tm=counter_tm) for flag in flags]
    src = tmp_path / "input.bits"
    src.write_bytes(STREAM_INPUT)
    fwd, back = tmp_path / "fwd", tmp_path / "back"
    assert main(["stream", "transform", "--in", str(src), "--out", str(fwd), *flags]) == 0
    assert _sha256(fwd / "stream.bits") == digest
    maps = flags[flags.index("--maps") + 1]
    argv = ["stream", "recover", "--in", str(fwd / "stream.bits"),
            "--out", str(back), "--maps", maps]
    assert main(argv) == 0
    assert (back / "recovered.bits").read_bytes() == STREAM_INPUT


# (flags, exit code, digest): random affine maps leak, mask pairs do not
SECRECY = {
    "exact": (["--dls", "affine:5", "--width", "8", "--states", "3"], 1,
              "da562691cb69bda3219b3169fa04bc59c9ae349164ed5d9d38d06d0e483e6026"),
    "sampled": (["--dls", "xorfam:5", "--width", "12", "--states", "2",
                 "--sample", "4000", "--rng", "seeded:3"], 0,
                "f5f59800cd998a373695cde7aada6eaa5012cb7d5c1aad200e9beed6360c9f2f"),
}


@pytest.mark.parametrize("case", sorted(SECRECY))
def test_verify_secrecy_digests(case, tmp_path):
    flags, code, digest = SECRECY[case]
    out = tmp_path / "secrecy"
    assert main(["verify-secrecy", *flags, "--out", str(out)]) == code
    assert _sha256(out / "report.txt") == digest
