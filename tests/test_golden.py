"""Golden digests of seeded CLI artifacts.

Each case runs ``dynls.cli.main`` and pins the SHA-256 of the artifacts a
seeded run must reproduce byte for byte: the run-utm trace and report, the
transformed stream, and the secrecy reports.  The printed programs
``compile_step`` emits for one mask-pair step and one affine step are
pinned the same way.  A refactor that keeps these digests keeps the
observable behaviour.  ``manifest.json`` is left out because it records the
temporary paths of the run.
"""

import hashlib
import random

import pytest

from dynls.aem import compile_step, print_program
from dynls.bitcore import BitVec, XorFamily, random_affine_invertible
from dynls.blockstream import CHUNK_GROUPS
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


# (flags, input bytes, digest).  6000 bytes is a whole number of 8-, 12-
# and 16-bit blocks; 1191651 bytes (a multiple of 3) is a whole number of
# 12-bit blocks but not of 12-byte groups, and spans twelve full chunks
# and a partial one, whose first blocks fall on every phase of period 5;
# 399218 bytes (even, not a multiple of 16) spans three full 16-bit chunks
# and a partial one, each starting one phase of period 5 later
STREAM = {
    "w16-periodic": (["--maps", "xorfam", "--width", "16", "--count", "6",
                      "--sched", "periodic:6"], 6000,
                     "a83eb3353a9b16c30eec992951c2ef2b3b3653cf8364cd61d68413bf0f91faa4"),
    "w12-trace": (["--maps", "affine:11", "--width", "12", "--count", "5",
                   "--sched", "trace:{tm}"], 6000,
                  "f9f50a0676d5dfb83d8ee50cbd60eb5fdeed38439870d36229e165a449ef9444"),
    "w12-chunks": (["--maps", "affine:13", "--width", "12", "--count", "5",
                    "--sched", "periodic:5"], 1191651,
                   "e9546491c766d24bf88b77c4f706143147b9e66e57177dd72980d9bf1a6293b3"),
    "w16-chunks": (["--maps", "affine:17", "--width", "16", "--count", "5",
                    "--sched", "periodic:5"], 399218,
                   "b43564bee124a2cd7de3946371a1dbac428462fe02519b3998b27e01fd762c9b"),
    "w8-trace": (["--maps", "affine:19", "--width", "8", "--count", "6",
                  "--sched", "trace:{tm}"], 6000,
                 "17ce4ebc773ed185af11882a2e3fcdbc75b4a3cbf407b179eb62fde1c875825a"),
}


def test_chunked_stream_case_spans_chunks():
    for case, width in (("w12-chunks", 12), ("w16-chunks", 16)):
        chunk = CHUNK_GROUPS * width
        nbytes = STREAM[case][1]
        assert nbytes > 3 * chunk and nbytes % chunk and nbytes % width
        assert (8 * chunk // width) % 5  # block offsets move from chunk to chunk


@pytest.mark.parametrize("case", sorted(STREAM))
def test_stream_digests(case, counter_tm, tmp_path):
    flags, nbytes, digest = STREAM[case]
    flags = [flag.format(tm=counter_tm) for flag in flags]
    data = random.Random("golden-stream").randbytes(nbytes)
    src = tmp_path / "input.bits"
    src.write_bytes(data)
    fwd, back = tmp_path / "fwd", tmp_path / "back"
    assert main(["stream", "transform", "--in", str(src), "--out", str(fwd), *flags]) == 0
    assert _sha256(fwd / "stream.bits") == digest
    maps = flags[flags.index("--maps") + 1]
    argv = ["stream", "recover", "--in", str(fwd / "stream.bits"),
            "--out", str(back), "--maps", maps]
    assert main(argv) == 0
    assert (back / "recovered.bits").read_bytes() == data


# (flags, exit code, digest): random affine maps leak, mask pairs do not
SECRECY = {
    "exact": (["--dls", "affine:5", "--width", "8", "--states", "3"], 1,
              "da562691cb69bda3219b3169fa04bc59c9ae349164ed5d9d38d06d0e483e6026"),
    "sampled": (["--dls", "xorfam:5", "--width", "12", "--states", "2",
                 "--sample", "4000", "--rng", "seeded:3"], 0,
                "f5f59800cd998a373695cde7aada6eaa5012cb7d5c1aad200e9beed6360c9f2f"),
    # width 24 samples above SAMPLE_CHUNK observable cells
    "sampled-w24-xorfam": (["--dls", "xorfam:5", "--width", "24", "--states", "1",
                            "--sample", "10000", "--rng", "seeded:3"], 0,
                           "c0e7a84334eb07583b0935246c89a1fbdd1d616f2bc29a66925690feb8680f11"),
    "sampled-w24-affine": (["--dls", "affine:5", "--width", "24", "--states", "1",
                            "--sample", "10000", "--rng", "seeded:3"], 1,
                           "8d6adbebf9f12d4b27ea4e952faded516ef37aac393aca83df267adc5c3fba51"),
}


@pytest.mark.parametrize("case", sorted(SECRECY))
def test_verify_secrecy_digests(case, tmp_path):
    flags, code, digest = SECRECY[case]
    out = tmp_path / "secrecy"
    assert main(["verify-secrecy", *flags, "--out", str(out)]) == code
    assert _sha256(out / "report.txt") == digest


# run-utm at the benchmark's size, 3000 steps of the counter machine
RUN_UTM_LONG = {
    "xorfam": (
        "fd6436576d43b36f28f49b26c76174e159f7f436c6a0e5f455bfe65ec6afa9c3",
        "e16a38845591e7a7dd9fd74da9ffaa91ebdcdfdfb02a7bb09968002dd3bae88f",
    ),
    "affine:7": (
        "a87d02a87d300061dda057c5d839fca449d6b4ec2dded309ab3d7528f46285b6",
        "c05bb7233995ae283df3a8a4b97d1fa23349e47e414d120a00c677f25742feee",
    ),
}


@pytest.mark.parametrize("dls", sorted(RUN_UTM_LONG))
def test_run_utm_digests_3000_steps(dls, counter_tm, tmp_path):
    out = tmp_path / "run"
    argv = [
        "run-utm", "--tm", counter_tm, "--dls", dls,
        "--steps", "3000", "--rng", "seeded:7", "--out", str(out),
    ]
    assert main(argv) == 0
    trace, report = RUN_UTM_LONG[dls]
    assert _sha256(out / "trace.jsonl") == trace
    assert _sha256(out / "report.txt") == report


# (map, random part, logical bit, base tick) -> digest of the printed program.
# Re-pinned when compiled steps stopped ending with `ME go { E d0 .. E bit_out }`,
# which re-declared the output elements the program had just declared and so
# changed no firing; each program is the old text without that final block.
# Old digests: xorfam 452affa04a23ab729fb0df6132db8f547f122e3b2ca872871d2dc2d1d991bf63,
# affine 57b7add6855c9ee5b5ca6a690340204d8aa512e4b9e72b6b9dc485c7e75c24ea.
COMPILE_STEP = {
    "xorfam": (lambda: XorFamily(15, 0x2A53, 0x1C07, 1), 0x1234, 1, 9,
               "95c1abbbc1f100e98b321d3096e41b1151f1dcc49da89488e7cfa9f548a5f73e"),
    "affine": (lambda: random_affine_invertible(15, seed=99), 0x0F0F, 0, 6,
               "c04ad9fa23fa1b6005c51a133eda89ef7496636b14a9bf7f222de632b81fc749"),
}


@pytest.mark.parametrize("case", sorted(COMPILE_STEP))
def test_compile_step_program_digests(case):
    make_map, r, bit, base, digest = COMPILE_STEP[case]
    program = compile_step(make_map(), BitVec(14, r), bit, base)
    assert hashlib.sha256(print_program(program).encode()).hexdigest() == digest
