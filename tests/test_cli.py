"""End-to-end tests driving the command-line entry point in process."""

import json
import os
import resource
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import dynls
from dynls import cli, tm
from dynls.blockstream import CHUNK_GROUPS
from dynls.bitcore import XorFamily, identity_map, swap_coordinates, write_map
from dynls.cli import main
from dynls.tm import binary_incrementer, endless_counter, write_machine


@pytest.fixture
def counter_tm(tmp_path):
    program, config = endless_counter()
    path = tmp_path / "counter.tm"
    write_machine(program, config, path)
    return str(path)


@pytest.fixture
def incrementer_tm(tmp_path):
    program, config = binary_incrementer([1, 0, 1, 1, 1, 1])
    path = tmp_path / "inc.tm"
    write_machine(program, config, path)
    return str(path)


# ---------------------------------------------------------------------------
# run-utm


def test_run_utm_seeded_is_reproducible(counter_tm, tmp_path, capsys):
    traces = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = main(
            [
                "run-utm",
                "--tm", counter_tm,
                "--steps", "40",
                "--dls", "xorfam",
                "--rng", "seeded:7",
                "--out", str(out),
            ]
        )
        assert code == 0
        traces.append((out / "trace.jsonl").read_bytes())
    assert traces[0] == traces[1]
    assert b'"fired"' in traces[0]
    stdout = capsys.readouterr().out
    assert "violations=0" in stdout


def test_run_utm_other_seed_differs_same_verdict(counter_tm, tmp_path):
    outputs = {}
    for seed in (7, 8):
        out = tmp_path / f"seed{seed}"
        code = main(
            [
                "run-utm",
                "--tm", counter_tm,
                "--steps", "40",
                "--rng", f"seeded:{seed}",
                "--out", str(out),
            ]
        )
        assert code == 0
        outputs[seed] = (out / "trace.jsonl").read_bytes()
    assert outputs[7] != outputs[8]


def test_run_utm_writes_manifest(counter_tm, tmp_path):
    out = tmp_path / "run"
    assert (
        main(
            [
                "run-utm",
                "--tm", counter_tm,
                "--steps", "10",
                "--rng", "seeded:3",
                "--out", str(out),
            ]
        )
        == 0
    )
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["subcommand"] == "run-utm"
    assert manifest["source"] == {"kind": "seeded", "seed": 3}
    assert manifest["parameters"]["steps"] == 10
    assert (out / manifest["artifacts"]["report"]).exists()


def test_run_utm_halting_machine_reports_effective_steps(incrementer_tm, tmp_path):
    out = tmp_path / "halt"
    code = main(
        [
            "run-utm",
            "--tm", incrementer_tm,
            "--steps", "500",
            "--rng", "seeded:1",
            "--out", str(out),
        ]
    )
    assert code == 0
    report = (out / "report.txt").read_text()
    assert "steps=5/500" in report
    assert "violations=0" in report



def test_run_utm_runs_the_tape_machine_once(counter_tm, tmp_path, monkeypatch):
    calls = []
    real_run = tm.run

    def counted(*args, **kwargs):
        calls.append(args)
        return real_run(*args, **kwargs)

    monkeypatch.setattr(tm, "run", counted)
    code = main(
        [
            "run-utm",
            "--tm", counter_tm,
            "--steps", "30",
            "--rng", "seeded:1",
            "--out", str(tmp_path / "once"),
        ]
    )
    assert code == 0
    assert len(calls) == 1


def test_run_utm_machine_without_a_start_rule(tmp_path):
    # the blank tape starts the machine on (0, 0), which has no rule
    tm_path = tmp_path / "stuck.tm"
    tm_path.write_text("states=2\nalphabet=2\n1 0 -> 0 0 R\n")
    out = tmp_path / "stuck"
    code = main(
        [
            "run-utm",
            "--tm", str(tm_path),
            "--steps", "10",
            "--rng", "seeded:1",
            "--out", str(out),
        ]
    )
    assert code == 0
    report = (out / "report.txt").read_text()
    assert "steps=0/10" in report
    assert "violations=0" in report
    assert (out / "trace.jsonl").read_bytes() == b""

def test_run_utm_file_family_runs_at_its_own_width(counter_tm, tmp_path, capsys):
    program, config = tm.read_machine(counter_tm)
    mapdir = tmp_path / "maps"
    mapdir.mkdir()
    for q, a in set(tm.instruction_trace(program, config, 40)):
        write_map(XorFamily(6, 5 * q + a, 3, a & 1), mapdir / f"q{q}a{a}.map")
    out = tmp_path / "o"
    code = main(["run-utm", "--tm", counter_tm, "--steps", "40", "--dls", f"file:{mapdir}",
                 "--rng", "seeded:1", "--out", str(out)])
    assert code == 0
    assert "violations=0" in capsys.readouterr().out
    fired = {name for line in (out / "trace.jsonl").read_text().splitlines()
             for name in json.loads(line)["fired"]}
    assert "d4" in fired and "d5" not in fired  # five observable outputs, d0..d4


def test_run_utm_missing_tm_file(tmp_path, capsys):
    code = main(
        [
            "run-utm",
            "--tm", str(tmp_path / "nope.tm"),
            "--steps", "10",
            "--rng", "seeded:1",
            "--out", str(tmp_path / "out"),
        ]
    )
    assert code == 2
    assert "dynls:" in capsys.readouterr().err


def test_run_utm_os_entropy(counter_tm, tmp_path):
    code = main(
        [
            "run-utm",
            "--tm", counter_tm,
            "--steps", "12",
            "--rng", "os",
            "--out", str(tmp_path / "os"),
        ]
    )
    assert code == 0


def test_run_utm_unreachable_qrng_is_source_failure(counter_tm, tmp_path, capsys):
    code = main(
        [
            "run-utm",
            "--tm", counter_tm,
            "--steps", "5",
            "--rng", "qrng:http://127.0.0.1:9/entropy",
            "--out", str(tmp_path / "q"),
        ]
    )
    assert code == 3
    assert "source failure" in capsys.readouterr().err


def test_qrng_without_url_is_usage_error(counter_tm, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("DLS_QRNG_URL", raising=False)
    code = main(
        [
            "run-utm",
            "--tm", counter_tm,
            "--steps", "5",
            "--rng", "qrng",
            "--out", str(tmp_path / "q"),
        ]
    )
    assert code == 2
    assert "DLS_QRNG_URL" in capsys.readouterr().err


def test_bad_rng_spec(counter_tm, tmp_path, capsys):
    code = main(
        [
            "run-utm",
            "--tm", counter_tm,
            "--steps", "5",
            "--rng", "dice",
            "--out", str(tmp_path / "o"),
        ]
    )
    assert code == 2


def test_no_subcommand_prints_usage(capsys):
    assert main([]) == 2
    assert "usage" in capsys.readouterr().err.lower()


# ---------------------------------------------------------------------------
# verify-secrecy


def test_verify_secrecy_xorfam_passes(capsys):
    code = main(["verify-secrecy", "--dls", "xorfam:5", "--width", "8"])
    assert code == 0
    out = capsys.readouterr().out
    assert "max_tv=0/1" in out
    assert "pass=true" in out


def test_verify_secrecy_leaky_family_fails(tmp_path, capsys):
    # moving the hidden coordinate into the observable part leaks the bit
    mapdir = tmp_path / "maps"
    mapdir.mkdir()
    write_map(swap_coordinates(3, 0, 2), mapdir / "s0.map")
    code = main(["verify-secrecy", "--dls", f"file:{mapdir}"])
    assert code == 1
    assert "pass=false" in capsys.readouterr().out


@pytest.mark.parametrize("sample", [[], ["--sample", "1000"]])
def test_verify_secrecy_rejects_mixed_widths(tmp_path, capsys, sample):
    mapdir = tmp_path / "maps"
    mapdir.mkdir()
    write_map(XorFamily(6, 1, 2, 1), mapdir / "a.map")
    write_map(XorFamily(8, 3, 4, 0), mapdir / "b.map")
    code = main(["verify-secrecy", "--dls", f"file:{mapdir}", *sample])
    assert code == 2
    assert "family mixes widths [6, 8]" in capsys.readouterr().err


def _width_one_dir(tmp_path):
    mapdir = tmp_path / "maps"
    mapdir.mkdir()
    (mapdir / "bit.map").write_text("width=1 kind=perm\n0 1\n1 0\n")
    return f"file:{mapdir}"


@pytest.mark.parametrize(
    "argv, width",
    [
        (["verify-secrecy", "--dls", "FILE"], 1),
        (["verify-secrecy", "--dls", "FILE", "--sample", "100"], 1),
        (["verify-secrecy", "--dls", "affine:3", "--width", "1"], 1),
        (["verify-secrecy", "--dls", "xorfam", "--width", "0"], 0),
        (["stream", "transform", "--in", "IN", "--out", "OUT", "--maps", "xorfam",
          "--width", "1", "--count", "2", "--sched", "periodic:2"], 1),
    ],
    ids=["file-exact", "file-sampled", "affine", "xorfam-0", "stream"],
)
def test_families_need_an_observable_coordinate(tmp_path, capsys, argv, width):
    # one width-1 map is the hidden bit alone; exact secrecy used to pass it
    src = tmp_path / "in.bits"
    src.write_bytes(bytes(4))
    spots = {"FILE": _width_one_dir(tmp_path), "IN": str(src), "OUT": str(tmp_path / "out")}
    assert main([spots.get(arg, arg) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("dynls:") and err.count("\n") == 1, err
    assert "width" in err and f"got {width}" in err, err
    assert not (tmp_path / "out").exists() or not any((tmp_path / "out").iterdir())


def test_bad_map_file_is_named(tmp_path, capsys):
    mapdir = tmp_path / "maps"
    mapdir.mkdir()
    for state in range(12):
        write_map(XorFamily(4, state % 8, 2, 1), mapdir / f"{state}.map")
    (mapdir / "7.map").write_text("width=4 kind=xorfam\nmask0=5 mask1=2\n")
    assert main(["verify-secrecy", "--dls", f"file:{mapdir}"]) == 2
    err = capsys.readouterr().err
    assert err == f"dynls: {mapdir / '7.map'}: missing 'flip' field\n"


def test_bad_machine_rule_names_file_and_line(tmp_path, capsys):
    tm = tmp_path / "bad.tm"
    tm.write_text("states=2\nalphabet=2\n0 0 -> 1 1 R\n0 x -> 1 1 R\n")
    assert main(["run-utm", "--tm", str(tm), "--steps", "5", "--rng", "seeded:1",
                 "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err == f"dynls: {tm}: line 4: invalid literal for int() with base 10: 'x'\n"


@pytest.mark.parametrize("flags", [["--states", "0"], ["--sample", "0"]])
def test_verify_secrecy_needs_states_and_samples(flags, capsys):
    code = main(["verify-secrecy", "--dls", "xorfam", "--width", "4", *flags])
    assert code == 2
    assert capsys.readouterr().err.startswith("dynls:")


def test_verify_secrecy_width_cap_needs_sample(capsys):
    code = main(["verify-secrecy", "--dls", "xorfam", "--width", "21"])
    assert code == 2
    assert "sampled mode" in capsys.readouterr().err


def test_verify_secrecy_sampled_mode(capsys):
    code = main(
        [
            "verify-secrecy",
            "--dls", "xorfam:9",
            "--width", "8",
            "--states", "4",
            "--sample", "20000",
            "--rng", "seeded:17",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "samples=20000" in out
    assert "pass=true" in out


def _child_env():
    src = str(Path(dynls.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}


def test_wide_sampled_mode_runs_in_350_mb_of_address_space():
    # a width-24 table alone is 128 MiB; the sampled mode builds none
    limit = 350 * 10**6

    def lower_limit():
        resource.setrlimit(resource.RLIMIT_AS, (limit, resource.getrlimit(resource.RLIMIT_AS)[1]))

    argv = [sys.executable, "-m", "dynls.cli", "verify-secrecy", "--dls", "xorfam:3",
            "--width", "24", "--sample", "10000", "--rng", "seeded:3"]
    out = subprocess.run(argv, env=_child_env(), preexec_fn=lower_limit,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert "samples=10000 alpha=0.001 pass=true" in out.stdout


def test_sampled_report_leaves_out_scipy_stats():
    code = (
        "import sys; from dynls.dls_engine import derived_xor_family, sampled_secrecy_report; "
        "sampled_secrecy_report(derived_xor_family(12, [0], 1), 1000, 1); "
        "print('scipy.special' in sys.modules, 'scipy.stats' in sys.modules)"
    )
    out = subprocess.run([sys.executable, "-c", code], env=_child_env(),
                         capture_output=True, text=True, timeout=120, check=True)
    assert out.stdout.split() == ["True", "False"]


def test_out_of_memory_is_a_usage_error(tmp_path, monkeypatch, capsys):
    # an allocation failure is not a verdict: exit 2, one line, no traceback
    def allocate(*args, **kwargs):
        raise MemoryError(
            "Unable to allocate 7.45 GiB for an array with shape (1000000000,) "
            "and data type int64"
        )

    monkeypatch.setattr(cli, "sampled_secrecy_report", allocate)
    out = tmp_path / "sec"
    argv = ["verify-secrecy", "--dls", "xorfam", "--width", "10", "--states", "1",
            "--sample", "1000000000", "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("dynls: Unable to allocate 7.45 GiB")
    assert "Traceback" not in err
    assert not out.exists() or not any(out.iterdir())


def test_verify_secrecy_artifacts(tmp_path):
    out = tmp_path / "sec"
    code = main(
        [
            "verify-secrecy",
            "--dls", "xorfam",
            "--width", "5",
            "--states", "3",
            "--out", str(out),
        ]
    )
    assert code == 0
    assert "pass=true" in (out / "report.txt").read_text()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["subcommand"] == "verify-secrecy"


# ---------------------------------------------------------------------------
# stream


def stream_args(mode, infile, outdir, **kw):
    argv = ["stream", mode, "--in", str(infile), "--out", str(outdir)]
    for key, value in kw.items():
        argv += [f"--{key}", str(value)]
    return argv


def test_stream_round_trip(tmp_path):
    payload = os.urandom(1200)  # 9600 bits = 600 blocks of 16
    src = tmp_path / "input.bits"
    src.write_bytes(payload)

    code = main(
        stream_args(
            "transform", src, tmp_path / "fwd",
            maps="xorfam:5", width=16, count=6, sched="periodic:6",
        )
    )
    assert code == 0
    transformed = tmp_path / "fwd" / "stream.bits"
    assert transformed.read_bytes() != payload
    meta = (tmp_path / "fwd" / "stream.bits.meta").read_text()
    assert meta == "n=16 m=6 sched=periodic:6\n"

    code = main(
        stream_args("recover", transformed, tmp_path / "back", maps="xorfam:5")
    )
    assert code == 0
    assert (tmp_path / "back" / "recovered.bits").read_bytes() == payload


def test_stream_identity_maps_pass_through(tmp_path):
    mapdir = tmp_path / "maps"
    mapdir.mkdir()
    for i in range(3):
        write_map(identity_map(8), mapdir / f"{i}.map")
    payload = bytes(range(64))
    src = tmp_path / "in.bits"
    src.write_bytes(payload)
    code = main(
        stream_args(
            "transform", src, tmp_path / "out",
            maps=f"file:{mapdir}", width=8, count=3, sched="periodic:3",
        )
    )
    assert code == 0
    assert (tmp_path / "out" / "stream.bits").read_bytes() == payload


def test_stream_trace_schedule_round_trip(tmp_path, counter_tm):
    payload = os.urandom(300)  # 2400 bits = 300 blocks of 8
    src = tmp_path / "in.bits"
    src.write_bytes(payload)
    sched = f"trace:{counter_tm}"
    code = main(
        stream_args(
            "transform", src, tmp_path / "fwd",
            maps="affine:3", width=8, count=5, sched=sched,
        )
    )
    assert code == 0
    code = main(
        stream_args(
            "recover", tmp_path / "fwd" / "stream.bits", tmp_path / "back",
            maps="affine:3",
        )
    )
    assert code == 0
    assert (tmp_path / "back" / "recovered.bits").read_bytes() == payload


def test_stream_length_not_divisible(tmp_path, capsys):
    src = tmp_path / "in.bits"
    src.write_bytes(bytes(100))  # 800 bits, not divisible by 15
    code = main(
        stream_args(
            "transform", src, tmp_path / "out",
            maps="xorfam:1", width=15, count=2, sched="periodic:2",
        )
    )
    assert code == 2
    assert "not divisible" in capsys.readouterr().err


def test_stream_failure_leaves_no_artifact(tmp_path):
    # the length check fails only after every chunk has been written
    src = tmp_path / "in.bits"
    src.write_bytes(bytes(CHUNK_GROUPS * 15 * 3 + 1))
    out = tmp_path / "out"
    code = main(
        stream_args(
            "transform", src, out, maps="xorfam:1", width=15, count=2, sched="periodic:2",
        )
    )
    assert code == 2
    assert list(out.iterdir()) == []


def test_stream_memory_follows_chunks_not_file(tmp_path):
    chunk = CHUNK_GROUPS * 16
    peaks = {}
    for nchunks in (8, 32):
        src = tmp_path / f"in{nchunks}.bits"
        src.write_bytes(os.urandom(nchunks * chunk + 6 * 16))
        argv = stream_args(
            "transform", src, tmp_path / f"out{nchunks}",
            maps="xorfam:2", width=16, count=6, sched="periodic:6",
        )
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peaks[nchunks] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    # the peak holds one chunk's buffers and the tables, whatever the length
    assert peaks[32] < peaks[8] + chunk
    assert peaks[32] < 32 * chunk


def test_stream_recover_needs_sidecar(tmp_path, capsys):
    src = tmp_path / "orphan.bits"
    src.write_bytes(bytes(16))
    code = main(stream_args("recover", src, tmp_path / "out", maps="xorfam:1"))
    assert code == 2


def test_stream_transform_needs_shape_flags(tmp_path, capsys):
    src = tmp_path / "in.bits"
    src.write_bytes(bytes(16))
    code = main(stream_args("transform", src, tmp_path / "out", maps="xorfam:1"))
    assert code == 2
    assert "--width" in capsys.readouterr().err


def test_stream_maps_must_match_the_block_width(tmp_path, capsys):
    # run anyway, width-3 maps would write n=4 to the sidecar
    mapdir = tmp_path / "maps"
    mapdir.mkdir()
    write_map(identity_map(3), mapdir / "0.map")
    src = tmp_path / "in.bits"
    src.write_bytes(bytes(24))
    out = tmp_path / "out"
    argv = stream_args("transform", src, out, maps=f"file:{mapdir}", width=4, count=1,
                       sched="periodic:1")
    assert main(argv) == 2
    assert "block width 4 does not match the maps' width 3" in capsys.readouterr().err
    assert list(out.iterdir()) == []


_SWAP_ROWS = ("0 1", "1 0", "2 3", "3 2")  # a width-2 perm .map body


@pytest.mark.parametrize(
    "row, command",
    [
        ((2, "9 2"), "stream"),    # input out of range
        ((3, "-1 2"), "stream"),   # input out of range; list indexing reads it as 3
        ((3, "3 9"), "secrecy"),   # image out of range
        ((3, "3 9"), "stream"),
    ],
    ids=["input-9", "input-minus-1", "image-9-secrecy", "image-9-stream"],
)
def test_perm_map_outside_its_domain_is_a_usage_error(tmp_path, capsys, row, command):
    rows = list(_SWAP_ROWS)
    rows[row[0]] = row[1]
    mapdir = tmp_path / "maps"
    mapdir.mkdir()
    (mapdir / "0.map").write_text("width=2 kind=perm\n" + "\n".join(rows) + "\n")
    src = tmp_path / "in.bits"
    src.write_bytes(bytes(4))
    argv = {
        "secrecy": ["verify-secrecy", "--dls", f"file:{mapdir}"],
        "stream": stream_args("transform", src, tmp_path / "out", maps=f"file:{mapdir}",
                              width=2, count=1, sched="periodic:1"),
    }[command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("dynls:") and "0..3" in err
