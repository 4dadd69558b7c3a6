"""End-to-end tests driving the command-line entry point in process."""

import json
import os
import tracemalloc

import pytest

from dynls import cli, tm
from dynls.blockstream import CHUNK_GROUPS
from dynls.bitcore import identity_map, swap_coordinates, write_map
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


def test_verify_secrecy_width_cap_needs_sample(capsys):
    code = main(["verify-secrecy", "--dls", "xorfam", "--width", "21"])
    assert code == 2
    assert "--sample" in capsys.readouterr().err


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
