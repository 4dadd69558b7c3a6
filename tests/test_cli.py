"""End-to-end tests driving the command-line entry point in process."""

import json
import os
import resource
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

import dynls
from dynls import cli, tm
from dynls.blockstream import CHUNK_GROUPS
from dynls.bitcore import Affine, XorFamily, swap_coordinates, write_map
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

def test_run_utm_rule_less_machine_is_an_empty_library_run(tmp_path, monkeypatch):
    # the library's empty-run rule is the only one: the CLI hands it the run
    calls = []
    real = cli.run_utm_realization

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(cli, "run_utm_realization", counted)
    tm_path = tmp_path / "none.tm"
    tm_path.write_text("states=1\nalphabet=2\n")
    out = tmp_path / "none"
    argv = ["run-utm", "--tm", str(tm_path), "--steps", "10", "--rng", "seeded:1"]
    assert main([*argv, "--out", str(out)]) == 0
    assert len(calls) == 1
    assert (out / "report.txt").read_text() == "steps=0/10\nviolations=0\ndistinct_observables=0\n"
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


def _stuck_tm(tmp_path):
    # the blank tape starts the machine on (0, 0), which has no rule
    path = tmp_path / "stuck.tm"
    path.write_text("states=2\nalphabet=2\n1 0 -> 0 0 R\n")
    return str(path)


_FAMILIES = "expected one of xorfam[:<seed>], affine:<seed>, file:<dir>"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["run-utm", "--tm", "COUNTER", "--steps", "5", "--dls", "bogus", "--out", "OUT"],
         f"bad spec 'bogus'; {_FAMILIES}"),
        # no step to map, so only an early check sees the spec
        (["run-utm", "--tm", "STUCK", "--steps", "5", "--dls", "bogus", "--out", "OUT"],
         f"bad spec 'bogus'; {_FAMILIES}"),
        (["run-utm", "--tm", "COUNTER", "--steps", "5", "--rng", "dice", "--out", "OUT"],
         "bad spec 'dice'; expected one of seeded:<u64>, os, qrng[:<url>]"),
        (["run-utm", "--tm", "COUNTER", "--steps", "5", "--rng", "seeded:x", "--out", "OUT"],
         "'seeded:x': <u64> must be an integer"),
        (["stream", "transform", "--in", "COUNTER", "--maps", "xorfam", "--width", "8",
          "--count", "2", "--sched", "weekly", "--out", "OUT"],
         "bad spec 'weekly'; expected one of periodic:<p>, trace:<file>"),
        (["stream", "transform", "--in", "MISSING", "--maps", "xorfam", "--width", "8",
          "--count", "2", "--sched", "periodic:2", "--out", "OUT"], "No such file"),
        (["stream", "recover", "--in", "MISSING", "--maps", "xorfam", "--out", "OUT"],
         "No such file"),
        (["verify-secrecy", "--dls", "affine", "--width", "4", "--out", "OUT"],
         f"bad spec 'affine'; {_FAMILIES}"),
        (["run-utm", "--tm", "COUNTER", "--steps", "0", "--out", "OUT"],
         "--steps must be >= 1, got 0"),
        (["run-utm", "--tm", "COUNTER", "--steps", "5", "--rng", f"seeded:{2**64}", "--out",
          "OUT"], f"seed must fit in 64 bits, got {2**64}"),
        (["run-utm", "--tm", "COUNTER", "--steps", "5", "--dls", "file:TMP", "--out", "OUT"],
         "no map file for state (0, 0): "),
        (["verify-secrecy", "--dls", "xorfam", "--out", "OUT"],
         "--width is required for derived families"),
        (["stream", "transform", "--in", "COUNTER", "--maps", "xorfam", "--width", "8",
          "--count", "2", "--sched", "periodic:3", "--out", "OUT"],
         "period must be in 1..2, got 3"),
        (["stream", "transform", "--in", "COUNTER", "--maps", "xorfam", "--width", "8",
          "--count", "2", "--sched", "trace:STUCK", "--out", "OUT"],
         "schedule machine halts before its first step"),
        (["stream", "transform", "--in", "COUNTER", "--maps", "xorfam", "--width", "8",
          "--count", "0", "--sched", "periodic:1", "--out", "OUT"],
         "map count must be >= 1, got 0"),
        (["verify-secrecy", "--dls", "file:MISSING", "--out", "OUT"], "no map directory "),
        # with no states, only the width check sees a bad --width
        (["verify-secrecy", "--dls", "xorfam:1", "--width", "99", "--states", "0", "--out",
          "OUT"], "width must be in 1..24, got 99"),
        (["verify-secrecy", "--dls", "affine:1", "--width", "99", "--states", "0", "--out",
          "OUT"], "width must be in 1..24, got 99"),
    ],
    ids=["dls", "dls-no-steps", "rng", "seed", "sched", "transform-no-input",
         "recover-no-input", "secrecy", "steps", "seed-range", "no-map-file", "no-width",
         "period", "sched-halts", "count", "no-map-dir", "xorfam-no-states",
         "affine-no-states"],
)
def test_failed_inputs_leave_no_out_directory(tmp_path, counter_tm, capsys, argv, message):
    out = tmp_path / "out"
    stuck = _stuck_tm(tmp_path)
    spots = {"COUNTER": counter_tm, "STUCK": stuck, "trace:STUCK": f"trace:{stuck}",
             "file:TMP": f"file:{tmp_path}", "MISSING": str(tmp_path / "missing.bits"),
             "file:MISSING": f"file:{tmp_path / 'missing'}", "OUT": str(out)}
    assert main([spots.get(arg, arg) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("dynls:") and message in err, err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["run-utm", "--tm", "COUNTER", "--steps", "5", "--rng", "qrng:", "--out", "OUT"],
        ["run-utm", "--tm", "COUNTER", "--steps", "5", "--dls", "file:", "--out", "OUT"],
        ["verify-secrecy", "--dls", "xorfam:", "--width", "4", "--out", "OUT"],
        ["stream", "transform", "--in", "COUNTER", "--maps", "affine:", "--width", "8",
         "--count", "2", "--sched", "periodic:2", "--out", "OUT"],
        ["stream", "transform", "--in", "COUNTER", "--maps", "xorfam", "--width", "8",
         "--count", "2", "--sched", "trace:", "--out", "OUT"],
    ],
    ids=["qrng", "file", "xorfam", "affine", "trace"],
)
def test_every_spec_needs_a_value_after_its_colon(tmp_path, counter_tm, capsys, monkeypatch,
                                                  argv):
    # an empty qrng: no longer falls back to the environment; a bare qrng does
    monkeypatch.setenv("DLS_QRNG_URL", "http://127.0.0.1:9/entropy")
    out = tmp_path / "out"
    spots = {"COUNTER": counter_tm, "OUT": str(out)}
    assert main([spots.get(arg, arg) for arg in argv]) == 2
    assert "after the colon" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, forms",
    [
        (["run-utm"], ["FAMILY_FORMS", "RNG_FORMS"]),
        (["verify-secrecy"], ["FAMILY_FORMS", "RNG_FORMS"]),
        (["stream", "transform"], ["FAMILY_FORMS", "SCHEDULE_FORMS"]),
        (["stream", "recover"], ["FAMILY_FORMS"]),
    ],
    ids=["run-utm", "verify-secrecy", "stream-transform", "stream-recover"],
)
def test_help_lists_every_spec_form(command, forms, capsys, monkeypatch):
    monkeypatch.setitem(cli.FAMILY_FORMS, "fresh", ":<x>")  # a form added to a dict
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    with pytest.raises(SystemExit):
        main([*command, "--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    for name in forms:
        for kind, shape in getattr(cli, name).items():
            assert kind + shape in help_text


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
def test_verify_secrecy_report_splits_into_tokens_when_a_state_has_a_space(
    tmp_path, capsys, sample
):
    mapdir = tmp_path / "maps"
    mapdir.mkdir()
    write_map(XorFamily(4, 1, 2, 1), mapdir / "a b.map")
    write_map(XorFamily(4, 3, 4, 0), mapdir / "c.map")
    assert main(["verify-secrecy", "--dls", f"file:{mapdir}", *sample]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines[:4]] == [
        r"state='a\x20b'", r"state='a\x20b'", "state='c'", "state='c'"
    ]
    for line in lines:
        fields = [token.partition("=") for token in line.split()]
        assert all(key and sep and value for key, sep, value in fields), line


@pytest.mark.parametrize("sample", [[], ["--sample", "1000"]])
def test_verify_secrecy_rejects_mixed_widths(tmp_path, capsys, sample):
    mapdir = tmp_path / "maps"
    mapdir.mkdir()
    write_map(XorFamily(6, 1, 2, 1), mapdir / "a.map")
    write_map(XorFamily(8, 3, 4, 0), mapdir / "b.map")
    code = main(["verify-secrecy", "--dls", f"file:{mapdir}", *sample])
    assert code == 2
    assert "family mixes widths [6, 8]" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--width", "4"], None),
        (["--width", "9"], "--width 9 does not match the maps' width 4"),
        (["--states", "5"], "--states does not apply to a file: family"),
        (["--width", "4", "--states", "2"], "--states does not apply to a file: family"),
    ],
    ids=["same-width", "other-width", "states", "states-and-width"],
)
def test_verify_secrecy_file_family_sets_width_and_states(tmp_path, capsys, flags, message):
    mapdir = tmp_path / "maps"
    mapdir.mkdir()
    write_map(XorFamily(4, 1, 2, 1), mapdir / "a.map")
    write_map(XorFamily(4, 3, 4, 0), mapdir / "b.map")
    out = tmp_path / "o"
    code = main(["verify-secrecy", "--dls", f"file:{mapdir}", *flags, "--out", str(out)])
    if message is None:
        assert code == 0
        parameters = json.loads((out / "manifest.json").read_text())["parameters"]
        assert (parameters["width"], parameters["states"]) == (4, 2)
    else:
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"dynls: {message}") and err.count("\n") == 1, err
        assert not out.exists()


def test_verify_secrecy_empty_file_family(tmp_path, capsys):
    (tmp_path / "maps").mkdir()
    assert main(["verify-secrecy", "--dls", f"file:{tmp_path / 'maps'}", "--width", "4"]) == 2
    assert capsys.readouterr().err == "dynls: map family is empty\n"


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


@pytest.mark.parametrize(
    "header, message",
    [
        ("states=x\nalphabet=2", "line 1: states must be an integer, got 'x'"),
        ("states=2\nalphabet=2\ntape=1,x@0",
         "line 3: tape must be <codes>@<head> in integers, got '1,x@0'"),
        ("states=2\nalphabet=2\nstart=q", "line 3: start must be an integer, got 'q'"),
        ("states=2\nalphabet=2\nstrat=1", "line 3: unknown header field 'strat'"),
        ("states=2\nalphabet=2\nstates=3", "line 3: duplicate header field 'states'"),
    ],
    ids=["states", "tape", "start", "unknown", "repeated"],
)
def test_bad_machine_header_names_field_and_line(tmp_path, capsys, header, message):
    tm = tmp_path / "h.tm"
    tm.write_text(f"{header}\n0 0 -> 1 1 R\n")
    out = tmp_path / "o"
    assert main(["run-utm", "--tm", str(tm), "--steps", "5", "--rng", "seeded:1",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"dynls: {tm}: {message}\n"
    assert not out.exists() or not any(out.iterdir())


_XORFAM_BODY = "mask0=1 mask1=2 flip=1"


@pytest.mark.parametrize(
    "kind, text, message",
    [
        ("map", f"width=3 kind=xorfam junk\n{_XORFAM_BODY}", "unknown field 'junk'"),
        ("map", f"width=3 width=4 kind=xorfam\n{_XORFAM_BODY}", "repeated field 'width'"),
        ("map", "width=3 kind=xorfam\nmask0=1 mask0=2 mask1=2 flip=1", "repeated field 'mask0'"),
        ("map", "width=3 kind=xorfam\nmask0=1 mask1 flip=1", "field 'mask1' has no value"),
        ("meta", "n=16 n=12 m=6 m=6 sched=periodic:6 junk=1", "repeated field 'n'"),
        ("meta", "n=4 m=3 sched=periodic:3\nn=4",
         "sidecar must be one line, n=<width> m=<count> sched=<spec>"),
    ],
    ids=["map-unknown", "map-repeated", "xorfam-repeated", "xorfam-no-value", "sidecar",
         "sidecar-two-lines"],
)
def test_key_value_fields_are_known_and_given_once(tmp_path, capsys, kind, text, message):
    src = tmp_path / "in.bits"
    src.write_bytes(bytes(24))  # whole blocks of 12 and 16 bits
    out = tmp_path / "out"
    if kind == "map":
        path = tmp_path / "maps" / "0.map"
        path.parent.mkdir()
        argv = ["verify-secrecy", "--dls", f"file:{path.parent}", "--out", str(out)]
    else:
        path = tmp_path / "in.bits.meta"
        argv = stream_args("recover", src, out, maps="xorfam:1")
    path.write_text(text + "\n")
    assert main(argv) == 2
    assert capsys.readouterr().err == f"dynls: {path}: {message}\n"
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("flags", [["--states", "0"], ["--sample", "0"]])
def test_verify_secrecy_needs_states_and_samples(flags, capsys):
    code = main(["verify-secrecy", "--dls", "xorfam", "--width", "4", *flags])
    assert code == 2
    assert capsys.readouterr().err.startswith("dynls:")


def test_verify_secrecy_exact_mode_has_no_width_cap(capsys):
    code = main(["verify-secrecy", "--dls", "xorfam", "--width", "21"])
    assert code == 0
    assert capsys.readouterr().out.endswith("max_tv=0/1 pass=true\n")


@pytest.mark.parametrize("dls, code", [("affine:5", 1), ("xorfam:5", 0)])
def test_exact_affine_families_at_width_24_in_under_a_second(dls, code, capsys):
    start = time.perf_counter()
    argv = ["verify-secrecy", "--dls", dls, "--width", "24", "--states", "12"]
    assert main(argv) == code
    assert time.perf_counter() - start < 1.0
    assert len(capsys.readouterr().out.splitlines()) == 2 * 12 + 1


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


def test_sampled_os_run_replays_from_its_derived_seed(tmp_path):
    # six rows each tested at alpha = 0.001 fail a uniform family now and
    # then, so the replay must match the OS run's verdict, not a pass
    argv = ["verify-secrecy", "--dls", "xorfam:5", "--width", "8", "--states", "3",
            "--sample", "2000"]
    code = main([*argv, "--rng", "os", "--out", str(tmp_path / "os")])
    assert code in (cli.EXIT_PASS, cli.EXIT_VIOLATION)
    manifest = json.loads((tmp_path / "os" / "manifest.json").read_text())
    assert manifest["source"]["kind"] == "os"
    seed = manifest["source"]["derived_seed"]
    assert main([*argv, "--rng", f"seeded:{seed}", "--out", str(tmp_path / "seeded")]) == code
    report = (tmp_path / "os" / "report.txt").read_bytes()
    assert report == (tmp_path / "seeded" / "report.txt").read_bytes()


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


def test_sampled_report_loads_no_scipy():
    code = (
        "import sys; from dynls.dls_engine import derived_xor_family, sampled_secrecy_report; "
        "sampled_secrecy_report(derived_xor_family(12, [0], 1), 1000, 1); "
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=_child_env(),
                         capture_output=True, text=True, timeout=120, check=True)
    assert out.stdout.strip() == "[]"


def test_secrecy_golden_reports_without_scipy(tmp_path):
    # every secrecy report of test_golden, in a child whose imports of
    # scipy fail
    from test_golden import SECRECY

    code = (
        "import contextlib, hashlib, io, json, sys\n"
        "class RefuseScipy:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name.partition('.')[0] == 'scipy':\n"
        "            raise ImportError(f'{name} is refused')\n"
        "sys.meta_path.insert(0, RefuseScipy())\n"
        "from dynls.cli import main\n"
        "got = {}\n"
        "for case, flags in json.loads(sys.argv[1]).items():\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        exit_code = main(['verify-secrecy', *flags, '--out', case])\n"
        "    with open(f'{case}/report.txt', 'rb') as fh:\n"
        "        got[case] = [exit_code, hashlib.sha256(fh.read()).hexdigest()]\n"
        "print(json.dumps(got))\n"
    )
    flags = json.dumps({case: flags for case, (flags, _, _) in SECRECY.items()})
    out = subprocess.run([sys.executable, "-c", code, flags], env=_child_env(), cwd=tmp_path,
                         capture_output=True, text=True, timeout=120, check=True)
    want = {case: [exit_code, digest] for case, (_, exit_code, digest) in SECRECY.items()}
    assert json.loads(out.stdout) == want


def test_numpy_loads_only_with_the_stream(counter_tm, tmp_path):
    # run-utm and the exact coset certificate run on ints; the stream's kernel
    # is the first of these paths to load numpy
    (tmp_path / "data.bin").write_bytes(bytes(range(256)) * 6)
    code = (
        "import sys, dynls.cli\n"
        "main, loaded = dynls.cli.main, []\n"
        f"codes = [main(['run-utm', '--tm', {counter_tm!r}, '--steps', '50',\n"
        "               '--dls', 'affine:7', '--rng', 'seeded:7', '--out', 'utm']),\n"
        "         main(['verify-secrecy', '--dls', 'affine:3', '--width', '12', '--out', 'sec'])]\n"
        "loaded.append('numpy' in sys.modules)\n"
        "codes.append(main(['stream', 'transform', '--in', 'data.bin', '--maps', 'xorfam:5',\n"
        "                   '--width', '16', '--count', '6', '--sched', 'periodic:6',\n"
        "                   '--out', 'fwd']))\n"
        "loaded.append('numpy' in sys.modules)\n"
        "print(codes, loaded)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=_child_env(), cwd=tmp_path,
                         capture_output=True, text=True, timeout=120, check=True)
    # a random affine family leaks its bit, so the certificate's verdict is 1
    assert out.stdout.splitlines()[-1] == "[0, 1, 0] [False, True]"
    assert "steps=50/50" in (tmp_path / "utm" / "report.txt").read_text()
    assert "pass=false" in (tmp_path / "sec" / "report.txt").read_text()


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
        write_map(Affine.identity(8), mapdir / f"{i}.map")
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


def test_stream_trace_path_with_a_space_round_trips(tmp_path, counter_tm):
    machine = tmp_path / "my dir" / "c.tm"
    machine.parent.mkdir()
    machine.write_bytes(Path(counter_tm).read_bytes())
    payload = os.urandom(300)
    src = tmp_path / "in.bits"
    src.write_bytes(payload)
    argv = stream_args("transform", src, tmp_path / "fwd", maps="affine:3", width=8, count=5,
                       sched=f"trace:{machine}")
    assert main(argv) == 0
    meta = (tmp_path / "fwd" / "stream.bits.meta").read_text()
    assert meta == f"n=8 m=5 sched=trace:{machine}\n"
    argv = stream_args("recover", tmp_path / "fwd" / "stream.bits", tmp_path / "back",
                       maps="affine:3")
    assert main(argv) == 0
    assert (tmp_path / "back" / "recovered.bits").read_bytes() == payload


@pytest.mark.parametrize(
    "maps, width, sched",
    [("xorfam:5", 16, "periodic:6"), ("affine:3", 12, "trace")],
    ids=["xorfam-w16", "affine-w12-trace"],
)
def test_stream_builds_one_table_per_map(tmp_path, counter_tm, monkeypatch, maps, width, sched):
    # each mode expands only the maps it runs: recover inverts them first
    calls = {"to_table_array": 0, "invert": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    for cls in (XorFamily, Affine):
        for name in calls:
            monkeypatch.setattr(cls, name, counted(name, getattr(cls, name)))
    payload = os.urandom(240)
    src = tmp_path / "in.bits"
    src.write_bytes(payload)
    sched = f"trace:{counter_tm}" if sched == "trace" else sched
    argv = stream_args("transform", src, tmp_path / "fwd", maps=maps, width=width, count=6,
                       sched=sched)
    assert main(argv) == 0
    assert calls == {"to_table_array": 6, "invert": 0}
    calls.update(dict.fromkeys(calls, 0))
    assert main(stream_args("recover", tmp_path / "fwd" / "stream.bits", tmp_path / "back",
                            maps=maps)) == 0
    assert calls == {"to_table_array": 6, "invert": 6}
    assert (tmp_path / "back" / "recovered.bits").read_bytes() == payload


def test_artifacts_get_the_umask_mode(tmp_path):
    src = tmp_path / "in.bits"
    src.write_bytes(bytes(32))
    out = tmp_path / "out"
    old = os.umask(0o022)
    try:
        argv = stream_args("transform", src, out, maps="xorfam:1", width=16, count=2,
                           sched="periodic:2")
        assert main(argv) == 0
    finally:
        os.umask(old)
    modes = {p.name: p.stat().st_mode & 0o777 for p in out.iterdir()}
    assert modes == dict.fromkeys(["stream.bits", "stream.bits.meta", "manifest.json"], 0o644)


@pytest.mark.parametrize("width, nbytes", [(15, 100), (16, 101)], ids=["w15", "w16"])
def test_stream_length_not_divisible(width, nbytes, tmp_path, capsys):
    src = tmp_path / "in.bits"
    src.write_bytes(bytes(nbytes))  # 800 bits (not a multiple of 15), or an odd byte count
    code = main(
        stream_args(
            "transform", src, tmp_path / "out",
            maps="xorfam:1", width=width, count=2, sched="periodic:2",
        )
    )
    assert code == 2
    assert "not divisible" in capsys.readouterr().err


def test_stream_failure_leaves_no_artifact(tmp_path):
    # the length check fails on the last chunk, after three whole ones were written
    src = tmp_path / "in.bits"
    src.write_bytes(bytes(CHUNK_GROUPS * 15 * 3 + 1))
    out = tmp_path / "runs" / "out"
    code = main(
        stream_args(
            "transform", src, out, maps="xorfam:1", width=15, count=2, sched="periodic:2",
        )
    )
    assert code == 2
    assert not out.exists() and not out.parent.exists()


def test_stream_failure_keeps_an_out_directory_it_did_not_create(tmp_path):
    src = tmp_path / "in.bits"
    src.write_bytes(bytes(CHUNK_GROUPS * 15 * 3 + 1))
    out = tmp_path / "out"
    out.mkdir()
    (out / "keep.txt").write_text("kept\n")
    code = main(
        stream_args(
            "transform", src, out, maps="xorfam:1", width=15, count=2, sched="periodic:2",
        )
    )
    assert code == 2
    assert [p.name for p in out.iterdir()] == ["keep.txt"]


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


def test_sidecar_that_is_not_utf8_is_named(tmp_path, capsys):
    src = tmp_path / "in.bits"
    src.write_bytes(bytes(16))
    meta = tmp_path / "in.bits.meta"
    meta.write_bytes(b"\xffn=16 m=2 sched=periodic:2\n")
    assert main(stream_args("recover", src, tmp_path / "out", maps="xorfam:1")) == 2
    assert capsys.readouterr().err.startswith(f"dynls: {meta}: 'utf-8' codec can't decode")


def test_stream_recover_needs_sidecar(tmp_path, capsys):
    src = tmp_path / "orphan.bits"
    src.write_bytes(bytes(16))
    code = main(stream_args("recover", src, tmp_path / "out", maps="xorfam:1"))
    assert code == 2


def test_stream_transform_needs_shape_flags(tmp_path, capsys):
    src = tmp_path / "in.bits"
    src.write_bytes(bytes(16))
    with pytest.raises(SystemExit) as exit_:
        main(stream_args("transform", src, tmp_path / "out", maps="xorfam:1"))
    assert exit_.value.code == 2
    assert "--width" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--width", "--count", "--sched"])
def test_stream_recover_takes_no_shape_flags(tmp_path, capsys, flag):
    # recover's shape comes from the sidecar alone
    src = tmp_path / "in.bits"
    src.write_bytes(bytes(16))
    (tmp_path / "in.bits.meta").write_text("n=16 m=2 sched=periodic:2\n")
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exit_:
        shape = {"--width": 16, "--count": 2, "--sched": "periodic:2"}
        main(stream_args("recover", src, out, maps="xorfam:1", **{flag[2:]: shape[flag]}))
    assert exit_.value.code == 2
    assert flag in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("sep", ["\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                                 "\u2028", "\u2029"])
def test_stream_schedule_must_be_one_line(tmp_path, counter_tm, capsys, sep):
    # the sidecar is read with str.splitlines, so each of these would break it
    machine = tmp_path / f"a{sep}b" / "c.tm"
    machine.parent.mkdir()
    machine.write_bytes(Path(counter_tm).read_bytes())
    src = tmp_path / "in.bits"
    src.write_bytes(bytes(40))
    out = tmp_path / "fwd"
    argv = stream_args("transform", src, out, maps="affine:3", width=8, count=5,
                       sched=f"trace:{machine}")
    assert main(argv) == 2
    assert "must be one line" in capsys.readouterr().err
    assert not out.exists()


def test_stream_maps_must_match_the_block_width(tmp_path, capsys):
    # run anyway, width-3 maps would write n=4 to the sidecar
    mapdir = tmp_path / "maps"
    mapdir.mkdir()
    write_map(Affine.identity(3), mapdir / "0.map")
    src = tmp_path / "in.bits"
    src.write_bytes(bytes(24))
    out = tmp_path / "out"
    argv = stream_args("transform", src, out, maps=f"file:{mapdir}", width=4, count=1,
                       sched="periodic:1")
    assert main(argv) == 2
    assert "block width 4 does not match the maps' width 3" in capsys.readouterr().err
    assert not out.exists()


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
