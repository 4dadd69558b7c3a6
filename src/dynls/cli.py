"""Command-line surface: whole-machine runs, secrecy checks, and block
stream transforms, with manifests that make seeded runs reproducible.

Exit codes: 0 pass, 1 property violation, 2 usage or IO error, 3 random
source failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import shutil
import sys
from pathlib import Path

from . import __version__
from .aem import run_utm_realization, trace_to_jsonl
from .bitcore import _fields, read_map
from .blockstream import CHUNK_GROUPS, StreamTransform
from .dls_engine import (
    _family_width,
    derived_affine_family,
    derived_xor_family,
    sampled_secrecy_report,
    verify_perfect_secrecy,
)
from .rand import OsEntropySource, QrngSource, SeededSource, SourceFailure, derive_seed64
from .tm import instruction_index, instruction_trace, read_machine

EXIT_PASS = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_SOURCE = 3

UTM_WIDTH = 15

# how far a schedule machine is run before its instruction pairs repeat
TRACE_SCHEDULE_HORIZON = 4096

QRNG_URL_ENV = "DLS_QRNG_URL"


def _write_atomic(path: Path, data) -> None:
    """Write text, bytes, or an iterable of byte chunks through a temp file
    and rename, so failed runs never leave a partial artifact behind.  The
    file gets the umask's mode, as with `open`."""
    mode = "w" if isinstance(data, str) else "wb"
    chunks = (data,) if isinstance(data, (str, bytes, bytearray)) else data
    tmp = f"{path}.{os.urandom(6).hex()}"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, mode) as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _write_run(out: str, subcommand: str, parameters: dict, source, artifacts: dict) -> None:
    """Create `out`, write each artifact, ``key: (file name, data)``, then the
    manifest that names them.  Every command calls this once its inputs have
    passed, and a failed artifact removes the directories this call made."""
    out = Path(out)
    made = next((d for d in (*reversed(out.parents), out) if not d.is_dir()), None)
    out.mkdir(parents=True, exist_ok=True)
    manifest = {
        "tool": {"name": "dynls", "version": __version__},
        "subcommand": subcommand,
        "parameters": parameters,
        "source": source,
        "artifacts": {key: name for key, (name, _) in artifacts.items()},
    }
    try:
        for name, data in artifacts.values():
            _write_atomic(out / name, data)
        _write_atomic(out / "manifest.json", json.dumps(manifest, indent=2) + "\n")
    except BaseException:
        if made is not None:
            shutil.rmtree(made, ignore_errors=True)
        raise


# ---------------------------------------------------------------------------
# flag value parsing

RNG_FORMS = {"seeded": ":<u64>", "os": "", "qrng": "[:<url>]"}
FAMILY_FORMS = {"xorfam": "[:<seed>]", "affine": ":<seed>", "file": ":<dir>"}
SCHEDULE_FORMS = {"periodic": ":<p>", "trace": ":<file>"}
INTEGER_ARGS = ("<u64>", "<seed>", "<p>")


def _forms(forms: dict) -> str:
    return ", ".join(name + shape for name, shape in forms.items())


def split_spec(spec: str, forms: dict):
    """A ``kind[:arg]`` spec to (kind, arg), checked against `forms`, which
    maps each kind to "" (no argument), ":<x>" (one) or "[:<x>]" (an optional
    one); arg is None when absent and an int when <x> is in INTEGER_ARGS."""
    kind, colon, arg = spec.partition(":")
    form = forms.get(kind)
    if form is None or (bool(colon) != bool(form) and not form.startswith("[")):
        raise ValueError(f"bad spec {spec!r}; expected one of {_forms(forms)}")
    if not colon:
        return kind, None
    placeholder = form.strip("[:]")
    if not arg:
        raise ValueError(f"{spec!r} needs a {placeholder} after the colon")
    if placeholder not in INTEGER_ARGS:
        return kind, arg
    try:
        return kind, int(arg, 10)
    except ValueError:
        raise ValueError(f"{spec!r}: {placeholder} must be an integer") from None


def parse_source(spec: str):
    """An --rng spec to (source, descriptor-for-the-manifest)."""
    kind, arg = split_spec(spec, RNG_FORMS)
    if kind == "seeded":
        if not 0 <= arg < 2**64:
            raise ValueError(f"seed must fit in 64 bits, got {arg}")
        return SeededSource(arg), {"kind": "seeded", "seed": arg}
    if kind == "os":
        return OsEntropySource(), {"kind": "os"}
    url = arg or os.environ.get(QRNG_URL_ENV, "")
    if not url:
        raise ValueError(f"qrng source needs an endpoint: qrng:<url> or ${QRNG_URL_ENV}")
    return QrngSource(url), {"kind": "qrng", "url": url}


def _map_filename(state) -> str:
    if isinstance(state, tuple) and len(state) == 2:
        return f"q{state[0]}a{state[1]}.map"
    return f"{state}.map"


def family_for_states(spec: str, width: int, states, default_seed: int):
    """Build the per-state map family a --dls/--maps spec describes.

    Derived families are keyed on the state's repr, so the same spec and
    state set always yields the same maps, which is what lets a manifest
    reproduce a run.
    """
    kind, arg = split_spec(spec, FAMILY_FORMS)
    if kind == "xorfam":
        seed = default_seed if arg is None else arg
        return derived_xor_family(width, states, seed)
    if kind == "affine":
        return derived_affine_family(width, states, arg)
    family = {}
    for state in states:
        path = Path(arg) / _map_filename(state)
        if not path.is_file():
            raise ValueError(f"no map file for state {state!r}: {path}")
        family[state] = read_map(path)
    return family


# ---------------------------------------------------------------------------
# run-utm


def cmd_run_utm(args) -> int:
    if args.steps < 1:
        raise ValueError(f"--steps must be >= 1, got {args.steps}")
    source, descriptor = parse_source(args.rng)
    split_spec(args.dls, FAMILY_FORMS)  # a mistyped --dls fails before a long trace
    program, config = read_machine(args.tm)

    pairs = instruction_trace(program, config, args.steps)
    family = family_for_states(args.dls, UTM_WIDTH, sorted(set(pairs)), descriptor.get("seed", 0))
    trace, report = run_utm_realization(program, family, source, pairs, args.steps)

    _write_run(
        args.out,
        "run-utm",
        {"tm": args.tm, "dls": args.dls, "steps": args.steps, "rng": args.rng},
        descriptor,
        {
            "trace": ("trace.jsonl", trace_to_jsonl(trace)),
            "report": ("report.txt", report.to_text()),
        },
    )
    sys.stdout.write(report.to_text())
    return EXIT_PASS if report.ok else EXIT_VIOLATION


# ---------------------------------------------------------------------------
# verify-secrecy


def cmd_verify_secrecy(args) -> int:
    kind, arg = split_spec(args.dls, FAMILY_FORMS)
    source, descriptor = parse_source(args.rng)

    if kind == "file":
        if args.states is not None:
            raise ValueError("--states does not apply to a file: family")
        if not Path(arg).is_dir():
            raise ValueError(f"no map directory {arg}")
        states = [p.stem for p in sorted(Path(arg).glob("*.map"))]
    elif args.width is None:
        raise ValueError("--width is required for derived families")
    else:
        states = range(12 if args.states is None else args.states)
    family = family_for_states(args.dls, args.width, states, descriptor.get("seed", 0))
    width = _family_width(family.values())
    if args.width not in (None, width):
        raise ValueError(f"--width {args.width} does not match the maps' width {width}")

    if args.sample is not None:
        seed = descriptor.get("seed")
        if seed is None:
            seed = derive_seed64(source)
            descriptor = {**descriptor, "derived_seed": seed}
        report = sampled_secrecy_report(family, args.sample, seed)
    else:
        report = verify_perfect_secrecy(family)

    text = report.to_text()
    sys.stdout.write(text)
    if args.out:
        _write_run(
            args.out,
            "verify-secrecy",
            {
                "dls": args.dls,
                "width": width,
                "states": len(family),
                "sample": args.sample,
                "rng": args.rng,
            },
            descriptor,
            {"report": ("report.txt", text)},
        )
    return EXIT_PASS if report.passed else EXIT_VIOLATION


# ---------------------------------------------------------------------------
# stream


def build_schedule(spec: str, count: int):
    """A --sched spec to its tuple of map indices, each below `count`.  The
    spec goes into the sidecar's one line, so it may hold no line break."""
    kind, arg = split_spec(spec, SCHEDULE_FORMS)
    if spec.splitlines() != [spec]:
        raise ValueError(f"schedule {spec!r} must be one line")
    if kind == "periodic":
        if not 1 <= arg <= count:
            raise ValueError(f"period must be in 1..{count}, got {arg}")
        return tuple(range(arg))
    program, config = read_machine(arg)
    pairs = instruction_trace(program, config, TRACE_SCHEDULE_HORIZON)
    if not pairs:
        raise ValueError("schedule machine halts before its first step")
    index = {pair: instruction_index(*pair) % count for pair in set(pairs)}
    return tuple(map(index.__getitem__, pairs))


def _read_stream_meta(path: Path):
    """The sidecar's one line, ``n=<width> m=<count> sched=<spec>``; the
    spec runs to the end of the line, so a trace path may hold spaces."""
    try:
        lines = [line for line in path.read_text(encoding="utf-8").splitlines() if line.strip()]
        head, sep, sched = (lines or [""])[0].partition("sched=")
        fields = _fields(head.split(), ("n", "m"))
        if len(lines) == 1 and sep and len(fields) == 2:
            return int(fields["n"]), int(fields["m"]), sched
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    raise ValueError(f"{path}: sidecar must be one line, n=<width> m=<count> sched=<spec>")


def cmd_stream(args) -> int:
    if args.mode == "transform":
        width, count, sched_spec = args.width, args.count, args.sched
    else:
        width, count, sched_spec = _read_stream_meta(Path(args.input + ".meta"))
    if count < 1:
        raise ValueError(f"map count must be >= 1, got {count}")

    maps = list(family_for_states(args.maps, width, range(count), 0).values())
    if args.mode == "recover":
        maps = [m.invert() for m in maps]
    transform = StreamTransform(maps, build_schedule(sched_spec, count))
    if transform.width != width:
        raise ValueError(f"block width {width} does not match the maps' width {transform.width}")
    name = "stream.bits" if args.mode == "transform" else "recovered.bits"
    with open(args.input, "rb") as infile:
        chunks = iter(functools.partial(infile.read, CHUNK_GROUPS * width), b"")
        _write_run(
            args.out,
            "stream",
            {
                "mode": args.mode,
                "in": args.input,
                "maps": args.maps,
                "width": width,
                "count": count,
                "sched": sched_spec,
            },
            None,
            {
                "stream": (name, transform.transform_chunks(chunks)),
                "meta": (name + ".meta", f"n={width} m={count} sched={sched_spec}\n"),
            },
        )
        nbits = 8 * infile.tell()
    print(f"wrote {Path(args.out) / name} ({nbits} bits)")
    return EXIT_PASS


# ---------------------------------------------------------------------------
# wiring


@functools.cache  # built once per process: each build costs about a millisecond
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dynls",
        description="Dynamic level-set runs, secrecy checks, and stream transforms.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="subcommand", metavar="<command>")

    run = sub.add_parser(
        "run-utm",
        help="run a tape machine, realizing each step as a firing pattern",
    )
    run.add_argument("--tm", required=True, help="machine file (rules + start tape)")
    run.add_argument(
        "--dls",
        default="xorfam",
        help=f"map family: {_forms(FAMILY_FORMS)} (default: xorfam, seeded from --rng when seeded)",
    )
    run.add_argument("--steps", type=int, required=True, help="step budget")
    run.add_argument(
        "--rng",
        default="os",
        help=f"bit source: {_forms(RNG_FORMS)} (default: os)",
    )
    run.add_argument("--out", required=True, help="artifact directory")
    run.set_defaults(func=cmd_run_utm)

    sec = sub.add_parser(
        "verify-secrecy",
        help="check that every (state, bit) observable distribution matches",
    )
    sec.add_argument("--dls", default="xorfam", help=f"map family: {_forms(FAMILY_FORMS)}")
    sec.add_argument("--width", type=int, help="map width (a file: family's own width)")
    sec.add_argument("--states", type=int, help="number of derived states (default 12)")
    sec.add_argument(
        "--sample",
        type=int,
        help="sample count per (state, bit); switches to the chi-square mode",
    )
    sec.add_argument("--rng", default="seeded:0", help=f"sampling seed: {_forms(RNG_FORMS)}")
    sec.add_argument("--out", help="optional artifact directory")
    sec.set_defaults(func=cmd_verify_secrecy)

    st = sub.add_parser("stream", help="block-transform a bit stream file")
    modes = st.add_subparsers(dest="mode", metavar="<mode>", required=True)
    transform = modes.add_parser("transform", help="apply the maps block by block")
    recover = modes.add_parser("recover", help="invert a transform, shaped by its sidecar")
    for mode in (transform, recover):
        mode.add_argument("--in", dest="input", required=True, help="input stream file")
        mode.add_argument("--maps", required=True, help=f"map family: {_forms(FAMILY_FORMS)}")
        mode.add_argument("--out", required=True, help="artifact directory")
        mode.set_defaults(func=cmd_stream)
    transform.add_argument("--width", type=int, required=True, help="block width")
    transform.add_argument("--count", type=int, required=True, help="number of maps")
    transform.add_argument("--sched", required=True, help=f"schedule: {_forms(SCHEDULE_FORMS)}")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "func"):
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except SourceFailure as exc:
        print(f"dynls: source failure: {exc}", file=sys.stderr)
        return EXIT_SOURCE
    except (OSError, ValueError, MemoryError) as exc:
        print(f"dynls: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
