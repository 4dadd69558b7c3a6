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
import sys
from pathlib import Path

from . import __version__
from .aem import UtmRunReport, run_utm_realization, trace_to_jsonl
from .bitcore import _fields, read_map
from .blockstream import CHUNK_GROUPS, StreamTransform
from .dls_engine import (
    DlsDecomposition,
    Schedule,
    derived_affine_family,
    derived_xor_family,
    sampled_secrecy_report,
    verify_perfect_secrecy,
)
from .rand import OsEntropySource, QrngSource, SeededSource, SourceFailure, derive_seed64
from .tm import instruction_trace, read_machine

EXIT_PASS = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_SOURCE = 3

UTM_WIDTH = 15

# how far a schedule machine is run before its instruction pairs repeat
TRACE_SCHEDULE_HORIZON = 4096

QRNG_URL_ENV = "DLS_QRNG_URL"


class UsageError(ValueError):
    pass


def _terminated(text: str) -> str:
    return text if text.endswith("\n") or not text else text + "\n"


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


def _write_manifest(out: Path, subcommand: str, parameters: dict, source, artifacts: dict) -> None:
    manifest = {
        "tool": {"name": "dynls", "version": __version__},
        "subcommand": subcommand,
        "parameters": parameters,
        "source": source,
        "artifacts": artifacts,
    }
    _write_atomic(out / "manifest.json", json.dumps(manifest, indent=2) + "\n")


# ---------------------------------------------------------------------------
# flag value parsing


def parse_source(spec: str):
    """An --rng spec to (source, descriptor-for-the-manifest)."""
    if spec.startswith("seeded:"):
        try:
            seed = int(spec[len("seeded:"):], 10)
        except ValueError:
            raise UsageError(f"bad seed in {spec!r}") from None
        if not 0 <= seed < 2**64:
            raise UsageError(f"seed must fit in 64 bits, got {seed}")
        return SeededSource(seed), {"kind": "seeded", "seed": seed}
    if spec == "os":
        return OsEntropySource(), {"kind": "os"}
    if spec == "qrng" or spec.startswith("qrng:"):
        url = spec[len("qrng:"):] if spec.startswith("qrng:") else ""
        if not url:
            url = os.environ.get(QRNG_URL_ENV, "")
        if not url:
            raise UsageError(
                f"qrng source needs an endpoint: qrng:<url> or ${QRNG_URL_ENV}"
            )
        return QrngSource(url), {"kind": "qrng", "url": url}
    raise UsageError(
        f"unknown rng spec {spec!r}; expected seeded:<u64>, os, or qrng:<url>"
    )


def parse_family_spec(spec: str):
    """A --dls/--maps spec to (kind, argument)."""
    if spec == "xorfam":
        return "xorfam", None
    for prefix in ("xorfam:", "affine:"):
        if spec.startswith(prefix):
            try:
                return prefix[:-1], int(spec[len(prefix):], 10)
            except ValueError:
                raise UsageError(f"bad seed in {spec!r}") from None
    if spec.startswith("file:"):
        path = spec[len("file:"):]
        if not path:
            raise UsageError("file: spec needs a directory path")
        return "file", path
    raise UsageError(
        f"unknown map family {spec!r}; expected xorfam[:seed], "
        f"affine:<seed>, or file:<dir>"
    )


def _map_filename(state) -> str:
    if isinstance(state, tuple) and len(state) == 2:
        return f"q{state[0]}a{state[1]}.map"
    return f"{state}.map"


def family_for_states(kind: str, arg, width: int, states, default_seed: int):
    """Build the per-state map family a spec describes.

    Derived families are keyed on the state's repr, so the same spec and
    state set always yields the same maps, which is what lets a manifest
    reproduce a run.
    """
    if kind == "xorfam":
        seed = default_seed if arg is None else arg
        return derived_xor_family(width, states, seed)
    if kind == "affine":
        return derived_affine_family(width, states, arg)
    base = Path(arg)
    family = {}
    for state in states:
        path = base / _map_filename(state)
        if not path.is_file():
            raise UsageError(f"no map file for state {state!r}: {path}")
        family[state] = read_map(path)
    return family


# ---------------------------------------------------------------------------
# run-utm


def cmd_run_utm(args) -> int:
    if args.steps < 1:
        raise UsageError(f"--steps must be >= 1, got {args.steps}")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    program, config = read_machine(args.tm)
    source, descriptor = parse_source(args.rng)
    kind, spec_arg = parse_family_spec(args.dls)

    pairs = instruction_trace(program, config, args.steps)
    if pairs:
        family = family_for_states(
            kind, spec_arg, UTM_WIDTH, sorted(set(pairs)), descriptor.get("seed", 0)
        )
        dls = DlsDecomposition(family, Schedule(pairs), source)
        trace, report = run_utm_realization(program, dls, args.steps)
    else:
        # the machine halts before consuming a single instruction
        trace = {}
        report = UtmRunReport(args.steps, 0, (), ())

    _write_atomic(out / "trace.jsonl", trace_to_jsonl(trace))
    _write_atomic(out / "report.txt", report.to_text())
    _write_manifest(
        out,
        "run-utm",
        {"tm": args.tm, "dls": args.dls, "steps": args.steps, "rng": args.rng},
        descriptor,
        {"trace": "trace.jsonl", "report": "report.txt"},
    )
    sys.stdout.write(report.to_text())
    return EXIT_PASS if report.ok else EXIT_VIOLATION


# ---------------------------------------------------------------------------
# verify-secrecy


def cmd_verify_secrecy(args) -> int:
    kind, spec_arg = parse_family_spec(args.dls)
    source, descriptor = parse_source(args.rng)

    if kind == "file":
        states = [p.stem for p in sorted(Path(spec_arg).glob("*.map"))]
        if not states:
            raise UsageError(f"no .map files in {Path(spec_arg)}")
    elif args.width is None:
        raise UsageError("--width is required for derived families")
    else:
        states = list(range(args.states))
    family = family_for_states(kind, spec_arg, args.width, states, descriptor.get("seed", 0))

    if args.sample is not None:
        seed = descriptor.get("seed")
        if seed is None:
            seed = derive_seed64(source)
            descriptor = {**descriptor, "derived_seed": seed}
        report = sampled_secrecy_report(family, args.sample, seed)
    else:
        report = verify_perfect_secrecy(family)

    text = _terminated(report.to_text())
    sys.stdout.write(text)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        _write_atomic(out / "report.txt", text)
        _write_manifest(
            out,
            "verify-secrecy",
            {
                "dls": args.dls,
                "width": args.width,
                "states": args.states,
                "sample": args.sample,
                "rng": args.rng,
            },
            descriptor,
            {"report": "report.txt"},
        )
    return EXIT_PASS if report.passed else EXIT_VIOLATION


# ---------------------------------------------------------------------------
# stream


def build_schedule(spec: str, count: int):
    if spec.startswith("periodic:"):
        try:
            period = int(spec[len("periodic:"):], 10)
        except ValueError:
            raise UsageError(f"bad period in {spec!r}") from None
        if not 1 <= period <= count:
            raise UsageError(f"period must be in 1..{count}, got {period}")
        return Schedule(range(period))
    if spec.startswith("trace:"):
        program, config = read_machine(spec[len("trace:"):])
        pairs = instruction_trace(program, config, TRACE_SCHEDULE_HORIZON)
        if not pairs:
            raise UsageError("schedule machine halts before its first step")
        return Schedule((4 * q + a) % count for q, a in pairs)
    raise UsageError(
        f"unknown schedule {spec!r}; expected periodic:<p> or trace:<file>"
    )


def _read_stream_meta(path: Path):
    """The sidecar's one line, ``n=<width> m=<count> sched=<spec>``; the
    spec runs to the end of the line, so a trace path may hold spaces."""
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot read stream sidecar {path}: {exc}") from None
    lines = [line for line in text.splitlines() if line.strip()]
    head, sep, sched = (lines or [""])[0].partition("sched=")
    try:
        fields = _fields(head.split(), ("n", "m"))
        if len(lines) == 1 and sep and len(fields) == 2:
            return int(fields["n"]), int(fields["m"]), sched
    except ValueError as exc:
        raise UsageError(f"{path}: {exc}") from None
    raise UsageError(f"{path}: sidecar must be one line, n=<width> m=<count> sched=<spec>")


def cmd_stream(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    if args.mode == "transform":
        if args.width is None or args.count is None or args.sched is None:
            raise UsageError("transform needs --width, --count, and --sched")
        width, count, sched_spec = args.width, args.count, args.sched
    else:
        width, count, sched_spec = _read_stream_meta(Path(args.input + ".meta"))
    if count < 1:
        raise UsageError(f"map count must be >= 1, got {count}")

    kind, spec_arg = parse_family_spec(args.maps)
    family = family_for_states(kind, spec_arg, width, list(range(count)), 0)
    maps = [family[i] for i in range(count)]
    transform = StreamTransform(maps, build_schedule(sched_spec, count))
    if transform.width != width:
        raise UsageError(f"block width {width} does not match the maps' width {transform.width}")
    apply = getattr(transform, f"{args.mode}_chunks")
    name = "stream.bits" if args.mode == "transform" else "recovered.bits"
    with open(args.input, "rb") as infile:
        chunks = iter(functools.partial(infile.read, CHUNK_GROUPS * width), b"")
        _write_atomic(out / name, apply(chunks))
        nbits = 8 * infile.tell()

    _write_atomic(out / (name + ".meta"), f"n={width} m={count} sched={sched_spec}\n")
    _write_manifest(
        out,
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
        {"stream": name, "meta": name + ".meta"},
    )
    print(f"wrote {out / name} ({nbits} bits)")
    return EXIT_PASS


# ---------------------------------------------------------------------------
# wiring


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
        help="map family: xorfam[:seed], affine:<seed>, file:<dir> "
        "(default: xorfam, seeded from --rng when seeded)",
    )
    run.add_argument("--steps", type=int, required=True, help="step budget")
    run.add_argument(
        "--rng",
        default="os",
        help="bit source: seeded:<u64>, os, qrng:<url> (default: os)",
    )
    run.add_argument("--out", required=True, help="artifact directory")
    run.set_defaults(func=cmd_run_utm)

    sec = sub.add_parser(
        "verify-secrecy",
        help="check that every (state, bit) observable distribution matches",
    )
    sec.add_argument("--dls", default="xorfam", help="map family spec")
    sec.add_argument("--width", type=int, help="map width (derived families)")
    sec.add_argument(
        "--states", type=int, default=12, help="number of derived states (default 12)"
    )
    sec.add_argument(
        "--sample",
        type=int,
        help="sample count per (state, bit); switches to the chi-square mode",
    )
    sec.add_argument("--rng", default="seeded:0", help="seed source for sampling")
    sec.add_argument("--out", help="optional artifact directory")
    sec.set_defaults(func=cmd_verify_secrecy)

    st = sub.add_parser("stream", help="block-transform a bit stream file")
    st.add_argument("mode", choices=("transform", "recover"))
    st.add_argument("--in", dest="input", required=True, help="input stream file")
    st.add_argument(
        "--maps", required=True, help="xorfam[:seed], affine:<seed>, file:<dir>"
    )
    st.add_argument("--width", type=int, help="block width (transform)")
    st.add_argument("--count", type=int, help="number of maps (transform)")
    st.add_argument(
        "--sched", help="periodic:<p> or trace:<machine file> (transform)"
    )
    st.add_argument("--out", required=True, help="artifact directory")
    st.set_defaults(func=cmd_stream)
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
