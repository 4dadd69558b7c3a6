"""The benchmark's jobs: CLI argument lists, seeded inputs and output checks.

Every job is one `dynls` CLI call.  A workload runs every job; the jobs of
the workload's own paths run at full size and the others at probe size, so
each workload reports every end-to-end metric while its time goes to its
own paths.  All inputs derive from the workload seed.  Each check
re-derives the expected output independently of the CLI call it checks and
returns a list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from dynls.dls_engine import derived_affine_family, derived_xor_family
from dynls.rand import SeededSource
from dynls.tm import endless_counter, machine_to_text, transition_components


UTM_WIDTH = 15
STREAM_MAPS = 6
# steps of the schedule machine the CLI records for trace:<file> schedules
TRACE_SCHEDULE_HORIZON = 4096
# blocks of a transformed stream re-derived one by one
STREAM_SAMPLE_BLOCKS = 256


def _six(n: int) -> int:
    """Largest multiple of 6 bytes up to n, so 12- and 16-bit blocks fit."""
    return n - n % 6


# sizes of one CLI call; each call repeats within its job's time budget
SIZES = {
    "full": {
        "utm_steps": 3000,
        "stream_bytes": _six(1 << 20),
        "exact_states": 3,
        "sampled_states": 1,
        "samples": 100_000,
        "exact_xor_width": 20,
        "exact_affine_width": 18,
        "sampled_width": 24,
    },
    "probe": {
        "utm_steps": 300,
        "stream_bytes": _six(256 << 10),
        "exact_states": 1,
        "sampled_states": 1,
        "samples": 10_000,
        "exact_xor_width": 20,
        "exact_affine_width": 18,
        "sampled_width": 24,
    },
    "smoke": {
        "utm_steps": 30,
        "stream_bytes": 6 * 64,
        "exact_states": 2,
        "sampled_states": 1,
        "samples": 1000,
        "exact_xor_width": 10,
        "exact_affine_width": 8,
        "sampled_width": 12,
    },
}

# (job suffix, block width, map family kind, schedule kind)
STREAM_CONFIGS = (("w16", 16, "xorfam", "periodic"), ("w12", 12, "affine", "trace"))

COUNTER_FILE = "counter.tm"
DATA_FILE = "data.bin"
INPUTS = "inputs"


@dataclass
class Job:
    """One CLI call, repeated in its own child process and directory."""

    name: str
    path: str
    primary: bool
    argv: list[str]
    metric: str
    check: Callable[[Path, int], list[str]]
    artifacts: tuple[str, ...]
    # steps or Mbit behind a rate metric; None for a wall-time metric
    work: float | None = None


def sizes_for(full: tuple, path: str, smoke: bool) -> dict:
    """Sizes of a path's calls, given the paths the workload runs at full size."""
    if smoke:
        return SIZES["smoke"]
    return SIZES["full" if path in full else "probe"]


def write_inputs(inputs: Path, full: tuple, seed: int, smoke: bool) -> None:
    """The counter machine and the seeded random stream input."""
    inputs.mkdir(parents=True, exist_ok=True)
    program, config = endless_counter()
    (inputs / COUNTER_FILE).write_text(machine_to_text(program, config), encoding="ascii")
    size = sizes_for(full, "stream", smoke)["stream_bytes"]
    (inputs / DATA_FILE).write_bytes(random.Random(seed).randbytes(size))


# ---------------------------------------------------------------------------
# independent re-derivations


def machine_pairs(steps: int) -> list[tuple[int, int]]:
    """(state, read symbol) pairs of the counter machine, simulated here."""
    program, config = endless_counter()
    tape, head, state = dict(config.tape), config.head, config.state
    pairs = []
    for _ in range(steps):
        symbol = tape.get(head, 0)
        rule = program.transitions.get((state, symbol))
        if rule is None:
            break
        pairs.append((state, symbol))
        state, write, move = rule
        if write:
            tape[head] = write
        else:
            tape.pop(head, None)
        head += 1 if move == "R" else -1
    return pairs


def _family(kind: str, width: int, states, seed: int) -> dict:
    if kind == "xorfam":
        return derived_xor_family(width, states, seed)
    return derived_affine_family(width, states, seed)


def _block(data: bytes, j: int, width: int) -> int:
    """Block j of a stream packed low bit first."""
    start = j * width
    chunk = data[start // 8 : (start + width + 7) // 8]
    return (int.from_bytes(chunk, "little") >> (start % 8)) & ((1 << width) - 1)


def observable_histogram(m, b: int) -> list[int]:
    """Observable counts of an affine map over every random part, bit fixed.

    Walks the random parts in Gray-code order, so each next image is the
    previous one XOR the image of one flipped input coordinate.
    """
    k = m.width - 1
    half = 1 << k
    zero = m.apply_int(0)
    columns = [m.apply_int(1 << i) ^ zero for i in range(k)]
    hist = [0] * half
    y = m.apply_int(b << k)
    for step in range(1, half + 1):
        hist[y & (half - 1)] += 1
        y ^= columns[(step & -step).bit_length() - 1] if step < half else 0
    return hist


def _fraction(text: str) -> Fraction:
    num, _, den = text.partition("/")
    return Fraction(int(num), int(den))


def _report_lines(job_dir: Path) -> list[str]:
    return (job_dir / "out" / "report.txt").read_text(encoding="utf-8").splitlines()


def _fields(line: str) -> dict:
    return dict(token.partition("=")[::2] for token in line.split())


# ---------------------------------------------------------------------------
# checks


def check_utm(job_dir: Path, code: int, kind: str, steps: int, seed: int) -> list[str]:
    problems = [] if code == 0 else [f"exit code {code}"]
    report = _report_lines(job_dir)
    for want in (f"steps={steps}/{steps}", "violations=0"):
        if want not in report:
            problems.append(f"report lacks {want}")
    pairs = machine_pairs(steps)
    family = _family(kind, UTM_WIDTH, sorted(set(pairs)), seed)
    high_write = transition_components(endless_counter()[0])[3]
    source = SeededSource(seed)
    fired_at = {}
    with open(job_dir / "out" / "trace.jsonl", encoding="utf-8") as fh:
        for line in fh:
            record = json.loads(line)
            fired_at[record["tick"]] = record["fired"]
    k = UTM_WIDTH - 1
    for j, (q, a) in enumerate(pairs):
        bit = high_write.table[(q << 2) | a]
        want = family[(q, a)].apply_int(source.next_bits(k).value | (bit << k))
        fired = fired_at.get(3 * j + 2, ())
        got = sum(1 << int(n[1:]) for n in fired if n[0] == "d" and n[1:].isdigit())
        got |= ("bit_out" in fired) << k
        if got != want:
            problems.append(f"step {j}: readout {got:#x} != {want:#x}")
            break
    return problems


def check_transform(
    job_dir: Path, code: int, data: bytes, width: int, kind: str, sched: str, seed: int
) -> list[str]:
    problems = [] if code == 0 else [f"exit code {code}"]
    out = (job_dir / "out" / "stream.bits").read_bytes()
    if len(out) != len(data):
        return problems + [f"output has {len(out)} bytes, input {len(data)}"]
    maps = _family(kind, width, list(range(STREAM_MAPS)), seed)
    if sched == "periodic":
        schedule = list(range(STREAM_MAPS))
    else:
        schedule = [(4 * q + a) % STREAM_MAPS for q, a in machine_pairs(TRACE_SCHEDULE_HORIZON)]
    nblocks = len(data) * 8 // width
    picks = random.Random(seed).sample(range(nblocks), min(STREAM_SAMPLE_BLOCKS, nblocks))
    for j in sorted(picks):
        want = maps[schedule[j % len(schedule)]].apply_int(_block(data, j, width))
        if _block(out, j, width) != want:
            problems.append(f"block {j} differs from its map image")
            break
    return problems


def check_recover(job_dir: Path, code: int, data: bytes) -> list[str]:
    problems = [] if code == 0 else [f"exit code {code}"]
    if (job_dir / "out" / "recovered.bits").read_bytes() != data:
        problems.append("recovered bytes differ from the input")
    return problems


def check_exact(
    job_dir: Path, code: int, kind: str, width: int, states: int, seed: int
) -> list[str]:
    lines = _report_lines(job_dir)
    rows, verdict = [_fields(line) for line in lines[:-1]], _fields(lines[-1])
    problems = []
    if len(rows) != 2 * states:
        problems.append(f"{len(rows)} rows for {states} states")
    passed = verdict.get("pass") == "true"
    if code != (0 if passed else 1):
        problems.append(f"exit code {code} with pass={verdict.get('pass')}")
    tvs = [_fraction(row["tv_to_ref"]) for row in rows]
    if not tvs or _fraction(verdict["max_tv"]) != max(tvs) or passed != (max(tvs) == 0):
        problems.append("max_tv or verdict disagrees with the rows")
    if kind == "xorfam":
        if not passed:
            problems.append("xor family failed the exact secrecy check")
        return problems
    family = _family(kind, width, list(range(states)), seed)
    ref = observable_histogram(family[0], 0)
    pick = random.Random(seed).randrange(1, len(rows))
    row = rows[pick]
    hist = observable_histogram(family[int(row["state"])], int(row["b"]))
    want = Fraction(sum(abs(x - y) for x, y in zip(hist, ref)), 1 << width)
    if tvs[pick] != want:
        problems.append(f"row {pick}: tv_to_ref {tvs[pick]} != enumerated {want}")
    return problems


def check_sampled(job_dir: Path, code: int, states: int, samples: int) -> list[str]:
    lines = _report_lines(job_dir)
    rows, verdict = [_fields(line) for line in lines[:-1]], _fields(lines[-1])
    problems = []
    if len(rows) != 2 * states:
        problems.append(f"{len(rows)} rows for {states} states")
    if verdict.get("samples") != str(samples):
        problems.append(f"samples={verdict.get('samples')}, asked for {samples}")
    alpha = float(verdict["alpha"])
    passed = all(float(row["p"]) > alpha for row in rows)
    if verdict.get("pass") != ("true" if passed else "false"):
        problems.append("verdict disagrees with the p-values")
    if code != (0 if passed else 1):
        problems.append(f"exit code {code} with pass={verdict.get('pass')}")
    return problems


# ---------------------------------------------------------------------------
# the job list


def build_jobs(full: tuple, seed: int, smoke: bool, data: bytes) -> list[Job]:
    """Every job of one round, in run order (recovers follow transforms)."""
    counter = f"../../{INPUTS}/{COUNTER_FILE}"
    jobs = []

    size = sizes_for(full, "utm", smoke)
    steps = size["utm_steps"]
    for kind, spec in (("xorfam", "xorfam"), ("affine", f"affine:{seed}")):
        jobs.append(
            Job(
                f"utm.{kind}", "utm", "utm" in full,
                ["run-utm", "--tm", counter, "--steps", str(steps), "--dls", spec,
                 "--rng", f"seeded:{seed}", "--out", "{out}"],
                f"utm.steps_per_s.{kind}",
                lambda d, c, kind=kind: check_utm(d, c, kind, steps, seed),
                ("trace.jsonl", "report.txt"),
                work=steps,
            )
        )

    mbit = len(data) * 8 / 1e6
    for tag, width, kind, sched in STREAM_CONFIGS:
        sched_spec = "periodic:6" if sched == "periodic" else f"trace:{counter}"
        maps = f"{kind}:{seed}"
        jobs.append(
            Job(
                f"stream.{tag}.transform", "stream", "stream" in full,
                ["stream", "transform", "--in", f"../../{INPUTS}/{DATA_FILE}",
                 "--maps", maps, "--width", str(width), "--count", str(STREAM_MAPS),
                 "--sched", sched_spec, "--out", "{out}"],
                f"stream.mbps.{tag}.transform",
                lambda d, c, w=width, k=kind, s=sched: check_transform(d, c, data, w, k, s, seed),
                ("stream.bits",),
                work=mbit,
            )
        )
        jobs.append(
            Job(
                f"stream.{tag}.recover", "stream", "stream" in full,
                ["stream", "recover", "--in", f"../stream.{tag}.transform/out/stream.bits",
                 "--maps", maps, "--out", "{out}"],
                f"stream.mbps.{tag}.recover",
                lambda d, c: check_recover(d, c, data),
                ("recovered.bits",),
                work=mbit,
            )
        )

    size = sizes_for(full, "secrecy", smoke)
    primary = "secrecy" in full
    exact = (("xorfam", size["exact_xor_width"]), ("affine", size["exact_affine_width"]))
    for kind, width in exact:
        states = size["exact_states"]
        jobs.append(
            Job(
                f"secrecy.exact.{kind}", "secrecy", primary,
                ["verify-secrecy", "--dls", f"{kind}:{seed}", "--width", str(width),
                 "--states", str(states), "--out", "{out}"],
                "secrecy.exact_s",
                lambda d, c, k=kind, w=width, n=states: check_exact(d, c, k, w, n, seed),
                ("report.txt",),
            )
        )
    states, samples = size["sampled_states"], size["samples"]
    jobs.append(
        Job(
            "secrecy.sampled", "secrecy", primary,
            ["verify-secrecy", "--dls", f"xorfam:{seed}", "--width", str(size["sampled_width"]),
             "--states", str(states), "--sample", str(samples),
             "--rng", f"seeded:{seed}", "--out", "{out}"],
            "secrecy.sampled_s",
            lambda d, c: check_sampled(d, c, states, samples),
            ("report.txt",),
        )
    )
    return jobs
