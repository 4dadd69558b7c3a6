"""The dynls benchmark: the three CLI paths end to end, and layer by layer.

    python3 perfbench/run.py --workload {utm,tables} --seed N \
        --seconds S --trace {0,1} [--smoke]

Run from the root of a checkout.  Each job is one `dynls` CLI call, served
by its own fresh single-threaded child process (perfbench/child.py).  One
caller drives the children in turn, a closed loop: every cycle gives each
job at least one call and SLICE_S of calls, and cycles repeat until
`--seconds` have passed (at least MIN_CYCLES), so each job's calls spread
over the whole run.  A job's time is the median of its calls and `setup_s`
the median over the children.  The first call's outputs are checked, and
every later call must reproduce them byte for byte.

With `--trace 0` the last line reports the end-to-end metrics.  With
`--trace 1` each job runs once plainly and once under the span tracer
(perfbench/tracer.py), and the last line reports the per-layer metrics,
including the tracing overhead.  The line before the last is a JSON report
with the environment, each job's exit codes, problems and SHA-256 output
digests, and (traced) the merged span table.  `--smoke` shrinks every size
for a quick self-test.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tracer import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
CHILD = HERE / "child.py"

# the CLI paths each workload runs at full size; the others run at probe size
WORKLOADS = {"utm": ("utm",), "tables": ("stream", "secrecy")}
# a run starts no call after this long, and kills a child silent for
# DEADLINE_GRACE_S beyond it, so it always ends inside 180 s
RUN_DEADLINE_S = 140.0
DEADLINE_GRACE_S = 25.0
SLICE_S = 0.25
MIN_CYCLES = 3

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "stream.peak_rss_mb": "MB",
    "utm.steps_per_s.xorfam": "1/s",
    "utm.steps_per_s.affine": "1/s",
    "stream.mbps.w16.transform": "Mbit/s",
    "stream.mbps.w16.recover": "Mbit/s",
    "stream.mbps.w12.transform": "Mbit/s",
    "stream.mbps.w12.recover": "Mbit/s",
    "secrecy.exact_s": "s",
    "secrecy.sampled_s": "s",
}

# table expansions the jobs perform, as <kind>.w<width>
TABLES = ("xorfam.w16", "affine.w12", "xorfam.w20", "affine.w18", "xorfam.w24")

PER_LAYER = {
    "setup.numpy_s": "s",
    "setup.scipy_stats_s": "s",
    "setup.requests_s": "s",
    "setup.dynls_s": "s",
    "cli.read_s": "s",
    "cli.write_s": "s",
    "tm.instruction_trace_calls": "count",
    "tm.instruction_trace_s": "s",
    "rand.next_bits_calls": "count",
    "rand.next_bits_us": "us",
    "bitcore.apply_us.xorfam": "us",
    "bitcore.apply_us.affine": "us",
    **{f"bitcore.to_table_array_s.{t}": "s" for t in TABLES},
    **{f"bitcore.to_table_array_calls.{t}": "count" for t in TABLES},
    "bitcore.invert_s": "s",
    "dls_engine.realize_us": "us",
    "dls_engine.decode_us": "us",
    "dls_engine.secrecy_distribution_s": "s",
    "dls_engine.sampled_histogram_s": "s",
    "dls_engine.chisquare_s": "s",
    "dls_engine.family_build_s": "s",
    "aem.compile_step_us": "us",
    "aem.commands_per_step": "count",
    "aem.machine_apply_us": "us",
    "aem.machine_step_us": "us",
    "aem.connections_per_tick": "count",
    "aem.readout_us": "us",
    "aem.trace_ticks_held": "count",
    "aem.trace_to_jsonl_s": "s",
    "blockstream.unpack_s": "s",
    "blockstream.tables_s": "s",
    "blockstream.apply_s": "s",
    "blockstream.pack_s": "s",
    "blockstream.schedule_calls": "count",
    "blockstream.tracemalloc_peak_mb": "MB",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.overhead_s": "s",
    "trace.overhead_pct": "%",
    "trace.spans": "count",
}


def child_env() -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARS})
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


class ChildError(RuntimeError):
    """A child died, hung past the deadline, or replied garbage."""


class Worker:
    """One job's child process, driven over its stdin and stdout."""

    def __init__(self, job, job_dir: Path, traced: bool, deadline: float) -> None:
        self.job, self.dir, self.deadline = job, job_dir, deadline
        job_dir.mkdir(parents=True)
        spec = {"argv": job.argv, "trace": traced, "tracemalloc": traced and job.path == "stream"}
        (job_dir / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
        cmd = [sys.executable, *(["-X", "importtime"] if traced else []), str(CHILD), "spec.json"]
        self.record = {"job": job.name, "traced": traced, "primary": job.primary,
                       "exits": [], "walls_s": [], "problems": []}
        with open(job_dir / "stderr.txt", "wb") as err:
            launched = time.time()
            self.proc = subprocess.Popen(
                [*cmd, repr(launched)], cwd=job_dir, env=child_env(),
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=err,
            )
        self.alive = True
        try:
            self.record["setup_s"] = self._reply()["setup_s"]
        except ChildError as exc:
            self._fail(exc)

    def _reply(self) -> dict:
        wait = self.deadline + DEADLINE_GRACE_S - time.monotonic()
        ready, _, _ = select.select([self.proc.stdout], [], [], max(0.0, wait))
        line = self.proc.stdout.readline() if ready else b""
        try:
            return json.loads(line)
        except ValueError:
            raise ChildError(f"child sent {line[:80]!r} (exit {self.proc.poll()})") from None

    def _send(self, command: str) -> dict:
        try:
            self.proc.stdin.write(command.encode() + b"\n")
            self.proc.stdin.flush()
        except OSError as exc:
            raise ChildError(f"child gone: {exc}") from None
        return self._reply()

    def _fail(self, exc: Exception) -> None:
        self.record["problems"].append(str(exc))
        self.alive = False
        self.stop()

    def call(self) -> None:
        """One CLI call; checks its outputs against the job or the first call."""
        i = len(self.record["exits"])
        out = "out" if i == 0 else f"out.{i}"
        try:
            reply = self._send(f"run {out}")
        except ChildError as exc:
            self._fail(exc)
            return
        self.record["exits"].append(reply["exit"])
        self.record["walls_s"].append(reply["wall_s"])
        try:
            sums = digests(self.dir / out, self.job)
            if i == 0:
                self.record["problems"] += self.job.check(self.dir, reply["exit"])
                self.record["sha256"] = sums
            elif reply["exit"] != self.record["exits"][0] or sums != self.record["sha256"]:
                self.record["problems"].append(f"call {i} differs from the first")
        except Exception as exc:  # a missing or garbled artifact fails the job
            self.record["problems"].append(f"check raised {type(exc).__name__}: {exc}")
        if i:
            shutil.rmtree(self.dir / out, ignore_errors=True)

    def close(self) -> dict:
        """Ends the child and returns the job's record."""
        if self.alive:
            try:
                self.record.update(self._send("quit"))
            except ChildError as exc:
                self.record["problems"].append(str(exc))
            self.stop()
        record = self.record
        record["calls"] = max(1, len(record["exits"]))
        record["failed"] = record["calls"] if record["problems"] else 0
        if record["walls_s"] and "peak_rss_mb" in record:
            record["wall_s"] = statistics.median(record["walls_s"])
        if record["traced"]:
            stderr = (self.dir / "stderr.txt").read_text(errors="replace")
            record["setup_parts"] = import_times(stderr)
        return record

    def stop(self) -> None:
        for stream in (self.proc.stdin, self.proc.stdout):
            stream.close()
        try:
            self.proc.wait(timeout=max(1.0, self.deadline + DEADLINE_GRACE_S - time.monotonic()))
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def digests(out: Path, job) -> dict:
    return {a: hashlib.sha256((out / a).read_bytes()).hexdigest() for a in job.artifacts}


SETUP_PACKAGES = {
    "numpy": "setup.numpy_s",
    "scipy": "setup.scipy_stats_s",
    "requests": "setup.requests_s",
}


def import_times(stderr: str) -> dict:
    """Seconds spent importing numpy, scipy, requests and dynls itself, from
    the child's `-X importtime` lines.  A package counts the cumulative time
    of its outermost imports only, and one not imported by the time
    `dynls.cli` is counts 0."""
    entries = []
    for line in stderr.splitlines():
        if line.startswith("import time:") and "|" in line:
            _, cumulative, field = line.split("|")
            if cumulative.strip().isdigit():
                depth = len(field) - len(field.lstrip())
                entries.append((depth, int(cumulative) / 1e6, field.strip()))

    def package(name):
        return next((p for p in SETUP_PACKAGES if name == p or name.startswith(p + ".")), None)

    times = dict.fromkeys(SETUP_PACKAGES.values(), 0.0)
    total = 0.0
    ancestors: list = []  # lines are children first, so walk them backwards
    for depth, cumulative, name in reversed(entries):
        if name == "dynls.cli":
            total = cumulative
        if not total:
            continue  # imported during a call, not during set-up
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        owner = package(name)
        if owner and not any(package(a) for _, a in ancestors):
            times[SETUP_PACKAGES[owner]] += cumulative
        ancestors.append((depth, name))
    times["setup.dynls_s"] = total - sum(times.values())
    return times


def end_to_end(all_jobs: list, records: list) -> dict:
    """End-to-end metrics from the plain run of every job."""
    walls: dict = {}
    work: dict = {}
    for job, rec in zip(all_jobs, records):
        walls[job.metric] = walls.get(job.metric, 0.0) + rec["wall_s"]
        if job.work is not None:
            work[job.metric] = work.get(job.metric, 0.0) + job.work
    metrics = {name: work[name] / wall if name in work else wall for name, wall in walls.items()}
    metrics["peak_rss_mb"] = max(rec["peak_rss_mb"] for rec in records if rec["primary"])
    # the sampled secrecy job sets peak_rss_mb on `tables`, so stream memory shows here
    metrics["stream.peak_rss_mb"] = max(
        rec["peak_rss_mb"] for job, rec in zip(all_jobs, records) if job.path == "stream"
    )
    metrics["setup_s"] = statistics.median(rec["setup_s"] for rec in records)
    return metrics


def merge_spans(records: list) -> dict:
    table: dict = {}
    for rec in records:
        for name, row in rec.get("spans", {}).items():
            acc = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key in acc:
                acc[key] += row[key]
    return table


def per_layer(plain: list, traced: list) -> dict:
    """Per-layer metrics from the traced run of every job."""
    spans = merge_spans(traced)
    counts: dict = {}
    for rec in traced:
        for key, value in rec.get("counts", {}).items():
            if key == "aem.trace_ticks_held":
                counts[key] = max(counts.get(key, 0), value)
            else:
                counts[key] = counts.get(key, 0) + value

    def select(test):
        return [row for name, row in spans.items() if test(name)]

    def total(*names):
        return sum(row["total_s"] for row in select(lambda n: n in names))

    def calls(*names):
        return sum(row["calls"] for row in select(lambda n: n in names))

    def per_call_us(*names):
        n = calls(*names)
        return total(*names) / n * 1e6 if n else 0.0

    def ratio(count, *names):
        n = calls(*names)
        return counts.get(count, 0) / n if n else 0.0

    def tables(label, key):
        return sum(row[key] for row in select(lambda n: n.endswith(f".to_table_array:{label}")))

    parts = [rec["setup_parts"] for rec in traced]
    metrics = {name: statistics.median(p[name] for p in parts) for name in parts[0]}
    step, compile_step = "aem.Machine.step", "aem.compile_step"
    plain_s = sum(rec["wall_s"] for rec in plain)
    traced_s = sum(rec["wall_s"] for rec in traced)
    metrics.update({
        "cli.read_s": total("cli.read.read_bytes", "cli.read.read_text"),
        "cli.write_s": total("cli.write"),
        "tm.instruction_trace_calls": calls("tm.instruction_trace"),
        "tm.instruction_trace_s": total("tm.instruction_trace"),
        "rand.next_bits_calls": calls("rand.BitSource.next_bits"),
        "rand.next_bits_us": per_call_us("rand.BitSource.next_bits"),
        "bitcore.apply_us.xorfam": per_call_us("bitcore.InvertibleMap.apply:xorfam"),
        "bitcore.apply_us.affine": per_call_us("bitcore.InvertibleMap.apply:affine"),
        **{f"bitcore.to_table_array_s.{t}": tables(t, "total_s") for t in TABLES},
        **{f"bitcore.to_table_array_calls.{t}": tables(t, "calls") for t in TABLES},
        "bitcore.invert_s": sum(
            row["total_s"]
            for row in select(lambda n: n.startswith("bitcore.") and n.endswith(".invert"))
        ),
        "dls_engine.realize_us": per_call_us("dls_engine.DlsDecomposition.realize"),
        "dls_engine.decode_us": per_call_us("dls_engine.DlsDecomposition.decode"),
        "dls_engine.secrecy_distribution_s": total("dls_engine.secrecy_distribution"),
        "dls_engine.sampled_histogram_s": total("dls_engine.sampled_observable_histogram"),
        "dls_engine.chisquare_s": total("dls_engine.chisquare"),
        "dls_engine.family_build_s": total(
            "dls_engine.derived_xor_family", "dls_engine.derived_affine_family"
        ),
        "aem.compile_step_us": per_call_us(compile_step),
        "aem.commands_per_step": ratio("aem.commands", compile_step),
        "aem.machine_apply_us": per_call_us("aem.Machine.apply"),
        "aem.machine_step_us": per_call_us(step),
        "aem.connections_per_tick": ratio("aem.connections", step),
        "aem.readout_us": per_call_us("aem.readout_physical"),
        "aem.trace_ticks_held": counts.get("aem.trace_ticks_held", 0),
        "aem.trace_to_jsonl_s": total("aem.trace_to_jsonl"),
        "blockstream.unpack_s": total("blockstream.BitStream.from_packed_bytes"),
        "blockstream.tables_s": total("blockstream.StreamTransform.__init__"),
        "blockstream.apply_s": total(
            "blockstream.StreamTransform.transform", "blockstream.StreamTransform.recover"
        ),
        "blockstream.pack_s": total("blockstream.BitStream.to_packed_bytes"),
        "blockstream.schedule_calls": counts.get("blockstream.schedule_calls", 0),
        "blockstream.tracemalloc_peak_mb": max(
            (rec.get("tracemalloc_peak_mb", 0.0) for rec in traced), default=0.0
        ),
        **{
            f"{layer}.self_s": sum(
                row["self_s"] for row in select(lambda n, p=layer + ".": n.startswith(p))
            )
            for layer in LAYERS
        },
        "trace.overhead_s": traced_s - plain_s,
        "trace.overhead_pct": (traced_s - plain_s) / plain_s * 100 if plain_s else 0.0,
        "trace.spans": sum(rec.get("span_count", 0) for rec in traced),
    })
    return metrics


def environment() -> dict:
    import numpy
    import scipy

    return {
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "code.src_lines": sum(
            len(p.read_text(encoding="utf-8").splitlines()) for p in SRC.rglob("*.py")
        ),
    }


def measure(all_jobs: list, work: Path, seconds: float, deadline: float) -> list:
    """Interleaved calls of every job until `seconds` pass; their records."""
    workers = []
    try:
        for job in all_jobs:
            workers.append(Worker(job, work / "plain" / job.name, False, deadline))
        start = time.monotonic()
        cycles = 0
        while time.monotonic() < deadline:
            for worker in workers:
                begun = time.monotonic()
                while worker.alive and time.monotonic() < deadline:
                    worker.call()
                    if time.monotonic() - begun >= SLICE_S:
                        break
            cycles += 1
            if cycles >= MIN_CYCLES and time.monotonic() - start >= seconds:
                break
    finally:
        records = [worker.close() for worker in workers]
    return records


def trace_once(all_jobs: list, work: Path, deadline: float) -> tuple[list, list]:
    """One plain and one traced call of every job, each in a fresh child."""
    plain, traced = [], []
    for job in all_jobs:
        for records, tag in ((plain, False), (traced, True)):
            worker = Worker(job, work / ("traced" if tag else "plain") / job.name, tag, deadline)
            try:
                if worker.alive and time.monotonic() < deadline:
                    worker.call()
            finally:
                records.append(worker.close())
    return plain, traced


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool, work: Path):
    """Every job of one run; returns (records, metrics or None if a job died)."""
    import jobs  # imports dynls, so only once its sources are known to exist

    deadline = time.monotonic() + RUN_DEADLINE_S
    inputs = work / jobs.INPUTS
    jobs.write_inputs(inputs, WORKLOADS[workload], seed, smoke)
    data = (inputs / jobs.DATA_FILE).read_bytes()
    all_jobs = jobs.build_jobs(WORKLOADS[workload], seed, smoke, data)
    if trace:
        plain, traced = trace_once(all_jobs, work, deadline)
        records = plain + traced
    else:
        records = measure(all_jobs, work, seconds, deadline)
    if not all("wall_s" in rec for rec in records):
        return records, None
    if trace:
        return records, per_layer(plain, traced)
    return records, end_to_end(all_jobs, records)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for self-tests")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "dynls" / "cli.py").is_file():
        print(f"perfbench: no dynls sources under {SRC}", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2**64:
        print("perfbench: --seed must fit in 64 bits", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        records, values = run(
            args.workload, args.seed, args.seconds, bool(args.trace), args.smoke, work
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "smoke": args.smoke,
        "environment": environment(),
        "jobs": [{k: v for k, v in rec.items() if k != "spans"} for rec in records],
    }
    if args.trace:
        report["spans"] = merge_spans([rec for rec in records if rec["traced"]])
    print(json.dumps(report, sort_keys=True))
    if values is None:
        print("perfbench: a job ended without results; see the report above", file=sys.stderr)
        return 1
    units = PER_LAYER if args.trace else END_TO_END
    failed = sum(rec["failed"] for rec in records)
    summary = {
        "correct": failed == 0,
        "attempted": sum(rec["calls"] for rec in records),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
