"""Serves one job's dynls CLI calls from a fresh process.

    python child.py <spec.json> <launch time from time.time()>

After importing the CLI, the child reports its set-up time as one JSON line
on stdout, then answers each command line read from stdin:

    run <out dir>   call the CLI once, reply {"exit": code, "wall_s": seconds}
    quit            reply with the process totals (peak RSS, spans) and exit

The spec names the CLI arguments, with `{out}` standing for the output
directory, and whether to trace the calls.  The CLI's own output goes to
`stdout.txt` in the working directory.
"""

import sys
import time

launched = float(sys.argv[2])
import dynls.cli  # noqa: E402  (import time is the measured set-up)

setup_s = time.time() - launched

import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402


def reply(message: dict) -> None:
    sys.__stdout__.write(json.dumps(message) + "\n")
    sys.__stdout__.flush()


def call(argv: list) -> int:
    try:
        return dynls.cli.main(argv)
    except SystemExit as exc:  # argparse rejects its arguments this way
        return exc.code if isinstance(exc.code, int) else 2


def main() -> None:
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    tracer = None
    if spec["trace"]:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    if spec["tracemalloc"]:
        import tracemalloc

        tracemalloc.start()
    reply({"setup_s": setup_s})
    with open("stdout.txt", "w", encoding="utf-8") as log, contextlib.redirect_stdout(log):
        for line in sys.stdin:
            command, _, out = line.strip().partition(" ")
            if command != "run":
                break
            argv = [out if arg == "{out}" else arg for arg in spec["argv"]]
            t0 = time.perf_counter()
            code = call(argv)
            reply({"exit": code, "wall_s": time.perf_counter() - t0})
    totals = {"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if spec["tracemalloc"]:
        totals["tracemalloc_peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
    if tracer is not None:
        totals["spans"] = tracer.summarize()
        totals["span_count"] = len(tracer.name_id)
        totals["counts"] = dict(tracer.counts)
    reply(totals)


if __name__ == "__main__":
    main()
