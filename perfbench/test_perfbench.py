"""Self-tests of the benchmark, at smoke sizes.

    python -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import jobs  # noqa: E402
import run  # noqa: E402


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("workload, trace", [("tables", "0"), ("utm", "1")])
def test_smoke_run_is_correct_and_complete(workload, trace):
    proc = bench("--workload", workload, "--seed", "5", "--seconds", "0",
                 "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 9
    names = run.PER_LAYER if trace == "1" else run.END_TO_END
    assert set(result["metrics"]) == set(names)


def _stream_worker(tmp_path, corrupt):
    """A smoke-size w16 transform whose output is damaged before its check."""
    inputs = tmp_path / jobs.INPUTS
    jobs.write_inputs(inputs, run.WORKLOADS["tables"], 7, smoke=True)
    data = (inputs / jobs.DATA_FILE).read_bytes()
    job = next(j for j in jobs.build_jobs(run.WORKLOADS["tables"], 7, True, data)
               if j.name == "stream.w16.transform")
    check = job.check

    def damaged_check(job_dir, code):
        corrupt(job_dir / "out" / "stream.bits")
        return check(job_dir, code)

    job.check = damaged_check
    deadline = run.time.monotonic() + 60
    return run.Worker(job, tmp_path / "plain" / job.name, False, deadline)


def flip_one_byte(path: Path) -> None:
    raw = bytearray(path.read_bytes())
    raw[len(raw) // 2] ^= 0x10
    path.write_bytes(bytes(raw))


def test_flipped_output_byte_counts_as_failed_operation(tmp_path):
    worker = _stream_worker(tmp_path, flip_one_byte)
    worker.call()
    record = worker.close()
    assert record["calls"] == 1 and record["failed"] == 1
    assert any("differs" in p for p in record["problems"])


def test_untouched_output_passes(tmp_path):
    worker = _stream_worker(tmp_path, lambda path: None)
    worker.call()
    worker.call()
    record = worker.close()
    assert record["calls"] == 2 and record["failed"] == 0, record["problems"]


def test_recover_check_rejects_other_bytes(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    (out / "recovered.bits").write_bytes(b"\x00" * 12)
    assert jobs.check_recover(tmp_path, 0, b"\x00" * 11 + b"\x01")
    assert not jobs.check_recover(tmp_path, 0, b"\x00" * 12)


def test_affine_histogram_matches_table_enumeration():
    family = jobs._family("affine", 9, [0, 1], 3)
    for m in family.values():
        table = m.to_table_array()
        for b in (0, 1):
            want = [0] * 256
            for r in range(256):
                want[int(table[r | (b << 8)]) & 255] += 1
            assert jobs.observable_histogram(m, b) == want


def test_fails_without_result_when_sources_are_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "utm", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_import_times_count_outermost_set_up_imports():
    lines = [
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |       2000 |       numpy.core",
        "import time:       100 |       3000 |     numpy",
        "import time:       100 |       1000 |       scipy.stats._x",
        "import time:       100 |       1500 |     scipy.stats",
        "import time:       100 |      10000 |   dynls",
        "import time:       100 |      10500 | dynls.cli",
        "import time:       100 |       4000 | requests",
    ]
    times = run.import_times("\n".join(lines))
    assert times == pytest.approx({
        "setup.numpy_s": 0.003,
        "setup.scipy_stats_s": 0.0015,
        "setup.requests_s": 0.0,
        "setup.dynls_s": 0.006,
    })
