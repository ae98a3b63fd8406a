"""Self-check of the benchmark, at reduced size.

    python3 perfbench/selfcheck.py

Runs every workload with ``--small`` and checks that:

* every end-to-end metric that BENCHMARK.json names is emitted with its unit,
  plus the ops_failed_ratio line, and no output check fails;
* a traced run emits every per-layer metric with its unit;
* a corrupted pinned digest is counted as a failed operation;
* in a directory without the carmakit sources the benchmark exits non-zero
  without printing a result.

Exits 0 if all of these hold.  Takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run_bench(workload: str, trace: int, *extra, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--small", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == RESULT_KEYS, result.keys()
    assert result["attempted"] >= 1
    return result


def check_metrics(result: dict, declared: list, label: str) -> None:
    got = result["metrics"]
    assert set(got) == {m["name"] for m in declared}, (
        label, sorted(set(got) ^ {m["name"] for m in declared}))
    for m in declared:
        assert got[m["name"]]["unit"] == m["unit"], (label, m["name"])
        assert isinstance(got[m["name"]]["value"], float), (label, m["name"])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]

    for workload in workloads:
        proc = run_bench(workload, 0)
        result = result_of(proc)
        assert result["correct"] and result["failed"] == 0, proc.stderr
        check_metrics(result, spec["end_to_end"], workload)
        assert any(line.startswith("ops_failed_ratio ")
                   for line in proc.stdout.splitlines()), "no ops_failed_ratio"
        print(f"ok   {workload}: {len(result['metrics'])} end-to-end metrics, "
              f"{result['attempted']} operations checked")

    result = result_of(run_bench(workloads[0], 1))
    assert result["correct"] and result["failed"] == 0, result
    check_metrics(result, spec["per_layer"], "trace")
    print(f"ok   traced: {len(result['metrics'])} per-layer metrics")

    scratch = ROOT / ".perfbench_work" / "selfcheck"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    try:
        pins = json.loads((HERE / "pinned.json").read_text())
        key = sorted(pins)[0]
        pins[key] = "0" * 64
        corrupted = scratch / "pinned.json"
        corrupted.write_text(json.dumps(pins))
        result = result_of(run_bench(workloads[0], 0, "--pins", str(corrupted)))
        assert not result["correct"] and result["failed"] == 1, result
        print(f"ok   corrupted pin {key} counted as 1 failed operation")

        bare = scratch / "bare"
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = run_bench(workloads[0], 0, cwd=bare)
        assert proc.returncode != 0 and '"correct"' not in proc.stdout, proc.stdout
        print("ok   without the sources the benchmark fails and prints no result")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
