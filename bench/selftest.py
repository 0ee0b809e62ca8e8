"""Self-test of the benchmark: every workload at reduced size, both modes.

Run from the repository root:

    python3 bench/selftest.py

Checks that each run exits 0 with every correctness check passed (a listed
known defect is reported, not failed), that the last stdout line has exactly
the keys correct/attempted/failed/metrics, that the metrics are exactly the
names and units in BENCHMARK.json, and that the benchmark refuses to run in a
directory that holds only BENCHMARK.json and bench/. Exits 1 on any problem.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
SPEC = json.loads((Path.cwd() / "BENCHMARK.json").read_text(encoding="utf-8"))


def run(workload: str, trace: int, cwd: Path = Path.cwd()) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "2", "--trace", str(trace), "--small"],
        capture_output=True, text=True, cwd=cwd, timeout=180,
    )


def check_run(workload: str, trace: int) -> list[str]:
    res = run(workload, trace)
    where = f"{workload} --trace {trace}"
    if res.returncode != 0:
        return [f"{where}: exit {res.returncode}\n{res.stdout[-2000:]}{res.stderr[-2000:]}"]
    result = json.loads(res.stdout.splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not (result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1):
        problems.append(f"{where}: correct {result['correct']}, failed {result['failed']}")
    spec = SPEC["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in spec}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        problems.append(f"{where}: metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(want))}")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)) or (not trace and m["value"] <= 0):
            problems.append(f"{where}: {name} = {m['value']!r}")
    for line in res.stdout.splitlines():
        if line.startswith("known defect ") and line.split()[2].rstrip(":") not in workloads.KNOWN_DEFECTS:
            problems.append(f"{where}: unlisted defect {line}")
    print(f"{where}: {result['attempted']} attempted, {len(result['metrics'])} metrics", flush=True)
    return problems


def check_bare() -> list[str]:
    """Only BENCHMARK.json and bench/: the run must fail without a result."""
    bare = Path.cwd() / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(Path.cwd() / "BENCHMARK.json", bare)
    try:
        res = run("docs", 0, cwd=bare)
    finally:
        shutil.rmtree(bare)
    if res.returncode == 0 or '"metrics"' in res.stdout:
        return [f"bare directory: exit {res.returncode}, stdout {res.stdout[-300:]!r}"]
    print(f"bare directory: exit {res.returncode}, no result", flush=True)
    return []


def main() -> int:
    problems = check_bare()
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace in (0, 1):
            problems += check_run(workload, trace)
    for p in problems:
        print("PROBLEM " + p)
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
