"""Self-test of the benchmark: exact counts repeat, and a second seed is clean.

For each workload it makes shortened runs (``--seconds 1``): two traced and
two untraced runs at one seed, and one untraced run at a second seed.

* The two traced runs must report identical per-layer counts and byte
  sizes, and identical check-class shares.
* The two untraced runs must report identical end-to-end byte metrics.
* Every run must end with ``correct`` true and ``failed == 0``, that is
  ``op_fail_ratio == 0``.

Run from the root of a revoca checkout (takes about ten minutes):

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("pairing-check", "large-table-http", "revoke-churn")
SEED, OTHER_SEED = 11, 12
EXACT_UNITS = ("count", "ratio", "B")  # figures that must repeat exactly for a seed


def run(workload: str, seed: int, trace: int) -> tuple:
    """One shortened run: (exit code, result object, check-class lines)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=HERE.parent, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"{workload} seed {seed}: no output; stderr:\n{proc.stderr}")
    # a class line ends with its median and [min-max] times, which vary
    classes = [" ".join(line.split()[:-2]) for line in lines if line.startswith("  days=")]
    return proc.returncode, json.loads(lines[-1]), classes


def exact(result: dict) -> dict:
    return {name: m["value"] for name, m in result["metrics"].items() if m["unit"] in EXACT_UNITS}


def main() -> int:
    problems = []
    for workload in WORKLOADS:
        plan = ((SEED, 1), (SEED, 1), (SEED, 0), (SEED, 0), (OTHER_SEED, 0))
        runs = [run(workload, seed, trace) for seed, trace in plan]
        for (code, result, _), (seed, trace) in zip(runs, plan):
            if code != 0 or not result["correct"] or result["failed"]:
                problems.append(f"{workload} seed {seed} trace {trace}: exit {code}, {result['failed']} failed")
        for kind, (first, second) in (("per-layer", runs[0:2]), ("end-to-end", runs[2:4])):
            a, b = exact(first[1]), exact(second[1])
            if a != b:
                problems.append(f"{workload}: {kind} exact figures differ: {sorted(k for k in a if a[k] != b.get(k))}")
            if first[2] != second[2]:
                problems.append(f"{workload}: {kind} check classes differ")
        print(f"{workload}: compared {len(exact(runs[0][1]))} per-layer and"
              f" {len(exact(runs[2][1]))} end-to-end exact figures", flush=True)
    for problem in problems:
        print("FAIL", problem)
    print("self-test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
