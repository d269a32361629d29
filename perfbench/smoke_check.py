"""Smoke check of the benchmark: one task per workload, traced and untraced.

    python3 perfbench/smoke_check.py

Run from the root of a checkout.  For every workload in BENCHMARK.json it
runs run.py with --seconds 0 (exactly one task) once with --trace 0 and
once with --trace 1, echoes the printed metrics, and fails unless the last
line is the result object, every task passed its output check, and every
metric BENCHMARK.json names for that mode is printed, on its own line and in
the object, with its unit.  It is also the one command that shows every
metric of every workload.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def check(spec, workload, trace) -> list[str]:
    cmd = [*spec["command"], "--workload", workload, "--seed", "0", "--seconds", "0",
           "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600,
                          check=False)
    where = f"{workload} trace={trace}"
    if done.returncode != 0:
        return [f"{where}: exit code {done.returncode}: {done.stderr.strip()[-400:]}"]
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{where}: {result['failed']} of {result['attempted']} tasks failed")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    if set(result["metrics"]) != {m["name"] for m in wanted}:
        problems.append(f"{where}: metrics {sorted(result['metrics'])}")
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"] or not isinstance(got["value"], (int, float)):
            problems.append(f"{where}: {m['name']} reported as {got}")
        elif not any(line.split()[:1] == [m["name"]] and line.split()[-1] == m["unit"]
                     for line in lines[:-1]):
            problems.append(f"{where}: no printed line for {m['name']} [{m['unit']}]")
    print("\n".join(lines[:-1]))
    print(f"{where}: {'ok' if not problems else 'FAILED'}", flush=True)
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            problems += check(spec, w["name"], trace)
    for p in problems:
        print(p, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
