"""Self-test of the benchmark: metric names, units and repeatable counts.

    python3 perfbench/selftest.py

Checks that
  * BENCHMARK.json lists exactly the metrics run.py reports, with the same
    units;
  * an untraced run prints every end-to-end metric with its unit and
    finds its outputs correct;
  * two traced runs print every per-layer metric with its unit, and agree
    exactly on the counts that must repeat (tracing.EXACT_COUNTS).
Each run uses the smallest amount of work (two passes) and seed SEED, on
every workload. Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import run
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SEED = 1


def fail(msg: str) -> None:
    print(f"FAIL: {msg}")
    sys.exit(1)


def bench(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(Path(run.__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        fail(f"{' '.join(cmd[1:])} exited {done.returncode}: {done.stderr.strip()}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result keys {sorted(result)}")
    if not result["correct"]:
        fail(f"{workload} trace={trace}: outputs incorrect\n{done.stdout}")
    return result


def check_units(result: dict, expected: list[tuple[str, str]], what: str) -> None:
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != dict(expected):
        fail(f"{what}: metrics {got} != {dict(expected)}")
    for name, v in result["metrics"].items():
        if not isinstance(v["value"], (int, float)):
            fail(f"{what}: {name} = {v['value']!r} is not a number")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if [(m["name"], m["unit"]) for m in spec["end_to_end"]] != run.END_TO_END:
        fail("BENCHMARK.json end_to_end differs from run.END_TO_END")
    if ([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
            != tracing.PER_LAYER):
        fail("BENCHMARK.json per_layer differs from tracing.PER_LAYER")
    if sorted(w["name"] for w in spec["workloads"]) != sorted(workloads.SLOTS):
        fail("BENCHMARK.json workloads differ from workloads.SLOTS")
    print("BENCHMARK.json matches the metrics the runs report")

    for workload in workloads.SLOTS:
        check_units(bench(workload, SEED, 0), run.END_TO_END, f"{workload} untraced")
        per_layer = [(n, u) for n, u, _ in tracing.PER_LAYER]
        first, second = (bench(workload, SEED, 1) for _ in range(2))
        for r in (first, second):
            check_units(r, per_layer, f"{workload} traced")
        for name in tracing.EXACT_COUNTS:
            a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
            if a != b:
                fail(f"{workload}: {name} {a} != {b} between two traced runs")
        counts = ", ".join(f"{n}={first['metrics'][n]['value']:g}" for n in tracing.EXACT_COUNTS)
        print(f"{workload}: every metric present with its unit; exact counts repeat ({counts})")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
