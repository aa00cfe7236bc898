"""qesf benchmark: time to a certified spectrum, per workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; qesf is imported from `src/`. The
run generates the workload's configs from the seed and drives each one
through `qesf solve` and `qesf verify` (in-process `qesf.cli.main`), as a
closed loop with one client. It checks every output, prints every metric by
name with its unit, and writes the results (and, traced, the spans) under
`.perfbench_out/`. The last line of standard output is one JSON object.

`--seconds` sets the amount of work: the number of passes over the configs
is seconds divided by the pass time measured on the reference machine
(2 cores), at least two. Sample counts, and with them the percentile the
tail reports, are then the same on every run of every commit.

With `--trace 1` the second and third of every four passes run with span
wrappers around each layer's public functions; the run reports the
per-layer metrics of the traced passes and the tracing overhead (traced
versus untraced pass time) instead of the end-to-end metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import harness
import workloads
from tracing import PER_LAYER, Tracer, combine_passes, per_config

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
WORK_DIR = ROOT / ".perfbench_work"

# One untraced pass over each workload's configs, in seconds, measured on
# the reference machine (2 cores, Python 3.11, numpy 2.4, scipy 1.17).
NOMINAL_PASS_S = {"type1-spectrum": 9.5, "type2-multistart": 6.0}
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 120

# (metric, unit) of an untraced run; BENCHMARK.json lists the same names.
END_TO_END = [
    ("setup_s", "s"),
    ("solve_p50_s", "s"),
    ("solve_tail_s", "s"),
    ("verify_per_branch_p50_s", "s"),
    ("verify_per_branch_tail_s", "s"),
    ("certified_branches_per_s", "1/s"),
    ("branch_recall", "ratio"),
]


def passes_for(workload: str, seconds: float) -> int:
    return max(2, round(seconds / NOMINAL_PASS_S[workload]))


def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with at least 10 samples above it: (value, percentile)."""
    s = sorted(values)
    if len(s) <= 10:
        return s[-1], 100.0
    i = len(s) - 11
    return s[i], 100.0 * (i + 1) / len(s)


def setup(qesf, workload: str, seed: int) -> list[workloads.Config]:
    """Generate the workload and check that every config is in its class."""
    configs = workloads.generate(workload, seed)
    for c in configs:
        tag = qesf.model.classify(qesf.cli.spec_from_config(c.cfg)).tag
        want = workloads.FAMILY_CLASS[c.slot.family]
        if tag != want:
            raise harness.SetupError(f"{c.slot.tag}: class {tag}, expected {want}")
    return configs


def probe_setup(workload: str, seed: int, probe_dir: Path) -> float:
    """Wall time of a fresh process that imports qesf and generates the configs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed), "--probe-dir", str(probe_dir)]
    t0 = time.perf_counter()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S)
    took = time.perf_counter() - t0
    if done.returncode != 0:
        raise harness.SetupError(f"setup probe failed: {done.stderr.strip()}")
    return took


def end_to_end(outcomes: list[list[harness.Outcome]], configs, setup_times) -> tuple[dict, dict]:
    flat = [o for run in outcomes for o in run]
    solve = [t for o in flat for t in o.solve_s]
    per_branch = [o.verify_s / o.certified for o in flat if o.certified]
    certified = sum(o.certified for o in flat)
    busy = sum(statistics.median(o.solve_s) + o.verify_s for o in flat if o.solve_s)
    counted = [(o.found, c.slot.expected_branches)
               for o, c in zip(outcomes[0], configs) if c.slot.expected_branches]
    s_tail, s_pct = tail(solve)
    v_tail, v_pct = tail(per_branch) if per_branch else (float("nan"), 0.0)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "solve_p50_s": statistics.median(solve),
        "solve_tail_s": s_tail,
        "verify_per_branch_p50_s": statistics.median(per_branch) if per_branch else float("nan"),
        "verify_per_branch_tail_s": v_tail,
        "certified_branches_per_s": certified / busy if busy else 0.0,
        "branch_recall": (sum(f for f, _ in counted) / sum(e for _, e in counted)
                          if counted else float("nan")),
    }
    notes = {
        "setup_s": f"median of {len(setup_times)} fresh processes",
        "solve_p50_s": f"{len(solve)} solves",
        "solve_tail_s": f"p{s_pct:.1f} of {len(solve)} solves (10 above it)",
        "verify_per_branch_p50_s": f"{len(per_branch)} verifies",
        "verify_per_branch_tail_s": f"p{v_pct:.1f} of {len(per_branch)} verifies",
        "certified_branches_per_s": (f"{certified} certified in {busy:.3f} s of one solve "
                                     f"(median of {harness.SOLVE_REPEATS}) + one verify per config"),
        "branch_recall": (f"{sum(f for f, _ in counted)} found of "
                          f"{sum(e for _, e in counted)} expected, {len(counted)} configs"),
    }
    return metrics, notes


def pass_seconds(run: list[harness.Outcome]) -> float:
    return sum(sum(o.solve_s) + o.verify_s for o in run)


def run_pass(runner: harness.Runner, tracer=None, label: str = "") -> list[harness.Outcome]:
    out = []
    for i in range(len(runner.configs)):
        if tracer is not None:
            tracer.trace = f"{label}-c{i}"
        out.append(runner.run(i))
    return out


def print_table(configs, outcomes) -> None:
    print(f"{'config':22s} {'found':>5s} {'expect':>6s} {'cert':>4s} "
          f"{'solve_s':>8s} {'verify_s':>8s}  failures")
    for i, c in enumerate(configs):
        runs = [run[i] for run in outcomes]
        exp = c.slot.expected_branches
        fails = sorted({f for o in runs for f in o.failures})
        print(f"{c.slot.tag:22s} {runs[0].found:5d} {'-' if exp is None else exp:>6} "
              f"{runs[0].certified:4d} {statistics.median(t for o in runs for t in o.solve_s):8.4f} "
              f"{statistics.median(o.verify_s for o in runs):8.4f}  {'; '.join(fails)}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.SLOTS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--probe-dir", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    threads = harness.cap_threads()
    try:
        qesf = harness.import_qesf(ROOT)
        if args.setup_probe:
            harness.Runner(qesf, Path(args.probe_dir), setup(qesf, args.workload, args.seed))
            return 0
    except harness.SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    work = WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        return bench(qesf, args, threads, work)
    except harness.SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)


def bench(qesf, args, threads: int, work: Path) -> int:
    env = harness.environment(ROOT, threads, args.workload, args.seed)
    setup_times = [probe_setup(args.workload, args.seed, work / "probe-0")]
    tracer = Tracer(qesf) if args.trace else None
    if tracer:
        tracer.install()  # setup spans: model.classify and what it calls
    try:
        configs = setup(qesf, args.workload, args.seed)
    finally:
        if tracer:
            tracer.uninstall()
    runner = harness.Runner(qesf, work / "run", configs)
    passes = passes_for(args.workload, args.seconds)

    print(f"workload {args.workload}: {workloads.WHY[args.workload]}")
    print("environment: " + json.dumps(env, sort_keys=True))
    outcomes, traced, untraced = [], {}, []
    for p in range(passes):
        # The other setup probes are spread between the passes, so that
        # setup_s samples the machine over the whole run.
        while len(setup_times) < 1 + (SETUP_PROBES - 1) * (p + 1) // passes:
            setup_times.append(probe_setup(args.workload, args.seed,
                                           work / f"probe-{len(setup_times)}"))
        if tracer and p % 4 in (1, 2):  # U T T U U T ...: drift hits both sides
            runner.tracer = tracer
            tracer.install()
            try:
                run = traced[f"p{p}"] = run_pass(runner, tracer, f"p{p}")
            finally:
                tracer.uninstall()
                runner.tracer = None
        else:
            run = run_pass(runner)
            untraced.append(run)
        outcomes.append(run)
    layer, exact_mismatch, overhead, breakdown = {}, [], None, None
    if tracer:
        stats = tracer.by_trace()
        per_pass = [tracer.pass_metrics(stats, [f"{label}-c{i}" for i in range(len(configs))])
                    for label in traced]
        layer, exact_mismatch = combine_passes(per_pass)
        layer["model.classify.s"] = stats["setup"].get("model.classify.s", 0.0)
        traced_s = statistics.median(pass_seconds(run) for run in traced.values())
        untraced_s = statistics.median(pass_seconds(run) for run in untraced)
        layer["trace.overhead_frac"] = traced_s / untraced_s - 1.0
        overhead = {"untraced_pass_median_s": untraced_s, "traced_pass_median_s": traced_s}
        breakdown = per_config(stats, list(traced), [c.slot.tag for c in configs])

    print_table(configs, outcomes)
    flat = [o for run in outcomes for o in run]
    failed = sum(1 for o in flat if o.failures)
    wrong = sorted({w for o in flat for w in o.wrong})
    wrong += [f"{k} differs between traced passes" for k in exact_mismatch]
    e2e, notes = end_to_end(untraced, configs, setup_times)
    print(f"passes: {len(outcomes)}{f' ({len(traced)} traced)' if tracer else ''}; "
          f"configs per pass: {len(configs)}; end-to-end metrics from untraced passes")
    for name, unit in END_TO_END:
        print(f"  {name:28s} {e2e[name]:.6g} {unit}   [{notes[name]}]")
    print(f"  {'failed_frac':28s} {failed / len(flat):.6g} ratio   "
          f"[{failed} of {len(flat)} config runs failed]")
    if tracer:
        for name, unit, _ in PER_LAYER:
            print(f"  {name:40s} {layer[name]:.6g} {unit}")
        print(f"  tracing overhead: traced pass {overhead['traced_pass_median_s']:.3f} s "
              f"vs untraced {overhead['untraced_pass_median_s']:.3f} s (medians)")
    for w in wrong:
        print(f"INCORRECT: {w}")

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result = {
        "environment": env, "why": workloads.WHY[args.workload], "passes": len(outcomes),
        "configs": [{"tag": c.slot.tag, "config": c.cfg, "expected_branches":
                     c.slot.expected_branches, "expected_source": c.slot.expected_source}
                    for c in configs],
        "samples": [[{"solve_s": o.solve_s, "verify_s": o.verify_s, "found": o.found,
                      "certified": o.certified, "failures": o.failures} for o in run]
                    for run in outcomes],
        "setup_probe_s": setup_times,
        "end_to_end": {n: {"value": e2e[n], "unit": u, "note": notes[n]} for n, u in END_TO_END},
        "failed_frac": failed / len(flat),
        "per_layer": {n: {"value": layer[n], "unit": u} for n, u, _ in PER_LAYER} if tracer else None,
        "trace_overhead": overhead,
        "per_config": breakdown,
        "incorrect": wrong,
    }
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(result, indent=1))
    if tracer:
        tracer.dump(OUT_DIR / f"spans-{stem}.json", {"environment": env})
    print(f"results -> {OUT_DIR / (stem + '.json')}")

    if tracer:
        metrics = {n: {"value": layer[n], "unit": u} for n, u, _ in PER_LAYER}
    else:
        metrics = {n: {"value": e2e[n], "unit": u} for n, u in END_TO_END}
    print(json.dumps({"correct": not wrong, "attempted": len(flat), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
