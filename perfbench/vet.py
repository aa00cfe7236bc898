"""Build vetted.json: the parameter points each workload slot draws from.

    python3 perfbench/vet.py

For every slot this draws CANDIDATES parameter points from the slot's ranges
(workloads.RANGES), runs `qesf solve` and `qesf verify` on each exactly as
the benchmark does, with the span tracer installed, and keeps the points that
  * find the slot's most common number of branches, and
  * take within NEWTON_BAND of the slot's median Newton work (bae.jacobian
    plus bae.residual calls), so that every seed gives the same amount of
    work.
A candidate that fails a check, or whose output is wrong, stops the vet with
exit code 1 and writes nothing: a defect must show in the benchmark, not be
vetted out of its inputs. Re-run it when the workload slots or ranges change;
it always rebuilds the whole table, and the benchmark reads the file and
never re-vets.
"""

from __future__ import annotations

import json
import random
import shutil
import statistics
import sys
from collections import Counter
from pathlib import Path

import harness
import workloads
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
NEWTON_BAND = 0.03
CANDIDATES = 32


def main() -> int:
    path = Path(workloads.VETTED_PATH)
    harness.cap_threads()
    qesf = harness.import_qesf(ROOT)
    work = ROOT / ".perfbench_work" / "vet"
    slots, bad = {}, []
    try:
        for workload, slot_list in workloads.SLOTS.items():
            for slot in slot_list:
                rng = random.Random(f"vet:{slot.tag}")
                cands = [slot.draw(rng) for _ in range(CANDIDATES)]
                configs = [workloads.Config(slot, p, workloads.build_config(slot, p))
                           for p in cands]
                for c in configs:
                    tag = qesf.model.classify(qesf.cli.spec_from_config(c.cfg)).tag
                    if tag != workloads.FAMILY_CLASS[slot.family]:
                        raise SystemExit(f"{slot.tag}: {c.params} is {tag}")
                tracer = Tracer(qesf)
                runner = harness.Runner(qesf, work / slot.tag, configs, tracer)
                tracer.install()
                try:
                    outs = []
                    for i in range(len(configs)):
                        tracer.trace = i
                        outs.append(runner.run(i))
                finally:
                    tracer.uninstall()
                calls = Counter((r[2], r[3]) for r in tracer.spans)
                steps = [calls[(i, "bae.jacobian")] + calls[(i, "bae.residual")]
                         for i in range(len(configs))]
                found = Counter(o.found for o in outs)
                mode = found.most_common(1)[0][0]
                bad += [f"{slot.tag} {c.params}: {'; '.join(o.failures + o.wrong)}"
                        for c, o in zip(configs, outs) if o.failures or o.wrong]
                modal = [i for i, o in enumerate(outs) if o.found == mode]
                mid = statistics.median(steps[i] for i in modal)
                kept = [configs[i].params for i in modal
                        if abs(steps[i] - mid) <= NEWTON_BAND * mid]
                slots[slot.tag] = {"workload": workload, "found": mode,
                                   "found_counts": {str(k): v for k, v in sorted(found.items())},
                                   "newton_work_median": mid,
                                   "newton_work": steps,
                                   "candidates": len(cands),
                                   "params": kept}
                print(f"{slot.tag:22s} found {dict(sorted(found.items()))}, Newton work "
                      f"{min(steps)}..{max(steps)} (median {mid:g}) -> kept {len(kept)}", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if bad:
        print("candidates that failed a check; vetted.json left unchanged:", *bad, sep="\n  ")
        return 1
    doc = {"multistart_seed": workloads.MULTISTART_SEED, "newton_band": NEWTON_BAND,
           "slots": slots}
    path.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
