"""Record what `qesf classify`, `solve` and `verify` output over the parity set.

    python tools/parity.py SRC OUTDIR

SRC is a checkout of this repository; its `src/qesf` is imported and run in
process. The parity set is every config of SRC's `perfbench/vetted.json`
(built with `perfbench/workloads.build_config`), the seven catalog presets
at N = 0, 1, 2, 3, 5 and 8, and the wall and cosh configs of the CI
console-script step. For each config, OUTDIR/<name>/ gets the solve CSV
bytes, the stdout and stderr of the three commands (the work directory
replaced by <WORK>, warnings as one `Category: message` line each), their
exit codes and the verify JSON; verify runs when solve exits 0. Two trees
give the same outputs when

    diff -r OUTDIR_A OUTDIR_B

prints nothing.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys
import tempfile
import traceback
import warnings

PRESET_NS = (0, 1, 2, 3, 5, 8)
# the wall and cosh configs of .github/workflows/tier1.yml
CI_CONFIGS = {
    "w0-wall": {"Q": [0, 4], "P": [-1, 0, 2], "N": 1},
    "mirror": {"Q": [0, 4], "P": [0, 0, 2], "singularities": [{"a": 1, "mu": 0.3}], "N": 1},
    "cosh": {"Q": [-1, 0, 1], "P": [0, -1, 1, 0], "N": 2},
    "two-wall": {"Q": [1], "P": [0, 1], "N": 7,
                 "singularities": [{"a": -0.1, "mu": 0.05}, {"a": 0.1, "mu": 0.45}]},
    "two-wall-stall": {"Q": [1], "P": [0, 1], "N": 7,
                       "singularities": [{"a": -0.1, "mu": 0.01}, {"a": 0.1, "mu": 0.3}]},
}


def parity_configs(src: str) -> dict[str, dict]:
    """name -> config of every member of the parity set, in a fixed order."""
    sys.path[:0] = [os.path.join(src, "src"), os.path.join(src, "perfbench")]
    import workloads
    from qesf import catalog

    with open(workloads.VETTED_PATH) as fh:
        vetted = json.load(fh)["slots"]
    configs = {}
    for slots in workloads.SLOTS.values():
        for slot in slots:
            for i, params in enumerate(vetted[slot.tag]["params"]):
                configs[f"{slot.tag}-{i:02d}"] = workloads.build_config(slot, params)
    for name in catalog.names():
        for N in PRESET_NS:
            configs[f"{name}-N{N}"] = {"catalog": name, "N": N}
    configs.update(CI_CONFIGS)
    return configs


def _run(argv: list[str], work: str) -> tuple[str, str, str]:
    """(exit code, stdout, stderr) of qesf.cli.main(argv) in this process."""
    from qesf import cli

    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            code = str(cli.main(argv))
        except Exception:  # recorded, and the next config still runs
            code = "exception"
            # no frames: they would name this checkout's paths
            err.write(traceback.format_exc(limit=0))
    for w in caught:
        err.write(f"{w.category.__name__}: {w.message}\n")
    return code, out.getvalue().replace(work, "<WORK>"), err.getvalue().replace(work, "<WORK>")


def record(name: str, cfg: dict, work: str, outdir: str) -> None:
    """Run classify, solve, and verify when solve succeeds, on one config;
    write what they output to outdir/name/."""
    dest = os.path.join(outdir, name)
    os.makedirs(dest)
    config, csv_path, json_path = (os.path.join(work, f"{name}{ext}")
                                   for ext in (".json", ".csv", ".report.json"))
    with open(config, "w") as fh:
        json.dump(cfg, fh)
    codes, outputs = {}, {}
    codes["classify"], *streams = _run(["classify", config], work)
    outputs.update(zip(("classify.stdout", "classify.stderr"), streams))
    codes["solve"], *streams = _run(["solve", config, "--out", csv_path], work)
    outputs.update(zip(("solve.stdout", "solve.stderr"), streams))
    if codes["solve"] == "0":
        codes["verify"], *streams = _run(["verify", config, csv_path, "--json-out", json_path],
                                         work)
        outputs.update(zip(("verify.stdout", "verify.stderr"), streams))
    outputs["exit_codes"] = "".join(f"{cmd} {code}\n" for cmd, code in codes.items())
    for fname, text in outputs.items():
        with open(os.path.join(dest, fname), "w") as fh:
            fh.write(text)
    for src_path, fname in ((csv_path, "solve.csv"), (json_path, "verify.json")):
        if os.path.exists(src_path):
            shutil.copyfile(src_path, os.path.join(dest, fname))


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    src, outdir = (os.path.abspath(a) for a in argv)
    if os.path.exists(outdir) and os.listdir(outdir):
        print(f"{outdir} is not empty", file=sys.stderr)
        return 2
    os.makedirs(outdir, exist_ok=True)
    configs = parity_configs(src)
    with tempfile.TemporaryDirectory() as work:
        for name, cfg in configs.items():
            record(name, cfg, work, outdir)
    print(f"{len(configs)} configs -> {outdir}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
