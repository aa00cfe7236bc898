"""Record what `qesf classify`, `solve` and `verify` output over the parity set,
and compare two such records.

    python tools/parity.py SRC OUTDIR
    python tools/parity.py --compare OUTDIR_A OUTDIR_B

SRC is a checkout of this repository; its `src/qesf` is imported and run in
process. The parity set is every config of SRC's `perfbench/vetted.json`
(built with `perfbench/workloads.build_config`), the seven catalog presets
at N = 0, 1, 2, 3, 5 and 8, the wall, cosh, sinh and two-component
configs of the CI console-script step, and sextic-halfline at N = 40.
For each config, OUTDIR/<name>/
gets the solve CSV bytes, the stdout and stderr of the three commands
(the work directory replaced by <WORK>, warnings as one
`Category: message` line each), their exit codes and the verify JSON;
verify runs when solve exits 0. Two trees give the same outputs when

    diff -r OUTDIR_A OUTDIR_B

prints nothing.

--compare holds OUTDIR_B to OUTDIR_A where a change may move a spectrum
level or a claimed energy by its rounding, or a node count, but nothing
else that counts: it exits 1 when a config is in one tree only, or when a
config's solve CSV bytes, exit codes or verify verdicts differ. It prints
every config with an output that differs, the files that differ, under it
every branch whose node count or normalizable flag changed, the largest moves of a matched
level (E_fd) and of a claimed energy (E_claimed), each relative to
max(1, |E|), the scale of the verdict's bound, and the largest
residual_max of each tree and where it is, the headroom against
verify.RESIDUAL_TOL.
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
# the wall, cosh, sinh and two-component configs of .github/workflows/tier1.yml,
# and one large wall basis
CI_CONFIGS = {
    "w0-wall": {"Q": [0, 4], "P": [-1, 0, 2], "N": 1},
    "mirror": {"Q": [0, 4], "P": [0, 0, 2], "singularities": [{"a": 1, "mu": 0.3}], "N": 1},
    "cosh": {"Q": [-1, 0, 1], "P": [0, -1, 1, 0], "N": 2},
    "two-wall": {"Q": [1], "P": [0, 1], "N": 7,
                 "singularities": [{"a": -0.1, "mu": 0.05}, {"a": 0.1, "mu": 0.45}]},
    # four of its 36 branches floor at 1.5-2.5e-12 in |F|, above an absolute
    # 1e-12 and below the bound relative to the Bethe equations' own scale
    "two-wall-stall": {"Q": [1], "P": [0, 1], "N": 7,
                       "singularities": [{"a": -0.1, "mu": 0.01}, {"a": 0.1, "mu": 0.3}]},
    # a seeded two-wall draw with a close real root pair: all 55 of C(11, 2)
    "two-wall-n9": {"Q": [1], "P": [0.2207, 1], "N": 9,
                    "singularities": [{"a": -0.0989, "mu": 1.1016}, {"a": 0.0797, "mu": 1.136}]},
    "sinh": {"Q": [2, 2, 1], "P": [0.6, 2.0, 1.7, 0.7], "N": 2},
    "sinh-pair": {"Q": [2, 2, 1], "P": [-0.4, 1.0, 1.7, 0.7], "N": 2},
    "two-component": {"Q": [1], "P": [-2, 0, 1], "singularities": [{"a": 0, "mu": 0.3}], "N": 1},
    # z = sin^2 x: the wall z = 1 at x = pi/2 has nu = -0.2, bound and normalizable
    "negative-nu-wall": {"Q": [0, 4, -4], "P": [0, -4, 4], "N": 1,
                         "singularities": [{"a": 0, "mu": 0.25}, {"a": 1, "mu": -0.1}]},
    # its 41 branches certify on a wall basis of up to 168 rows; the set's
    # other sextic-halfline configs stop at N = 12, which needs 57
    "sextic-halfline-N40": {"catalog": "sextic-halfline", "N": 40},
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


def _read(path: str) -> bytes | None:
    """The bytes of a file, None where there is none."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except FileNotFoundError:
        return None


def _reports(config_dir: str) -> dict:
    """branch id -> report of a config's verify JSON; empty when verify did
    not run."""
    text = _read(os.path.join(config_dir, "verify.json"))
    return json.loads(text) if text is not None else {}


def _largest_residual(tree: str) -> tuple[float, str]:
    """The largest residual_max of a parity record's verify reports, and
    where it is: its headroom against verify.RESIDUAL_TOL."""
    return max(((report["residual_max"], f"{name} branch {bid}")
                for name in sorted(os.listdir(tree))
                for bid, report in _reports(os.path.join(tree, name)).items()),
               default=(0.0, ""))


def compare(dir_a: str, dir_b: str) -> int:
    """Print how the parity record dir_b differs from dir_a; 1 when a
    solve CSV, an exit code or a verdict differs, or a config is in one
    tree only, else 0."""
    names_a, names_b = set(os.listdir(dir_a)), set(os.listdir(dir_b))
    faults = [f"{name}: only in {dir_a if name in names_a else dir_b}"
              for name in sorted(names_a ^ names_b)]
    changed = 0
    worst = {"E_fd": (0.0, ""), "E_claimed": (0.0, "")}  # largest move, and where
    for name in sorted(names_a & names_b):
        a, b = os.path.join(dir_a, name), os.path.join(dir_b, name)
        differ = [f for f in sorted(set(os.listdir(a)) | set(os.listdir(b)))
                  if _read(os.path.join(a, f)) != _read(os.path.join(b, f))]
        if not differ:
            continue
        changed += 1
        print(f"{name}: {' '.join(differ)}")
        faults += [f"{name}: {what} differ" for fname, what in
                   (("solve.csv", "solve CSV bytes"), ("exit_codes", "exit codes"))
                   if fname in differ]
        rep_a, rep_b = _reports(a), _reports(b)
        if {k: r["verdict"] for k, r in rep_a.items()} != {k: r["verdict"]
                                                          for k, r in rep_b.items()}:
            faults.append(f"{name}: verify verdicts differ")
        for bid in sorted(rep_a.keys() & rep_b.keys(), key=int):
            ra, rb = rep_a[bid], rep_b[bid]
            for key in ("node_count", "normalizable"):
                if ra[key] != rb[key]:
                    print(f"  branch {bid}: {key} {ra[key]} -> {rb[key]}")
            if ra["spectrum_matches"] and rb["spectrum_matches"]:
                for col, key in ((1, "E_fd"), (0, "E_claimed")):
                    e_a, e_b = ra["spectrum_matches"][0][col], rb["spectrum_matches"][0][col]
                    move = abs(e_b - e_a) / max(1.0, abs(e_a))
                    worst[key] = max(worst[key], (move, f"{name} branch {bid}"))
    moves = (f"of a {what} ({key}): {worst[key][0]:.3g}"
             + (f" at {worst[key][1]}" if worst[key][0] else "")
             for key, what in (("E_fd", "matched level"), ("E_claimed", "claimed energy")))
    residuals = (f"{rmax:.3g}" + (f" at {where}" if where else "")
                 for rmax, where in map(_largest_residual, (dir_a, dir_b)))
    print(f"{changed} of {len(names_a & names_b)} configs changed; largest relative move "
          + "; ".join(moves) + "; largest residual_max " + " -> ".join(residuals))
    for fault in faults:
        print(fault, file=sys.stderr)
    return 1 if faults else 0


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "--compare":
        return compare(argv[1], argv[2])
    if len(argv) != 2:
        print("\n".join(line.strip() for line in __doc__.splitlines()[3:5]), file=sys.stderr)
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
