"""Command-line surface: classify, solve, verify, derive, catalog.

Config files are JSON:

    {"Q": [q0, q1, q2], "P": [c0, ..., cm],
     "singularities": [{"a": 0.0, "mu": 0.25}, ...],
     "N": 2, "branch": 1,
     "anchor": {"x0": 0.0, "z0": 1.0}}            # optional

or a catalog reference:

    {"catalog": "sextic", "params": {"a": 1.0, "b": 0.0}, "N": 2}

Exit codes: 0 ok, 2 solver failure, 3 verification failure, 4 invalid input.
All randomness is seeded from a hash of the model unless --seed (or the
QESF_SEED environment variable) overrides it; the seed used is echoed.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

import numpy as np

from . import bae, catalog, coords, model, potential, prepot, verify
from .errors import CollisionError, ConvergenceError, DomainError, GridError, ModelError
from .model import ModelSpec, Singularity
from .poly import Poly

EXIT_OK = 0
EXIT_SOLVER = 2
EXIT_VERIFY = 3
EXIT_INPUT = 4


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ModelError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ModelError(f"config {path}: invalid JSON at line {exc.lineno}: {exc.msg}")


def spec_from_config(cfg: dict) -> ModelSpec:
    """Build and validate a ModelSpec from a parsed config dict."""
    if "catalog" in cfg:
        name = cfg["catalog"]
        params = cfg.get("params", {})
        if not isinstance(params, dict):
            raise ModelError('config key "params" must be an object')
        N = cfg.get("N", 1)
        if not isinstance(N, int):
            raise ModelError('config key "N" must be an integer')
        spec = catalog.instantiate(name, N=N, branch_sign=cfg.get("branch"), **params)
    else:
        for key in ("Q", "P"):
            if key not in cfg:
                raise ModelError(f'config key "{key}" is required')
            if (not isinstance(cfg[key], list)
                    or not all(isinstance(v, (int, float)) for v in cfg[key])):
                raise ModelError(f'config key "{key}" must be a list of numbers')
        sings = []
        for i, s in enumerate(cfg.get("singularities", [])):
            if not isinstance(s, dict) or "a" not in s or "mu" not in s:
                raise ModelError(
                    f'config key "singularities[{i}]" must be an object with "a" and "mu"')
            sings.append(Singularity(float(s["a"]), float(s["mu"])))
        N = cfg.get("N", 0)
        if not isinstance(N, int):
            raise ModelError('config key "N" must be an integer')
        branch = cfg.get("branch", 1)
        if branch not in (1, -1):
            raise ModelError('config key "branch" must be +1 or -1')
        spec = ModelSpec(Poly(cfg["Q"]), Poly(cfg["P"]), tuple(sings), N, branch)
    errors = [d for d in model.validate(spec) if d.level == "error"]
    if errors:
        raise ModelError("invalid model: " + "; ".join(d.message for d in errors))
    return spec


def config_anchor(cfg: dict):
    if "anchor" not in cfg:
        return None
    a = cfg["anchor"]
    if not isinstance(a, dict) or "x0" not in a or "z0" not in a:
        raise ModelError('config key "anchor" must be an object with "x0" and "z0"')
    return (float(a["x0"]), float(a["z0"]))


def resolve_seed(cfg: dict, spec: ModelSpec, cli_seed: int | None) -> int:
    if cli_seed is not None:
        return cli_seed
    env = os.environ.get("QESF_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ModelError(f"QESF_SEED must be an integer (got {env!r})")
    return model.spec_seed(spec)


# ---------------------------------------------------------------------------


def cmd_classify(args) -> int:
    cfg = load_config(args.config)
    spec = spec_from_config(cfg)
    cls = model.classify(spec)
    print(f"{cls.tag}: {cls.rationale}")
    for d in model.validate(spec):
        print(f"  [{d.level}] {d.message}")
    return EXIT_OK


def cmd_solve(args) -> int:
    cfg = load_config(args.config)
    if args.N is not None:
        cfg = dict(cfg, N=args.N)
    spec = spec_from_config(cfg)
    seed = resolve_seed(cfg, spec, args.seed)
    print(f"seed: {seed}")
    branches = bae.enumerate_branches(spec, tol=args.tol, attempts=args.attempts,
                                      seed=seed)
    if not branches:
        print("solver failure: no converged real branch", file=sys.stderr)
        return EXIT_SOLVER

    # Real branches come back in ascending energy; bid is that position.
    out_lines = ["branch_id,k,z_k,residual_max,E,verified"]
    for bid, br in enumerate(branches):
        energy = bae.branch_energy(spec, np.asarray(br.roots, dtype=float))
        try:
            rmax, _ = verify.residual_check(spec, br, n_points=args.grid_points)
            ok = rmax < 1e-6
        except (GridError, DomainError, ValueError):
            ok = False
        roots = list(enumerate(br.roots)) if br.n else [(-1, None)]
        for k, zk in roots:
            zs = "" if zk is None else _fmt(zk)
            out_lines.append(
                f"{bid},{k},{zs},{_fmt(br.residual_norm)},{_fmt(energy)},"
                f"{'true' if ok else 'false'}")
    text = "\n".join(out_lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"{len(branches)} branch(es) -> {args.out}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _read_roots_csv(path: str) -> dict[int, list[float]]:
    try:
        fh = open(path, newline="")
    except FileNotFoundError:
        raise ModelError(f"roots file not found: {path}")
    with fh:
        reader = csv.DictReader(fh)
        need = {"branch_id", "k", "z_k"}
        if reader.fieldnames is None or not need.issubset(reader.fieldnames):
            raise ModelError(f"roots file {path}: missing columns {need}")
        branches: dict[int, list[tuple[int, float]]] = {}
        for ln, row in enumerate(reader, start=2):
            try:
                bid = int(row["branch_id"])
                k = int(row["k"])
                if k >= 0:
                    branches.setdefault(bid, []).append((k, float(row["z_k"])))
                else:
                    branches.setdefault(bid, [])
            except (TypeError, ValueError):
                raise ModelError(f"roots file {path}: malformed row at line {ln}")
    return {bid: [z for _, z in sorted(entries)] for bid, entries in branches.items()}


def cmd_verify(args) -> int:
    cfg = load_config(args.config)
    spec = spec_from_config(cfg)
    groups = _read_roots_csv(args.roots)
    if not groups:
        raise ModelError(f"roots file {args.roots}: no branches")
    reports = {}
    all_ok = True
    for bid in sorted(groups):
        roots = groups[bid]
        if len(roots) != spec.N:
            raise ModelError(
                f"branch {bid} has {len(roots)} roots but the model has N = {spec.N}")
        res = bae.residual(spec, np.asarray(roots))
        norm = float(np.max(np.abs(res))) if len(res) else 0.0
        br = bae.BetheBranch(tuple(roots), norm, 0, "csv")
        try:
            rep = verify.verify_branch(spec, br, n_points=args.grid_points,
                                       stencil_order=args.stencil,
                                       residual_tol=args.tol)
        except (GridError, DomainError, ValueError) as exc:
            print(f"branch {bid}: verification error: {exc}", file=sys.stderr)
            all_ok = False
            continue
        reports[bid] = rep
        status = "pass" if rep.verdict else "FAIL"
        print(f"branch {bid}: {status}  residual_max={rep.residual_max:.3e} "
              f"rms={rep.residual_rms:.3e} nodes={rep.node_count} "
              f"normalizable={rep.normalizable}")
        for claimed, fd, diff in rep.spectrum_matches:
            print(f"    E_claimed={claimed:.12g}  E_fd={fd:.12g}  |diff|={diff:.3e}")
        if rep.spectrum_note:
            print(f"    note: {rep.spectrum_note}")
        all_ok &= rep.verdict
    payload = json.dumps({str(b): r.as_dict() for b, r in reports.items()},
                         indent=2, sort_keys=True)
    if args.json_out:
        with open(args.json_out, "w") as fh:
            fh.write(payload + "\n")
        print(f"report -> {args.json_out}")
    else:
        print(payload)
    return EXIT_OK if all_ok else EXIT_VERIFY


def _terms_str(terms: dict) -> str:
    keys = sorted(terms, key=lambda k: (k.startswith("pole"), k))
    return "  ".join(f"{k}: {terms[k]:+.12g}" for k in keys)


def cmd_derive(args) -> int:
    cfg = load_config(args.config)
    spec = spec_from_config(cfg)
    cls = model.classify(spec)
    cmap = coords.build(spec.Q, anchor=config_anchor(cfg), branch_sign=spec.branch_sign)
    pre = prepot.integrate_w0(spec, cmap)
    v0 = potential.v0_pfe(spec, cmap)

    print(f"class: {cls.tag}")
    print(f"coordinate: {cmap.family}  x-domain {cmap.x_domain}  z-image {cmap.z_image}")
    print(f"V0 polynomial (ascending in z): {list(v0.poly.coeffs)}")
    for b in v0.boundary_poles:
        print(f"V0 pole at z={b.location:g}: c1={b.c1:.12g} c2={b.c2:.12g}")
    q2 = spec.Q.coeff(2)
    smu = sum(s.exponent for s in spec.singularities)
    p1, p2, p3 = spec.P.coeff(1), spec.P.coeff(2), spec.P.coeff(3)
    print("dV_N polynomial part: "
          f"q2 N^2 + 2 q2 N sum(mu) - 2 sum_k (P(z)-P(z_k))/(z-z_k) "
          f"[q2={q2:g}, sum(mu)={smu:g}]")
    print(f"energy: E = {2 * p3:+g} sum(z_k^2) {2 * p2:+g} sum(z_k) "
          f"{2 * p1:+g} N {-q2:+g} N^2 {-2 * q2:+g} N sum(mu)")

    cmp = bae.bae_comparison(spec)
    print("residue-derived BAE terms (F_k = ... - Q(z_k) sum'_l 1/(z_k - z_l) = 0):")
    print("    " + _terms_str(cmp["residue"]))
    if cmp["reference"] is None:
        print("reference closed form: none known for this family")
    else:
        print("reference closed form (as commonly quoted):")
        print("    " + _terms_str(cmp["reference"]))
        if cmp["diff"]:
            print("term-by-term difference (reference - residue):")
            print("    " + _terms_str(cmp["diff"]))
            print("    NOTE: forms disagree; the residue-derived form is the "
                  "implementation truth and is arbitrated by the FD residual")
        else:
            print("term-by-term difference: none (forms agree)")
    return EXIT_OK


def cmd_catalog(args) -> int:
    if args.action == "list":
        for name in catalog.names():
            entry = catalog.get(name)
            print(f"{name:16s} {entry.description}")
            print(f"{'':16s}   [{entry.citation}]")
        return EXIT_OK
    entry = catalog.get(args.name)
    print(f"name: {entry.name}")
    print(f"description: {entry.description}")
    print(f"citation: {entry.citation}")
    print(f"defaults: {json.dumps(entry.defaults)}")
    print(f"energy formula: {entry.energy_formula}")
    print(f"config: {json.dumps(catalog.shipped_configs()[entry.name])}")
    for N in (0, 1, 2):
        exp = catalog.expected_energies(entry.name, None, N)
        if exp == catalog.ORACLE_REQUIRED:
            print(f"expected E (N={N}): {catalog.ORACLE_REQUIRED}")
        else:
            print(f"expected E (N={N}): {', '.join(f'{e:.12g}' for e in exp)}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="qesf",
        description="Construct, solve and certify exactly/quasi-exactly "
                    "solvable 1-D Schrodinger models")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="print the solvability class")
    p.add_argument("config")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("solve", help="enumerate Bethe-ansatz branches to CSV")
    p.add_argument("config")
    p.add_argument("--N", type=int, default=None, help="override the config N")
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--attempts", type=int, default=64,
                   help="minimum number of Newton starts: the deterministic "
                        "ladder always runs, and seeded random starts are "
                        "added until the total reaches this")
    p.add_argument("--grid-points", type=int, default=2001,
                   help="grid size for the verified column")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None, help="CSV output path (default stdout)")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="certify branches from a roots CSV")
    p.add_argument("config")
    p.add_argument("roots")
    p.add_argument("--grid-points", type=int, default=4001)
    p.add_argument("--stencil", type=int, default=4, choices=(2, 4, 6))
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--json-out", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("derive", help="print potential, energy and BAE forms")
    p.add_argument("config")
    p.set_defaults(func=cmd_derive)

    p = sub.add_parser("catalog", help="list or show named presets")
    p.add_argument("action", choices=("list", "show"))
    p.add_argument("name", nargs="?")
    p.set_defaults(func=cmd_catalog)

    args = parser.parse_args(argv)
    if args.command == "catalog" and args.action == "show" and not args.name:
        print("catalog show requires a name", file=sys.stderr)
        return EXIT_INPUT
    try:
        return args.func(args)
    except ModelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ConvergenceError, CollisionError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (GridError, DomainError) as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
