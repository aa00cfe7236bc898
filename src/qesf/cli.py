"""Command-line surface: classify, solve, verify, derive, catalog.

Config files are JSON:

    {"Q": [q0, q1, q2], "P": [c0, ..., cm],
     "singularities": [{"a": 0.0, "mu": 0.25}, ...],
     "N": 2, "branch": 1}

or a catalog reference:

    {"catalog": "sextic", "params": {"a": 1.0, "b": 0.0}, "N": 2}

A config is one schema or the other: a catalog config takes catalog,
params, N and branch, an explicit one Q, P, singularities, N and branch.
Every command builds the model once (prepot.integrate_w0: coordinate map,
W0, V0 and walls) right after reading the config; a config whose model
cannot be built is invalid input, and so is a config with a key outside
its schema, and a file that cannot be read or written.

Exit codes: 0 ok, 2 solver failure, 3 verification failure, 4 invalid input.
A usage error (an unknown command or flag, a missing argument, a name
after catalog list), a roots CSV row whose z_k is not a finite number,
and a branch whose k are not 0..N-1 (or, at N = 0, the one k = -1 row
with an empty z_k that solve writes) are invalid input too.
solve takes no tolerance: Newton's convergence bound is relative to the
Bethe equations' own scale (bae.BAE_TOL), so it follows the model's units.
verify judges every residual by verify.RESIDUAL_TOL, and solve's verified
column reads the same residual from the same call (verify.branch_setups)
against the same bound. solve's E column is that call's energy column,
and verify hands it the CSV's roots as they are.
Nothing is random: the same config gives byte-identical CSV output.

Of qesf's modules, cli imports only catalog and model (and the errors and
poly they import), none of which loads numpy: reading a config and
classifying it by its degrees (spec_from_config, then model.classify), the
catalog command and --help run without numpy. A command that builds the
model imports the solver modules it uses (prepot, bae, verify) once its
config has been read, so a config that fails before the build loads none.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import sys

from . import catalog, model
from .errors import CollisionError, ConvergenceError, DomainError, GridError, ModelError
from .poly import Poly

EXIT_OK = 0
EXIT_SOLVER = 2
EXIT_VERIFY = 3
EXIT_INPUT = 4

CATALOG_KEYS = ("catalog", "params", "N", "branch")
MODEL_KEYS = ("Q", "P", "singularities", "N", "branch")
SINGULARITY_KEYS = ("a", "mu")


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ModelError(f"cannot read config {path}: {exc.strerror}")
    except json.JSONDecodeError as exc:
        raise ModelError(f"config {path}: invalid JSON at line {exc.lineno}: {exc.msg}")
    except ValueError as exc:  # text that is not UTF-8, an integer past the digit limit
        raise ModelError(f"config {path}: {exc}")


def _number(value, key: str) -> float:
    """A JSON number as float; true and false are not numbers here, and an
    integer past the float range is not finite."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ModelError(f'config key "{key}" must be a number (got {json.dumps(value)})')
    try:
        return float(value)
    except OverflowError:
        raise ModelError(f'config key "{key}" must be finite (got an integer of '
                         f'{len(str(abs(value)))} digits)')


def _integer(cfg: dict, key: str, default: int) -> int:
    value = cfg.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ModelError(f'config key "{key}" must be an integer')
    return value


def _known_keys(obj: dict, allowed: tuple, where: str) -> None:
    """Reject a key outside allowed: a misspelt key would otherwise be
    silently ignored."""
    for key in obj:
        if key not in allowed:
            raise ModelError(f'unknown config key "{where}{key}"; '
                             f'allowed: {", ".join(allowed)}')


def spec_from_config(cfg: dict) -> model.ModelSpec:
    """A ModelSpec from a parsed config dict. Its structure is checked
    where the model is built, in prepot.integrate_w0."""
    if not isinstance(cfg, dict):
        raise ModelError("config must be a JSON object")
    _known_keys(cfg, CATALOG_KEYS if "catalog" in cfg else MODEL_KEYS, "")
    branch = cfg.get("branch")
    if branch is not None and (isinstance(branch, bool) or branch not in (1, -1)):
        raise ModelError('config key "branch" must be +1 or -1')
    if "catalog" in cfg:
        if not isinstance(cfg["catalog"], str):
            raise ModelError('config key "catalog" must be a string')
        params = cfg.get("params", {})
        if not isinstance(params, dict):
            raise ModelError('config key "params" must be an object')
        params = {k: _number(v, f"params.{k}") for k, v in params.items()}
        return catalog.instantiate(cfg["catalog"], N=_integer(cfg, "N", 1),
                                   branch_sign=branch, **params)
    polys = []
    for key in ("Q", "P"):
        if key not in cfg:
            raise ModelError(f'config key "{key}" is required')
        if not isinstance(cfg[key], list):
            raise ModelError(f'config key "{key}" must be a list of numbers')
        polys.append(Poly([_number(v, f"{key}[{i}]") for i, v in enumerate(cfg[key])]))
    sings, entries = [], cfg.get("singularities", [])
    if not isinstance(entries, list):
        raise ModelError('config key "singularities" must be a list of objects')
    for i, s in enumerate(entries):
        if not isinstance(s, dict) or "a" not in s or "mu" not in s:
            raise ModelError(
                f'config key "singularities[{i}]" must be an object with "a" and "mu"')
        _known_keys(s, SINGULARITY_KEYS, f"singularities[{i}].")
        sings.append(model.Singularity(_number(s["a"], f"singularities[{i}].a"),
                                       _number(s["mu"], f"singularities[{i}].mu")))
    return model.ModelSpec(*polys, tuple(sings), _integer(cfg, "N", 0), branch or 1)


def _build(path: str):
    """The model of the config at path, built once (prepot.integrate_w0).
    The config is read and checked first: one that fails before the build
    exits 4 without loading the solver modules or numpy."""
    spec = spec_from_config(load_config(path))
    from . import prepot

    return prepot.integrate_w0(spec)


# ---------------------------------------------------------------------------


def cmd_classify(args) -> int:
    pre = _build(args.config)
    from . import prepot  # loaded by _build

    cls = model.classify(pre.spec_ref)
    print(f"{cls.tag}: {cls.rationale}")
    for d in prepot.unbound_ends(pre) + model.validate(pre.spec_ref):
        print(f"  [{d.level}] {d.message}")
    return EXIT_OK


def cmd_solve(args) -> int:
    _check_writable(args.out)
    pre = _build(args.config)
    from . import bae, verify

    branches = bae.enumerate_branches(pre.spec_ref)
    if not branches:
        print("solver failure: no converged real branch", file=sys.stderr)
        return EXIT_SOLVER

    # Real branches come back in ascending energy; bid is that position.
    # E and verified are columns of the one table from roots to residual.
    out_lines = ["branch_id,k,z_k,residual_max,E,verified"]
    table = verify.branch_setups(pre, [br.roots for br in branches])
    for bid, (br, energy, residual) in enumerate(zip(branches, table.energy.tolist(),
                                                     table.residual)):
        ok = residual is not None and residual[0] < verify.RESIDUAL_TOL
        tail = f"{_fmt(br.residual_norm)},{_fmt(energy)},{'true' if ok else 'false'}"
        for k, zk in (list(enumerate(br.roots)) if br.n else [(-1, None)]):
            out_lines.append(f"{bid},{k},{'' if zk is None else _fmt(zk)},{tail}")
    text = "\n".join(out_lines) + "\n"
    if args.out:
        _write(args.out, text)
        print(f"{len(branches)} branch(es) -> {args.out}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _check_writable(path: str | None) -> None:
    """Fail before any work when the directory of an output path is
    missing or not writable; the file itself is neither created nor
    truncated, so a run that exits 2 or 3 leaves it as it was. _write
    stays the backstop (a path that is itself a directory, say)."""
    if not path:
        return
    folder = os.path.dirname(path) or "."
    if not os.path.isdir(folder):
        raise ModelError(f"cannot write {path}: No such directory")
    if not os.access(folder, os.W_OK):
        raise ModelError(f"cannot write {path}: Permission denied")


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise ModelError(f"cannot write {path}: {exc.strerror}")


def _read_roots_csv(path: str) -> dict[int, list[float]]:
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise ModelError(f"cannot read roots file {path}: {exc.strerror}")
    with fh:
        reader = csv.DictReader(fh)
        need = {"branch_id", "k", "z_k"}
        if reader.fieldnames is None or not need.issubset(reader.fieldnames):
            raise ModelError(f"roots file {path}: missing columns {need}")
        branches: dict[int, list[tuple[int, int, float | None]]] = {}  # bid -> [(k, line, z)]
        for ln, row in enumerate(reader, start=2):
            try:
                bid, k = int(row["branch_id"]), int(row["k"])
                z = None if k == -1 and row["z_k"] == "" else float(row["z_k"])
                if z is not None and not math.isfinite(z):
                    raise ValueError(z)
            except (TypeError, ValueError):
                raise ModelError(f"roots file {path}: malformed row at line {ln}")
            branches.setdefault(bid, []).append((k, ln, z))
    roots = {}
    for bid, entries in branches.items():
        entries.sort()  # by k, then line
        marker = [(k, z) for k, _, z in entries] == [(-1, None)]  # an N = 0 branch's one row
        for want, (k, ln, _) in enumerate([] if marker else entries):
            if k != want:
                raise ModelError(f"roots file {path}: branch {bid} has k = {k} at line {ln}, "
                                 f"not {want}: its k must be 0..n-1 over its n roots, or "
                                 f"one k = -1 row with an empty z_k")
        roots[bid] = [] if marker else [z for _, _, z in entries]
    return roots


def cmd_verify(args) -> int:
    _check_writable(args.json_out)
    pre = _build(args.config)
    from . import verify

    spec = pre.spec_ref
    roots_by_bid = _read_roots_csv(args.roots)
    if not roots_by_bid:
        raise ModelError(f"roots file {args.roots}: no branches")
    bids = sorted(roots_by_bid)
    for bid in bids:
        if len(roots_by_bid[bid]) != spec.N:
            raise ModelError(f"branch {bid} has {len(roots_by_bid[bid])} roots "
                             f"but the model has N = {spec.N}")
    results = verify.verify_branches(pre, [roots_by_bid[bid] for bid in bids])
    reports = {}
    all_ok = True
    for bid, rep in zip(bids, results):
        if isinstance(rep, Exception):
            print(f"branch {bid}: verification error: {rep}", file=sys.stderr)
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
        _write(args.json_out, payload + "\n")
        print(f"report -> {args.json_out}")
    else:
        print(payload)
    return EXIT_OK if all_ok else EXIT_VERIFY


def _terms_str(terms: dict) -> str:
    keys = sorted(terms, key=lambda k: (k.startswith("pole"), k))
    return "  ".join(f"{k}: {terms[k]:+.12g}" for k in keys)


def cmd_derive(args) -> int:
    pre = _build(args.config)
    from . import bae

    spec, cmap, v0 = pre.spec_ref, pre.cmap, pre.v0
    print(f"class: {model.classify(spec).tag}")
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
                  "implementation truth and is arbitrated by verify's Schrodinger "
                  "residual")
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process. It holds no command
    function: main dispatches on the parsed command name."""
    parser = argparse.ArgumentParser(
        prog="qesf",
        description="Construct, solve and certify exactly/quasi-exactly "
                    "solvable 1-D Schrodinger models")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="print the solvability class")
    p.add_argument("config")

    p = sub.add_parser("solve", help="enumerate Bethe-ansatz branches to CSV")
    p.add_argument("config")
    p.add_argument("--seed", type=int, default=None,
                   help="ignored: accepted so that older scripts still run "
                        "(the branch finder uses no randomness)")
    p.add_argument("--out", default=None, help="CSV output path (default stdout)")

    p = sub.add_parser("verify", help="certify branches from a roots CSV")
    p.add_argument("config")
    p.add_argument("roots")
    p.add_argument("--json-out", default=None)

    p = sub.add_parser("derive", help="print potential, energy and BAE forms")
    p.add_argument("config")

    p = sub.add_parser("catalog", help="list or show named presets")
    p.add_argument("action", choices=("list", "show"))
    p.add_argument("name", nargs="?")
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse printed --help, or a usage error on stderr
        return EXIT_OK if exc.code == 0 else EXIT_INPUT
    if args.command == "catalog" and (args.name is None) == (args.action == "show"):
        print("catalog show requires a name" if args.name is None
              else f"catalog list takes no name (got {args.name!r})", file=sys.stderr)
        return EXIT_INPUT
    commands = {"classify": cmd_classify, "solve": cmd_solve, "verify": cmd_verify,
                "derive": cmd_derive, "catalog": cmd_catalog}
    try:
        return commands[args.command](args)
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
