"""Span tracing of qesf's layers, installed from the benchmark's own files.

`Tracer.install` rebinds module attributes of qesf (for example `bae.solve`,
`bae.jacobian` and the `verify` module's `tridiag_eigenvalues`) to wrappers
that record one span per call; `uninstall` puts the originals back. Callers
inside qesf look these names up through the module at call time, so the
wrappers see every call made on the solve and verify paths.

Spans are kept in memory as [id, parent, trace, name, start, end]. Spans
of one config in one pass share a trace id. Self time is a span's duration
minus the time covered by its child spans.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time
from collections import Counter, defaultdict

# (module, attribute, span name). Two wrapped sites share the span name
# poly.tridiag_eigenvalues (and poly.Tridiag): verify imports both from poly
# into its own namespace, while hermite_zeros / laguerre_zeros use poly's.
WRAPPED = [
    ("bae", "enumerate_branches", "bae.enumerate_branches"),
    ("bae", "solve", "bae.solve"),
    ("bae", "jacobian", "bae.jacobian"),
    ("bae", "residual", "bae.residual"),
    ("bae", "branch_energy", "bae.branch_energy"),
    ("verify", "verify_branch", "verify.verify_branch"),
    ("verify", "fd_spectrum", "verify.fd_spectrum"),
    ("verify", "schrodinger_residual", "verify.schrodinger_residual"),
    ("verify", "node_count", "verify.node_count"),
    ("verify", "normalizability_check", "verify.normalizability_check"),
    ("verify", "default_grid", "verify.default_grid"),
    ("verify", "tridiag_eigenvalues", "poly.tridiag_eigenvalues"),
    ("verify", "Tridiag", "poly.Tridiag"),
    ("poly", "tridiag_eigenvalues", "poly.tridiag_eigenvalues"),
    ("poly", "Tridiag", "poly.Tridiag"),
    ("prepot", "integrate_w0", "prepot.integrate_w0"),
    ("prepot", "phi_log_sign", "prepot.phi_log_sign"),
    ("potential", "split_energy", "potential.split_energy"),
    ("coords", "build", "coords.build"),
    ("model", "validate", "model.validate"),
    ("model", "classify", "model.classify"),
    ("catalog", "instantiate", "catalog.instantiate"),
]

# bae.solve outcomes by exception type.
SOLVE_ERRORS = {"ConvergenceError": "bae.solve.err_convergence",
                "CollisionError": "bae.solve.err_collision",
                "ValueError": "bae.solve.err_value"}

# Counts that repeat exactly from pass to pass and from run to run.
EXACT_COUNTS = ("bae.solve.calls", "bae.jacobian.calls", "bae.branches_found",
                "poly.tridiag_eigenvalues.calls", "poly.tridiag_eigenvalues.rows")

# (metric, unit, better) of the traced run, in report order.
PER_LAYER = [
    ("bae.enumerate_branches.s", "s", "lower"),
    ("bae.solve.calls", "count", "lower"),
    ("bae.solve.converged", "count", "higher"),
    ("bae.solve.err_convergence", "count", "lower"),
    ("bae.solve.err_collision", "count", "lower"),
    ("bae.solve.err_value", "count", "lower"),
    ("bae.jacobian.calls", "count", "lower"),
    ("bae.residual.calls", "count", "lower"),
    ("bae.branches_found", "count", "higher"),
    ("bae.useful_ratio", "ratio", "higher"),
    ("verify.verify_branch.calls", "count", "lower"),
    ("verify.verify_branch.s", "s", "lower"),
    ("verify.fd_spectrum.calls", "count", "lower"),
    ("verify.fd_spectrum.self_s", "s", "lower"),
    ("verify.schrodinger_residual.s", "s", "lower"),
    ("verify.node_count.s", "s", "lower"),
    ("verify.normalizability_check.s", "s", "lower"),
    ("verify.default_grid.s", "s", "lower"),
    ("verify.spectrum_skipped", "count", "lower"),
    ("verify.branches_per_potential", "ratio", "higher"),
    ("poly.tridiag_eigenvalues.calls", "count", "lower"),
    ("poly.tridiag_eigenvalues.s", "s", "lower"),
    ("poly.tridiag_eigenvalues.rows", "count", "lower"),
    ("poly.tridiag_eigenvalues.bytes_computed", "B", "lower"),
    ("poly.Tridiag.s", "s", "lower"),
    ("prepot.integrate_w0.calls", "count", "lower"),
    ("prepot.integrate_w0.s", "s", "lower"),
    ("prepot.phi_log_sign.calls", "count", "lower"),
    ("prepot.phi_log_sign.points", "count", "lower"),
    ("prepot.phi_log_sign.s", "s", "lower"),
    ("potential.split_energy.calls", "count", "lower"),
    ("potential.split_energy.s", "s", "lower"),
    ("coords.build.calls", "count", "lower"),
    ("coords.build.s", "s", "lower"),
    ("model.validate.calls", "count", "lower"),
    ("model.validate.s", "s", "lower"),
    ("model.classify.s", "s", "lower"),
    ("catalog.instantiate.s", "s", "lower"),
    ("cli.solve.self_s", "s", "lower"),
    ("cli.verify.self_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
]


# Per-config breakdown written to the traced run's results file.
PER_CONFIG = ("cli.solve.s", "bae.enumerate_branches.s", "bae.solve.calls",
              "bae.jacobian.calls", "bae.branches_found", "cli.verify.s",
              "verify.fd_spectrum.s", "poly.tridiag_eigenvalues.in_verify_s")


class Tracer:
    """Collects spans and counters for the calls of one benchmark run."""

    def __init__(self, qesf):
        self.qesf = qesf
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.trace = "setup"
        self.in_verify = False
        self.counts: Counter = Counter()  # (trace, key) -> count
        self.potentials: dict[str, set] = defaultdict(set)  # trace -> U fingerprints
        self.saved: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> list:
        rec = [len(self.spans), self.stack[-1] if self.stack else -1, self.trace,
               name, time.perf_counter(), 0.0]
        self.spans.append(rec)
        self.stack.append(rec[0])
        return rec

    def _close(self, rec: list) -> None:
        rec[5] = time.perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def command(self, command: str):
        """Span around one `cli.main` call (cli.solve or cli.verify)."""
        self.in_verify = command == "verify"
        rec = self._open(f"cli.{command}")
        try:
            yield rec
        finally:
            self._close(rec)
            self.in_verify = False

    def _count(self, key: str, n: int = 1) -> None:
        self.counts[(self.trace, key)] += n

    def _on_result(self, name: str, args, out, rec: list) -> None:
        if name == "bae.solve":
            self._count("bae.solve.converged")
        elif name == "bae.enumerate_branches":
            self._count("bae.branches_found", sum(1 for b in out if b.is_real))
        elif name == "poly.tridiag_eigenvalues":
            n = args[0].n
            self._count("poly.tridiag_eigenvalues.rows", n)
            # float64 input matrix (diagonal and off-diagonal) plus the output
            self._count("poly.tridiag_eigenvalues.bytes_computed",
                        8 * (2 * n - 1) + 8 * len(out))
            if self.in_verify:
                self._count("poly.tridiag_eigenvalues.in_verify_s", rec[5] - rec[4])
        elif name == "prepot.phi_log_sign":
            self._count("prepot.phi_log_sign.points", max(1, getattr(args[2], "size", 1)))
        elif name == "verify.verify_branch" and self.in_verify:
            self._count("verify.spectrum_skipped", int(bool(out.spectrum_note)))
            self._count("verify.verify_branch.in_verify")
        elif name == "potential.split_energy" and self.in_verify:
            U = out.U
            self.potentials[self.trace].add(
                (tuple(round(c, 9) for c in U.poly.coeffs),
                 tuple((round(b.location, 9), round(b.c1, 9), round(b.c2, 9))
                       for b in U.boundary_poles)))

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                if name == "bae.solve":
                    self._count(SOLVE_ERRORS.get(type(exc).__name__,
                                                 "bae.solve.err_" + type(exc).__name__))
                raise
            finally:
                self._close(rec)
            self._on_result(name, args, out, rec)
            return out
        return traced

    def install(self) -> None:
        for mod_name, attr, name in WRAPPED:
            mod = getattr(self.qesf, mod_name)
            orig = getattr(mod, attr)
            self.saved.append((mod, attr, orig))
            setattr(mod, attr, self._wrap(name, orig))

    def uninstall(self) -> None:
        while self.saved:
            mod, attr, orig = self.saved.pop()
            setattr(mod, attr, orig)

    # -- aggregation -------------------------------------------------------

    def by_trace(self) -> dict:
        """Per trace: calls, s (inclusive) and self_s per span name, and the counters."""
        child = defaultdict(float)
        for rec in self.spans:
            if rec[1] >= 0:
                child[rec[1]] += rec[5] - rec[4]
        out: dict = defaultdict(Counter)
        for rec in self.spans:
            dur = rec[5] - rec[4]
            st = out[rec[2]]
            st[rec[3] + ".calls"] += 1
            st[rec[3] + ".s"] += dur
            st[rec[3] + ".self_s"] += dur - child[rec[0]]
        for (trace, key), n in self.counts.items():
            out[trace][key] += n
        return out

    def pass_metrics(self, stats: dict, traces: list) -> dict:
        """Per-layer metrics of one pass (the traces of its configs)."""
        st = Counter()
        for t in traces:
            st.update(stats[t])
        m = {name: st.get(name, 0.0) for name, _, _ in PER_LAYER}
        solves = st.get("bae.solve.calls", 0.0)
        m["bae.useful_ratio"] = st.get("bae.branches_found", 0.0) / solves if solves else 0.0
        potentials = sum(len(self.potentials[t]) for t in traces)
        m["verify.branches_per_potential"] = (
            st.get("verify.verify_branch.in_verify", 0.0) / potentials if potentials else 0.0)
        return m

    def dump(self, path, extra: dict) -> None:
        names = sorted({rec[3] for rec in self.spans})
        traces = sorted({rec[2] for rec in self.spans})
        ni = {n: i for i, n in enumerate(names)}
        ti = {t: i for i, t in enumerate(traces)}
        t0 = self.spans[0][4] if self.spans else 0.0
        doc = dict(extra, fields=["id", "parent", "trace", "name", "start_s", "end_s"],
                   names=names, traces=traces,
                   spans=[[r[0], r[1], ti[r[2]], ni[r[3]], round(r[4] - t0, 7),
                           round(r[5] - t0, 7)] for r in self.spans])
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def per_config(stats: dict, labels: list[str], tags: list[str]) -> dict:
    """Where each config's time goes, median over traced passes."""
    out = {}
    for i, tag in enumerate(tags):
        runs = [stats[f"{label}-c{i}"] for label in labels]
        row = {k: statistics.median(r.get(k, 0.0) for r in runs) for k in PER_CONFIG}
        row["tridiag_share_of_verify"] = (
            row["poly.tridiag_eigenvalues.in_verify_s"] / row["cli.verify.s"]
            if row["cli.verify.s"] else 0.0)
        out[tag] = row
    return out


def combine_passes(per_pass: list[dict]) -> tuple[dict, list[str]]:
    """Median of each metric over traced passes, plus exact-count mismatches."""
    merged = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
    bad = [k for k in EXACT_COUNTS if len({p[k] for p in per_pass}) != 1]
    return merged, bad
