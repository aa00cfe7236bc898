"""Bethe ansatz equations: residual, Newton solver, branch enumeration.

The residual is derived from the vanishing-residue requirement on the
root poles of the potential:

    F_k = P(z_k) - Q'(z_k)/4
          - Q(z_k) * [ sum_{l != k} 1/(z_k - z_l) + sum_j mu_j/(z_k - a_j) ]

This residue form is the implementation's ground truth. Commonly quoted
closed forms for specific families disagree with it in two places (the sign
of the mu*q0/z_k term when q0 != 0, and the constant of the two-singularity
trigonometric family); reference_bae_terms exposes those transcriptions so
the derive command can print a term-by-term diff, and the finite-difference
certification in the verify module arbitrates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CollisionError, ConvergenceError
from .model import ModelSpec, spec_seed
from .poly import hermite_zeros, laguerre_zeros
from . import coords

COLLISION_TOL = 1e-8
DEDUP_TOL = 1e-6
MAX_ITER = 80  # Newton steps to reach tol
POLISH_ITER = 200  # further steps while the residual keeps improving


@dataclass(frozen=True)
class BetheBranch:
    """One accepted solution vector of the Bethe ansatz equations."""

    roots: tuple
    residual_norm: float
    newton_iters: int
    origin: str

    @property
    def n(self) -> int:
        return len(self.roots)

    @property
    def is_real(self) -> bool:
        return not any(isinstance(r, complex) and abs(r.imag) > 0 for r in self.roots)


def _pair_inverse(roots: np.ndarray, singularities) -> np.ndarray:
    """Matrix 1/(z_k - z_l) with zero diagonal (real or complex safe).

    Raises CollisionError when two roots, or a root and a singularity, are
    closer than COLLISION_TOL; of several colliding pairs the first in
    row-major order is reported.
    """
    # float dtype so that integer roots can take the inf diagonal
    diff = np.subtract.outer(roots, roots).astype(np.result_type(roots, 1.0), copy=False)
    np.fill_diagonal(diff, np.inf)
    close = np.abs(diff) < COLLISION_TOL
    if close.any():
        i, j = np.argwhere(close)[0]
        raise CollisionError(f"roots {i} and {j} collide: |dz| = {abs(diff[i, j]):.2e}")
    for s in singularities:
        if roots.size and np.min(np.abs(roots - s.location)) < COLLISION_TOL:
            raise CollisionError(f"a root coincides with the singularity at z = {s.location}")
    return 1.0 / diff


def residual(spec: ModelSpec, roots) -> np.ndarray:
    """Residue-derived Bethe ansatz residual F_k (length N)."""
    roots = np.asarray(roots)
    if roots.size == 0:
        return np.zeros(0)
    S = _pair_inverse(roots, spec.singularities).sum(axis=1)
    P, Q = spec.P, spec.Q
    Qp = Q.derivative()
    for s in spec.singularities:
        S = S + s.exponent / (roots - s.location)
    return P(roots) - Qp(roots) / 4.0 - Q(roots) * S


def jacobian(spec: ModelSpec, roots) -> np.ndarray:
    """Analytic Jacobian dF_k/dz_j of the residual."""
    roots = np.asarray(roots)
    inv = _pair_inverse(roots, spec.singularities)
    P, Q = spec.P, spec.Q
    Qp = Q.derivative()
    q2 = Q.coeff(2)
    inv2 = inv * inv
    S = inv.sum(axis=1)
    S2 = inv2.sum(axis=1)
    for s in spec.singularities:
        S = S + s.exponent / (roots - s.location)
        S2 = S2 + s.exponent / (roots - s.location) ** 2
    J = -Q(roots)[:, None] * inv2
    np.fill_diagonal(J, P.derivative()(roots) - q2 / 2.0 - Qp(roots) * S + Q(roots) * S2)
    return J


def branch_energy(spec: ModelSpec, roots) -> float:
    """Energy extracted from the constant part of the pole-free potential shift.

    E = 2 p3 sum z_k^2 + 2 p2 sum z_k + 2 p1 N - q2 N^2 - 2 q2 N sum_j mu_j
    """
    roots = np.asarray(roots)
    N = spec.N
    p1, p2, p3 = spec.P.coeff(1), spec.P.coeff(2), spec.P.coeff(3)
    q2 = spec.Q.coeff(2)
    smu = sum(s.exponent for s in spec.singularities)
    e = 2.0 * p3 * np.sum(roots ** 2) + 2.0 * p2 * np.sum(roots) + 2.0 * p1 * N \
        - q2 * N * N - 2.0 * q2 * N * smu
    return complex(e) if np.iscomplexobj(roots) else float(e)


def solve(spec: ModelSpec, init, tol: float = 1e-12,
          origin: str = "user") -> BetheBranch:
    """Damped Newton iteration from a given starting vector.

    Steps are halved whenever the residual norm fails to decrease or any
    pair of roots (or a root and a singularity) comes within the collision
    tolerance. Raises ConvergenceError on stagnation, iteration exhaustion,
    or a singular Jacobian.

    Once below tol the iteration keeps polishing as long as the residual
    strictly improves (up to POLISH_ITER extra steps): for simple roots that
    is one or two steps to the machine floor, while for degenerate root
    configurations (where |F| < tol admits a wide ball) the linear tail of
    Newton contracts the ball so duplicate branches collapse in enumeration.
    """
    z = np.asarray(init, dtype=complex if np.iscomplexobj(np.asarray(init)) else float)
    if z.ndim != 1 or z.size != spec.N:
        raise ValueError(f"init must have length N = {spec.N}")

    def _evaluate(v):
        """Residual at v and its max norm; the norm is inf (a rejected
        step) when v is not finite or residual raises CollisionError."""
        if np.all(np.isfinite(v)):
            try:
                Fv = residual(spec, v)
                return Fv, np.max(np.abs(Fv))
            except CollisionError:
                pass
        return None, np.inf

    def _done(it):
        order = np.lexsort((np.imag(z), np.real(z)))
        return BetheBranch(tuple(z[order].tolist()), float(norm), it, origin)

    F = residual(spec, z)
    norm = np.max(np.abs(F)) if F.size else 0.0
    converged_at = None
    for it in range(MAX_ITER + POLISH_ITER):
        if norm < tol and converged_at is None:
            converged_at = it
        polishing = converged_at is not None
        if polishing and (norm == 0.0 or it - converged_at >= POLISH_ITER):
            return _done(converged_at)
        J = jacobian(spec, z)
        try:
            dz = np.linalg.solve(J, -F)
        except np.linalg.LinAlgError as exc:
            if polishing:
                return _done(converged_at)
            cond = np.linalg.cond(J)
            raise ConvergenceError(f"singular Jacobian (cond ~ {cond:.2e})") from exc
        if polishing:
            # cheap polish: demand a strong decrease or stop (keeps the
            # degenerate-root tail alive, exits simple roots immediately)
            for alpha in (1.0, 0.5):
                trial = z + alpha * dz
                Ft, nt = _evaluate(trial)
                if nt < 0.5 * norm:
                    z, F, norm = trial, Ft, nt
                    break
            else:
                return _done(converged_at)
            continue
        alpha = 1.0
        while alpha > 1e-12:
            trial = z + alpha * dz
            Ft, nt = _evaluate(trial)
            if nt < norm:
                z, F, norm = trial, Ft, nt
                break
            alpha *= 0.5
        else:
            raise ConvergenceError(
                f"line search stalled at residual {norm:.2e} after {it} iterations")
    if converged_at is not None:
        return _done(converged_at)
    raise ConvergenceError(f"no convergence in {MAX_ITER} iterations (residual {norm:.2e})")


def _poly_coeffs(spec: ModelSpec) -> list[float]:
    """Ascending z_k-polynomial coefficients of the residue-derived BAE
    (always at least the constant and linear ones)."""
    P, Q = spec.P, spec.Q
    q1, q2 = Q.coeff(1), Q.coeff(2)
    cz = P.coeff(1) - q2 / 2.0
    c1 = P.coeff(0) - q1 / 4.0
    for s in spec.singularities:
        cz -= s.exponent * q2
        c1 -= s.exponent * (q2 * s.location + q1)
    return [c1, cz] + [P.coeff(i) for i in range(2, P.degree + 1)]


def _root_scale(spec: ModelSpec) -> float:
    """Magnitude estimate for BAE roots: Cauchy bound on the decoupled
    polynomial part of the residual."""
    coeffs = _poly_coeffs(spec)
    m = max((i for i, c in enumerate(coeffs) if c != 0.0), default=0)
    if m == 0:
        return 1.0
    lead = coeffs[m]
    bound = 1.0
    for i, c in enumerate(coeffs[:m]):
        if c != 0.0:
            bound = max(bound, (abs(c) / abs(lead)) ** (1.0 / (m - i)))
    return 1.0 + bound


def _initializers(spec: ModelSpec, attempts: int, seed: int | None,
                  complex_mode: bool) -> list[tuple[str, np.ndarray]]:
    """Deterministic multi-start seeds: classical zero sets at several scales
    plus seeded pseudo-random spreads over the coordinate image and its
    reflection."""
    N = spec.N
    cmap = coords.build(spec.Q, branch_sign=spec.branch_sign)
    lo, hi = cmap.z_image
    finite_lo, finite_hi = np.isfinite(lo), np.isfinite(hi)
    inits: list[tuple[str, np.ndarray]] = []

    herm = hermite_zeros(N)
    lag = laguerre_zeros(N, 0.0)
    scale0 = _root_scale(spec)
    ladders = tuple(s * scale0 for s in (0.25, 0.5, 1.0, 2.0)) + (0.5, 1.0, 2.0, 4.0)
    if finite_lo and finite_hi:
        mid, half = (lo + hi) / 2.0, (hi - lo) / 2.0
        cheb = mid + half * np.cos(np.pi * (2 * np.arange(N) + 1) / (2.0 * N)) * 0.9
        inits.append(("chebyshev", np.sort(cheb)))
        inits.append(("chebyshev-reflect-lo", np.sort(2 * lo - cheb)))
        inits.append(("chebyshev-reflect-hi", np.sort(2 * hi - cheb)))
        hscale = max(1.0, float(np.max(np.abs(herm))) if N else 1.0)
        for s in (0.5, 1.0):
            inits.append(("hermite", np.sort(mid + s * half * herm / hscale)))
    anchor = lo if finite_lo else (hi if finite_hi else 0.0)
    for s in ladders:
        inits.append(("hermite", np.sort(anchor + s * herm)))
        inits.append(("laguerre", np.sort(anchor + s * lag)))
        inits.append(("laguerre-reflect", np.sort(anchor - s * lag)))

    if seed is None:
        seed = spec_seed(spec)
    span = 4.0 * max(1.0, np.sqrt(N)) * scale0
    box_lo = lo - span if finite_lo else -span
    box_hi = hi + span if finite_hi else span
    if finite_lo and finite_hi:
        box_lo, box_hi = lo - (hi - lo), hi + (hi - lo)
    i = 0
    while len(inits) < attempts:
        rng = np.random.default_rng(seed + i)
        inits.append((f"random-{i}", np.sort(rng.uniform(box_lo, box_hi, N))))
        if complex_mode:
            pert = rng.uniform(0.1, 1.0, N) * rng.choice([-1.0, 1.0], N) * 1j
            inits.append((f"complex-{i}", np.sort_complex(rng.uniform(box_lo, box_hi, N) + pert)))
        i += 1
    return inits


def enumerate_branches(spec: ModelSpec, tol: float = 1e-12, attempts: int = 64,
                       seed: int | None = None,
                       complex_mode: bool = False) -> list[BetheBranch]:
    """Multi-start enumeration of distinct solution branches.

    attempts is a floor on the number of Newton starts, not a cap: the
    deterministic ladder of classical-zero starts always runs in full, and
    seeded random starts (a real and a complex one per round in
    complex_mode) are added until there are at least attempts starts.

    Branches are deduplicated as sorted root multisets (L-inf distance below
    DEDUP_TOL) and returned sorted by extracted energy. The result is
    deterministic for a fixed spec/seed: initializers are generated in a
    fixed order and the merge is order-independent.
    """
    if spec.N == 0:
        return [BetheBranch((), 0.0, 0, "empty")]
    accepted: list[tuple[BetheBranch, np.ndarray]] = []

    def _insert(br: BetheBranch) -> None:
        r = np.asarray(br.roots)
        for k, (old, old_r) in enumerate(accepted):
            if np.max(np.abs(r - old_r)) < DEDUP_TOL:
                if br.residual_norm < old.residual_norm:
                    accepted[k] = (br, r)
                return
        accepted.append((br, r))

    for origin, init in _initializers(spec, attempts, seed, complex_mode):
        try:
            br = solve(spec, init, tol=tol, origin=origin)
        except (ConvergenceError, CollisionError, ValueError):
            continue
        if not complex_mode and not br.is_real:
            continue
        _insert(br)
        if complex_mode and not br.is_real:
            # real-coefficient system: complex branches come in conjugate pairs
            conj = np.conj(np.asarray(br.roots))
            order = np.lexsort((np.imag(conj), np.real(conj)))
            _insert(BetheBranch(tuple(conj[order].tolist()), br.residual_norm,
                                br.newton_iters, br.origin + "-conj"))

    def _key(item):
        br = item[0]
        e = branch_energy(spec, np.asarray(br.roots))
        return (0 if br.is_real else 1, np.real(e), np.imag(e),
                tuple(np.real(np.asarray(br.roots))))

    return [br for br, _ in sorted(accepted, key=_key)]


def residue_bae_terms(spec: ModelSpec) -> dict:
    """Coefficient table of the residue-derived BAE.

    F_k is organized as polynomial coefficients in z_k, simple-pole
    coefficients at each singularity, and the universal -Q(z_k) multiplying
    the root-interaction sum.
    """
    coeffs = _poly_coeffs(spec)
    terms = {f"z^{i}": c for i, c in enumerate(coeffs[2:], 2)}
    terms["z^1"] = coeffs[1]
    terms["1"] = coeffs[0]
    for s in spec.singularities:
        terms[f"pole@{s.location:g}"] = -s.exponent * spec.Q(s.location)
    return {k: v for k, v in terms.items() if v != 0.0 or k in ("z^1", "1")}


def reference_bae_terms(spec: ModelSpec) -> dict | None:
    """Commonly quoted closed-form BAE for families with a printed version.

    Returns None when no transcription is known for the model's shape. The
    returned table uses the same keys as residue_bae_terms, so the two can
    be diffed term by term.
    """
    P, Q = spec.P, spec.Q
    q0, q1, q2 = Q.coeff(0), Q.coeff(1), Q.coeff(2)
    sings = spec.singularities
    if not sings:
        terms = {f"z^{i}": P.coeff(i) for i in range(2, P.degree + 1)}
        terms["z^1"] = P.coeff(1) - q2 / 2.0
        terms["1"] = P.coeff(0) - q1 / 4.0
        return terms
    if len(sings) == 1 and abs(sings[0].location) < 1e-12:
        mu = sings[0].exponent
        terms = {f"z^{i}": P.coeff(i) for i in range(2, P.degree + 1)}
        terms["z^1"] = P.coeff(1) - (mu + 0.5) * q2
        terms["1"] = P.coeff(0) - (mu + 0.25) * q1
        terms["pole@0"] = mu * q0
        return terms
    if (len(sings) == 2 and abs(q0) < 1e-12 and abs(q2 + q1) < 1e-12
            and {round(s.location, 9) for s in sings} == {0.0, 1.0}
            and abs(P.coeff(0)) < 1e-12 and abs(P.coeff(2) + P.coeff(1)) < 1e-12
            and P.degree == 2):
        # Trigonometric interval family: Q = q1*z*(1-z), P = p2*z*(z-1).
        a = P.coeff(2) / 4.0
        mus = {round(s.location, 9): s.exponent for s in sings}
        p1, p2 = mus[0.0], mus[1.0]
        return {"z^2": 4.0 * a,
                "z^1": -2.0 * (2.0 * (a - p1 - p2) - 1.0),
                "1": -1.0}
    return None


def bae_comparison(spec: ModelSpec) -> dict:
    """Residue-derived vs. quoted-reference BAE, with per-term differences."""
    res = residue_bae_terms(spec)
    ref = reference_bae_terms(spec)
    out = {"residue": res, "reference": ref, "diff": None}
    if ref is not None:
        keys = sorted(set(res) | set(ref))
        diff = {k: ref.get(k, 0.0) - res.get(k, 0.0) for k in keys}
        out["diff"] = {k: v for k, v in diff.items() if abs(v) > 1e-12}
    return out
