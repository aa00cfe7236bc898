"""Reference oracles, used only by the tests.

The double-sum reduction identities, and V0 and dV_N evaluated straight
from their defining expressions: none of them uses the partial-fraction
reduction in qesf.potential, so the tests can certify that reduction.
The Hermite and Laguerre zeros are the exact branches of the harmonic and
Morse models, computed independently of qesf.bae. dz/dx and dW0/dz are the
derivatives that the coordinate map and the prepotential must reproduce:
z'^2 = Q(z) and dW0/dz = P/Q; w0_of_z sums the prepotential's closed-form
terms as written, so the tests can check them against known W0.
sturm_count counts a tridiagonal matrix's eigenvalues below a value by the
LDL^T recurrence, without LAPACK; norm1 is the matrix's |T|_1, the scale of
the bisection tolerance. phi_log_sign adds one log and one sign per root
factor, the plain form of prepot.phi_log_sign's chunked products, and
delta_v_poly sums dV_N's polynomial part one root's Poly at a time, the
plain form of potential.split_energies' synthetic division. split_energy splits one
branch's V_N into (U, E) from its own synthetic division, pole sums and
bae.residual row, and branch_energy and energy_order take one branch's
energy terms at a time: the per-branch loops that
potential.split_energies, bae.branch_energies and bae._energy_order run
as array passes. bae_solve is the damped
Newton polish of one start, with its own residual and Jacobian
(bae_residual, bae_jacobian), the plain form of bae.solve_many's lock-step
rows; normalizability_check tests one branch's windows with a lazy
per-window Simpson sum (np.dot), the plain form of
verify.normalizability_checks' rows, and its bulk reaches phi's peaks,
which peaks finds with numpy's polynomial products and np.roots.
"""

import math

import numpy as np
import numpy.polynomial.polynomial as npoly

from qesf import bae, coords, prepot
from qesf.bae import COLLISION_TOL, ENERGY_TIE_ULPS, MAX_ITER, POLISH_ITER, BetheBranch
from qesf.errors import CollisionError, ConvergenceError
from qesf.model import ModelSpec, is_turning_point
from qesf.potential import PFE, RESIDUE_TOL, BoundaryPole, PotentialProfile
from qesf.poly import Poly, Tridiag
from qesf.verify import MAX_WINDOWS, SIMPSON_POINTS


def dz_dx(cmap: coords.CoordinateMap, x):
    """dz/dx of the closed-form coordinate map."""
    p = cmap.params
    f = cmap.family
    xa = np.asarray(x, dtype=float)
    if f == coords.LINEAR:
        out = p["slope"] * np.ones_like(xa)
    elif f == coords.PARABOLIC:
        out = p["q1"] / 2.0 * (xa - p["xv"])
    elif f == coords.EXPONENTIAL:
        out = p["sign"] * p["omega"] * p["amp"] * np.exp(p["sign"] * p["omega"] * xa)
    elif f == coords.HYPERBOLIC:
        if p["kind"] == "cosh":
            out = p["c"] * p["omega"] * np.sinh(p["omega"] * (xa - p["xc"]))
        else:
            out = p["c"] * p["omega"] * np.cosh(p["omega"] * (xa - p["xc"]))
    else:
        out = p["R"] * p["omega"] * np.sin(p["omega"] * (xa - p["x0"]))
    return out[()].item() if out.shape == () else out


def w0_of_z(pre, z):
    """W0 evaluated in the z variable (closed-form terms only, no root logs)."""
    za = np.asarray(z, dtype=float)
    val = np.asarray(pre.poly_part(za), dtype=float)
    for t in pre.log_terms:
        val = val + t.weight * np.log(np.abs(za - t.location))
    for t in pre.quad_log_terms:
        val = val + t.weight * np.log((za - t.center) ** 2 + t.imag ** 2)
    for t in pre.pole_terms:
        val = val + t.weight / (za - t.location)
    return val[()].item() if val.shape == () else val


def dw0_dz(pre, z):
    """dW0/dz of the prepotential's closed-form terms."""
    za = np.asarray(z, dtype=float)
    val = np.asarray(pre.poly_part.derivative()(za), dtype=float)
    for t in pre.log_terms:
        val = val + t.weight / (za - t.location)
    for t in pre.quad_log_terms:
        val = val + t.weight * 2.0 * (za - t.center) / ((za - t.center) ** 2 + t.imag ** 2)
    for t in pre.pole_terms:
        val = val - t.weight / (za - t.location) ** 2
    return val[()].item() if val.shape == () else val


def identity_check(roots, n_samples: int = 20, tol: float = 1e-10,
                   seed: int = 20240801) -> bool:
    """Numerically verify the three double-sum reduction identities.

    For numerators 1, z, z^2 the double sum over (z - z_k)(z - z_l) collapses
    onto single poles; the z^2 case picks up the extra constant N(N-1).
    Checked at random z kept away from the roots.
    """
    roots = np.asarray(roots, dtype=float)
    N = roots.size
    if N < 2:
        return True  # both sides vanish identically
    rng = np.random.default_rng(seed)
    span = max(1.0, np.max(np.abs(roots)))
    checked = 0
    while checked < n_samples:
        z = rng.uniform(-3 * span, 3 * span)
        if np.min(np.abs(z - roots)) < 0.1:
            continue
        checked += 1
        lhs = np.zeros(3)
        rhs = np.zeros(3)
        for k in range(N):
            for l in range(N):
                if k == l:
                    continue
                lhs += np.array([1.0, z, z * z]) / ((z - roots[k]) * (z - roots[l]))
                rhs += 2.0 * np.array([1.0, roots[k], roots[k] ** 2]) / (
                    (z - roots[k]) * (roots[k] - roots[l]))
        rhs[2] += N * (N - 1)
        scale = 1.0 + np.max(np.abs(lhs))
        if np.max(np.abs(lhs - rhs)) / scale > tol:
            return False
    return True


def v0_direct(spec: ModelSpec, z):
    """Reference evaluation of V0 straight from the defining expression.

    Independent of the PFE reduction; used to certify re-summation.
    """
    P, Q = spec.P, spec.Q
    za = np.asarray(z, dtype=float)
    Pv, Qv = P(za), Q(za)
    val = Pv * Pv / Qv - P.derivative()(za) + Pv * Q.derivative()(za) / (2.0 * Qv)
    for s in spec.singularities:
        val = val - 2.0 * (Pv - Q.derivative()(za) / 4.0) * s.exponent / (za - s.location)
        val = val + Qv * s.exponent * (s.exponent - 1.0) / (za - s.location) ** 2
    if len(spec.singularities) == 2:
        s1, s2 = spec.singularities
        val = val + Qv * 2.0 * s1.exponent * s2.exponent / (
            (za - s1.location) * (za - s2.location))
    out = np.asarray(val)
    return out[()].item() if out.shape == () else out


def delta_v_direct(spec: ModelSpec, roots, z):
    """Reference evaluation of dV_N as the raw double sum."""
    roots = np.asarray(roots, dtype=float)
    P, Q = spec.P, spec.Q
    za = np.asarray(z, dtype=float)
    Pv, Qv = P(za), Q(za)
    s1 = np.zeros_like(za, dtype=float)
    s2 = np.zeros_like(za, dtype=float)
    s3 = np.zeros_like(za, dtype=float)
    for k, zk in enumerate(roots):
        s1 = s1 + 1.0 / (za - zk)
        for l, zl in enumerate(roots):
            if l != k:
                s2 = s2 + 1.0 / ((za - zk) * (za - zl))
        for s in spec.singularities:
            s3 = s3 + 2.0 * s.exponent / ((za - s.location) * (za - zk))
    val = -2.0 * (Pv - Q.derivative()(za) / 4.0) * s1 + Qv * (s2 + s3)
    out = np.asarray(val)
    return out[()].item() if out.shape == () else out


def hermite_zeros(n: int) -> np.ndarray:
    """Zeros of the physicists' Hermite polynomial H_n, ascending.

    Computed as Jacobi-matrix eigenvalues rather than from monomial
    coefficients: the three-term recurrences are perfectly conditioned,
    while companion matrices of H_N or L_N^b degrade badly past N ~ 20.

    Jacobi matrix of the monic recurrence: diagonal 0, off-diagonal
    sqrt(k/2). Output is symmetrized about 0 exactly.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return np.zeros(0)
    off = np.sqrt(np.arange(1, n) / 2.0)
    w = np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))
    return (w - w[::-1]) / 2.0


def laguerre_zeros(n: int, beta: float) -> np.ndarray:
    """Zeros of the generalized Laguerre polynomial L_n^beta, ascending.

    Requires beta > -1 (classical orthogonality range); all zeros are then
    strictly positive.
    """
    if beta <= -1.0:
        raise ValueError(f"beta must be > -1 (got {beta})")
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return np.zeros(0)
    ks = np.arange(n, dtype=float)
    diag = 2.0 * ks + beta + 1.0
    off = np.sqrt(np.arange(1, n) * (np.arange(1, n) + beta))
    return np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))


def sturm_count(t: Tridiag, x: float) -> int:
    """Number of eigenvalues of the symmetric tridiagonal t below x: the
    negative pivots of the LDL^T factorization of t - x I (Sylvester's law
    of inertia), a zero pivot nudged to -tiny as in LAPACK's dstebz."""
    count, q = 0, 1.0
    tiny = np.finfo(float).tiny
    e2 = np.r_[0.0, np.asarray(t.offdiag, dtype=float) ** 2].tolist()
    for d, b2 in zip(np.asarray(t.diag, dtype=float).tolist(), e2):
        q = d - x - b2 / q
        if q == 0.0:
            q = -tiny
        count += q < 0.0
    return count


def norm1(t: Tridiag) -> float:
    """|T|_1 of a symmetric tridiagonal matrix: its largest absolute row sum."""
    e = np.abs(t.offdiag)
    return float(np.max(np.abs(t.diag) + np.r_[e, 0.0] + np.r_[0.0, e]))


def phi_log_sign(pre, roots, x):
    """phi_N = exp(-W_N) as (log|phi_N|, sign), with one log and one sign
    per root factor. roots has shape (N,) with x of any shape, or holds
    rows, shape (B, N), with x of shape (B, n)."""
    z = np.asarray(pre.cmap.z_of_x(x), dtype=float)
    scalar = z.shape == ()
    za = np.atleast_1d(z)
    r = np.asarray(roots, dtype=float)
    sign = np.ones_like(za)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        logmag = -np.asarray(pre.poly_part(za), dtype=float)
        for a, p in pre.powers:
            logmag = logmag + p * np.log(np.abs(za - a))
        for t in pre.quad_log_terms:
            logmag = logmag - t.weight * np.log((za - t.center) ** 2 + t.imag ** 2)
        for t in pre.pole_terms:
            logmag = logmag - t.weight / (za - t.location)
        for s in pre.spec_ref.singularities:
            if s.exponent == int(s.exponent):
                sign = sign * np.where(za >= s.location, 1.0, -1.0) ** int(abs(s.exponent))
        for zk in (r.T[..., None] if r.ndim == 2 else np.atleast_1d(r)):
            d = za - zk
            logmag = logmag + np.log(np.abs(d))
            sign = sign * np.sign(d)
    logmag = np.where(sign == 0, -np.inf, logmag)
    if scalar:
        return float(logmag[0]), float(sign[0])
    return logmag, sign


def delta_v_poly(spec: ModelSpec, roots) -> Poly:
    """Polynomial part of dV_N, q2 N^2 + 2 q2 N sum(mu) - 2 sum_k (P(z) -
    P(z_k))/(z - z_k), summed one root's Poly at a time."""
    N = spec.N
    q2 = spec.Q.coeff(2)
    smu = sum(s.exponent for s in spec.singularities)
    poly = Poly([q2 * N * N + 2.0 * q2 * N * smu])
    for zk in np.asarray(roots, dtype=float):
        poly = poly + (-2.0) * spec.P.divided_difference(zk)
    return poly


def split_energy(pre, branch, residue_tol: float = RESIDUE_TOL) -> PotentialProfile:
    """One branch's (U, E): dV_N's polynomial part by synthetic division
    over its roots, its boundary poles and its residues from one
    bae.residual row; ValueError when a residue is not below residue_tol,
    and the CollisionError of colliding roots."""
    spec = pre.spec_ref
    roots = np.asarray(branch.roots, dtype=float)
    N = spec.N
    q2 = spec.Q.coeff(2)
    smu = sum(s.exponent for s in spec.singularities)
    c = spec.P.coeffs
    d = len(c) - 1
    rows = np.zeros((len(roots) + 1, max(d, 1)))
    rows[0, 0] = q2 * N * N + 2.0 * q2 * N * smu
    if d > 0:
        rows[1:, d - 1] = c[d]
        for i in range(d - 1, 0, -1):
            rows[1:, i - 1] = c[i] + roots * rows[1:, i]
        rows[1:] *= -2.0
    poly = Poly(np.cumsum(rows, axis=0)[-1])
    bnd = []
    for s in spec.singularities:
        if roots.size and not is_turning_point(spec.Q, s.location):
            with np.errstate(divide="ignore"):  # a root on the wall: CollisionError below
                c1 = (2.0 * s.exponent * spec.Q(s.location)
                      * float(np.sum(1.0 / (s.location - roots))))
            bnd.append(BoundaryPole(s.location, c1, 0.0))
    d_k = -2.0 * bae.residual(spec, roots)
    worst = max((abs(float(dk)) for dk in d_k), default=0.0)
    if not worst < residue_tol:
        raise ValueError(
            f"branch residues not cancelled (max |d_k| = {worst:.2e}): solve "
            f"the Bethe ansatz equations first")
    cs = list(poly.coeffs)
    energy, cs[0] = -cs[0], 0.0
    return PotentialProfile(pre.v0 + PFE(Poly(cs), tuple(bnd)), energy, branch)


def _energy_terms(spec: ModelSpec, roots: np.ndarray) -> tuple:
    N = spec.N
    p1, p2, p3 = spec.P.coeff(1), spec.P.coeff(2), spec.P.coeff(3)
    q2 = spec.Q.coeff(2)
    smu = sum(s.exponent for s in spec.singularities)
    return (2.0 * p3 * np.sum(roots ** 2), 2.0 * p2 * np.sum(roots), 2.0 * p1 * N,
            -q2 * N * N, -2.0 * q2 * N * smu)


def branch_energy(spec: ModelSpec, roots) -> float:
    """E = 2 p3 sum z_k^2 + 2 p2 sum z_k + 2 p1 N - q2 N^2 - 2 q2 N sum_j mu_j
    of one vector of roots."""
    t = _energy_terms(spec, np.asarray(roots))
    return float(t[0] + t[1] + t[2] + t[3] + t[4])


def energy_order(spec: ModelSpec, found: list) -> list:
    """found by branch_energy, one branch at a time; a run of energies
    within ENERGY_TIE_ULPS ulps of the largest energy term ordered by its
    roots."""
    keyed = []
    for br in found:
        roots = np.asarray(br.roots)
        tie = ENERGY_TIE_ULPS * np.spacing(max(map(abs, _energy_terms(spec, roots))))
        keyed.append((branch_energy(spec, roots), br.roots, tie, br))
    keyed.sort(key=lambda k: k[:2])
    out, run = [], []
    for e, roots, tie, br in keyed:
        if run and not e - run[-1][0] <= max(tie, run[-1][2]):
            out += sorted(run, key=lambda k: k[1])
            run = []
        run.append((e, roots, tie, br))
    out += sorted(run, key=lambda k: k[1])
    return [br for *_, br in out]


def _pair_inverse(roots: np.ndarray, singularities) -> np.ndarray:
    """Matrix 1/(z_k - z_l) with zero diagonal (real or complex safe).
    Raises CollisionError when two roots, or a root and a singularity, are
    closer than COLLISION_TOL; of several colliding pairs the first in
    row-major order is reported."""
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


def bae_residual(spec: ModelSpec, roots) -> np.ndarray:
    """Residue-derived Bethe ansatz residual F_k of one vector of roots."""
    roots = np.asarray(roots)
    if roots.size == 0:
        return np.zeros(0)
    S = _pair_inverse(roots, spec.singularities).sum(axis=1)
    P, Q = spec.P, spec.Q
    Qp = Q.derivative()
    for s in spec.singularities:
        S = S + s.exponent / (roots - s.location)
    return P(roots) - Qp(roots) / 4.0 - Q(roots) * S


def bae_jacobian(spec: ModelSpec, roots) -> np.ndarray:
    """Analytic Jacobian dF_k/dz_j of bae_residual."""
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


def bae_solve(spec: ModelSpec, init, tol: float = 1e-12) -> BetheBranch:
    """Damped Newton iteration from one start: steps halved until the
    residual norm decreases and no roots collide; once below tol, polish
    while a step at alpha = 1 or 1/2 halves the norm (up to POLISH_ITER
    steps). Raises CollisionError for a colliding start, ConvergenceError
    on stagnation, iteration exhaustion or a singular Jacobian."""
    z = np.asarray(init, dtype=complex if np.iscomplexobj(np.asarray(init)) else float)
    if z.ndim != 1 or z.size != spec.N:
        raise ValueError(f"init must have length N = {spec.N}")

    def _evaluate(v):
        if np.all(np.isfinite(v)):
            try:
                with np.errstate(over="ignore", invalid="ignore"):  # overshoot: inf or nan
                    Fv = bae_residual(spec, v)
                return Fv, np.max(np.abs(Fv))
            except CollisionError:
                pass
        return None, np.inf

    def _done(it):
        order = np.lexsort((np.imag(z), np.real(z)))
        return BetheBranch(tuple(z[order].tolist()), float(norm), it)

    F = bae_residual(spec, z)
    norm = np.max(np.abs(F)) if F.size else 0.0
    converged_at = None
    for it in range(MAX_ITER + POLISH_ITER):
        if norm < tol and converged_at is None:
            converged_at = it
        polishing = converged_at is not None
        if polishing and (norm == 0.0 or it - converged_at >= POLISH_ITER):
            return _done(converged_at)
        J = bae_jacobian(spec, z)
        try:
            dz = np.linalg.solve(J, -F)
        except np.linalg.LinAlgError as exc:
            if polishing:
                return _done(converged_at)
            cond = np.linalg.cond(J)
            raise ConvergenceError(f"singular Jacobian (cond ~ {cond:.2e})") from exc
        if polishing:
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


_SIMPSON = np.ones(SIMPSON_POINTS)
_SIMPSON[1:-1:2] = 4.0
_SIMPSON[2:-1:2] = 2.0


def _log_simpson(a: float, b: float, logphi: np.ndarray) -> float:
    """log of integral_a^b phi^2 dx by Simpson's rule (np.dot), in log
    space, from log|phi| on np.linspace(a, b, SIMPSON_POINTS); +inf where
    phi overflows."""
    m = np.max(2.0 * logphi)
    if m == math.inf:
        return math.inf
    if not b > a:
        return -math.inf
    if not math.isfinite(m):
        return -math.inf
    vals = np.exp(2.0 * logphi - m)
    h = (b - a) / (SIMPSON_POINTS - 1)
    integral = h / 3.0 * float(np.dot(_SIMPSON, vals))
    return m + math.log(integral) if integral > 0 else -math.inf


def windows(edge: float, inner: float, outward: int) -> list:
    """The MAX_WINDOWS windows (lo, hi) of one side, from inner outward,
    built by the loop: halving toward a finite edge, growing by 1.4
    toward an infinite one."""
    out = []
    if math.isfinite(edge):
        t = abs(inner - edge)
        while len(out) < MAX_WINDOWS:
            t2 = t / 2.0
            out.append((edge + t2, edge + t) if outward < 0 else (edge - t, edge - t2))
            t = t2
    else:
        width, x0 = 1.0, inner
        while len(out) < MAX_WINDOWS:
            x1 = x0 + outward * width
            out.append((min(x0, x1), max(x0, x1)))
            x0, width = x1, width * 1.4
    return out


def peaks(pre, roots) -> np.ndarray:
    """z of the real zeros of W_N' = P/Q - sum_j mu_j/(z - a_j) - sum_k
    1/(z - z_k) strictly inside the image, for one vector of roots: the
    numerator P A y - Q M y - Q A y' (A = prod_j (z - a_j), M = sum_j mu_j
    A/(z - a_j), y = prod_k (z - z_k)) from numpy's polynomial products,
    less trailing coefficients at or below 1e-12 of their terms'
    magnitudes, and its zeros from np.roots."""
    spec = pre.spec_ref
    A, M = np.array([1.0]), np.array([0.0])
    for s in spec.singularities:
        M = npoly.polyadd(npoly.polymul(M, [-s.location, 1.0]), s.exponent * A)
        A = npoly.polymul(A, [-s.location, 1.0])
    y = npoly.polyfromroots(roots) if len(roots) else np.array([1.0])
    P, Q = spec.P.coeffs, spec.Q.coeffs
    terms = [npoly.polymul(npoly.polymul(P, A), y), -npoly.polymul(npoly.polymul(Q, M), y),
             -npoly.polymul(npoly.polymul(Q, A), npoly.polyder(y))]
    size = max(len(t) for t in terms)
    terms = [np.pad(t, (0, size - len(t))) for t in terms]
    num, mag = sum(terms), sum(np.abs(t) for t in terms)
    live = np.flatnonzero(np.abs(num) > 1e-12 * mag)
    if not len(live) or live[-1] == 0:
        return np.array([])
    w = np.roots(num[:live[-1] + 1][::-1])
    z = w[np.abs(w.imag) <= 1e-9 * (1.0 + np.abs(w.real))].real
    z_lo, z_hi = pre.cmap.z_image
    return z[(z > z_lo) & (z < z_hi)]


def normalizability_check(pre, branch, component) -> tuple:
    """(normalizable, norm estimate) of one branch over the component
    (a, b): a core window, then the windows of the low side and of the high
    side, each phi evaluated and integrated on its own, until the
    contributions decay (a tail below e^-36 of the total) or grow
    persistently, or phi overflows; on an unbounded side a window short of
    the outermost preimage of a root or of phi's peak is no tail."""
    roots = np.asarray(branch.roots, dtype=float)
    a, b = component
    cmap = pre.cmap
    z_lo, z_hi = cmap.z_image
    inside = np.concatenate((roots[(roots > z_lo) & (roots < z_hi)], peaks(pre, roots)))
    xr = [x for x in cmap.preimages(inside).ravel() if a < x < b]
    bulk = {-1: min(xr, default=math.inf), +1: max(xr, default=-math.inf)}
    if math.isfinite(a) and math.isfinite(b):
        core = a + (b - a) / 4, b - (b - a) / 4
    elif math.isfinite(a):
        core = a + 0.5, a + 1.5
    elif math.isfinite(b):
        core = b - 1.5, b - 0.5
    else:
        core = -1.0, 1.0
    total = _log_simpson(*core, prepot.phi_log_sign(
        pre, roots, np.linspace(*core, SIMPSON_POINTS))[0])

    def _side(edge, inner, outward):
        nonlocal total
        patience, grow, prev = (6 if math.isfinite(edge) else 4), 0, -math.inf
        for lo, hi in windows(edge, inner, outward):
            with np.errstate(over="ignore", invalid="ignore"):
                logphi = prepot.phi_log_sign(pre, roots, np.linspace(lo, hi, SIMPSON_POINTS))[0]
            seg = _log_simpson(lo, hi, logphi)
            if seg == math.inf and math.isfinite(edge):
                seg = -math.inf  # lo on the wall itself: phi's pole has no weight
            total = np.logaddexp(total, seg)
            outer = hi if outward > 0 else lo
            if seg == math.inf:
                return False
            if not math.isfinite(edge) and outward * (outer - bulk[outward]) < 0:
                continue
            if seg < total - 36.0:
                return True
            if seg > prev:
                grow += 1
                if grow >= patience:
                    return False
            else:
                grow = 0
            prev = seg
        return False

    ok_lo = _side(a, core[0], -1)
    ok_hi = _side(b, core[1], +1)
    return bool(ok_lo and ok_hi), (math.exp(total) if total < 700 else math.inf)
