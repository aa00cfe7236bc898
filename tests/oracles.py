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
plain form of potential.delta_v_pfe's arrays.
"""

import numpy as np

from qesf import coords
from qesf.model import ModelSpec
from qesf.poly import Poly, Tridiag, tridiag_eigenvalues


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
    w = tridiag_eigenvalues(Tridiag(np.zeros(n), off))
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
    return tridiag_eigenvalues(Tridiag(diag, off))


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
