"""Reference oracles, used only by the tests.

The double-sum reduction identities, and V0 and dV_N evaluated straight
from their defining expressions: none of them uses the partial-fraction
reduction in qesf.potential, so the tests can certify that reduction.
The Hermite and Laguerre zeros are the exact branches of the harmonic and
Morse models, computed independently of qesf.bae. dz/dx and dW0/dz are the
derivatives that the coordinate map and the prepotential must reproduce:
z'^2 = Q(z) and dW0/dz = P/Q; w0_of_z sums the prepotential's closed-form
terms as written, so the tests can check them against known W0.
"""

import numpy as np

from qesf import coords
from qesf.model import ModelSpec
from qesf.poly import Tridiag, tridiag_eigenvalues


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
