"""Dense real polynomials plus the spectral helpers built on top of them.

Coefficients are stored ascending (c0 + c1*z + ...) and canonically trimmed.
Degrees stay tiny (<= 8) throughout the package, so plain Horner arithmetic
is both exact enough and fast. Classical-polynomial zeros are computed as
Jacobi-matrix eigenvalues rather than from monomial coefficients: the
three-term recurrences are perfectly conditioned, while companion matrices
of H_N or L_N^b degrade badly past N ~ 20.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import ConvergenceError

TRIM_TOL = 1e-14


def _trim(coeffs) -> tuple[float, ...]:
    cs = [float(c) for c in coeffs]
    if not cs:
        cs = [0.0]
    while len(cs) > 1 and abs(cs[-1]) <= TRIM_TOL:
        cs.pop()
    return tuple(cs)


@dataclass(frozen=True)
class Poly:
    """Immutable real polynomial with ascending coefficients."""

    coeffs: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _trim(self.coeffs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, i: int) -> float:
        """Coefficient of z**i (0 beyond the stored degree)."""
        return self.coeffs[i] if i < len(self.coeffs) else 0.0

    def is_zero(self) -> bool:
        return self.degree == 0 and self.coeffs[0] == 0.0

    def __call__(self, z):
        arr = np.asarray(z)
        acc = np.zeros(arr.shape, dtype=np.result_type(arr.dtype, float))
        for c in reversed(self.coeffs):
            acc = acc * arr + c
        if arr.shape == ():
            return acc[()].item()
        return acc

    def derivative(self) -> "Poly":
        if self.degree == 0:
            return Poly((0.0,))
        return Poly(tuple(i * c for i, c in enumerate(self.coeffs) if i > 0))

    def divided_difference(self, w: float) -> "Poly":
        """(p(z) - p(w)) / (z - w) as a polynomial, by synthetic division."""
        d = self.degree
        if d == 0:
            return Poly((0.0,))
        q = [0.0] * d
        q[d - 1] = self.coeffs[d]
        for i in range(d - 1, 0, -1):
            q[i - 1] = self.coeffs[i] + w * q[i]
        return Poly(q)

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        n = max(len(a), len(b))
        return Poly(tuple((a[i] if i < len(a) else 0.0) + (b[i] if i < len(b) else 0.0)
                          for i in range(n)))

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __neg__(self) -> "Poly":
        return Poly(tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, Poly):
            out = [0.0] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
            return Poly(out)
        return Poly(tuple(float(other) * c for c in self.coeffs))

    __rmul__ = __mul__


def divmod_poly(num: Poly, den: Poly) -> tuple[Poly, Poly]:
    """Long division num = quot*den + rem with deg(rem) < deg(den)."""
    if den.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    r = list(num.coeffs)
    d = den.degree
    lead = den.coeffs[d]
    if len(r) - 1 < d:
        return Poly((0.0,)), num
    q = [0.0] * (len(r) - d)
    for i in range(len(r) - 1, d - 1, -1):
        f = r[i] / lead
        q[i - d] = f
        for j in range(d + 1):
            r[i - d + j] -= f * den.coeffs[j]
    return Poly(q), Poly(r[:d] if d > 0 else [0.0])


def partial_fractions(rem: Poly, Q: Poly) -> tuple[
        list[tuple[float, float, float]],
        tuple[float, float, float, float] | None]:
    """Zeros of Q (deg <= 2) and the partial fractions of rem/Q there.

    Returns (real, pair). real holds (rho, c1, c2) per distinct real zero,
    with rem/Q = sum c1/(z - rho) + c2/(z - rho)^2; c2 is nonzero only at a
    double zero, declared when |disc| <= 1e-12 max(q1^2, |4 q0 q2|). For an
    irreducible Q with zeros center +- i imag, pair is (center, imag, a, b)
    with rem/Q = a d/dz ln((z - center)^2 + imag^2)
    + b d/dz arctan((z - center)/imag); otherwise pair is None.
    """
    if Q.degree == 0:
        return [], None
    if Q.degree == 1:
        rho = -Q.coeff(0) / Q.coeff(1) + 0.0
        return [(rho, rem(rho) / Q.coeff(1), 0.0)], None
    q0, q1, q2 = Q.coeff(0), Q.coeff(1), Q.coeff(2)
    disc = q1 * q1 - 4.0 * q0 * q2
    scale = max(q1 * q1, abs(4.0 * q0 * q2), 1e-30)
    if abs(disc) <= 1e-12 * scale:
        rho = -q1 / (2.0 * q2) + 0.0
        return [(rho, rem.coeff(1) / q2, rem(rho) / q2)], None
    if disc > 0.0:
        sq = math.sqrt(disc)
        return [(rho, rem(rho) / Q.derivative()(rho), 0.0)
                for rho in ((-q1 + sq) / (2.0 * q2) + 0.0,
                            (-q1 - sq) / (2.0 * q2) + 0.0)], None
    center, imag = -q1 / (2.0 * q2), math.sqrt(-disc) / (2.0 * abs(q2))
    r1, r0 = rem.coeff(1), rem.coeff(0)
    return [], (center, imag, r1 / (2.0 * q2), (r0 + r1 * center) / (q2 * imag))


@dataclass(frozen=True, eq=False)
class Tridiag:
    """Symmetric tridiagonal matrix (diagonal + one off-diagonal), held as
    float64 arrays; float64 array input is stored without a copy."""

    diag: np.ndarray
    offdiag: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "diag", np.asarray(self.diag, dtype=float))
        object.__setattr__(self, "offdiag", np.asarray(self.offdiag, dtype=float))
        if len(self.offdiag) != max(len(self.diag) - 1, 0):
            raise ValueError("offdiag must have n-1 entries")

    @property
    def n(self) -> int:
        return len(self.diag)


def tridiag_eigenvalues(t: Tridiag, k: int | None = None) -> np.ndarray:
    """Eigenvalues of a symmetric tridiagonal matrix, ascending.

    With k given, only the k smallest are computed (cheaper for large FD
    grids). Backed by LAPACK via scipy.linalg.eigh_tridiagonal, which is
    deterministic for fixed input.
    """
    n = t.n
    if n < 1:
        raise ValueError("empty matrix")
    if n == 1:
        return t.diag.copy()
    try:
        if k is None or k >= n:
            w = scipy.linalg.eigh_tridiagonal(t.diag, t.offdiag, eigvals_only=True)
        else:
            if k < 1:
                raise ValueError("k must be >= 1")
            w = scipy.linalg.eigh_tridiagonal(t.diag, t.offdiag, eigvals_only=True,
                                              select="i", select_range=(0, k - 1))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise ConvergenceError(f"tridiagonal eigensolver failed: {exc}") from exc
    return np.sort(w)


def hermite_zeros(n: int) -> np.ndarray:
    """Zeros of the physicists' Hermite polynomial H_n, ascending.

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
