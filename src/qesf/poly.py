"""Dense real polynomials, and the symmetric tridiagonal matrix of the
finite-difference cross-check.

Coefficients are stored ascending (c0 + c1*z + ...) and canonically trimmed.
Degrees stay tiny (<= 8) throughout the package, so plain Horner arithmetic
is both exact enough and fast. The module imports no numpy: a Poly
evaluates a Python float or int in plain floats, and imports numpy on the
first call with an array, a numpy scalar or a complex value; a Tridiag
imports it when built.

Tridiag and tridiag_eigenvalues serve verify.fd_spectrum, the
finite-difference cross-check that only the tests call: one bisection per
Richardson grid, by scipy's eigh_tridiagonal, imported on the first call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

TRIM_TOL = 1e-14  # relative: to the largest finite |coefficient|


def _trim(coeffs) -> tuple[float, ...]:
    """Coefficients as floats, trailing ones at or below TRIM_TOL times the
    largest finite |coefficient| dropped, so the trim follows the
    polynomial's scale (1e-8 (1 + z^2) keeps its z^2)."""
    cs = [float(c) for c in coeffs] or [0.0]
    tol = TRIM_TOL * max((abs(c) for c in cs if math.isfinite(c)), default=0.0)
    while len(cs) > 1 and abs(cs[-1]) <= tol:
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
        if type(z) in (float, int):  # the numpy loop's operations, in its order
            acc = 0.0
            for c in reversed(self.coeffs):
                acc = acc * z + c
            return acc
        import numpy as np

        arr = np.asarray(z)
        acc = np.zeros(arr.shape, dtype=np.result_type(arr.dtype, float))
        for c in reversed(self.coeffs):  # in place: acc * arr + c, bit for bit
            acc *= arr
            acc += c
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
        tuple[float, float, float] | None]:
    """Zeros of Q (deg <= 2) and the partial fractions of rem/Q there.

    Returns (real, pair). real holds (rho, c1, c2) per distinct real zero,
    with rem/Q = sum c1/(z - rho) + c2/(z - rho)^2; c2 is nonzero only at a
    double zero, declared when |disc| <= 1e-12 max(q1^2, |4 q0 q2|). For an
    irreducible Q with zeros center +- i imag, pair is (center, imag, a)
    with a the weight of d/dz ln((z - center)^2 + imag^2) in rem/Q, which
    is all of rem/Q when rem is a multiple of Q' (the only case in which a
    model's V0 lies in the closed pole basis); otherwise pair is None.
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
    return [], (center, imag, rem.coeff(1) / (2.0 * q2))


@dataclass(frozen=True, eq=False)
class Tridiag:
    """Symmetric tridiagonal matrix (diagonal + one off-diagonal), held as
    float64 arrays; float64 array input is stored without a copy.
    verify.fd_spectrum builds one per Richardson grid."""

    diag: np.ndarray
    offdiag: np.ndarray

    def __post_init__(self):
        import numpy as np

        object.__setattr__(self, "diag", np.asarray(self.diag, dtype=float))
        object.__setattr__(self, "offdiag", np.asarray(self.offdiag, dtype=float))
        if len(self.offdiag) != max(len(self.diag) - 1, 0):
            raise ValueError("offdiag must have n-1 entries")

    @property
    def n(self) -> int:
        return len(self.diag)


def tridiag_eigenvalues(t: Tridiag, index_range: tuple[int, int]) -> np.ndarray:
    """Eigenvalues lo through hi of a symmetric tridiagonal matrix,
    ascending, for index_range = (lo, hi): indices inclusive, counted from
    the smallest at 0. They come from one bisection
    (scipy.linalg.eigh_tridiagonal, LAPACK dstebz) at a cost proportional
    to hi - lo + 1, and are deterministic for fixed input. An index outside
    0..n - 1 raises ValueError, and so does a non-finite entry. scipy is
    imported here, on the first call: without it the call raises
    ImportError.
    """
    lo, hi = index_range
    if not 0 <= lo <= hi < t.n:
        raise ValueError(f"index range {index_range} outside 0..{t.n - 1}")
    from scipy.linalg import eigh_tridiagonal

    return eigh_tridiagonal(t.diag, t.offdiag, eigvals_only=True, select="i",
                            select_range=(lo, hi))
