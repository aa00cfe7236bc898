"""Dense real polynomials plus the spectral helpers built on top of them.

Coefficients are stored ascending (c0 + c1*z + ...) and canonically trimmed.
Degrees stay tiny (<= 8) throughout the package, so plain Horner arithmetic
is both exact enough and fast.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError

TRIM_TOL = 1e-14  # relative: to the largest finite |coefficient|
INVERSE_STEPS = 3  # inverse-iteration solves per tridiag_eigenvalue call


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

    @functools.cached_property
    def gershgorin(self) -> tuple[float, float, float]:
        """(floor, ceiling, norm): the Gershgorin interval that holds every
        eigenvalue, and the largest absolute row sum |T|_1. Computed on
        first use and kept, so the arrays must not change after that."""
        d, e = self.diag, self.offdiag
        radius = np.abs(np.r_[e, 0.0]) + np.abs(np.r_[0.0, e])
        return (float(np.min(d - radius)), float(np.max(d + radius)),
                float(np.max(np.abs(d) + radius)))


def tridiag_eigenvalues(t: Tridiag,
                        index_range: tuple[int, int] | None = None) -> np.ndarray:
    """Eigenvalues of a symmetric tridiagonal matrix, ascending.

    With index_range = (lo, hi) given, only the eigenvalues of indices lo
    through hi (inclusive, counted from the smallest at 0) are computed by
    bisection, at a cost proportional to hi - lo + 1 (cheaper for large FD
    grids). Backed by LAPACK via scipy.linalg.eigh_tridiagonal, which is
    deterministic for fixed input; scipy.linalg is imported on the first
    call that reaches it, so a process that never asks for an eigenvalue
    does not load scipy.
    """
    n = t.n
    if n < 1:
        raise ValueError("empty matrix")
    if index_range is not None:
        lo, hi = index_range
        if not 0 <= lo <= hi < n:
            raise ValueError(f"index range {index_range} outside 0..{n - 1}")
    if n == 1:
        return t.diag.copy()
    import scipy.linalg
    try:
        if index_range is None:
            w = scipy.linalg.eigh_tridiagonal(t.diag, t.offdiag, eigvals_only=True)
        else:
            w = scipy.linalg.eigh_tridiagonal(t.diag, t.offdiag, eigvals_only=True,
                                              select="i", select_range=index_range)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise ConvergenceError(f"tridiagonal eigensolver failed: {exc}") from exc
    return np.sort(w)


@functools.lru_cache(maxsize=8)
def _start_vector(n: int) -> np.ndarray:
    """Fixed start of inverse iteration, uniform on (0, 1) from a fixed
    seed. Its random part overlaps every eigenvector, the odd states of a
    symmetric well included. Its positive mean leans it to the even member
    of a tunnelling doublet, the lower one, which even node counts read: an
    odd state has no overlap with a constant vector."""
    x = np.random.default_rng(0).uniform(0.0, 1.0, n)
    x.flags.writeable = False
    return x


def tridiag_eigenvalue(t: Tridiag, index: int, near: float) -> float:
    """Eigenvalue of the given index (counted from the smallest at 0) of a
    symmetric tridiagonal matrix, looked for near the value near.

    1. T - s I is factored once (LAPACK dgttrf), s being near clamped into
       the Gershgorin interval (t.gershgorin, computed once per matrix),
       and INVERSE_STEPS inverse-iteration solves (dgttrs) from a fixed
       start vector give a unit x with Rayleigh quotient sigma. Some
       eigenvalue then lies within
       delta = |T x - sigma x| + 8 eps |T|_1 of sigma.
    2. Bisection (dstebz, RANGE='V', default tolerance) finds the m
       eigenvalues in the window (sigma - delta, sigma + delta].
    3. One Sturm count c at sigma + delta (dstebz from below the spectrum,
       with a tolerance wider than that interval, so it bisects nothing)
       gives them the indices c - m .. c - 1.
    4. If index is among them, its eigenvalue is returned; otherwise
       tridiag_eigenvalues(t, (index, index)) bisects it from the
       Gershgorin bounds.

    near only picks where to look: the count fixes the index and bisection
    the value, so a poor near costs time and never changes the result
    beyond the bisection tolerance. A near-degenerate pair inside the
    window is told apart by the count. An index outside 0..n - 1 raises
    ValueError. scipy.linalg is imported on the first call that factors a
    matrix, as in tridiag_eigenvalues.
    """
    n = t.n
    if not 0 <= index < n:
        raise ValueError(f"index {index} outside 0..{n - 1}")
    d, e = t.diag, t.offdiag
    if n == 1:
        return float(d[0])
    if n == 2:  # scipy's dgttrf wrapper rejects the empty second superdiagonal
        return float(tridiag_eigenvalues(t, (index, index))[0])
    floor, ceiling, norm = t.gershgorin
    import scipy.linalg
    lapack = scipy.linalg.lapack
    shift = min(max(near, floor), ceiling)
    *lu, info = lapack.dgttrf(e, d - shift, e)
    if info == 0:
        x = _start_vector(n)
        for _ in range(INVERSE_STEPS):
            x, _ = lapack.dgttrs(*lu, x)
            x /= np.linalg.norm(x)
        tx = d * x
        tx[:-1] += e * x[1:]
        tx[1:] += e * x[:-1]
        sigma = float(x @ tx)
        delta = float(np.linalg.norm(tx - sigma * x)) + 8.0 * np.finfo(float).eps * norm
        if math.isfinite(sigma) and math.isfinite(delta):
            m, w, *_ = lapack.dstebz(d, e, 1, sigma - delta, sigma + delta, 0, 0, 0.0, "E")
            below = floor - 1.0 - abs(floor)
            c, *_ = lapack.dstebz(d, e, 1, below, sigma + delta, 0, 0,
                                  2.0 * (sigma + delta - below), "E")
            j = index - (c - m)  # the window holds the indices c - m .. c - 1
            if 0 <= j < m:
                return float(w[j])
    return float(tridiag_eigenvalues(t, (index, index))[0])
