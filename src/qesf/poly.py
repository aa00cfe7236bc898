"""Dense real polynomials plus the spectral helpers built on top of them.

Coefficients are stored ascending (c0 + c1*z + ...) and canonically trimmed.
Degrees stay tiny (<= 8) throughout the package, so plain Horner arithmetic
is both exact enough and fast.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError

TRIM_TOL = 1e-14  # relative: to the largest finite |coefficient|
INVERSE_STEPS = 3  # inverse-iteration solves per level of tridiag_levels


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


_FLAPACK = "scipy.linalg._flapack"


def _lapack():
    """scipy's LAPACK extension module, scipy.linalg._flapack, the one
    source of the LAPACK routines below (dgttrf, dgttrs, dstebz).

    It is loaded on first use straight from its file in scipy's package
    directory (importlib's ExtensionFileLoader), without running
    scipy/linalg/__init__.py (about 6 ms against 230 ms for the package
    import on a 2-core machine), and registered under its own name in
    sys.modules. A copy already there is reused, and a later import of
    scipy.linalg reuses this one, so both call the same routines.
    The scipy.linalg package itself is never imported here. ImportError
    when scipy or the extension is not installed.
    """
    module = sys.modules.get(_FLAPACK)
    if module is not None:
        return module
    scipy = importlib.util.find_spec("scipy")
    spec = scipy and importlib.machinery.FileFinder(
        os.path.join(scipy.submodule_search_locations[0], "linalg"),
        (importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES),
    ).find_spec(_FLAPACK)
    if spec is None:
        raise ImportError(f"{_FLAPACK}, scipy's LAPACK extension, is not installed")
    module = sys.modules[_FLAPACK] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def tridiag_eigenvalues(t: Tridiag, index_range: tuple[int, int]) -> np.ndarray:
    """Eigenvalues lo through hi of a symmetric tridiagonal matrix,
    ascending, for index_range = (lo, hi): indices inclusive, counted from
    the smallest at 0. They come from bisection (LAPACK dstebz) at a cost
    proportional to hi - lo + 1, with the arguments
    scipy.linalg.eigh_tridiagonal passes, so the bits are that function's,
    and are deterministic for fixed input. The routine comes from scipy's
    LAPACK extension, loaded on the first call that reaches it (_lapack);
    the scipy.linalg package is never imported. Non-finite entries raise
    ValueError, and a LAPACK failure ConvergenceError.
    """
    n = t.n
    if n < 1:
        raise ValueError("empty matrix")
    lo, hi = index_range
    if not 0 <= lo <= hi < n:
        raise ValueError(f"index range {index_range} outside 0..{n - 1}")
    if n == 1:
        return t.diag.copy()
    d, e = t.diag, t.offdiag
    if not (np.isfinite(d).all() and np.isfinite(e).all()):
        raise ValueError("array must not contain infs or NaNs")
    m, w, _, _, info = _lapack().dstebz(d, e, 2, 0.0, 1.0, lo + 1, hi + 1, 0.0, "E")
    if info != 0:  # pragma: no cover - LAPACK failure
        raise ConvergenceError(f"tridiagonal eigensolver failed (LAPACK info {info})")
    return w[:m]


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


def _sturm_count(dl, d, du, du2, ipiv) -> int | None:
    """Number of eigenvalues of a symmetric tridiagonal T below s, read off
    the LAPACK dgttrf factors (dl, d, du, du2, ipiv) of T - s I; None when
    a leading minor of T - s I is 0.

    Steps j < k of the pivoted elimination combine only rows <= k, so after
    them the leading (k+1)-block is upper triangular with diagonal
    U_00 .. U_{k-1,k-1}, r_k, where r_k is U_kk, or dl_k U_kk when step k
    swapped rows k and k+1. Each swap flips a determinant's sign, so the
    leading minor D_{k+1} has the sign of r_k prod_{j<k} (-1)^swap_j U_jj,
    and D_{k+1} / D_k that of r_k r_{k-1} (-1)^swap_{k-1} U_{k-1,k-1}. The
    count is the number of sign changes in 1, D_1, .., D_n (Sylvester's law
    of inertia), and without swaps the number of negative pivots U_kk.
    """
    swap = ipiv[:-1] != np.arange(1, len(d), dtype=ipiv.dtype)
    r = d.copy()
    r[:-1] *= np.where(swap, dl, 1.0)
    if not r.all():
        return None
    neg = r < 0.0
    flips = (d[:-1] < 0.0) != swap  # (-1)^swap_j U_jj < 0
    return int(neg[0]) + int(np.count_nonzero(neg[1:] ^ neg[:-1] ^ flips))


def _enclosed(t: Tridiag, index: int, shift: float, count: int | None, sigma: float,
              delta: float, ends: list) -> float | None:
    """Eigenvalue of the given index from two Sturm counts and the
    Kato-Temple bound, or None when they do not settle it.

    count is the number of eigenvalues below shift, and x of unit norm (the
    caller's inverse iteration at shift) has Rayleigh quotient sigma and
    |T x - sigma x| <= delta. The count puts the level below shift (count
    index + 1) or above it (count index). A window (a, b) then runs from
    shift to a far end on that side whose count (index for a far end below
    the level, index + 1 above it) leaves the level alone between the two,
    so the window holds that eigenvalue and no other. The far end is the
    nearest of ends, (shift, count) pairs already known, beyond
    sigma +- delta with that count; without one, one more factorization
    counts at 2 |sigma - shift| + 2 delta from shift, just beyond the
    level and short of a doublet partner further out. With
    (sigma - delta, sigma + delta) strictly inside (a, b), x is not a
    neighbour's vector, and Kato-Temple puts the eigenvalue in
    [sigma - delta^2 / (b - sigma), sigma + delta^2 / (sigma - a)]. sigma
    is returned when that interval is no wider than 8 eps |T|_1; otherwise
    bisection (dstebz) of the interval, when it finds the one eigenvalue
    there.
    """
    if count == index + 1:
        side, inside = -1.0, index
    elif count == index:
        side, inside = 1.0, index + 1
    else:
        return None
    if not side * (sigma - shift) > delta:  # sigma +- delta on the level's side of shift
        return None
    d, e = t.diag, t.offdiag
    lapack = _lapack()
    listed = [s for s, c in ends if c == inside and side * (s - sigma) > delta]
    if listed:
        far = min(listed, key=lambda s: side * s)
    else:  # |sigma - shift| + 2 delta beyond sigma
        far = shift + side * (2.0 * abs(sigma - shift) + 2.0 * delta)
        if _sturm_count(*lapack.dgttrf(e, d - far, e)[:-1]) != inside:
            return None
    a, b = sorted((shift, far))
    # delta < b - sigma and delta < sigma - a: no product overflows
    lo, hi = sigma - delta * (delta / (b - sigma)), sigma + delta * (delta / (sigma - a))
    if hi - lo <= 8.0 * np.finfo(float).eps * t.gershgorin[2]:
        return sigma
    m, w, *_ = lapack.dstebz(d, e, 1, lo, hi, 0, 0, 0.0, "E")
    return float(w[0]) if m == 1 else None


def tridiag_levels(t: Tridiag, wanted) -> list[float]:
    """Eigenvalues of a symmetric tridiagonal matrix, one for each
    (index, near) pair of wanted, in that order: the eigenvalue of that
    index (counted from the smallest at 0), looked for near the value near.

    1. For each level, T - s I is factored once (LAPACK dgttrf), s being
       near clamped into the Gershgorin interval (t.gershgorin, computed
       once per matrix), and INVERSE_STEPS inverse-iteration solves
       (dgttrs) from a fixed start vector give a unit x with Rayleigh
       quotient sigma. Some eigenvalue then lies within
       delta = |T x - sigma x| + 8 eps |T|_1 of sigma. The factorization
       also gives the Sturm count at s.
    2. Those counts, one per level, and the Gershgorin floor and ceiling
       (counts 0 and n) are the ends from which each level's window is
       cut: one end at its own shift, the other at the nearest listed
       shift beyond sigma +- delta whose count leaves the level alone in
       between. Only a level with no such end pays a factorization of its
       own, just beyond sigma. With sigma +- delta inside the window, the
       Kato-Temple bound fixes the value (_enclosed).
    3. Otherwise tridiag_eigenvalues(t, (index, index)) bisects the level
       from the Gershgorin bounds.

    near only picks where to look: counts fix the index, and the
    Kato-Temple bound or bisection the value, so a poor near costs time
    and never changes the result beyond 8 eps |T|_1. A near-degenerate
    pair inside the window is told apart by the counts. An index outside
    0..n - 1 raises ValueError. The routines come from scipy's LAPACK
    extension, loaded on the first call that factors a matrix (_lapack).
    """
    n = t.n
    for index, _ in wanted:
        if not 0 <= index < n:
            raise ValueError(f"index {index} outside 0..{n - 1}")
    if n <= 2:  # scipy's dgttrf wrapper rejects the empty second superdiagonal
        return [float(tridiag_eigenvalues(t, (index, index))[0]) for index, _ in wanted]
    d, e = t.diag, t.offdiag
    floor, ceiling, norm = t.gershgorin
    lapack = _lapack()
    probes = []  # (shift, count, sigma, delta) per level
    for _, near in wanted:
        shift = min(max(near, floor), ceiling)
        *lu, info = lapack.dgttrf(e, d - shift, e)
        sigma = delta = math.nan
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
        probes.append((shift, _sturm_count(*lu), sigma, delta))
    ends = [(floor, 0), (ceiling, n)] + [(s, c) for s, c, _, _ in probes if c is not None]
    out = []
    for (index, _), (shift, count, sigma, delta) in zip(wanted, probes):
        level = _enclosed(t, index, shift, count, sigma, delta, ends)
        out.append(float(tridiag_eigenvalues(t, (index, index))[0]) if level is None else level)
    return out
