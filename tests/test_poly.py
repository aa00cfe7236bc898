import math
import struct

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from qesf.poly import Poly, Tridiag, divmod_poly, tridiag_eigenvalues

from oracles import hermite_zeros, laguerre_zeros, sturm_count


def test_eval_examples():
    p = Poly([-2, 0, 4])  # 4z^2 - 2
    assert abs(p(1 / np.sqrt(2))) < 1e-12
    assert Poly([0])(7.0) == 0.0
    assert Poly([1, 2, 3])(2.0) == 17.0


def test_eval_matches_hermite_zero_oracle():
    w = hermite_zeros(2)
    p = Poly([-2, 0, 4])  # H_2
    assert max(abs(p(x)) for x in w) < 1e-12


def test_horner_matches_naive_power_sum():
    rng = np.random.default_rng(7)
    for _ in range(200):
        coeffs = rng.normal(size=rng.integers(1, 9))
        p = Poly(coeffs)
        z = rng.uniform(-10, 10)
        naive = sum(c * z ** i for i, c in enumerate(p.coeffs))
        assert abs(p(z) - naive) <= 1e-12 * max(1.0, abs(naive))


# signed zeros, subnormals, infinities and nan, often, among all other doubles
doubles = st.one_of(st.sampled_from((0.0, -0.0, 5e-324, -5e-324, 2.2e-308, math.inf, -math.inf,
                                     math.nan)), st.floats())


def _same_double(got: float, want: float) -> bool:
    """Equal bits, or both nan: where two nans meet, which one's payload
    and sign survive depends on the operand order the compiled code picks,
    and no output of qesf reads either."""
    if math.isnan(want):
        return math.isnan(got)
    return struct.pack("<d", got) == struct.pack("<d", want)


@settings(derandomize=True, deadline=None)
@given(st.lists(doubles, min_size=1, max_size=9),
       st.one_of(doubles, st.integers(-2 ** 63, 2 ** 63 - 1)))
def test_a_python_scalar_evaluates_to_the_bits_of_the_array_path(coeffs, z):
    # a float or int runs numpy's in-place Horner steps in plain floats, in
    # the same order, and overflows to inf without a RuntimeWarning; a numpy
    # scalar, a 0-d array and a complex value still go through numpy and
    # return what they always have
    p = Poly(coeffs)
    got = p(z)
    with np.errstate(all="ignore"):
        want = p(np.asarray([z]))[0]
        as_numpy = [p(np.float64(z)), p(np.asarray(z))]
        as_complex = [p(complex(z)), p(np.complex128(z))]
        as_array = p(np.asarray([z, z]))
    assert type(got) is float and _same_double(got, float(want)), (p.coeffs, z, got, want)
    assert all(type(v) is float and _same_double(v, float(want)) for v in as_numpy)
    assert all(type(v) is complex for v in as_complex)
    assert type(as_array) is np.ndarray and as_array.dtype == np.float64


def test_trimming_and_degree():
    assert Poly([1.0, 2.0, 0.0]).degree == 1
    assert Poly([0.0, 0.0]).degree == 0
    assert Poly([0.0]).is_zero()
    assert not Poly([0.0, 1.0]).is_zero()
    assert Poly([0, 1, 0.0]).degree == 1
    assert Poly([1, 1e-15]).degree == 0


def test_trimming_is_relative_to_the_scale():
    # the trim follows the coefficients' size, so small products keep
    # their top terms
    q = Poly([1e-8, 0.0, 1e-8])
    pp = q * q
    assert pp.degree == 4
    assert pp.coeffs == pytest.approx((1e-16, 0.0, 2e-16, 0.0, 1e-16), rel=1e-15, abs=0.0)
    assert Poly([1e-20, 1e-35]).degree == 0


def test_derivative_examples():
    assert Poly([0, 4, 0]).derivative().coeffs == (4.0,)
    assert Poly([5.0]).derivative().is_zero()
    alpha = 1.7
    assert Poly([0, 0, alpha ** 2]).derivative().coeffs == (0.0, 2 * alpha ** 2)


def test_divided_difference_examples():
    # z^2 at w=3 -> z + 3
    assert Poly([0, 0, 1]).divided_difference(3.0).coeffs == (3.0, 1.0)
    zk = 0.37
    q = Poly([0, 2, 2]).divided_difference(zk)
    assert np.allclose(q.coeffs, (2 + 2 * zk, 2.0))
    assert Poly([4.2]).divided_difference(1.0).is_zero()


def test_divided_difference_remultiplication():
    rng = np.random.default_rng(11)
    for _ in range(100):
        p = Poly(rng.normal(size=rng.integers(2, 5)))
        w = rng.uniform(-10, 10)
        q = p.divided_difference(w)
        z = rng.uniform(-10, 10)
        lhs = q(z) * (z - w) + p(w)
        assert abs(lhs - p(z)) <= 1e-12 * max(1.0, abs(p(z)))


def test_poly_algebra_and_division():
    a = Poly([1, 2])
    b = Poly([3, 0, 1])
    assert (a * b).coeffs == (3.0, 6.0, 1.0, 2.0)
    assert (a + b).coeffs == (4.0, 2.0, 1.0)
    quot, rem = divmod_poly(b * a + Poly([5]), a)
    z = 0.83
    assert abs(quot(z) * a(z) + rem(z) - (b(z) * a(z) + 5)) < 1e-12


def test_tridiag_examples():
    assert np.allclose(tridiag_eigenvalues(Tridiag((0.0,), ()), (0, 0)), [0.0])
    w = tridiag_eigenvalues(Tridiag((0.0, 0.0), (1.0,)), (0, 1))
    assert np.allclose(w, [-1.0, 1.0])
    # Jacobi matrix of monic Hermite, n=2: eigenvalues +-1/sqrt(2)
    w = tridiag_eigenvalues(Tridiag((0.0, 0.0), (np.sqrt(0.5),)), (0, 1))
    assert np.allclose(w, [-1 / np.sqrt(2), 1 / np.sqrt(2)], atol=1e-14)
    t = Tridiag(np.zeros(2), np.array([np.sqrt(0.5)]))
    assert t.n == 2 and t.diag.dtype == np.float64
    assert np.array_equal(tridiag_eigenvalues(t, (0, 1)), w)
    with pytest.raises(ValueError, match="n-1 entries"):
        Tridiag(np.zeros(3), np.ones(3))


def _dense_spectrum(t):
    """Every eigenvalue of t, ascending, from numpy's dense symmetric
    eigensolver: a reference independent of LAPACK's tridiagonal routines."""
    return np.linalg.eigvalsh(np.diag(t.diag) + np.diag(t.offdiag, 1) + np.diag(t.offdiag, -1))


def test_tridiag_lowest_k():
    rng = np.random.default_rng(3)
    d = rng.normal(size=30)
    e = rng.normal(size=29)
    full = _dense_spectrum(Tridiag(d, e))
    low = tridiag_eigenvalues(Tridiag(tuple(d), tuple(e)), (0, 4))
    assert np.allclose(full[:5], low, atol=1e-12)


def test_tridiag_index_range_is_a_slice_of_the_spectrum():
    # an FD-like operator: 2/h^2 + U on the diagonal, -1/h^2 beside it
    h = 0.01
    x = np.arange(-5.0, 5.0, h)
    t = Tridiag(2.0 / h ** 2 + x ** 2 + np.sin(3 * x), np.full(len(x) - 1, -1.0 / h ** 2))
    scale = np.max(np.abs(t.diag)) + 2.0 / h ** 2
    full = _dense_spectrum(t)
    for lo, hi in ((0, 0), (3, 3), (2, 9), (0, 27), (len(x) - 2, len(x) - 1)):
        got = tridiag_eigenvalues(t, (lo, hi))
        assert len(got) == hi - lo + 1
        assert np.max(np.abs(got - full[lo:hi + 1])) < 1e-9 * scale
    for bad in ((-1, 2), (4, 3), (0, len(x))):
        with pytest.raises(ValueError, match="index range"):
            tridiag_eigenvalues(t, bad)


# -- independent Sturm-sequence oracle --------------------------------------

def _sturm_eigenvalues(d, e):
    n = len(d)
    rad = np.zeros(n)
    rad[:-1] += np.abs(e)
    rad[1:] += np.abs(e)
    lo0 = float(np.min(d - rad)) - 1.0
    hi0 = float(np.max(d + rad)) + 1.0
    out = []
    for idx in range(n):
        lo, hi = lo0, hi0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if sturm_count(Tridiag(d, e), mid) <= idx:
                lo = mid
            else:
                hi = mid
            if hi - lo < 1e-14 * max(1.0, abs(lo), abs(hi)):
                break
        out.append(0.5 * (lo + hi))
    return np.array(out)


def test_tridiag_matches_sturm_bisection():
    rng = np.random.default_rng(42)
    for n in (3, 10, 25, 50):
        d = rng.normal(size=n) * 3
        e = rng.normal(size=n - 1)
        got = tridiag_eigenvalues(Tridiag(tuple(d), tuple(e)), (0, n - 1))
        want = _sturm_eigenvalues(d, e)
        assert np.max(np.abs(got - want)) < 1e-10


# -- the finite-difference matrices of verify.fd_spectrum ---------------------

@st.composite
def fd_matrices(draw):
    """2/h^2 + U beside -1/h^2 on a uniform grid: U random, or a symmetric
    double well deep enough to pair its levels into near-degenerate
    doublets; either end may carry a ghost-point wall shift of the
    diagonal."""
    n = draw(st.integers(2, 300))
    x = np.linspace(-1.0, 1.0, n) * draw(st.floats(1.0, 6.0))
    h = x[1] - x[0]
    if draw(st.booleans()):
        u = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))).uniform(-1.0, 1.0, n)
        u *= draw(st.floats(0.0, 1e4))
    else:
        depth, well = draw(st.floats(10.0, 2e3)), draw(st.floats(0.3, 0.8)) * x[-1]
        u = depth * ((x / well) ** 2 - 1.0) ** 2
    diag = 2.0 / h ** 2 + u
    for end in (0, -1):
        diag[end] -= draw(st.sampled_from((0.0, 0.3, 0.7, 1.0))) / h ** 2
    return Tridiag(diag, np.full(n - 1, -1.0 / h ** 2))


@st.composite
def random_tridiagonals(draw):
    """Symmetric tridiagonals with normal entries, off-diagonals of either
    sign, on diagonal and off-diagonal scales up to 1e6 apart."""
    n = draw(st.integers(3, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    d = rng.normal(size=n) * draw(st.sampled_from((0.01, 1.0, 100.0, 1e4)))
    e = rng.normal(size=n - 1) * draw(st.sampled_from((0.01, 1.0, 100.0)))
    return Tridiag(d, e)


@settings(derandomize=True, deadline=None)
@given(st.one_of(random_tridiagonals(), fd_matrices()), st.data())
def test_tridiag_eigenvalues_are_the_bits_of_eigh_tridiagonal(t, data):
    # poly's bisection is eigh_tridiagonal's over the index range, bit for bit
    lo = data.draw(st.integers(0, t.n - 1))
    hi = data.draw(st.integers(lo, t.n - 1))
    want = scipy.linalg.eigh_tridiagonal(t.diag, t.offdiag, eigvals_only=True,
                                         select="i", select_range=(lo, hi))
    assert tridiag_eigenvalues(t, (lo, hi)).tobytes() == want.tobytes(), (lo, hi)


def test_tridiag_eigenvalues_reject_non_finite_entries():
    for d, e in (([1.0, np.nan, 2.0], [0.5, 0.5]), ([1.0, 2.0, 3.0], [np.inf, 0.5])):
        with pytest.raises(ValueError, match="infs or NaNs"):
            tridiag_eigenvalues(Tridiag(np.array(d), np.array(e)), (0, 2))
        with pytest.raises(ValueError, match="infs or NaNs"):
            scipy.linalg.eigh_tridiagonal(np.array(d), np.array(e), eigvals_only=True)


def test_tridiag_eigenvalue_index_bounds_and_one_row():
    t = Tridiag(np.array([2.0, 3.0, 5.0]), np.array([1.0, 0.5]))
    for bad in (-1, 3):
        with pytest.raises(ValueError, match="outside 0..2"):
            tridiag_eigenvalues(t, (bad, bad))
    one = Tridiag(np.array([-4.5]), np.array([]))
    assert tridiag_eigenvalues(one, (0, 0)).tolist() == [-4.5]
    with pytest.raises(ValueError):
        tridiag_eigenvalues(one, (1, 1))


# -- classical zeros ---------------------------------------------------------

def test_hermite_zero_examples():
    assert np.allclose(hermite_zeros(1), [0.0])
    assert np.allclose(hermite_zeros(2), [-1 / np.sqrt(2), 1 / np.sqrt(2)])
    assert np.allclose(hermite_zeros(3), [-np.sqrt(1.5), 0.0, np.sqrt(1.5)])
    assert hermite_zeros(0).size == 0


def test_hermite_zeros_symmetric():
    for n in (4, 7, 12):
        w = hermite_zeros(n)
        assert np.allclose(w, -w[::-1], atol=0.0)


def test_laguerre_zero_examples():
    beta = 2.3
    assert np.allclose(laguerre_zeros(1, beta), [1 + beta])
    assert np.allclose(laguerre_zeros(2, 0.0), [2 - np.sqrt(2), 2 + np.sqrt(2)])
    assert np.allclose(laguerre_zeros(1, 0.0), [1.0])
    with pytest.raises(ValueError):
        laguerre_zeros(3, -1.0)


def _hermite_by_recurrence(n, x):
    h0, h1 = np.ones_like(x), 2 * x
    if n == 0:
        return h0
    for k in range(1, n):
        h0, h1 = h1, 2 * x * h1 - 2 * k * h0
    return h1


def _laguerre_by_recurrence(n, beta, x):
    l0, l1 = np.ones_like(x), 1 + beta - x
    if n == 0:
        return l0
    for k in range(1, n):
        l0, l1 = l1, ((2 * k + 1 + beta - x) * l1 - (k + beta) * l0) / (k + 1)
    return l1


@pytest.mark.parametrize("n", [1, 2, 5, 10, 25])
def test_hermite_zeros_against_recurrence(n):
    w = hermite_zeros(n)
    assert np.all(np.diff(w) > 0) or n == 1
    span = np.linspace(w[0] - 0.5, w[-1] + 0.5, 2000) if n > 1 else np.linspace(-1, 1, 100)
    scale = np.max(np.abs(_hermite_by_recurrence(n, span)))
    assert np.max(np.abs(_hermite_by_recurrence(n, w))) < 1e-9 * scale


@pytest.mark.parametrize("n,beta", [(1, 0.0), (3, 0.5), (8, 2.0), (25, 6.0)])
def test_laguerre_zeros_against_recurrence(n, beta):
    w = laguerre_zeros(n, beta)
    assert np.all(w > 0)
    span = np.linspace(max(w[0] - 1, 1e-6), w[-1] + 1, 3000)
    scale = np.max(np.abs(_laguerre_by_recurrence(n, beta, span)))
    assert np.max(np.abs(_laguerre_by_recurrence(n, beta, w))) < 1e-9 * scale
