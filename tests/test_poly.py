import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from qesf import poly
from qesf.poly import Poly, Tridiag, divmod_poly, tridiag_eigenvalues, tridiag_levels

from oracles import hermite_zeros, laguerre_zeros, norm1, sturm_count


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


# -- one level near a claimed value ------------------------------------------

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


@settings(derandomize=True, deadline=None)
@given(fd_matrices(), st.data())
def test_tridiag_eigenvalue_is_the_bisection_level_from_any_near(t, data):
    k = data.draw(st.integers(0, t.n - 1))
    spectrum = tridiag_eigenvalues(t, (0, t.n - 1))
    want = tridiag_eigenvalues(t, (k, k))[0]
    tol = 8.0 * np.finfo(float).eps * norm1(t)
    # the level itself, midway to its nearer neighbour (a doublet partner
    # when there is one), far outside the spectrum and at +-1e300
    neighbours = [spectrum[j] for j in (k - 1, k + 1) if 0 <= j < t.n]
    partner = min(neighbours, key=lambda v: abs(v - want), default=want)
    span = spectrum[-1] - spectrum[0] + 1.0
    nears = [want, 0.5 * (want + partner), spectrum[0] - 10.0 * span,
             spectrum[-1] + 10.0 * span, 1e300, -1e300]
    got = [tridiag_levels(t, [(k, near)])[0] for near in nears]
    assert max(abs(v - want) for v in got) <= tol, (k, got, want)
    assert max(got) - min(got) <= tol


@settings(derandomize=True, deadline=None)
@given(fd_matrices(), st.data())
def test_tridiag_levels_share_counts_and_keep_each_level(t, data):
    # several levels of one matrix in one call: each level's Sturm count at
    # its own shift may end another level's window, and every level is
    # still the bisection level of its index, whatever the nears, a
    # neighbour's level or a doublet partner among them
    spectrum = tridiag_eigenvalues(t, (0, t.n - 1))
    tol = 8.0 * np.finfo(float).eps * norm1(t)
    span = spectrum[-1] - spectrum[0] + 1.0
    indices = data.draw(st.lists(st.integers(0, t.n - 1), min_size=1, max_size=8))
    wanted = []
    for k in indices:
        j = data.draw(st.sampled_from([i for i in (k - 1, k, k + 1) if 0 <= i < t.n]))
        wanted.append((k, data.draw(st.sampled_from(
            [spectrum[k], 0.5 * (spectrum[k] + spectrum[j]), spectrum[j],
             spectrum[0] - span, spectrum[-1] + span]))))
    got = tridiag_levels(t, wanted)
    for (k, near), level in zip(wanted, got):
        want = tridiag_eigenvalues(t, (k, k))[0]
        assert abs(level - want) <= tol, (k, near, level, want)


@st.composite
def random_tridiagonals(draw):
    """Symmetric tridiagonals with normal entries, off-diagonals of either
    sign, on scales that make pivoted LU swap rows at some shifts."""
    n = draw(st.integers(3, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    d = rng.normal(size=n) * draw(st.sampled_from((0.01, 1.0, 100.0, 1e4)))
    e = rng.normal(size=n - 1) * draw(st.sampled_from((0.01, 1.0, 100.0)))
    return Tridiag(d, e)


@settings(derandomize=True, deadline=None)
@given(st.one_of(random_tridiagonals(), fd_matrices()), st.data())
def test_tridiag_eigenvalues_are_the_bits_of_eigh_tridiagonal(t, data):
    # poly calls scipy's LAPACK extension with the arguments
    # eigh_tridiagonal passes it: an index range (dstebz) comes out bit for bit
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


def _dstebz_count(t, s):
    """Eigenvalues of t at or below s, from LAPACK's own Sturm count: dstebz
    over (below the spectrum, s] with a tolerance wider than that interval,
    so it bisects nothing."""
    floor = t.gershgorin[0]
    below = floor - 1.0 - abs(floor)
    if s <= below:
        return 0
    m, *_ = scipy.linalg.lapack.dstebz(t.diag, t.offdiag, 1, below, s, 0, 0,
                                       2.0 * (s - below), "E")
    return m


@settings(derandomize=True, deadline=None)
@given(st.one_of(random_tridiagonals(), fd_matrices().filter(lambda t: t.n >= 3)), st.data())
def test_lu_sturm_count_is_the_dstebz_count(t, data):
    # the count read off dgttrf's pivots lies between dstebz's counts
    # 4 eps |T|_1 below and above the shift. Where the shift is further than
    # that from every eigenvalue (between two levels, outside the Gershgorin
    # interval) the two are one count, so the LU count is dstebz's. At an
    # eigenvalue, or 1 ulp from one, each recurrence puts the level on
    # either side by its own rounding.
    spectrum = tridiag_eigenvalues(t, (0, t.n - 1))
    k = data.draw(st.integers(0, t.n - 1))
    floor, ceiling, norm = t.gershgorin
    tol = 4.0 * np.finfo(float).eps * norm
    level = spectrum[k]
    shifts = [level, np.nextafter(level, np.inf), np.nextafter(level, -np.inf),
              floor - 1.0 - abs(floor), ceiling + 1.0 + abs(ceiling)]
    if k + 1 < t.n:
        shifts.append(0.5 * (level + spectrum[k + 1]))
    for s in shifts:
        *lu, _ = scipy.linalg.lapack.dgttrf(t.offdiag, t.diag - s, t.offdiag)
        c = poly._sturm_count(*lu)
        if c is None:  # a zero leading minor: the caller falls back
            continue
        lo, hi = _dstebz_count(t, s - tol), _dstebz_count(t, s + tol)
        assert lo <= c <= hi, (s, c, lo, hi)


def test_lu_sturm_count_sees_a_zero_leading_minor():
    # [[1, 1, 0], [1, 1, 1], [0, 1, 1]] - 1 I has a zero first pivot, and
    # dgttrf swaps past it
    t = Tridiag(np.ones(3), np.ones(2))
    *lu, _ = scipy.linalg.lapack.dgttrf(t.offdiag, t.diag - 1.0, t.offdiag)
    assert poly._sturm_count(*lu) is None
    assert tridiag_levels(t, [(1, 1.0)])[0] == pytest.approx(1.0, abs=1e-15)


def _double_well(depth):
    """Full-line FD operator of U = depth (x^2 - 1)^2 on [-3, 3]: its low
    levels pair into tunnelling doublets whose splitting shrinks as the
    barrier deepens."""
    x = np.linspace(-3.0, 3.0, 3001)
    h = x[1] - x[0]
    return Tridiag(2.0 / h ** 2 + depth * (x ** 2 - 1.0) ** 2, np.full(len(x) - 1, -1.0 / h ** 2))


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_a_doublet_partner_in_the_window_never_stands_in_for_the_level(k):
    # each level's partner lies within 1e-3 max(1, |level|) of it, so a
    # window beside a claim near the pair may hold both, yet further from
    # the level than the 8 eps |T|_1 the result must keep: the counts then
    # name no window holding the level alone, and the level, not its
    # partner, comes back
    t = _double_well(200.0)
    spectrum = tridiag_eigenvalues(t, (0, 5))
    tol = 8.0 * np.finfo(float).eps * norm1(t)
    want = spectrum[k]
    partner = spectrum[k ^ 1]
    assert 1e2 * tol < abs(partner - want) < 1e-3 * max(1.0, abs(want))
    for near in (want, partner, 0.5 * (want + partner), np.nextafter(want, np.inf),
                 np.nextafter(want, -np.inf)):
        got = tridiag_levels(t, [(k, near)])[0]
        assert abs(got - want) <= tol, (near, got, want, partner)


def test_the_bisection_hook_sees_a_doublet_partner_in_the_window(bisections):
    # positive control of the `bisections` hook that test_verify's
    # no-bisection tests read: on the doublet matrices above, a claim at
    # the partner leaves each level to dstebz, and the hook records it
    t = _double_well(200.0)
    spectrum = tridiag_eigenvalues(t, (0, 5))
    bisections.clear()
    for k in range(4):
        tridiag_levels(t, [(k, spectrum[k ^ 1])])
        assert "dstebz" in bisections, k
        bisections.clear()


def test_tridiag_eigenvalue_index_bounds_and_one_row():
    t = Tridiag(np.array([2.0, 3.0, 5.0]), np.array([1.0, 0.5]))
    for bad in (-1, 3):
        with pytest.raises(ValueError, match="outside 0..2"):
            tridiag_levels(t, [(bad, 3.0)])
    assert tridiag_levels(Tridiag(np.array([-4.5]), np.array([])), [(0, 1e300)]) == [-4.5]
    with pytest.raises(ValueError):
        tridiag_levels(Tridiag(np.array([-4.5]), np.array([])), [(1, -4.5)])


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
