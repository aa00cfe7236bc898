import math
from dataclasses import replace

import numpy as np
import pytest

from qesf import coords
from qesf.errors import DomainError, ModelError
from qesf.poly import Poly

from oracles import dz_dx


def test_build_linear():
    m = coords.build(Poly([1.0]))
    assert m.family == coords.LINEAR
    assert m.z_of_x(2.0) == 2.0
    assert dz_dx(m, 5.0) == 1.0
    assert m.preimages(3.0)[0] == 3.0
    assert m.x_domain == (-math.inf, math.inf)


def test_build_parabolic():
    m = coords.build(Poly([0.0, 4.0]))
    assert m.family == coords.PARABOLIC
    assert m.z_of_x(2.0) == pytest.approx(4.0)
    assert dz_dx(m, 2.0) == pytest.approx(4.0)
    assert m.z_image == (0.0, math.inf)
    assert m.preimages(9.0)[0] == pytest.approx(3.0)
    m_neg = coords.build(Poly([0.0, 4.0]), branch_sign=-1)
    assert m_neg.preimages(9.0)[0] == pytest.approx(-3.0)


def test_build_exponential():
    alpha = 2.0
    m = coords.build(Poly([0.0, 0.0, alpha ** 2]))
    assert m.family == coords.EXPONENTIAL
    assert m.z_of_x(0.0) == pytest.approx(1.0)
    assert dz_dx(m, 0.0) == pytest.approx(alpha)
    assert m.preimages(1.0)[0] == pytest.approx(0.0)
    assert m.z_of_x(1.0) == pytest.approx(math.exp(alpha))
    # decaying branch
    m2 = coords.build(Poly([0.0, 0.0, alpha ** 2]), branch_sign=-1)
    assert m2.z_of_x(1.0) == pytest.approx(math.exp(-alpha))


def test_build_trigonometric():
    m = coords.build(Poly([0.0, 4.0, -4.0]))
    assert m.family == coords.TRIGONOMETRIC
    assert m.z_of_x(math.pi / 4) == pytest.approx(0.5)
    assert dz_dx(m, math.pi / 4) == pytest.approx(1.0)
    assert m.preimages(0.5)[0] == pytest.approx(math.pi / 4)
    assert m.x_domain[0] == pytest.approx(0.0)
    assert m.x_domain[1] == pytest.approx(math.pi / 2)
    assert m.z_image == (0.0, 1.0)
    # z = sin^2 x across the branch
    xs = np.linspace(0.01, math.pi / 2 - 0.01, 50)
    assert np.allclose(m.z_of_x(xs), np.sin(xs) ** 2, atol=1e-12)


def test_build_hyperbolic():
    # Q = z^2 - 1: cosh branch with image [1, inf)
    m = coords.build(Poly([-1.0, 0.0, 1.0]))
    assert m.family == coords.HYPERBOLIC
    assert m.z_of_x(0.0) == pytest.approx(1.0)
    xs = np.linspace(-2, 2, 30)
    assert np.allclose(m.z_of_x(xs), np.cosh(xs), atol=1e-12)
    # Q = z^2 + 1: sinh, monotone on R
    m2 = coords.build(Poly([1.0, 0.0, 1.0]))
    assert m2.family == coords.HYPERBOLIC
    assert np.allclose(m2.z_of_x(xs), np.sinh(xs), atol=1e-12)


@pytest.mark.parametrize("q,branch", [
    ([1.0], 1), ([0.0, 4.0], 1), ([0.0, 4.0], -1), ([0.0, 0.0, 4.0], 1),
    ([0.0, 0.0, 1.0], -1), ([0.0, 4.0, -4.0], 1), ([-1.0, 0.0, 1.0], 1),
    ([1.0, 0.0, 1.0], 1), ([2.0, 3.0], 1),
])
def test_roundtrip_and_velocity(q, branch):
    Q = Poly(q)
    m = coords.build(Q, branch_sign=branch)
    rng = np.random.default_rng(17)
    lo, hi = m.x_domain
    lo, hi = max(lo, -8.0) + 0.05, min(hi, 8.0) - 0.05
    # parabolic/cosh maps are two-to-one: sample the declared monotone side
    two_to_one = (m.family == coords.PARABOLIC
                  or (m.family == coords.HYPERBOLIC and m.params["kind"] == "cosh"))
    if two_to_one:
        vertex = m.params.get("xv", m.params.get("xc", 0.0))
        if branch > 0:
            lo = max(lo, vertex + 0.05)
        else:
            hi = min(hi, vertex - 0.05)
    xs = rng.uniform(lo, hi, 100)
    zs = m.z_of_x(xs)
    # velocity identity dz/dx^2 = Q(z)
    assert np.allclose(dz_dx(m, xs) ** 2, Q(zs), rtol=1e-10, atol=1e-10)
    # round trip on the monotone branch
    back = m.preimages(zs)[0]
    assert np.allclose(back, xs, rtol=1e-10, atol=1e-10)


@pytest.mark.parametrize("q", [[1.0], [0.0, 4.0], [0.0, 0.0, 4.0], [0.0, 4.0, -4.0]])
def test_acceleration_central_difference(q):
    # z'' must equal q2 z + q1/2; central differences converge at O(h^2)
    Q = Poly(q)
    m = coords.build(Q)
    lo, hi = m.x_domain
    xs = np.linspace(max(lo, -3) + 0.2, min(hi, 3) - 0.2, 11)
    q1, q2 = Q.coeff(1), Q.coeff(2)
    errs = []
    for h in (1e-2, 1e-3):
        zpp = (m.z_of_x(xs + h) - 2 * m.z_of_x(xs) + m.z_of_x(xs - h)) / h ** 2
        errs.append(np.max(np.abs(zpp - (q2 * m.z_of_x(xs) + q1 / 2))))
    assert errs[0] < 1e-10 or errs[0] / max(errs[1], 1e-16) > 30  # ~O(h^2)
    zpp = (m.z_of_x(xs + 1e-3) - 2 * m.z_of_x(xs) + m.z_of_x(xs - 1e-3)) / 1e-6
    assert np.allclose(zpp, q2 * m.z_of_x(xs) + q1 / 2, atol=1e-6)


def test_domain_endpoints_at_turning_points():
    m = coords.build(Poly([0.0, 4.0, -4.0]))
    Q = Poly([0.0, 4.0, -4.0])
    for xe in m.x_domain:
        assert abs(Q(m.z_of_x(xe))) < 1e-12
    assert coords.build(Poly([1.0])).x_domain == (-math.inf, math.inf)
    assert coords.build(Poly([0.0, 4.0])).x_domain == (-math.inf, math.inf)


def test_invalid_inputs():
    with pytest.raises(ModelError):
        coords.build(Poly([0.0]))
    with pytest.raises(ModelError):
        coords.build(Poly([-1.0]))  # z'^2 < 0
    with pytest.raises(ModelError):
        coords.build(Poly([-1.0, 0.0, -1.0]))  # Q < 0 everywhere


def test_domain_errors():
    m = coords.build(Poly([0.0, 4.0, -4.0]))
    with pytest.raises(DomainError):
        m.z_of_x(3.0)


# every map family, each two-to-one one with both branch signs
FAMILIES = [([1.0], 1), ([0.0, 4.0], 1), ([0.0, 4.0], -1), ([2.0, -3.0], 1),
            ([0.0, 0.0, 4.0], 1), ([0.0, 0.0, 4.0], -1), ([-1.0, 0.0, 1.0], 1),
            ([-1.0, 0.0, 1.0], -1), ([1.0, 0.0, 1.0], 1), ([0.0, 4.0, -4.0], 1),
            ([0.0, 4.0, -4.0], -1)]


@pytest.mark.parametrize("q,branch", FAMILIES)
def test_preimages_are_the_declared_and_the_mirror_inverse(q, branch):
    m = coords.build(Poly(q), branch_sign=branch)
    mirror = replace(m, branch_sign=-branch)
    lo, hi = m.z_image
    lo, hi = max(lo, -20.0), min(hi, 20.0)
    # inside the image and, but for the exponential map's end (see below),
    # at its finite ends and within z_tol past them
    zs = np.linspace(lo, hi, 41)[1:-1]
    if m.family != coords.EXPONENTIAL:
        ends = [v for v in m.z_image if math.isfinite(v)]
        zs = np.r_[zs, ends, [v - 0.5 * m.z_tol if v == m.z_image[0] else v + 0.5 * m.z_tol
                              for v in ends]]
    got = m.preimages(zs)
    assert got.shape == (2,) + zs.shape
    # each row maps back onto z (clipped into the image) wherever it lies in
    # the x-domain: all of the declared row, and the mirror row but for the
    # trigonometric map's
    for row in got:
        inside = (row >= m.x_domain[0]) & (row <= m.x_domain[1])
        assert np.allclose(m.z_of_x(row[inside]), np.clip(zs, *m.z_image)[inside],
                           rtol=1e-10, atol=1e-10)
    assert ((got[0] >= m.x_domain[0]) & (got[0] <= m.x_domain[1])).all()
    # the map with the other branch sign swaps the rows
    assert np.array_equal(mirror.preimages(zs), got[::-1])
    # one point at a time, and a 2-d array, give the same bits
    assert np.array_equal(np.array([m.preimages(z) for z in zs]).T, got)
    assert np.array_equal(m.preimages(zs.reshape(-1, 1))[:, :, 0], got)


@pytest.mark.parametrize("q,branch", FAMILIES)
def test_preimages_are_nan_outside_the_image(q, branch):
    m = coords.build(Poly(q), branch_sign=branch)
    outside = [v - 2.0 * m.z_tol - 1.0 if v == m.z_image[0] else v + 2.0 * m.z_tol + 1.0
               for v in m.z_image if math.isfinite(v)]
    outside += [v - 2.0 * m.z_tol if v == m.z_image[0] else v + 2.0 * m.z_tol
                for v in m.z_image if math.isfinite(v)]
    assert np.isnan(m.preimages(np.array(outside))).all()
    assert np.isnan(m.preimages(np.nan)).all()


def test_preimages_are_nan_at_the_exponential_image_end():
    # z = exp(2x) has no x at z = 0
    for branch in (1, -1):
        m = coords.build(Poly([0.0, 0.0, 4.0]), branch_sign=branch)
        assert m.z_image[0] == 0.0
        got = m.preimages(np.array([0.0, -0.25 * m.z_tol, 1.0]))
        assert np.isnan(got[:, :2]).all() and np.isfinite(got[:, 2]).all()
