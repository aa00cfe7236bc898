"""Property tests of the branch finder on random type-2 and
singularity-induced models, of the walls of parabolic models, of the
coordinate images and the equations the map and W0 solve, and of which
models over an irreducible Q build."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, reject, settings, strategies as st

from qesf import bae, catalog, coords, prepot, verify
from qesf.errors import ModelError
from qesf.model import ModelSpec, Singularity
from qesf.poly import Poly, partial_fractions

Ns = st.integers(1, 6)
# (spec, k): k free parameters of the eigenproblem, at most C(N+k, k) solutions
type2_models = st.builds(
    lambda a, b, N: (catalog.instantiate("sextic-type2", N=N, a=a, b=b), 2),
    st.floats(0.5, 2.0), st.floats(-4.0, 4.0), Ns)
singular_models = st.builds(
    lambda c0, a, mu, N: (ModelSpec(Poly([1.0]), Poly([c0, 1.0]), (Singularity(a, mu),), N), 1),
    st.floats(-0.5, 0.5), st.floats(-0.5, 0.5), st.floats(0.05, 0.45), Ns)


@settings(derandomize=True, deadline=None)
@given(st.one_of(type2_models, singular_models))
def test_branches_solve_the_bae_and_are_distinct(model):
    spec, k = model
    branches = bae.enumerate_branches(spec)
    assert len(branches) <= math.comb(spec.N + k, k)
    roots = [np.asarray(br.roots) for br in branches]
    for r in roots:
        assert np.max(np.abs(bae.residual(spec, r))) < 1e-10
    for i in range(len(roots)):
        for j in range(i):
            assert np.max(np.abs(roots[i] - roots[j])) > 1e-6
    energies = [bae.branch_energy(spec, r) for r in roots]
    assert energies == sorted(energies)


def _parabolic_twins(q0, q1, c, p1, p2, N):
    """A parabolic model (Q linear) with P(rho) = c != 0 at the turning point
    rho, where W0 has a log term, and its twin: P - c and a declared
    mu = -c/Q'(rho) at rho. Both have the same BAE and the same wall."""
    rho = -q0 / q1
    # P = c + p1 (z - rho) + p2 (z - rho)^2, p2 of the sign that confines
    p2 = p2 if q1 > 0 else -p2
    shape = [p1 * -rho + p2 * rho * rho, p1 - 2.0 * p2 * rho, p2]
    undeclared = ModelSpec(Poly([q0, q1]), Poly([c + shape[0]] + shape[1:]), (), N)
    declared = ModelSpec(Poly([q0, q1]), Poly(shape), (Singularity(rho, -c / q1),), N)
    return undeclared, declared


parabolic_twins = st.builds(
    _parabolic_twins, st.floats(-1.0, 1.0),
    st.one_of(st.floats(1.0, 5.0), st.floats(-5.0, -1.0)),
    st.one_of(st.floats(-1.5, -0.05), st.floats(0.05, 1.5)),
    st.floats(-1.0, 1.0), st.floats(0.5, 2.0), st.integers(0, 2))


def _verdicts(spec):
    branches = bae.enumerate_branches(spec)
    return [str(rep) if isinstance(rep, Exception) else rep.verdict
            for rep in verify.verify_branches(prepot.integrate_w0(spec), branches,
                                              n_points=2001)]


@settings(derandomize=True, deadline=None)
@given(parabolic_twins)
def test_w0_log_wall_matches_its_declared_twin(twins):
    undeclared, declared = twins
    walls = [prepot.integrate_w0(spec).walls for spec in twins]
    assert list(walls[0]) == pytest.approx(list(walls[1]))
    assert list(walls[0].values()) == pytest.approx(list(walls[1].values()))
    assert _verdicts(undeclared) == _verdicts(declared)


coefficient = st.one_of(st.just(0.0), st.floats(-3.0, 3.0))
# Q = q2 (z - r)^2: a degenerate discriminant
double_zero = st.builds(lambda q2, r: (q2 * r * r, -2.0 * q2 * r, q2),
                        st.one_of(st.floats(0.1, 3.0), st.floats(-3.0, -0.1)),
                        st.floats(-2.0, 2.0))


@settings(derandomize=True, deadline=None)
@given(st.one_of(st.tuples(coefficient, coefficient, coefficient), double_zero),
       st.sampled_from((1, -1)))
def test_no_zero_of_q_lies_inside_the_coordinate_image(q, branch_sign):
    # z'^2 = Q > 0 on the open image, so every pole of P/Q and of V0, all
    # at real zeros of Q, is on the image's boundary or outside it
    Q = Poly(list(q))
    try:
        cmap = coords.build(Q, branch_sign=branch_sign)
    except ModelError:
        reject()  # no real motion
    lo, hi = cmap.z_image
    zeros, _ = partial_fractions(Poly([1.0]), Q)
    assert not any(lo + cmap.z_tol < rho < hi - cmap.z_tol for rho, _, _ in zeros)


# Q = q2 ((z - c)^2 + s^2): irreducible, with a sinh coordinate
irreducible_q = st.builds(lambda q2, c, s: Poly([q2 * (c * c + s * s), -2.0 * q2 * c, q2]),
                          st.floats(0.1, 3.0), st.floats(-2.0, 2.0), st.floats(0.1, 2.0))
linear = st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))


@settings(derandomize=True, deadline=None)
@given(irreducible_q, linear, st.booleans(), linear)
def test_over_an_irreducible_q_exactly_the_basis_models_build(Q, L, shifted, r):
    # P = Q L + R with deg R <= 1. Q is prime over the reals, so Q divides
    # V0's remainder P (P + Q'/2) only when R = 0 or R = -Q'/2
    half_dq = 0.5 * Q.derivative()
    P = Q * Poly(list(L)) - (half_dq if shifted else Poly([0.0]))
    prepot.integrate_w0(ModelSpec(Q, P, (), 1))
    R = Poly(list(r))
    assume(min(max(map(abs, (R - target).coeffs))
               for target in (Poly([0.0]), -half_dq)) > 0.05)
    with pytest.raises(ModelError, match="closed pole basis"):
        prepot.integrate_w0(ModelSpec(Q, Q * Poly(list(L)) + R, (), 1))


# a coefficient of Q that is zero or O(1): a map with z' ~ 1e-300 has no
# resolvable derivative
sized_coefficient = st.one_of(st.just(0.0), st.floats(0.1, 3.0), st.floats(-3.0, -0.1))


def _central(f, x, h):
    return (f(x + h) - f(x - h)) / (2.0 * h)


@settings(derandomize=True, deadline=None)
@given(st.one_of(st.tuples(*[sized_coefficient] * 3), double_zero),
       st.tuples(coefficient, coefficient, coefficient), st.sampled_from((1, -1)),
       st.floats(0.1, 0.9))
def test_the_map_and_w0_solve_their_defining_equations(q, p, branch_sign, where):
    # (dz/dx)^2 = Q(z) and dW0/dz = P/Q, with W0 = -log phi_0 (no roots), by
    # central differences inside the x-domain, away from its ends
    try:
        pre = prepot.integrate_w0(ModelSpec(Poly(list(q)), Poly(list(p)), (), 1,
                                            branch_sign=branch_sign))
    except ModelError:
        reject()  # no coordinate map, or V0 outside the pole basis
    Q, P, cmap = pre.spec_ref.Q, pre.spec_ref.P, pre.cmap
    lo, hi = (min(max(v, -2.0), 2.0) for v in cmap.x_domain)
    x = lo + where * (hi - lo)
    h = 1e-5 * (hi - lo)
    z = float(cmap.z_of_x(x))
    dz = _central(cmap.z_of_x, x, h)
    assert dz ** 2 == pytest.approx(Q(z), rel=1e-6, abs=1e-8)
    dw0 = _central(lambda v: -prepot.phi_log_sign(pre, (), v)[0], x, h) / dz
    assert dw0 == pytest.approx(P(z) / Q(z), rel=1e-5, abs=1e-7)
