"""Property tests of the branch finder on random type-2, two-wall and
singularity-induced models, of its Newton-inequality screen against the
unscreened eigen-solutions and of its batched root extraction, of the
walls of parabolic models, of the coordinate images and the equations the
map, W0 and log|phi| solve (with declared singularities), of which models
over an irreducible Q build, of the
energies and CSV output of random type-1 models, of the batched
certification setup against the per-branch, per-root one, and of the
lock-step Newton polish, the batched energy split, the branch energies and
their order against their one-row oracles, and of verify's normalizable
against the end rule."""

import contextlib
import io
import json
import math
import os
import random
import re
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, reject, settings, strategies as st

from qesf import bae, catalog, cli, coords, model, potential, prepot, verify
from qesf.errors import CollisionError, ConvergenceError, GridError, ModelError
from qesf.model import ModelSpec, Singularity
from qesf.poly import Poly, partial_fractions

import oracles

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
# a subnormal b, on which the Delta-operators' k x k determinants taken by
# np.linalg.det warn "divide by zero encountered in det"
@example((catalog.instantiate("sextic-type2", N=2, a=1.0, b=2.225073858507e-311), 2))
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
    # real branches in the documented order: ascending energy, with runs
    # whose energies agree within ENERGY_TIE_ULPS ordered by their roots
    assert bae._energy_order(spec, branches) == branches


# Q = 1, P = c0 + z and a repelling wall (mu > 0) on each side of 0. The
# roots are charges in equilibrium (Stieltjes): each way of placing N of
# them in the three intervals the walls cut has exactly one, so all
# C(N+2, 2) solutions of the two-parameter problem are real and differ in
# their placements. N <= 6: from N = 8 the finder still loses some on
# some draws (ROADMAP item 2).
two_wall_models = st.builds(
    lambda a1, a2, mu1, mu2, c0, N: ModelSpec(
        Poly([1.0]), Poly([c0, 1.0]), (Singularity(a1, mu1), Singularity(a2, mu2)), N),
    st.floats(-0.5, -0.1), st.floats(0.1, 0.5), st.floats(0.05, 0.45),
    st.floats(0.05, 0.45), st.floats(-0.5, 0.5), Ns)


@settings(derandomize=True, deadline=None)
@given(two_wall_models)
def test_two_wall_models_find_every_placement(spec):
    branches = bae.enumerate_branches(spec)
    assert len(branches) == math.comb(spec.N + 2, 2)
    walls = [s.location for s in spec.singularities]
    placements = {tuple(np.histogram(np.real(br.roots), [-np.inf, *walls, np.inf])[0])
                  for br in branches}
    assert all(br.is_real for br in branches)
    assert len(placements) == len(branches)


# k >= 2 models for the Newton-inequality screen: two walls, sextic-type2
# up to N = 10 (k = 2), and sextic-type2 with one wall (k = 3, N <= 3)
screened_models = st.one_of(
    two_wall_models,
    st.builds(lambda a, b, N: catalog.instantiate("sextic-type2", N=N, a=a, b=b),
              st.floats(0.5, 2.0), st.floats(-4.0, 4.0), st.integers(1, 10)),
    st.builds(lambda base, wall, mu: ModelSpec(base.Q, base.P, (Singularity(wall, mu),), base.N),
              st.builds(lambda a, b, N: catalog.instantiate("sextic-type2", N=N, a=a, b=b),
                        st.floats(0.5, 2.0), st.floats(-4.0, 4.0), st.integers(1, 3)),
              st.floats(-0.5, 0.5), st.floats(0.05, 0.45)))


def _svd_starts(M0, s):
    """The real starts of the rank-test finder (oracles.rank_deficient),
    filtered as _starts filters the others: y of exact degree N whose
    roots are real to REAL_TOL."""
    starts = []
    for y in oracles.rank_deficient(M0):
        if abs(y[-1]) > bae.DEGREE_TOL * np.max(np.abs(y)):
            w = np.roots(y[::-1])
            if np.max(np.abs(w.imag)) <= bae.REAL_TOL:
                starts.append(s * np.sort(w.real + w.imag))
    return starts


@settings(derandomize=True, deadline=None)
@given(screened_models)
# a vetted benchmark config: 30 real eigen-solutions, 25 screened out
@example(catalog.instantiate("sextic-type2", N=10, a=1.026477, b=-3.006481))
def test_the_newton_screen_changes_no_start(spec):
    # the screen only discards eigen-solutions REAL_TOL rejects: the starts
    # are those of the unscreened reads of the same eigenvectors, bit for
    # bit. And every start of the rank-test finder has a start read
    # straight from its eigenvector within 1e-8 in z/s, the unit of
    # REAL_TOL (the rank-test start is the less accurate one: 1.8e-8 from
    # its polished branch, against 2e-10, at two walls -0.39 and 0.33, N = 4)
    M0, s = bae._heine_matrix(spec)
    got = bae._starts(M0, s)
    with mock.patch.object(bae, "_newton_screen", lambda y: np.ones(y.shape[1], bool)):
        want = bae._starts(M0, s)
    assert [(g.dtype, g.tobytes()) for g in got] == [(w.dtype, w.tobytes()) for w in want]
    for w in _svd_starts(M0, s):
        assert any(np.max(np.abs(g - w)) <= 1e-8 * s for g in got), (w, s)


magnitude = st.one_of(st.just(0.0), st.floats(1e-3, 10.0))
entry = st.builds(lambda m, negative: -m if negative else m, magnitude, st.booleans())


@st.composite
def ascending_coefficients(draw, sizes):
    """A real ascending coefficient vector of degree 1..12 with a nonzero
    top coefficient, often with zeros from the constant term up, and
    sometimes a top coefficient just above bae.DEGREE_TOL of the largest,
    the smallest that enumeration extracts roots from."""
    size = draw(sizes)
    c = np.array(draw(st.lists(entry, min_size=size, max_size=size)))
    c[:draw(st.integers(0, size - 1))] = 0.0
    largest = np.max(np.abs(c[:-1]))
    if largest > 0.0 and draw(st.booleans()):
        c[-1] = 1.000001 * bae.DEGREE_TOL * largest
    assume(c[-1] != 0.0)
    return c


# batches whose vectors often share a length, so that one stacked
# eigenvalue call holds several of them
coefficient_batches = st.integers(2, 13).flatmap(lambda size: st.lists(
    ascending_coefficients(st.one_of(st.just(size), st.integers(2, 13))),
    min_size=1, max_size=8))


@settings(derandomize=True, deadline=None)
@given(coefficient_batches)
# one stacked call for roots 1, 2 and +-i: the real pair comes back real
@example([np.array([2.0, -3.0, 1.0]), np.array([1.0, 0.0, 1.0])])
def test_batched_roots_are_np_roots_bit_for_bit(coeffs):
    for c, got in zip(coeffs, bae._roots(coeffs), strict=True):
        want = np.roots(c[::-1])
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


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
            for rep in verify.verify_branches(prepot.integrate_w0(spec),
                                              [br.roots for br in branches])]


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


# up to two declared singularities (a, mu)
declared = st.lists(st.tuples(st.floats(-2.0, 2.0), st.floats(-1.5, 1.5)), max_size=2)


@settings(derandomize=True, deadline=None)
@given(st.one_of(st.tuples(*[sized_coefficient] * 3), double_zero),
       st.tuples(coefficient, coefficient, coefficient), st.sampled_from((1, -1)),
       st.floats(0.1, 0.9), declared)
def test_the_map_and_w0_solve_their_defining_equations(q, p, branch_sign, where, sings):
    # (dz/dx)^2 = Q(z) and dW0/dz = P/Q, with W0 = -log phi_0 + sum_j mu_j
    # ln|z - a_j| (no roots), by central differences inside the x-domain,
    # away from its ends, from the walls the declared singularities cut and
    # from the map's turning point, where dz/dx = 0 and Q(z) = 0
    try:
        pre = prepot.integrate_w0(ModelSpec(Poly(list(q)), Poly(list(p)),
                                            tuple(Singularity(a, mu) for a, mu in sings), 1,
                                            branch_sign=branch_sign))
    except ModelError:
        reject()  # no coordinate map, V0 outside the pole basis, or walls too close
    Q, P, cmap = pre.spec_ref.Q, pre.spec_ref.P, pre.cmap
    lo, hi = (min(max(v, -2.0), 2.0) for v in cmap.x_domain)
    x = lo + where * (hi - lo)
    h = 1e-5 * (hi - lo)
    assume(all(abs(x - w) > 1e3 * h for w in pre.walls))
    assume(cmap.x_turn is None or abs(x - cmap.x_turn) > 1e3 * h)
    z = float(cmap.z_of_x(x))
    assume(all(abs(z - a) > 1e-3 for a, _ in sings))
    dz = _central(cmap.z_of_x, x, h)
    assert dz ** 2 == pytest.approx(Q(z), rel=1e-6, abs=1e-8)
    dlog = _central(lambda v: prepot.phi_log_sign(pre, (), v)[0], x, h) / dz
    poles = [mu / (z - a) for a, mu in sings]
    scale = abs(P(z) / Q(z)) + sum(map(abs, poles))
    assert abs(sum(poles) - dlog - P(z) / Q(z)) <= 1e-5 * scale + 1e-7


@pytest.mark.parametrize("q,p", [([0.0, 4.0], [0.0, 0.0, 2.0]), ([1.0, -4.0], [-0.25, 1.0]),
                                 ([-1.0, 0.0, 1.0], [0.0, -1.0, 1.0, 0.0])],
                         ids=["parabolic", "parabolic-down", "cosh"])
def test_the_map_and_w0_equations_hold_at_the_turning_point(q, p):
    # the edge the property above assumes away (a derandomized draw once
    # landed on it and divided by dz = 0): at the map's turning point x_t,
    # dz/dx = 0 = Q(z), and with P(z(x_t)) = 0 (no wall there) phi_0 is
    # even about x_t, so d log phi_0/dx = z' (-P/Q) is 0 too
    pre = prepot.integrate_w0(ModelSpec(Poly(q), Poly(p), (), 1))
    x_t, h = pre.cmap.x_turn, 4e-5
    z = float(pre.cmap.z_of_x(x_t))
    assert _central(pre.cmap.z_of_x, x_t, h) == 0.0
    assert abs(pre.spec_ref.Q(z)) <= 1e-12 and abs(pre.spec_ref.P(z)) <= 1e-12
    assert _central(lambda v: prepot.phi_log_sign(pre, (), v)[0], x_t, h) == 0.0


# type-1 models at N <= 6, where enumeration finds all N + 1 branches
type1_models = st.one_of(
    st.builds(lambda a, b, N: catalog.instantiate("sextic", N=N, a=a, b=b),
              st.floats(0.5, 2.0), st.floats(-1.0, 1.0), Ns),
    st.builds(lambda a, b, p, N: catalog.instantiate("sextic-halfline", N=N, a=a, b=b, p=p),
              st.floats(0.5, 2.0), st.floats(-1.0, 1.0), st.floats(0.05, 0.45), Ns),
    st.builds(lambda a, p1, p2, N: catalog.instantiate("trig-interval", N=N, a=a, p1=p1, p2=p2),
              st.floats(0.5, 2.0), st.floats(0.1, 0.6), st.floats(0.1, 0.6), Ns))


@settings(derandomize=True, deadline=None)
@given(type1_models)
def test_type1_energies_agree_three_ways(spec):
    # split_energy's constant, the closed-form branch_energy and minus the
    # Heine matrix's eigenvalues are one energy per branch
    branches = bae.enumerate_branches(spec)
    assume(len(branches) == spec.N + 1)
    pre = prepot.integrate_w0(spec)
    energies = [bae.branch_energy(spec, br.roots) for br in branches]
    for br, e in zip(branches, energies):
        assert abs(potential.split_energy(pre, br).energy - e) <= 1e-12 * max(1.0, abs(e))
    lam = np.sort(-np.linalg.eigvals(bae._heine_matrix(spec)[0]).real)
    for e, v in zip(sorted(energies), lam):
        assert abs(v - e) <= 1e-10 * max(1.0, abs(e))


@settings(derandomize=True, deadline=None)
@given(type1_models)
def test_solve_csv_is_deterministic(spec):
    cfg = {"Q": list(spec.Q.coeffs), "P": list(spec.P.coeffs),
           "singularities": [{"a": s.location, "mu": s.exponent} for s in spec.singularities],
           "N": spec.N, "branch": spec.branch_sign}
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "model.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        csvs = []
        for run in range(2):
            out = os.path.join(d, f"run{run}.csv")
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(["solve", path, "--out", out]) == 0
            with open(out, "rb") as fh:
                csvs.append(fh.read())
    assert csvs[0] == csvs[1]


# type-1, type-2 and one-wall models at N <= 8
Ns8 = st.integers(1, 8)
setup_models = st.one_of(
    st.builds(lambda a, b, N: catalog.instantiate("sextic", N=N, a=a, b=b),
              st.floats(0.5, 2.0), st.floats(-1.0, 1.0), st.integers(0, 8)),
    st.builds(lambda a, b, p, N: catalog.instantiate("sextic-halfline", N=N, a=a, b=b, p=p),
              st.floats(0.5, 2.0), st.floats(-1.0, 1.0), st.floats(0.05, 0.45), Ns8),
    st.builds(lambda a, p1, p2, N: catalog.instantiate("trig-interval", N=N, a=a, p1=p1, p2=p2),
              st.floats(0.5, 2.0), st.floats(0.1, 0.6), st.floats(0.1, 0.6), Ns8),
    st.builds(lambda a, b, N: catalog.instantiate("sextic-type2", N=N, a=a, b=b),
              st.floats(0.5, 2.0), st.floats(-4.0, 4.0), Ns8),
    st.builds(lambda c0, a, mu, N: ModelSpec(Poly([1.0]), Poly([c0, 1.0]),
                                             (Singularity(a, mu),), N),
              st.floats(-0.5, 0.5), st.floats(-0.5, 0.5), st.floats(0.05, 1.5), Ns8))


def _setup_matches(pre, got, want):
    """One branch's batched setup against its own, from per-root logs."""
    if isinstance(want, Exception):
        assert (type(got), str(got)) == (type(want), str(want))
        return
    (profile, grid, (logphi, sign)), (profile_w, grid_w, (logphi_w, sign_w)) = got, want
    assert profile == profile_w and grid == grid_w
    assert np.array_equal(sign, sign_w)
    finite = np.isfinite(logphi_w)
    assert np.array_equal(np.isfinite(logphi), finite)
    assert np.all(logphi[~finite] == logphi_w[~finite])
    assert np.all(np.abs(logphi[finite] - logphi_w[finite])
                  <= 1e-12 * np.maximum(1.0, np.abs(logphi_w[finite])))
    try:
        want_r = oracles.grid_residual(profile, pre.cmap, grid_w, (logphi_w, sign_w))
    except GridError as exc:
        with pytest.raises(GridError, match=str(exc)):
            oracles.grid_residual(profile, pre.cmap, grid, (logphi, sign))
        return
    got_r = oracles.grid_residual(profile, pre.cmap, grid, (logphi, sign))
    assert np.all(np.abs(np.subtract(got_r, want_r)) <= 1e-9)


@settings(derandomize=True, deadline=None)
@given(setup_models)
def test_batched_setup_matches_the_per_branch_log_sum_setup(spec):
    # every branch's grid, phi and residual from one setup of all branches
    # are those of a setup of that branch alone with phi summed one root
    # log at a time; dV_N's polynomial part is the per-root Poly sum, and
    # E the branch's closed-form energy, the one solve writes
    pre = prepot.integrate_w0(spec)
    branches = bae.enumerate_branches(spec)
    got = oracles.phi_setups(pre, branches)
    with mock.patch.object(prepot, "phi_log_sign", oracles.phi_log_sign):
        want = [oracles.phi_setups(pre, [br])[0] for br in branches]
    for br, g, w in zip(branches, got, want, strict=True):
        dv = list(oracles.delta_v_poly(spec, br.roots).coeffs)
        assert _same_bits(g[0].energy, oracles.branch_energy(spec, br.roots))
        dv[0] = 0.0
        assert g[0].U.poly == pre.v0.poly + Poly(dv)
        _setup_matches(pre, g, w)


@settings(derandomize=True, deadline=None)
@given(setup_models, st.lists(st.floats(0.0, 1.0), min_size=8, max_size=8))
def test_log_phi_has_the_slope_of_z_prime_times_g(spec, where):
    # the central difference of phi_log_sign's log|phi_N| in x is
    # z'(x) g(z), g = -P/Q + sum_j mu_j/(z - a_j) + sum_k 1/(z - z_k), at
    # points of each branch's certified box, away from its nodes and walls:
    # the check of the map and of phi that the rational residual leaves out
    pre = prepot.integrate_w0(spec)
    branches = bae.enumerate_branches(spec)
    P, Q = spec.P, spec.Q
    table = verify.branch_setups(pre, [br.roots for br in branches])
    for br, x_roots, grid in zip(branches, table.x, table.grid):
        if grid is None:
            continue
        lo, hi = oracles.lattice(grid)[[0, -1]]
        h = 1e-6 * (hi - lo)
        nodes = x_roots.ravel()
        # nodes, walls, and the turning point, where z' g is 0 times a pole
        ends = [*nodes[np.isfinite(nodes)], *pre.walls,
                *([] if pre.cmap.x_turn is None else [pre.cmap.x_turn])]
        for x in (lo + t * (hi - lo) for t in where):
            if any(abs(x - e) < 1e3 * h for e in ends):
                continue
            z = pre.cmap.z_of_x(x)
            terms = [-P(z) / Q(z), *(s.exponent / (z - s.location) for s in spec.singularities),
                     *(1.0 / (z - zk) for zk in br.roots)]
            slope = _central(lambda v: prepot.phi_log_sign(pre, br.roots, v)[0], x, h)
            dz = oracles.dz_dx(pre.cmap, x)
            assert abs(slope - dz * sum(terms)) <= 1e-6 * abs(dz) * sum(map(abs, terms)), (
                spec, br.roots, x)


# Newton starts for the lock-step polish: models without walls, with one
# wall and with two, at N = 1..5; per batch one tol (0 makes
# every row stall at the rounding floor), rows drawn at random, at the
# matrix starts, on a wall, with two equal roots, repeated, or (N = 1, one
# wall, Q = 1, |P(0) + a| > 0.05) at z0 = a + 2 mu / (P(0) + a), whose full
# Newton step lands on the wall
polish_models = st.one_of(
    st.builds(lambda a, b, N: catalog.instantiate("sextic", N=N, a=a, b=b),
              st.floats(0.5, 2.0), st.floats(-1.0, 1.0), st.integers(1, 5)),
    st.builds(lambda a, b, N: catalog.instantiate("sextic-type2", N=N, a=a, b=b),
              st.floats(0.5, 2.0), st.floats(-4.0, 4.0), st.integers(1, 5)),
    st.builds(lambda c0, a, mu, N: ModelSpec(Poly([1.0]), Poly([c0, 1.0]),
                                             (Singularity(a, mu),), N),
              st.floats(-0.5, 0.5), st.floats(-0.5, 0.5), st.floats(0.05, 0.45),
              st.integers(1, 5)),
    st.builds(lambda a1, a2, mu1, mu2, N: ModelSpec(
        Poly([1.0]), Poly([0.0, 1.0]), (Singularity(a1, mu1), Singularity(a2, mu2)), N),
        st.floats(-0.5, -0.05), st.floats(0.05, 0.5), st.floats(0.01, 0.45),
        st.floats(0.01, 0.45), st.integers(1, 5)))


@st.composite
def polish_batches(draw):
    spec = draw(polish_models)
    N, walls = spec.N, [s.location for s in spec.singularities]
    point = st.floats(-3.0, 3.0)
    matrix = bae._starts(*bae._heine_matrix(spec))
    aim = None
    if N == 1 and len(walls) == 1 and spec.Q.degree == 0:
        shift = spec.P.coeff(0) + walls[0]
        if abs(shift) > 0.05:
            aim = walls[0] + 2.0 * spec.singularities[0].exponent / shift
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["random", "matrix", "wall", "equal", "repeat", "aim"]))
        if kind == "aim" and aim is not None:
            row = [aim]
        elif kind == "matrix" and matrix:
            row = list(draw(st.sampled_from(matrix)))
        elif kind == "repeat" and rows:
            row = list(draw(st.sampled_from(rows)))
        else:
            row = draw(st.lists(point, min_size=N, max_size=N))
            if kind == "wall" and walls:
                row[draw(st.integers(0, N - 1))] = draw(st.sampled_from(walls))
            elif kind == "equal" and N >= 2:
                row[1] = row[0]
        rows.append(np.array(row, dtype=float))
    return spec, np.array(rows), draw(st.sampled_from([1e-12, 1e-6, 0.0]))


def _same_outcome(got, want):
    """A polished row against its one-row oracle: the same branch to the
    bit (repr of the floats), or the same error."""
    if isinstance(want, Exception):
        assert (type(got), str(got)) == (type(want), str(want))
    else:
        assert repr(got) == repr(want)


def _two_wall_starts(N, tol):
    """A two-wall model with its matrix starts and tol. At N = 7 four of
    their residuals floor at 1.5-2.5e-12, above an absolute 1e-12, but
    every one falls below the relative bound: they converge at tol =
    1e-12, and all stall at tol = 0."""
    spec = ModelSpec(Poly([1.0]), Poly([0.0, 1.0]),
                     (Singularity(-0.1, 0.01), Singularity(0.1, 0.3)), N)
    return spec, np.array(bae._starts(*bae._heine_matrix(spec))), tol


@settings(derandomize=True, deadline=None)
@given(polish_batches())
@example(_two_wall_starts(7, 1e-12))
@example(_two_wall_starts(7, 0.0))
# b ~ 1e-196: from z = 0 the full Newton step lands near 3e195, where the
# residual overflows; that trial is a rejected step, and nothing warns
@example((catalog.instantiate("sextic", N=1, a=1.0, b=1.6536276379939626e-196),
          np.array([[0.0]]), 1e-12))
def test_lock_step_polish_is_the_one_start_polish_bit_for_bit(batch):
    # each row of one lock-step polish gets the roots, residual_norm and
    # newton_iters of its start polished alone, or its error; so does
    # bae.solve, the one-row call
    spec, starts, tol = batch
    got = bae.solve_many(spec, starts, tol=tol)
    assert len(got) == len(starts)
    for start, g in zip(starts, got):
        try:
            want = oracles.bae_solve(spec, start, tol=tol)
        except (CollisionError, ConvergenceError) as exc:
            want = exc
        _same_outcome(g, want)
        try:
            alone = bae.solve(spec, start, tol=tol)
        except (CollisionError, ConvergenceError) as exc:
            alone = exc
        _same_outcome(alone, want)


@st.composite
def unwalled_models(draw):
    """A model with no declared wall: Q one of seven map shapes, deg P <= 3
    with coefficients of either sign, N <= 3. Over the irreducible Q only
    the pole-basis models build, so there P = Q L or Q L - Q'/2."""
    Q = Poly(draw(st.sampled_from(([1], [0, 4], [0, -4], [0, 0, 1], [-1, 0, 1], [1, 0, 1],
                                   [0, 4, -4]))))
    if Q.coeffs == (1.0, 0.0, 1.0):
        L = Poly(draw(st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=2)))
        P = Q * L - (0.5 * Q.derivative() if draw(st.booleans()) else Poly([0.0]))
    else:
        P = Poly(draw(st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=4)))
    return ModelSpec(Q, P, (), draw(st.integers(0, 3)))


@settings(derandomize=True, deadline=None)
@given(unwalled_models())
# phi ~ exp(3.6e-190/z) as z -> 0 grows only past x = -436: the rule flags
# that end, and branches 1 and 2, which a phi^2 scan passed, are not
# normalizable
@example(ModelSpec(Poly([0.0, 0.0, 1.0]), Poly([3.6e-190, -1.27, 0.0, 0.5]), (), 1))
def test_no_branch_is_certified_normalizable_at_an_end_the_rule_flags(spec):
    # prepot.unbound_ends decides from the two polynomials alone, and
    # verify's normalizable is its verdict on each certified component: no
    # branch whose component ends at a flagged end reads normalizable
    try:
        pre = prepot.integrate_w0(spec)
    except ModelError:
        reject()  # no coordinate map
    assume(prepot.unbound_ends(pre))
    try:
        branches = bae.enumerate_branches(spec)
    except ModelError:
        reject()  # P many orders of magnitude below Q: no eigenproblem scale
    for report in verify.verify_branches(pre, [br.roots for br in branches]):
        assert isinstance(report, Exception) or not report.normalizable, (spec, report)


# Models with walls for the batched split, at N <= 5: one declared wall,
# two walls, the walled type-1 presets, and parabolic maps with a wall
# where Q(a) != 0, which gives U a root-dependent boundary pole
walled_models = st.one_of(
    st.builds(lambda c0, a, mu, N: ModelSpec(Poly([1.0]), Poly([c0, 1.0]),
                                             (Singularity(a, mu),), N),
              st.floats(-0.5, 0.5), st.floats(-0.5, 0.5), st.floats(0.05, 1.5),
              st.integers(0, 5)),
    st.builds(lambda a1, a2, mu1, mu2, c0, N: ModelSpec(
        Poly([1.0]), Poly([c0, 1.0]), (Singularity(a1, mu1), Singularity(a2, mu2)), N),
        st.floats(-0.5, -0.1), st.floats(0.1, 0.5), st.floats(0.05, 0.45),
        st.floats(0.05, 0.45), st.floats(-0.5, 0.5), st.integers(1, 4)),
    st.builds(lambda a, b, p, N: catalog.instantiate("sextic-halfline", N=N, a=a, b=b, p=p),
              st.floats(0.5, 2.0), st.floats(-1.0, 1.0), st.floats(0.05, 0.45), Ns),
    st.builds(lambda a, p1, p2, N: catalog.instantiate("trig-interval", N=N, a=a, p1=p1, p2=p2),
              st.floats(0.5, 2.0), st.floats(0.1, 0.6), st.floats(0.1, 0.6), Ns),
    st.builds(lambda q, P, mu, N: ModelSpec(Poly([0.0, 4.0]), Poly(P), (Singularity(q, mu),), N),
              st.floats(0.5, 2.0), st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=4),
              st.floats(0.1, 0.9), st.integers(1, 3)))


@settings(derandomize=True, deadline=None)
@given(st.one_of(walled_models, unwalled_models()))
# a subnormal coefficient of P: the eigenproblem's basis scale is infinite,
# a ModelError (rejected here), where it was inf * 0 = nan and a leaked
# RuntimeWarning
@example(ModelSpec(Poly([0.0, 4.0]), Poly([0.0, 2.225e-311]), (Singularity(1.0, 0.5),), 1))
def test_the_spectrum_box_holds_the_full_grid_box(spec):
    # the box from BOX_SAMPLES values of phi holds the first and last points
    # of the 4001-point lattice within DVR_BOX_LOG of log|phi|'s max on the
    # whole lattice: each truncated end at most BOX_STEPS lattice steps
    # outward of that box's, each wall end between the wall and that box's
    try:
        pre = prepot.integrate_w0(spec)
        branches = bae.enumerate_branches(spec)
    except ModelError:
        reject()
    table = verify.branch_setups(pre, [br.roots for br in branches])
    rows = [i for i, grid in enumerate(table.grid) if grid is not None]
    if not rows:
        return
    roots, grids = table.roots[rows], [table.grid[i] for i in rows]
    x = np.array([oracles.lattice(grid) for grid in grids])
    logphi, _ = prepot.phi_log_sign(pre, roots, x)
    for grid, box, xs, full in zip(grids, verify._spectrum_boxes(pre, roots, grids), x, logphi,
                                   strict=True):
        steps = oracles.box_steps(grid, box, oracles.spectrum_box(xs, full), (xs[1] - xs[0],) * 2)
        assert all(0.0 <= s <= oracles.BOX_STEPS for s in steps), (spec, box, steps)


@st.composite
def split_batches(draw):
    """A walled model and rows of roots: its branches, and rows that are
    not branches (roots moved off a branch, so residues stay uncancelled)
    or collide (two equal roots, or a root on a wall), in random order."""
    spec = draw(walled_models)
    try:
        found = [list(br.roots) for br in bae.enumerate_branches(spec)]
    except ModelError:
        reject()
    rows = list(found)
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(("moved", "collide", "wall")))
        row = list(draw(st.sampled_from(found))) if found else []
        if not row:
            continue
        k = draw(st.integers(0, len(row) - 1))
        if kind == "moved":
            row[k] += draw(st.sampled_from((1e-9, 1e-6, 1e-3, 0.5)))
        elif kind == "collide" and len(row) > 1:
            row[k - 1] = row[k]
        elif kind == "wall" and spec.singularities:
            row[k] = draw(st.sampled_from(spec.singularities)).location
        rows.append(row)
    order = draw(st.permutations(range(len(rows))))
    return spec, [bae.BetheBranch(tuple(rows[i]), 0.0, 0) for i in order]


def _same_bits(x: float, y: float) -> bool:
    return np.float64(x).tobytes() == np.float64(y).tobytes()


@settings(derandomize=True, deadline=None)
@given(split_batches())
def test_split_energies_is_the_per_branch_split_bit_for_bit(batch):
    # every branch's (U, E) from one array pass is the one-branch split's:
    # equal U, the same energy bits, the same error type and message; a
    # type-1 model's branches share one U
    spec, branches = batch
    pre = prepot.integrate_w0(spec)
    roots = np.array([br.roots for br in branches]).reshape(len(branches), spec.N)
    got, errors = potential.split_energies(pre, roots, bae.branch_energies(spec, roots))
    for br, g, error in zip(branches, got, errors, strict=True):
        try:
            want = oracles.split_energy(pre, br)
        except ValueError as exc:
            assert g is None and (type(error), str(error)) == (type(exc), str(exc))
            with pytest.raises(type(exc), match=re.escape(str(exc))):
                potential.split_energy(pre, br)
            continue
        assert isinstance(g, potential.PotentialProfile) and error is None, (g, error)
        assert g.U == want.U
        assert _same_bits(g.energy, want.energy)
        assert potential.split_energy(pre, br) == g
    profiles = [g for g in got if g is not None]
    if profiles and model.classify(spec).tag in (model.EXACTLY_SOLVABLE, model.QES_TYPE1):
        assert len({id(g.U) for g in profiles}) == 1


@settings(derandomize=True, deadline=None)
@given(st.one_of(walled_models, type1_models, setup_models), st.integers(0, 6), st.data())
def test_branch_energies_is_branch_energy_row_by_row(spec, B, data):
    roots = np.array(data.draw(st.lists(
        st.lists(st.floats(-50.0, 50.0), min_size=spec.N, max_size=spec.N),
        min_size=B, max_size=B)), dtype=float).reshape(B, spec.N)
    got = bae.branch_energies(spec, roots)
    assert got.shape == (B,)
    for row, e in zip(roots, got.tolist()):
        assert _same_bits(e, oracles.branch_energy(spec, row))
        assert _same_bits(e, bae.branch_energy(spec, row))


@settings(derandomize=True, deadline=None)
@given(st.builds(lambda a, b, N: catalog.instantiate("sextic-type2", N=N, a=a, b=b),
                 st.floats(0.5, 2.0), st.floats(-4.0, 4.0), st.integers(1, 5)),
       st.randoms(use_true_random=False))
@example(catalog.instantiate("sextic-type2", N=2, a=1.0, b=-3.0), random.Random(0))
@example(catalog.instantiate("sextic-type2", N=2, a=1.0, b=2.225073858507e-311),
         random.Random(0))
def test_energy_order_is_the_per_branch_order(spec, rng):
    # the batched order, mirror ties included, is the one-branch-at-a-time
    # order from any input order
    branches = bae.enumerate_branches(spec)
    shuffled = rng.sample(branches, len(branches))
    assert bae._energy_order(spec, shuffled) == oracles.energy_order(spec, shuffled) == branches
