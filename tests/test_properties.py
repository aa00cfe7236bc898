"""Property tests of the branch finder on random type-2, two-wall and
singularity-induced models and of its batched root extraction, of the
walls of parabolic models, of the coordinate images and the equations the
map and W0 solve, of which models over an irreducible Q build, of the
energies and CSV output of random type-1 models, of the batched
certification setup against the per-branch, per-root one, and of the
lock-step Newton polish, the batched normalizability windows, the batched
energy split, the branch energies and their order against their one-row
oracles."""

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
# their placements. N <= 6: at N = 7 and 8 the finder still loses one on
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


magnitude = st.one_of(st.just(0.0), st.floats(1e-3, 10.0))
entry = st.builds(lambda m, negative: -m if negative else m, magnitude, st.booleans())


@st.composite
def ascending_coefficients(draw, sizes):
    """An ascending coefficient vector of degree 1..12 with a nonzero top
    coefficient, real or complex, often with zeros from the constant term
    up, and sometimes a top coefficient just above bae.DEGREE_TOL of the
    largest, the smallest that enumeration extracts roots from."""
    size = draw(sizes)
    c = np.array(draw(st.lists(entry, min_size=size, max_size=size)))
    if draw(st.booleans()):
        c = c + 1j * np.array(draw(st.lists(entry, min_size=size, max_size=size)))
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
    assert profile == profile_w
    assert np.array_equal(grid.points, grid_w.points)
    assert (grid.h, grid.wall_lo, grid.wall_hi) == (grid_w.h, grid_w.wall_lo, grid_w.wall_hi)
    assert np.array_equal(sign, sign_w)
    assert verify.node_count((logphi, sign)) == verify.node_count((logphi_w, sign_w))
    finite = np.isfinite(logphi_w)
    assert np.array_equal(np.isfinite(logphi), finite)
    assert np.all(logphi[~finite] == logphi_w[~finite])
    assert np.all(np.abs(logphi[finite] - logphi_w[finite])
                  <= 1e-12 * np.maximum(1.0, np.abs(logphi_w[finite])))
    try:
        want_r = verify.schrodinger_residual(profile, pre.cmap, grid_w, (logphi_w, sign_w))
    except GridError as exc:
        with pytest.raises(GridError, match=str(exc)):
            verify.schrodinger_residual(profile, pre.cmap, grid, (logphi, sign))
        return
    got_r = verify.schrodinger_residual(profile, pre.cmap, grid, (logphi, sign))
    assert np.all(np.abs(np.subtract(got_r, want_r)) <= 1e-9)


@settings(derandomize=True, deadline=None)
@given(setup_models)
def test_batched_setup_matches_the_per_branch_log_sum_setup(spec):
    # every branch's grid, phi and residual from one setup of all branches
    # are those of a setup of that branch alone with phi summed one root
    # log at a time; dV_N's polynomial part is the per-root Poly sum
    pre = prepot.integrate_w0(spec)
    branches = bae.enumerate_branches(spec)
    got = verify.branch_setups(pre, branches, n_points=2001)
    with mock.patch.object(prepot, "phi_log_sign", oracles.phi_log_sign):
        want = [verify.branch_setups(pre, [br], n_points=2001)[0] for br in branches]
    for br, g, w in zip(branches, got, want, strict=True):
        dv = list(oracles.delta_v_poly(spec, br.roots).coeffs)
        assert g[0].energy == -dv[0]
        dv[0] = 0.0
        assert g[0].U.poly == pre.v0.poly + Poly(dv)
        _setup_matches(pre, g, w)


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


def _two_wall_starts(N):
    """A two-wall model whose matrix starts stall at N >= 6, with them."""
    spec = ModelSpec(Poly([1.0]), Poly([0.0, 1.0]),
                     (Singularity(-0.1, 0.01), Singularity(0.1, 0.3)), N)
    return spec, np.array(bae._starts(*bae._heine_matrix(spec))), 1e-12


@settings(derandomize=True, deadline=None)
@given(polish_batches())
@example(_two_wall_starts(7))
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


# the setup models, and models whose branches are not all normalizable:
# Morse with A below N (the wall end) and the inverted oscillator
normalizability_models = st.one_of(
    setup_models,
    st.builds(lambda A, N: catalog.instantiate("morse-p", N=N, A=A),
              st.floats(0.2, 3.0), st.integers(1, 3)),
    st.builds(lambda b, N: ModelSpec(Poly([1.0]), Poly([0.0, b]), (), N),
              st.floats(-2.0, -0.5), st.integers(0, 3)),
    # double wells phi0 ~ exp(c x^2/2 - d x^4/4), peaked far out at
    # x = +-sqrt(c/d), and their excited levels
    st.builds(lambda c, d, N: ModelSpec(Poly([1.0]), Poly([0.0, -c, 0.0, d]), (), N),
              st.floats(0.2, 2.0), st.floats(0.005, 0.1), st.integers(0, 2)))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(normalizability_models)
@example(ModelSpec(Poly([1.0]), Poly([0.0, -1.0, 0.0, 0.02]), (), 0))
def test_batched_normalizability_matches_the_per_branch_windows(spec):
    # every branch's verdict from one batched pass, on its grid's component
    # or else the whole x-domain, is that of its windows integrated one at
    # a time (np.dot Simpson sums), with the estimate within 1e-14
    # relative; a branch checked alone gets the bits it gets in the batch
    pre = prepot.integrate_w0(spec)
    branches = bae.enumerate_branches(spec)
    roots = np.array([br.roots for br in branches], dtype=float).reshape(len(branches), spec.N)
    components = [g.component if isinstance(g, verify.Grid) else pre.cmap.x_domain
                  for g in verify.default_grids(pre, roots)]
    got = verify.normalizability_checks(pre, roots, components)
    for br, component, (ok, estimate) in zip(branches, components, got, strict=True):
        want_ok, want_estimate = oracles.normalizability_check(pre, br, component)
        assert ok == want_ok
        assert estimate == want_estimate or math.isclose(estimate, want_estimate,
                                                         rel_tol=1e-14)
        assert verify.normalizability_check(pre, br, component) == (ok, estimate)


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
def test_no_branch_is_certified_normalizable_at_an_end_the_rule_flags(spec):
    # prepot.unbound_ends decides from the two polynomials alone; the
    # numerical windows of verify are the independent oracle. Only this
    # direction is asserted: the oracle has false negatives (ROADMAP item 12)
    try:
        pre = prepot.integrate_w0(spec)
    except ModelError:
        reject()  # no coordinate map
    assume(prepot.unbound_ends(pre))
    try:
        branches = bae.enumerate_branches(spec)
    except ModelError:
        reject()  # P many orders of magnitude below Q: no eigenproblem scale
    for report in verify.verify_branches(pre, branches):
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
    got = potential.split_energies(pre, branches)
    for br, g in zip(branches, got, strict=True):
        try:
            want = oracles.split_energy(pre, br)
        except ValueError as exc:
            assert (type(g), str(g)) == (type(exc), str(exc))
            with pytest.raises(type(exc), match=re.escape(str(exc))):
                potential.split_energy(pre, br)
            continue
        assert isinstance(g, potential.PotentialProfile), g
        assert g.U == want.U and g.branch is br
        assert _same_bits(g.energy, want.energy)
        assert potential.split_energy(pre, br) == g
    profiles = [g for g in got if not isinstance(g, Exception)]
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
def test_energy_order_is_the_per_branch_order(spec, rng):
    # the batched order, mirror ties included, is the one-branch-at-a-time
    # order from any input order
    branches = bae.enumerate_branches(spec)
    shuffled = rng.sample(branches, len(branches))
    assert bae._energy_order(spec, shuffled) == oracles.energy_order(spec, shuffled) == branches
