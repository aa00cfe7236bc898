import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from qesf import bae, catalog, cli, coords, model, poly, potential, prepot, verify
from qesf.errors import GridError
from qesf.model import ModelSpec, Singularity
from qesf.poly import Poly, tridiag_eigenvalues

import oracles
from oracles import hermite_zeros, norm1, sturm_count


def harmonic(b=1.0, N=2):
    return ModelSpec(Poly([1.0]), Poly([0.0, b]), (), N)


def _pipeline(spec, branch=None):
    pre = prepot.integrate_w0(spec)
    if branch is None:
        branch = bae.enumerate_branches(spec)[0]
    prof = potential.split_energy(pre, branch)
    return pre.cmap, pre, branch, prof


def _phi(pre, branch, grid):
    return prepot.phi_log_sign(pre, branch.roots, grid.points)


def _residual(prof, pre, grid, **kwargs):
    return verify.schrodinger_residual(prof, pre.cmap, grid, _phi(pre, prof.branch, grid),
                                       **kwargs)


def _fd_group(pre, members, reports):
    """verify.fd_spectrum, called through the module, on the grid that
    verify_branches gave a group before the sinc DVR and the wall basis
    replaced FD: 4001 points over the union of the members' default grids, or the
    mirror grid at that spacing where the component holds the map's
    turning point, with each node count's first claimed energy. Returns
    (grid, levels)."""
    grids = [verify.default_grid(pre, br.roots) for br in members]
    lo, hi = min(g.points[0] for g in grids), max(g.points[-1] for g in grids)
    x_t = pre.cmap.x_turn
    c_lo, c_hi = grids[0].component
    if x_t is not None and c_lo < x_t < c_hi:
        h = float(hi - lo) / 4000
        grid = verify.mirror_grid(x_t, math.ceil(max(x_t - lo, hi - x_t) / h + 0.5), h,
                                  grids[0].wall_hi)
    else:
        grid = verify.make_grid(lo, hi, 4001, grids[0].wall_lo, grids[0].wall_hi)
    claims = {}
    for rep in reports:
        if grid.mirror is None or rep.node_count % 2 == 0:
            claims.setdefault(rep.node_count, rep.spectrum_matches[0][0])
    return grid, verify.fd_spectrum(potential.split_energy(pre, members[0]), pre.cmap, grid,
                                    claims)


def test_residual_harmonic_reference_grid():
    # b = 1, N = 2, Hermite-zero branch, h = 1e-3, 4th order
    spec = harmonic(N=2)
    cmap, pre, br, prof = _pipeline(spec)
    grid = verify.make_grid(-9.0, 9.0, 18001)
    assert grid.h == pytest.approx(1e-3)
    rmax, rrms = _residual(prof, pre, grid)
    assert rmax < 1e-8
    assert rrms <= rmax


def test_residual_detects_wrong_energy():
    spec = harmonic(N=2)
    cmap, pre, br, prof = _pipeline(spec)
    grid = verify.make_grid(-9.0, 9.0, 18001)
    base, _ = _residual(prof, pre, grid)
    wrong = potential.PotentialProfile(prof.U, prof.energy + 0.1, br)
    shifted, _ = _residual(wrong, pre, grid)
    # residual jumps to ~ 0.1 / (1 + max|U - E|)
    z = cmap.z_of_x(grid.points)
    scale = 1.0 + np.max(np.abs(prof.U(z) - prof.energy))
    assert shifted > 100 * base
    assert shifted == pytest.approx(0.1 / scale, rel=0.5)


def test_residual_convergence_order():
    spec = harmonic(N=1)
    cmap, pre, br, prof = _pipeline(spec)
    for order, grids in ((2, (901, 1801)), (4, (901, 1801)), (6, (301, 601))):
        res = []
        for n in grids:
            grid = verify.make_grid(-9.0, 9.0, n)
            rmax, _ = _residual(prof, pre, grid, stencil_order=order)
            res.append(rmax)
        slope = math.log2(res[0] / res[1])
        assert abs(slope - order) < 0.2 * order


def test_grid_uniform_spacing():
    grid = verify.make_grid(-3.0, 7.0, 4001)
    gaps = np.diff(grid.points)
    assert np.max(np.abs(gaps - grid.h)) < 1e-14


def test_residual_rejects_bad_stencil():
    spec = harmonic(N=1)
    cmap, pre, br, prof = _pipeline(spec)
    grid = verify.make_grid(-9.0, 9.0, 1001)
    with pytest.raises(ValueError):
        _residual(prof, pre, grid, stencil_order=3)


def test_fd_spectrum_harmonic_normal_form():
    # oracle self-test: U = x^2 has eigenvalues 1, 3, 5, ...
    cmap = coords.build(Poly([1.0]))
    prof = potential.PotentialProfile(
        potential.PFE(Poly([0.0, 0.0, 1.0])), 0.0,
        bae.BetheBranch((), 0.0, 0))
    grid = verify.make_grid(-10.0, 10.0, 4000)
    levels = verify.fd_spectrum(prof, cmap, grid, {n: 2.0 * n + 1.0 for n in range(5)})
    assert list(levels) == [0, 1, 2, 3, 4]
    assert all(abs(levels[n] - (2 * n + 1)) < 1e-4 for n in range(5))


def test_fd_spectrum_sextic_contains_branch_energies():
    spec = ModelSpec(Poly([0.0, 4.0]), Poly([0.0, 0.0, 2.0]), (), 1)
    branches = bae.enumerate_branches(spec)
    cmap, pre, br, prof = _pipeline(spec, branches[0])
    grid = verify.default_grid(pre, br.roots, n_points=4001)
    # z = x^2: the ground state is nodeless, the root at z > 0 a node pair
    energies = [potential.split_energy(pre, b).energy for b in branches]
    claims = dict(zip((0, 2), energies))
    levels = verify.fd_spectrum(prof, cmap, grid, claims)
    for k, e in claims.items():
        assert abs(levels[k] - e) < 1e-3


def test_fd_spectrum_morse_levels():
    A, alpha = 5.0, 1.0
    spec = catalog.instantiate("morse-es", N=0)
    cmap, pre, br, prof = _pipeline(spec)
    grid = verify.default_grid(pre, br.roots, n_points=6001)
    want = {n: A ** 2 - (A - n * alpha) ** 2 for n in range(5)}
    levels = verify.fd_spectrum(prof, cmap, grid, want)
    for n, e in want.items():
        assert abs(levels[n] - e) / max(1.0, abs(e)) < 1e-3


def test_fd_spectrum_k_bounds():
    cmap = coords.build(Poly([1.0]))
    prof = potential.PotentialProfile(
        potential.PFE(Poly([0.0, 0.0, 1.0])), 0.0,
        bae.BetheBranch((), 0.0, 0))
    grid = verify.make_grid(-5.0, 5.0, 101)
    for bad in ({0: 1.0, 101: 203.0}, {-1: 1.0, 3: 7.0}):
        with pytest.raises(ValueError):
            verify.fd_spectrum(prof, cmap, grid, bad)


def test_node_counts():
    # N = 0: nodeless
    spec0 = harmonic(N=0)
    cmap, pre, br, prof = _pipeline(spec0)
    grid = verify.default_grid(pre, br.roots)
    assert verify.node_count(_phi(pre, br, grid)) == 0
    # harmonic N = 3: three nodes
    spec3 = harmonic(N=3)
    cmap, pre, br, prof = _pipeline(spec3)
    grid = verify.default_grid(pre, br.roots)
    assert verify.node_count(_phi(pre, br, grid)) == 3
    # sextic N = 1 with negative root: no real preimage, nodeless
    spec = ModelSpec(Poly([0.0, 4.0]), Poly([0.0, 0.0, 2.0]), (), 1)
    br_neg = bae.solve(spec, [-0.6])
    assert br_neg.roots[0] < 0
    cmap, pre, _, prof = _pipeline(spec, br_neg)
    grid = verify.default_grid(pre, br_neg.roots)
    assert verify.node_count(_phi(pre, br_neg, grid)) == 0


def test_normalizability_harmonic():
    spec = harmonic(b=1.0, N=1)
    cmap, pre, br, _ = _pipeline(spec)
    ok, est = verify.normalizability_check(pre, br, pre.cmap.x_domain)
    assert ok and math.isfinite(est) and est > 0
    bad = harmonic(b=-1.0, N=0)
    preb = prepot.integrate_w0(bad)
    brb = bae.BetheBranch((), 0.0, 0)
    ok, est = verify.normalizability_check(preb, brb, preb.cmap.x_domain)
    assert not ok


@pytest.mark.parametrize("N", [18, 20, 30])
def test_normalizability_of_high_oscillator_levels(N):
    # the bulk of level N reaches x ~ sqrt(2N + 1) > 6, past the first four
    # windows from x = 1, whose integrals grow lobe by lobe toward the
    # last one: that is no tail growth
    _, pre, br, _ = _pipeline(harmonic(b=1.0, N=N))
    rep = verify.verify_branch(pre, br)
    assert rep.normalizable and rep.verdict


def test_normalizability_morse_p_threshold():
    # phi ~ z^(A/alpha - N) at the z -> 0 end: normalizable iff A/alpha > N
    good = catalog.instantiate("morse-p", N=1, A=1.7)
    br = bae.enumerate_branches(good)[0]
    pre = prepot.integrate_w0(good)
    ok, _ = verify.normalizability_check(pre, br, pre.cmap.x_domain)
    assert ok
    bad = catalog.instantiate("morse-p", N=1, A=0.7)
    brb = bae.enumerate_branches(bad)[0]
    preb = prepot.integrate_w0(bad)
    ok, _ = verify.normalizability_check(preb, brb, preb.cmap.x_domain)
    assert not ok


@pytest.mark.parametrize("spec", [
    *(harmonic(b=-1.0, N=N) for N in (0, 1)),
    *(catalog.instantiate(name, N=N, A=A) for name in ("morse-es", "morse-p")
      for N, A in ((1, 0.7), (2, 2.0), (3, 3.0), (5, 5.0)))])
def test_unbound_states_stay_unnormalizable_with_their_peaks_in_the_bulk(spec):
    # harmonic with b < 0 and Morse with A <= N alpha have no bound state:
    # phi grows past its outermost peak, so the windows beyond the bulk
    # still fail
    pre = prepot.integrate_w0(spec)
    branches = bae.enumerate_branches(spec)
    assert branches
    roots = np.array([br.roots for br in branches]).reshape(len(branches), spec.N)
    checks = verify.normalizability_checks(pre, roots, [pre.cmap.x_domain] * len(branches))
    assert not any(ok for ok, _ in checks)


def test_the_peaks_are_where_w_n_prime_vanishes():
    # double well phi0 = exp(x^2/2 - x^4/200): W0' = P = -z + 0.02 z^3
    spec = ModelSpec(Poly([1.0]), Poly([0.0, -1.0, 0.0, 0.02]), (), 0)
    peaks = verify._peaks(prepot.integrate_w0(spec), np.zeros((1, 0)))
    assert np.sort(peaks[0]) == pytest.approx([-math.sqrt(50.0), 0.0, math.sqrt(50.0)],
                                              abs=1e-12)
    # harmonic N = 2 (roots +-1/sqrt(2)): W_2' = z - 2z/(z^2 - 1/2) vanishes
    # at 0 and +-sqrt(5/2), outside both nodes
    spec = harmonic(N=2)
    (br,) = bae.enumerate_branches(spec)
    peaks = verify._peaks(prepot.integrate_w0(spec), np.array([br.roots]))
    assert np.sort(peaks[0]) == pytest.approx([-math.sqrt(2.5), 0.0, math.sqrt(2.5)])
    # y's coefficients overflow for 120 roots near 1e4: that row gets none
    peaks = verify._peaks(prepot.integrate_w0(harmonic(N=120)),
                          np.vstack((np.linspace(1e4, 2e4, 120), np.linspace(-1.0, 1.0, 120))))
    assert np.isnan(peaks[0]).all() and np.isfinite(peaks[1]).any()


def test_a_window_where_phi_overflows_is_divergent():
    # an overflowing phi reads as +inf, never as a negligible tail, even
    # inside the bulk
    lo, hi = np.array([[1.0, 2.0]]), np.array([[2.0, 3.0]])
    logphi = np.zeros((1, 2, verify.SIMPSON_POINTS))
    logphi[0, 1, -1] = math.inf
    segs = verify._log_simpsons(lo, hi, logphi)
    assert segs[1] == math.inf and math.isfinite(segs[0])
    totals = np.logaddexp.accumulate([0.0] + segs).tolist()
    for bulk in (-math.inf, 10.0):
        assert verify._scan(segs, totals, [2.0, 3.0], math.inf, bulk, 1,
                            [4, 0, -math.inf]) == (False, 1)


@pytest.mark.parametrize("mu", [-0.1, -0.2])
def test_a_wall_with_negative_nu_at_nonzero_x_stays_normalizable(mu):
    # z = sin^2 x puts the z = 1 wall at x = pi/2 with nu = 2 mu in (-1/2, 0):
    # phi ~ |x - pi/2|^nu is square-integrable. After about 52 halvings the
    # windows' lo rounds onto pi/2, where log|phi| is +inf; that sample of
    # the wall's pole is no overflow
    spec = ModelSpec(Poly([0.0, 4.0, -4.0]), Poly([0.0, -4.0, 4.0]),
                     (Singularity(0.0, 0.25), Singularity(1.0, mu)), 1)
    pre = prepot.integrate_w0(spec)
    assert pre.walls[math.pi / 2] == pytest.approx(2.0 * mu)
    assert not prepot.unbound_ends(pre)
    branches = bae.enumerate_branches(spec)
    roots = np.array([br.roots for br in branches]).reshape(len(branches), 1)
    checks = verify.normalizability_checks(pre, roots, [(0.0, math.pi / 2)] * len(branches))
    assert len(checks) == 2 and all(ok and math.isfinite(est) for ok, est in checks)
    for br, got in zip(branches, checks):
        assert oracles.normalizability_check(pre, br, (0.0, math.pi / 2)) == got


def test_wall_exponents_include_the_w0_log_weight():
    # P(0) = P(1) = -0.4 gives W0 the terms -0.1 ln z and +0.1 ln|z - 1|, so
    # phi ~ z^(0.3 + 0.1) and |z - 1|^(0.3 - 0.1); z - a ~ x^2 at both
    # turning points doubles them to nu = 0.8 and 0.4 (mu alone: 0.6, 0.6)
    spec = ModelSpec(Poly([0.0, 4.0, -4.0]), Poly([-0.4, -4.0, 4.0]),
                     (Singularity(0.0, 0.3), Singularity(1.0, 0.3)), 2)
    pre = prepot.integrate_w0(spec)
    branches = bae.enumerate_branches(spec)
    assert len(branches) == 3
    for br, rep in zip(branches, verify.verify_branches(pre, branches)):
        grid = verify.default_grid(pre, br.roots)
        assert grid.wall_lo == (0.0, pytest.approx(0.8))
        assert grid.wall_hi == (pytest.approx(math.pi / 2), pytest.approx(0.4))
        assert rep.verdict and rep.normalizable


def test_w0_log_weight_lifts_a_wall_out_of_limit_circle():
    # mu = 0.1 alone would give nu = 0.2 < 1/2; W0's -0.3 ln z lifts it to
    # nu = 2 (0.1 + 0.3) = 0.8, so the FD spectrum oracle runs
    spec = ModelSpec(Poly([0.0, 4.0, -4.0]), Poly([-1.2, 0.0, 2.4]),
                     (Singularity(0.0, 0.1),), 1)
    pre = prepot.integrate_w0(spec)
    branches = bae.enumerate_branches(spec)
    assert len(branches) == 2
    for br, rep in zip(branches, verify.verify_branches(pre, branches)):
        assert verify.default_grid(pre, br.roots).wall_lo == (0.0, pytest.approx(0.8))
        assert rep.spectrum_note == "" and len(rep.spectrum_matches) == 1
        assert rep.verdict


def test_small_positive_nu_admits_its_component():
    # nu = 0.003: phi still vanishes at the wall, so both sides are
    # components; the limit-circle wall leaves the verdict to the residual
    spec = ModelSpec(Poly([1.0]), Poly([-0.0794, 1.0]), (Singularity(0.4177, 0.003),), 2)
    pre = prepot.integrate_w0(spec)
    branches = bae.enumerate_branches(spec)
    assert branches
    for br, rep in zip(branches, verify.verify_branches(pre, branches)):
        grid = verify.default_grid(pre, br.roots)
        assert (0.4177, pytest.approx(0.003)) in (grid.wall_lo, grid.wall_hi)
        assert rep.spectrum_matches == [] and "limit-circle" in rep.spectrum_note
        assert rep.verdict


def test_a_grid_point_on_a_pole_raises_grid_error():
    spec = harmonic(N=0)
    cmap, pre, br, _ = _pipeline(spec)
    profile = potential.PotentialProfile(
        potential.PFE(Poly([0.0]), (potential.BoundaryPole(0.0, 1.0, 0.0),)), 0.0, br)
    grid = verify.make_grid(-1.0, 1.0, 201)
    assert 0.0 in grid.points
    with pytest.raises(GridError, match="pole"):
        verify.fd_spectrum(profile, cmap, grid, {k: profile.energy for k in range(4)})
    with pytest.raises(GridError, match="pole"):
        _residual(profile, pre, grid)


def test_normalizability_on_the_certified_component():
    # a wall at z = a inside the linear map's image cuts the line in two;
    # the branch with roots on both sides is certified on (a, inf), and its
    # normalizability is integrated there too
    a = 0.051774
    spec = ModelSpec(Poly([1.0]), Poly([0.151582, 1.0]), (Singularity(a, 0.360003),), 2)
    pre = prepot.integrate_w0(spec)
    (br,) = [b for b in bae.enumerate_branches(spec) if min(b.roots) < a < max(b.roots)]
    assert verify.default_grid(pre, br.roots).component == (a, math.inf)
    rep = verify.verify_branch(pre, br)
    certified = verify.normalizability_check(pre, br, (a, math.inf))
    assert (rep.normalizable, rep.norm_estimate) == certified
    assert verify.normalizability_check(pre, br, (-math.inf, a))[1] != certified[1]


def test_march_threshold_matches_a_pointwise_march():
    # the ladders of every branch and end, marched in one call, stop where a
    # point-by-point march with the same recurrence stops
    def marched(pre, roots, x, direction):
        step = 0.25
        x += direction * step
        while True:
            logphi, sign = prepot.phi_log_sign(pre, roots, x)
            if sign != 0 and -logphi >= verify.W_THRESHOLD:
                return x
            step *= 1.25
            x += direction * step

    ends = ((0.5, 1), (-0.5, -1), (2.0, 1))
    for name, N in (("harmonic", 3), ("sextic", 4), ("morse-es", 2), ("sextic-halfline", 3)):
        spec = catalog.instantiate(name, N=N)
        pre = prepot.integrate_w0(spec)
        roots = np.array([br.roots for br in bae.enumerate_branches(spec) for _ in ends])
        starts, directions = zip(*(ends * (len(roots) // len(ends))))
        got = verify._march_thresholds(pre, roots, starts, directions)
        for r, start, direction, x in zip(roots, starts, directions, got.tolist()):
            assert x == marched(pre, r, start, direction), (name, r, start)


@pytest.mark.parametrize("spec", [
    catalog.instantiate("sextic-halfline", N=3),
    ModelSpec(Poly([1.0]), Poly([0.1, 1.0]), (Singularity(0.1, 0.3),), 2),
], ids=["sextic-halfline", "singular"])
def test_default_grid_marches_only_the_component_it_certifies(monkeypatch, spec):
    # both models have two admitted components, each with one unbounded
    # end; only the preferred one is marched
    marches = []
    real = verify._march_thresholds

    def counted(pre, roots, starts, directions):
        marches.extend(zip(starts, directions))
        return real(pre, roots, starts, directions)

    monkeypatch.setattr(verify, "_march_thresholds", counted)
    pre = prepot.integrate_w0(spec)
    branches = bae.enumerate_branches(spec)
    assert len(branches) == spec.N + 1
    for br in branches:
        marches.clear()
        grid = verify.default_grid(pre, br.roots)
        assert len(marches) == 1, (br, marches)  # (start, direction) per march
        assert math.isinf(grid.component[0]) != math.isinf(grid.component[1])
    marches.clear()
    grids = verify.default_grids(pre, [br.roots for br in branches])
    assert len(marches) == len(branches)
    for grid, br in zip(grids, branches):
        alone = verify.default_grid(pre, br.roots)
        assert np.array_equal(grid.points, alone.points)
        assert (grid.h, grid.wall_lo, grid.wall_hi) == (alone.h, alone.wall_lo, alone.wall_hi)


def test_residual_excludes_both_sides_of_every_node():
    # phi is piecewise linear with U = E = 0, so its residual is rounding
    # except at its kinks; each kink sits 3 steps from one of the two
    # nodes, on either side, inside the NODE_DELTA_STEPS exclusion
    cmap = coords.build(Poly([1.0]))
    grid = verify.make_grid(-1.0, 1.0, 201)
    n0, n1, d = -0.3033, 0.3366, 3 * grid.h
    phi = np.interp(grid.points, [-1.0, n0 - d, n0 + d, n1 - d, n1 + d, 1.0],
                    [-0.2, -0.06, 0.06, 0.09, -0.09, -0.3])
    profile = potential.PotentialProfile(potential.PFE(Poly([0.0])), 0.0, None)
    with np.errstate(divide="raise"):
        rmax, _ = verify.schrodinger_residual(profile, cmap, grid,
                                              (np.log(np.abs(phi)), np.sign(phi)))
    assert rmax < 1e-9
    # a kink away from the nodes is not excluded
    phi[150:] += 0.5 * (grid.points[150:] - grid.points[150])
    rmax, _ = verify.schrodinger_residual(profile, cmap, grid,
                                          (np.log(np.abs(phi)), np.sign(phi)))
    assert rmax > 1.0


def test_windows_match_the_loop_recurrence():
    # halving toward a finite edge and growth by 1.4 toward an infinite one,
    # accumulated in sequence: the windows of the loop, bit for bit, for one
    # row per side and for rows of finite and infinite edges in one call
    cases = ((0.1, 0.6180339887, -1), (2.3, 1.0471975512, 1), (-0.37, -0.123456789, -1),
             (math.inf, 1.7320508076, 1), (-math.inf, -0.3, -1))
    for rows in [[case] for case in cases] + [
            [case for case in cases if case[2] == outward] for outward in (-1, 1)]:
        edges, inners, outwards = zip(*rows)
        lo, hi = verify._windows(np.array(edges), np.array(inners), outwards[0])
        for (edge, inner, outward), lo_i, hi_i in zip(rows, lo.tolist(), hi.tolist()):
            assert list(zip(lo_i, hi_i)) == oracles.windows(edge, inner, outward)


def test_a_side_scan_split_into_chunks_decides_as_one_scan():
    # the growth run and the previous integral carry over from one chunk of
    # windows to the next, so every split decides at the same window
    growth = [-5.0, -4.0, -6.0, -3.0, -2.0, -1.5, -1.0, 0.0, 1.0]
    decay = [-1.0, -2.0, -1.5, -3.0, -20.0, -30.0, -40.0, -50.0, -60.0]
    for segs, total, want in ((growth, -100.0, (False, 6)), (decay, 0.0, (True, 6))):
        totals = [total] * (len(segs) + 1)
        outers = [-float(j) for j in range(len(segs))]
        assert verify._scan(segs, totals, outers, 1.0, math.inf, -1, [4, 0, -math.inf]) == want
        for k in range(1, len(segs)):
            state = [4, 0, -math.inf]
            assert verify._scan(segs[:k], totals[:k + 1], outers[:k], 1.0, math.inf, -1,
                                state) is None or k > want[1]
            if k <= want[1]:
                verdict, j = verify._scan(segs[k:], totals[k:], outers[k:], 1.0, math.inf, -1,
                                          state)
                assert (verdict, k + j) == want, k


def test_report_dict_keys_are_the_report_fields():
    spec = harmonic(N=1)
    pre = prepot.integrate_w0(spec)
    rep = verify.verify_branch(pre, bae.enumerate_branches(spec)[0])
    fields = [f.name for f in dataclasses.fields(verify.VerificationReport)]
    assert list(rep.as_dict()) == fields


def test_default_grid_refuses_nonnormalizable():
    bad = harmonic(b=-1.0, N=0)
    pre = prepot.integrate_w0(bad)
    with pytest.raises(GridError):
        verify.default_grid(pre, ())


def test_verify_branch_full_pipeline():
    spec = harmonic(N=2)
    br = bae.enumerate_branches(spec)[0]
    rep = verify.verify_branch(prepot.integrate_w0(spec), br)
    assert rep.verdict
    assert rep.residual_max < 1e-8
    assert rep.node_count == 2
    assert rep.normalizable
    (claimed, fd, diff) = rep.spectrum_matches[0]
    assert claimed == pytest.approx(4.0)  # E w.r.t. U = x^2 - 1
    assert diff < 1e-3


def test_verify_branch_roots_from_hermite_all_n():
    for n in (1, 4, 7):
        spec = harmonic(N=n)
        br = bae.BetheBranch(tuple(hermite_zeros(n)), 0.0, 0)
        rep = verify.verify_branch(prepot.integrate_w0(spec), br)
        assert rep.residual_max < 1e-7
        assert rep.node_count == n


def test_branch_setups_residual_matches_verify_branch():
    # type-1, exactly solvable, and a singular wall: the residual qesf solve
    # reads from the setup of all branches at once is each branch's own
    for name, N in (("sextic", 2), ("morse-es", 2), ("sextic-halfline", 1)):
        spec = catalog.instantiate(name, N=N)
        pre = prepot.integrate_w0(spec)
        branches = bae.enumerate_branches(spec)
        setups = verify.branch_setups(pre, branches, n_points=2001)
        for br, (profile, grid, phi) in zip(branches, setups):
            rep = verify.verify_branch(pre, br, n_points=2001)
            got = verify.schrodinger_residual(profile, pre.cmap, grid, phi)
            assert got == (rep.residual_max, rep.residual_rms), (name, br)


def test_singularity_induced_model_certifies():
    # linear coordinate with a z^mu wall at the origin: Q(0) != 0 couples the
    # roots into the potential (singularity-induced QES); the state lives on
    # the half-line cut by the wall
    from qesf.model import Singularity
    spec = ModelSpec(Poly([1.0]), Poly([0.5, 1.0]), (Singularity(0.0, 0.3),), 1)
    pre = prepot.integrate_w0(spec)
    branches = bae.enumerate_branches(spec)
    assert len(branches) == 2  # z^2 + 0.5 z - 0.3 = 0
    for br in branches:
        prof = potential.split_energy(pre, br)
        rep = verify.verify_branch(pre, br)
        assert rep.residual_max < 1e-6, br
        # nu = mu = 0.3 < 1/2: limit-circle wall, FD oracle stands down
        assert "limit-circle" in rep.spectrum_note
        assert rep.verdict, (br, rep.spectrum_matches)
    # root-dependent 1/z coefficient: the two branch potentials differ
    u_poles = []
    for br in branches:
        prof = potential.split_energy(pre, br)
        u_poles.append(sum(b.c1 for b in prof.U.boundary_poles
                           if abs(b.location) < 1e-12))
    assert abs(u_poles[0] - u_poles[1]) > 1e-6


def test_residual_arbitrates_quoted_trig_form():
    # The commonly quoted interval-family equations (constant -1 instead of
    # the residue-derived -(1 + 4 p1)) put the N=1 root at 1/2 instead of
    # 1/sqrt(2). Only the residue-derived root yields a certified eigenpair.
    spec = catalog.instantiate("trig-interval", N=1)
    pre = prepot.integrate_w0(spec)

    def forced_residual(root):
        br = bae.BetheBranch((root,), 0.0, 0)
        prof = oracles.split_energy(pre, br, residue_tol=math.inf)
        grid = verify.default_grid(pre, br.roots, n_points=4001)
        rmax, _ = _residual(prof, pre, grid)
        return rmax

    assert forced_residual(1 / math.sqrt(2)) < 1e-6
    assert forced_residual(0.5) > 1e-4


def test_verify_branches_one_spectrum_per_shared_potential(fd_spectrum_grids, dvr_spectra,
                                                           wall_spectra):
    # type-1: the N+1 branches are eigenstates of one potential. The
    # sextic's z = x^2 is even about x = 0, so its spectrum runs on the half
    # line, by the sinc DVR; the half-line sextic has a wall at x = 0 and no
    # mirror, and runs on the wall basis. Neither runs FD.
    for spec, mirrored in ((catalog.instantiate("sextic", N=3, a=1.0, b=0.0), True),
                           (catalog.instantiate("sextic-halfline", N=3), False)):
        branches = bae.enumerate_branches(spec)
        assert len(branches) == 4
        pre = prepot.integrate_w0(spec)
        alone = [verify.verify_branch(pre, br) for br in branches]
        fd_spectrum_grids.clear()
        dvr_spectra.clear()
        wall_spectra.clear()
        reports = verify.verify_branches(pre, branches)
        boxes = [verify.default_grid(pre, br.roots).points for br in branches]
        lo, hi = min(b[0] for b in boxes), max(b[-1] for b in boxes)
        assert fd_spectrum_grids == []
        if mirrored:
            # from the mirror at x_t = 0 to the farthest end of the members'
            # e^-18 boxes, inside their e^-40 grids
            assert wall_spectra == []
            (((box_lo, box_hi), mirror),) = dvr_spectra
            assert mirror == 0.0 and box_lo == 0.0
            assert 0.0 < box_hi < max(-lo, hi)
        else:
            # from the wall at x = 0, which the grids stop short of, to the
            # farthest end of the members' e^-18 boxes
            assert dvr_spectra == []
            (((box_lo, box_hi), walls, mirror),) = wall_spectra
            assert mirror is None and walls[1] is None and walls[0][0] == 0.0
            assert box_lo == 0.0 < lo and 0.0 < box_hi < hi
        for rep, ref in zip(reports, alone):
            assert rep.verdict
            got, want = rep.as_dict(), ref.as_dict()
            ((claimed, _, diff),) = got.pop("spectrum_matches")
            assert got == {k: v for k, v in want.items() if k != "spectrum_matches"}
            assert claimed == ref.spectrum_matches[0][0]
            # the group's box moves E_fd at the oracle's error level only
            assert diff < 1e-9 * max(1.0, abs(claimed))


def test_verify_branches_distinct_potentials(dvr_spectra):
    # type-2: every branch has its own potential, so its own spectrum
    spec = catalog.instantiate("sextic-type2", N=1, b=-1.0)
    branches = bae.enumerate_branches(spec)
    assert len(branches) == 3
    pre = prepot.integrate_w0(spec)
    assert len({potential.split_energy(pre, br).U for br in branches}) == 3
    reports = verify.verify_branches(pre, branches)
    assert len(dvr_spectra) == 3
    assert reports == [verify.verify_branch(pre, br) for br in branches]


def test_verify_branches_isolates_a_failing_branch(dvr_spectra):
    spec = catalog.instantiate("sextic", N=1)
    good, other = bae.enumerate_branches(spec)
    bad = bae.BetheBranch(tuple(z + 0.05 for z in other.roots), 0.0, 0)
    pre = prepot.integrate_w0(spec)
    alone = verify.verify_branch(pre, good)
    dvr_spectra.clear()
    rep, err = verify.verify_branches(pre, [good, bad])
    assert len(dvr_spectra) == 1
    assert rep == alone
    assert isinstance(err, ValueError) and "residues not cancelled" in str(err)
    with pytest.raises(ValueError, match="residues not cancelled"):
        verify.verify_branch(pre, bad)


@pytest.mark.parametrize("name,N,node_step", [
    ("sextic", 16, 2),           # z = x^2: a root at z > 0 is a node pair
    ("sextic-halfline", 12, 1),
    ("trig-interval", 8, 1),
])
def test_all_type1_branches_match_distinct_levels(name, N, node_step, fd_spectrum_grids,
                                                  fd_levels, dvr_spectra, wall_spectra):
    # with all N+1 branches present, each one matches its own level, and
    # the node counts climb one level at a time (Sturm oscillation)
    spec = catalog.instantiate(name, N=N)
    branches = bae.enumerate_branches(spec)
    assert len(branches) == N + 1
    pre = prepot.integrate_w0(spec)
    reports = verify.verify_branches(pre, branches)
    assert all(rep.verdict for rep in reports)
    matched = [rep.spectrum_matches[0][1] for rep in reports]
    assert len(set(matched)) == N + 1
    assert [rep.node_count for rep in reports] == [node_step * n for n in range(N + 1)]
    # the matched levels are the sinc DVR's (sextic: no wall) or the wall
    # basis's, on its box; FD runs on the grid it had before, for its own
    # checks
    claims = {rep.node_count: rep.spectrum_matches[0][0] for rep in reports}
    profile = potential.split_energy(pre, branches[0])
    if dvr_spectra:
        ((box, mirror),) = dvr_spectra
        oracle = verify.dvr_spectrum(profile, pre.cmap, box, claims, mirror)
    else:
        ((box, walls, mirror),) = wall_spectra
        oracle = verify.wall_spectrum(profile, pre.cmap, spec.Q, box, walls, claims, mirror)
    assert matched == [oracle[rep.node_count][0] for rep in reports]
    assert fd_spectrum_grids == []
    fd = _fd_group(pre, branches, reports)[1]
    matched = [fd[rep.node_count] for rep in reports]
    # each level on either grid is the bisection level of its index, to
    # 8 eps |T|_1 (two grids, N + 1 levels each)
    assert len(fd_levels) == 2 * (N + 1)
    for t, k, level in fd_levels:
        tol = 8.0 * np.finfo(float).eps * norm1(t)
        assert abs(level - tridiag_eigenvalues(t, (k, k))[0]) <= tol, (t.n, k)
    # the matched level is the one whose index is the node count
    (grid,) = fd_spectrum_grids
    levels = verify.fd_spectrum(potential.split_energy(pre, branches[0]), pre.cmap, grid,
                                {rep.node_count: rep.spectrum_matches[0][0]
                                 for rep in reports})
    assert matched == [levels[rep.node_count] for rep in reports]


@pytest.mark.parametrize("name,N,per_grid", [("harmonic", 12, 1), ("sextic", 4, 5)])
def test_fd_levels_computed_are_the_node_counts(fd_levels, fd_spectrum_grids, name, N,
                                                per_grid):
    # harmonic N = 12 has one branch, so one level on the full line; sextic
    # N = 4 reads the levels 0, 2, ..., 2N, which are the even-sector levels
    # 0..N of its half line, so N + 1 of them and none of the odd ones
    spec = catalog.instantiate(name, N=N)
    pre, branches = prepot.integrate_w0(spec), bae.enumerate_branches(spec)
    reports = verify.verify_branches(pre, branches)
    assert all(rep.verdict for rep in reports)
    _fd_group(pre, branches, reports)  # wall-free: the FD grid verify had before the DVR
    (grid,) = fd_spectrum_grids
    if grid.mirror is None:
        rows, step = [4001] * per_grid + [8001] * per_grid, 1
    else:
        assert grid.n < 0.6 * 4001
        rows, step = [grid.n] * per_grid + [2 * grid.n] * per_grid, 2
    assert (grid.mirror is None) == (name == "harmonic")
    assert sorted(t.n for t, _, _ in fd_levels) == rows
    assert sorted({k for _, k, _ in fd_levels}) == [rep.node_count // step
                                                   for rep in reports]


@pytest.mark.parametrize("config", [
    {"catalog": "sextic", "N": 16},  # tunnelling doublets below the FD error
    {"catalog": "sextic", "params": {"a": 0.908235, "b": 0.105165}, "N": 8},
    {"catalog": "sextic-halfline", "N": 6},
    {"catalog": "trig-interval", "N": 4},
    {"catalog": "harmonic", "N": 5},
], ids=lambda c: f"{c['catalog']}-N{c['N']}{'-vetted' if 'params' in c else ''}")
def test_every_e_fd_is_extrapolated_from_its_node_count_level(fd_levels, fd_spectrum_grids,
                                                             config):
    # index certification by an independent Sturm count: on both grids the
    # level behind E_fd has exactly node_count eigenvalues below it and an
    # eigenvalue within 8 eps |T|_1 of it; on a mirror grid, whose matrix
    # holds only the even levels, exactly node_count // 2
    spec = catalog.instantiate(config["catalog"], N=config["N"], **config.get("params", {}))
    branches = bae.enumerate_branches(spec)
    pre = prepot.integrate_w0(spec)
    reports = verify.verify_branches(pre, branches)
    assert reports and all(rep.verdict for rep in reports)
    assert fd_spectrum_grids == []
    e_fd = _fd_group(pre, branches, reports)[1]  # FD on the grid verify had before
    (grid,) = fd_spectrum_grids
    assert (grid.mirror is not None) == (config["catalog"] == "sextic")
    by_rows = {}
    for t, k, level in fd_levels:
        by_rows.setdefault(t.n, {})[k] = (t, level)
    coarse, fine = (by_rows[n] for n in sorted(by_rows))
    for rep in reports:
        k = rep.node_count if grid.mirror is None else rep.node_count // 2
        for t, level in (coarse[k], fine[k]):
            tol = 8.0 * np.finfo(float).eps * norm1(t)
            assert sturm_count(t, level - tol) == k < sturm_count(t, level + tol)
        assert e_fd[rep.node_count] == (4.0 * fine[k][1] - coarse[k][1]) / 3.0


def test_a_wrong_node_count_fails_the_verdict(monkeypatch):
    # the level is chosen by node count (Sturm), not as the nearest one. z =
    # x^2 is even about x = 0, so the spectrum runs on the half line, where
    # the deep wells' tunnelling doublets (N = 12, 16) have no odd partner:
    # a count one too high is odd, which no algebraic state of the even
    # potential has, and one two too high reads the next even level
    real = verify.node_count
    for N in (2, 12, 16):
        spec = catalog.instantiate("sextic", N=N)
        branches = bae.enumerate_branches(spec)
        assert len(branches) == N + 1
        pre = prepot.integrate_w0(spec)
        for shift in (1, 2):
            monkeypatch.setattr(verify, "node_count", lambda *a: real(*a) + shift)
            reports = verify.verify_branches(pre, branches)
            assert len(reports) == N + 1
            assert not any(rep.verdict for rep in reports), (N, shift)
            for rep in reports:
                if shift == 1:
                    assert rep.spectrum_matches == []
                    assert "odd node count" in rep.spectrum_note
                else:
                    assert rep.spectrum_matches[0][2] > 1.0 and rep.spectrum_note == ""


def test_the_verdict_requires_normalizable(monkeypatch):
    monkeypatch.setattr(verify, "normalizability_checks",
                        lambda pre, roots, components: [(False, math.inf)] * len(components))
    spec = catalog.instantiate("sextic", N=2)
    reports = verify.verify_branches(prepot.integrate_w0(spec),
                                     bae.enumerate_branches(spec))
    assert reports and not any(rep.verdict for rep in reports)
    assert all(rep.residual_max < 1e-6 and rep.spectrum_matches[0][2] < 1e-3
               for rep in reports)
    # a limit-circle wall keeps its residual-only verdict
    spec = ModelSpec(Poly([1.0]), Poly([-0.0794, 1.0]), (Singularity(0.4177, 0.003),), 2)
    reports = verify.verify_branches(prepot.integrate_w0(spec),
                                     bae.enumerate_branches(spec))
    assert reports and all(rep.verdict and "limit-circle" in rep.spectrum_note
                           for rep in reports)


def test_a_wall_within_the_turning_tolerance_shares_one_potential(fd_spectrum_grids,
                                                                 wall_spectra):
    # |Q(a)| = 4e-14 is a turning point: the model is type-1 and its three
    # branches share one potential, as at a = 0
    spec = ModelSpec(Poly([0.0, 4.0]), Poly([0.0, 0.0, 2.0]), (Singularity(1e-14, 0.3),), 2)
    assert model.classify(spec).tag == model.QES_TYPE1
    branches = bae.enumerate_branches(spec)
    assert len(branches) == 3
    assert all(rep.verdict for rep in verify.verify_branches(prepot.integrate_w0(spec),
                                                             branches))
    assert len(wall_spectra) == 1 and fd_spectrum_grids == []


@pytest.mark.parametrize("config", [
    {"catalog": "sextic", "N": 2},
    {"catalog": "sextic", "N": 8},
    {"catalog": "sextic", "N": 16},
    {"Q": [-1, 0, 1], "P": [0, -1, 1, 0], "N": 2},  # z = cosh x
], ids=["sextic-N2", "sextic-N8", "sextic-N16", "cosh-N2"])
def test_half_line_levels_are_the_even_full_line_levels(fd_spectrum_grids, config):
    # level m of the mirror grid is level 2m of the full line: E_fd matches
    # fd_spectrum on the union of the branch boxes, the full-line group grid
    spec = cli.spec_from_config(config)
    pre = prepot.integrate_w0(spec)
    branches = bae.enumerate_branches(spec)
    assert len(branches) == spec.N + 1
    reports = verify.verify_branches(pre, branches)
    _, e_fd = _fd_group(pre, branches, reports)  # the mirror FD grid verify had before the DVR
    (grid,) = fd_spectrum_grids
    assert grid.mirror == 0.0
    boxes = [verify.default_grid(pre, br.roots).points for br in branches]
    full = verify.make_grid(min(b[0] for b in boxes), max(b[-1] for b in boxes), 4001)
    assert full.mirror is None
    want = verify.fd_spectrum(potential.split_energy(pre, branches[0]), pre.cmap, full,
                              {rep.node_count: rep.spectrum_matches[0][0] for rep in reports})
    assert [rep.node_count for rep in reports] == [2 * m for m in range(spec.N + 1)]
    for rep in reports:
        assert rep.verdict
        level = e_fd[rep.node_count]
        assert abs(level - want[rep.node_count]) < 1e-7 * max(1.0, abs(level))


@pytest.mark.parametrize("config", [
    {"catalog": "sextic", "N": 16},
    {"catalog": "sextic", "params": {"a": 0.908235, "b": 0.105165}, "N": 8},
], ids=["sextic-N16", "sextic-N8-vetted"])
def test_sextic_levels_need_no_gershgorin_bisection(monkeypatch, config):
    # without the odd doublet partners every level's search window names
    # it, so poly.tridiag_levels never falls back to poly's
    # tridiag_eigenvalues
    calls = []
    real = poly.tridiag_eigenvalues

    def fallback(*args):
        calls.append(args[1:])
        return real(*args)

    monkeypatch.setattr(poly, "tridiag_eigenvalues", fallback)
    spec = cli.spec_from_config(config)
    pre, branches = prepot.integrate_w0(spec), bae.enumerate_branches(spec)
    reports = verify.verify_branches(pre, branches)
    assert len(reports) == spec.N + 1 and all(rep.verdict for rep in reports)
    _fd_group(pre, branches, reports)  # the FD grid verify had before the DVR
    assert calls == []


@pytest.mark.parametrize("name,N", [("sextic", 16), ("trig-interval", 8)])
def test_catalog_levels_certify_without_bisection(bisections, factorizations, fd_levels,
                                                  name, N):
    # at catalog defaults each claim's window holds its level alone and the
    # Kato-Temple bound fixes the value, so no level reaches dstebz, neither
    # in poly's Kato-Temple interval nor through poly's tridiag_eigenvalues
    # (test_poly's doublet matrices show that the hook sees those calls).
    # Each level is factored at its claim and at most once more for its
    # window's far end
    spec = catalog.instantiate(name, N=N)
    branches = bae.enumerate_branches(spec)
    pre = prepot.integrate_w0(spec)
    reports = verify.verify_branches(pre, branches)
    assert len(reports) == N + 1 and all(rep.verdict for rep in reports)
    assert fd_levels == []
    factorizations.clear()
    _fd_group(pre, branches, reports)  # the FD grid verify had before
    assert len(fd_levels) == 2 * (N + 1)  # every level, on both Richardson grids
    assert bisections == []
    assert len(factorizations) <= 2 * len(fd_levels)


@pytest.mark.parametrize("params,N,partner_gap", [
    ({"a": 0.986243, "b": -3.006455}, 1, 0.0016),  # level 1 at E = -6.01
    ({"a": 0.969061, "b": -3.034484}, 2, 0.036),   # level 2 at E = -5.34
])
def test_a_doublet_partner_below_the_far_end_does_not_force_bisection(
        bisections, factorizations, fd_levels, params, N, partner_gap):
    # in these type-2 double wells a doublet partner lies below a claimed
    # level. A level with no listed far end is counted once more, at
    # 2 |sigma - s| + 2 delta from its shift s: beyond the level and short
    # of its partner. So each level costs at most two factorizations, and
    # none is bisected from the Gershgorin bounds
    spec = catalog.instantiate("sextic-type2", N=N, **params)
    branches = bae.enumerate_branches(spec)
    pre = prepot.integrate_w0(spec)
    reports = verify.verify_branches(pre, branches)
    assert reports and all(rep.verdict for rep in reports)
    factorizations.clear()
    for br, rep in zip(branches, reports):  # each its own potential, on the FD
        _fd_group(pre, [br], [rep])        # grid verify had before the DVR
    assert len(factorizations) <= 2 * len(fd_levels)
    assert "tridiag_eigenvalues" not in bisections
    partnered = 0
    for t, k, level in fd_levels:
        tol = 8.0 * np.finfo(float).eps * norm1(t)
        assert abs(level - tridiag_eigenvalues(t, (k, k))[0]) <= tol, (t.n, k)
        if k > 0:
            gap = level - tridiag_eigenvalues(t, (k - 1, k - 1))[0]
            partnered += abs(gap - partner_gap) < 0.2 * partner_gap
            assert gap > 0.0
    assert partnered >= 2  # the doublet level, on both Richardson grids


def test_a_mirror_grid_holds_only_the_even_levels():
    # U = x^2 on the half line with a mirror at 0: levels 0, 2, 4 of the
    # oscillator (1, 5, 9); an odd level is not there to ask for
    cmap = coords.build(Poly([1.0]))
    prof = potential.PotentialProfile(
        potential.PFE(Poly([0.0, 0.0, 1.0])), 0.0,
        bae.BetheBranch((), 0.0, 0))
    grid = verify.mirror_grid(0.0, 2000, 0.005)
    # cell-centred from the mirror at the given spacing
    assert grid.points[0] == 0.0025 and grid.component == (0.0, math.inf)
    assert grid.h == 0.005 and grid.mirror == 0.0 and grid.wall_lo is None
    assert np.allclose(np.diff(grid.points), 0.005, rtol=1e-12, atol=0.0)
    levels = verify.fd_spectrum(prof, cmap, grid, {0: 1.0, 2: 5.0, 4: 9.0})
    assert all(abs(levels[n] - (2 * n + 1)) < 1e-4 for n in (0, 2, 4))
    with pytest.raises(ValueError, match="odd"):
        verify.fd_spectrum(prof, cmap, grid, {0: 1.0, 1: 3.0})


@pytest.mark.parametrize("name,params,Ns", [
    ("harmonic", {"b": 1.0}, (0, 5, 12)),
    ("morse-es", {"A": 5.0, "alpha": 1.0}, (0, 2, 4)),  # bound: A > N alpha
])
def test_dvr_levels_are_the_closed_form_energies(dvr_spectra, name, params, Ns):
    # wall-free exactly solvable models: the sinc DVR's level, shifted to
    # the catalog's normal form, is the closed-form energy to 1e-10
    for N in Ns:
        spec = catalog.instantiate(name, N=N, **params)
        (rep,) = verify.verify_branches(prepot.integrate_w0(spec), bae.enumerate_branches(spec))
        assert rep.verdict
        (want,) = catalog.expected_energies(name, params, N)
        level = rep.spectrum_matches[0][1] + catalog.reference_shift(name, params, N)
        assert abs(level - want) <= 1e-10 * max(1.0, abs(want)), (N, level, want)
    assert len(dvr_spectra) == len(Ns)


@pytest.mark.parametrize("config", [
    {"catalog": "sextic", "N": 16},
    {"Q": [-1, 0, 1], "P": [0, -1, 1, 0], "N": 2},  # z = cosh x
    {"catalog": "sextic-type2", "N": 2},
], ids=["sextic-N16", "cosh-N2", "sextic-type2-N2"])
def test_dvr_and_fd_levels_agree(config):
    # on the FD grid verify had before the DVR, each potential's FD level
    # is the DVR's to FD's own accuracy
    spec = cli.spec_from_config(config)
    pre = prepot.integrate_w0(spec)
    branches = bae.enumerate_branches(spec)
    reports = verify.verify_branches(pre, branches)
    assert reports and all(rep.verdict for rep in reports)
    groups = {}
    for br, rep in zip(branches, reports):
        groups.setdefault(potential.split_energy(pre, br).U, []).append((br, rep))
    for members in groups.values():
        _, fd = _fd_group(pre, *zip(*members))
        for _, rep in members:
            level = rep.spectrum_matches[0][1]
            assert abs(fd[rep.node_count] - level) < 1e-6 * max(1.0, abs(level))


def test_the_dvr_mirror_sector_is_the_even_full_line_levels():
    # sextic N = 8 is even about x = 0: the mirror sector on [0, L] holds
    # the levels 0, 2, 4, ... of the full line's [-L, L]
    spec = catalog.instantiate("sextic", N=8)
    pre = prepot.integrate_w0(spec)
    branches = bae.enumerate_branches(spec)
    profile = potential.split_energy(pre, branches[0])
    L = max(np.max(np.abs(verify.default_grid(pre, br.roots).points)) for br in branches)
    claims = {2 * m: potential.split_energy(pre, br).energy for m, br in enumerate(branches)}
    half = verify.dvr_spectrum(profile, pre.cmap, (0.0, L), claims, mirror=0.0)
    full = verify.dvr_spectrum(profile, pre.cmap, (-L, L), claims)
    assert sorted(half) == sorted(full) == sorted(claims)
    for k, (level, est) in half.items():
        assert abs(level - full[k][0]) <= 1e-10 * max(1.0, abs(level)), k
        assert est <= 1e-9 * max(1.0, abs(level))
    with pytest.raises(ValueError, match="odd"):
        verify.dvr_spectrum(profile, pre.cmap, (0.0, L), {1: 0.0}, mirror=0.0)


def test_a_wrong_claim_moves_no_dvr_level(dvr_spectra):
    # the claims only seed the DVR's size: moved by 10% either way, or all
    # set to 0, every level stays where it was, to rounding
    spec = catalog.instantiate("sextic", N=16)
    pre = prepot.integrate_w0(spec)
    branches = bae.enumerate_branches(spec)
    reports = verify.verify_branches(pre, branches)
    ((box, mirror),) = dvr_spectra
    profile = potential.split_energy(pre, branches[0])
    claims = {rep.node_count: rep.spectrum_matches[0][0] for rep in reports}
    for factor in (0.9, 1.1, 0.0):
        moved = verify.dvr_spectrum(profile, pre.cmap, box,
                                    {k: factor * e for k, e in claims.items()}, mirror)
        for rep in reports:
            level = rep.spectrum_matches[0][1]
            assert abs(moved[rep.node_count][0] - level) <= 1e-12 * max(1.0, abs(level))


@pytest.mark.parametrize("name,N", [("sextic", 8), ("harmonic", 12)])
def test_a_claim_off_by_1e_7_fails_the_dvr_bound(monkeypatch, name, N):
    # E (1 + 1e-7) keeps the residual below tolerance and sits well inside
    # FD's old 1e-3 bound, but not inside the DVR's est + 1e-9 max(1, |E|)
    spec = catalog.instantiate(name, N=N)
    pre = prepot.integrate_w0(spec)
    branches = bae.enumerate_branches(spec)
    assert all(rep.verdict for rep in verify.verify_branches(pre, branches))
    real = potential.split_energies

    def scaled(pre, branches):
        return [p if isinstance(p, Exception) else
                dataclasses.replace(p, energy=p.energy * (1.0 + 1e-7))
                for p in real(pre, branches)]

    monkeypatch.setattr(potential, "split_energies", scaled)
    reports = verify.verify_branches(pre, branches)
    _, fd = _fd_group(pre, branches, reports)
    for rep in reports:
        claimed, level, diff = rep.spectrum_matches[0]
        assert rep.residual_max < 1e-6 and rep.normalizable
        assert abs(fd[rep.node_count] - claimed) < 1e-3 * max(1.0, abs(claimed))
        # claims below 0.01 in size move by less than the 1e-9 floor
        assert rep.verdict == (abs(claimed) < 0.01), (claimed, level, diff)
    assert not all(rep.verdict for rep in reports)


def _poeschl_teller(kappa, lam):
    """U = kappa (kappa - 1) / sin^2 x + lam (lam - 1) / cos^2 x on the
    trigonometric map z = sin^2 x of (0, pi/2), Q = 4 z (1 - z), with its
    walls: levels (kappa + lam + 2n)^2."""
    Q = Poly([0.0, 4.0, -4.0])
    cmap = coords.build(Q)
    U = potential.PFE(Poly([0.0]), (potential.BoundaryPole(0.0, kappa * (kappa - 1.0), 0.0),
                                    potential.BoundaryPole(1.0, -lam * (lam - 1.0), 0.0)))
    prof = potential.PotentialProfile(U, 0.0, bae.BetheBranch((), 0.0, 0))
    return prof, cmap, Q, (0.0, math.pi / 2.0), ((0.0, kappa), (math.pi / 2.0, lam))


@pytest.mark.parametrize("kappa", [0.5, 0.6, 0.9, 1.5])
@pytest.mark.parametrize("lam", [0.5, 0.6, 0.9, 1.5])
def test_wall_levels_are_the_poeschl_teller_energies(kappa, lam):
    # two turning-point walls, nu = kappa and lam: the wall basis gives
    # the closed-form levels to 1e-10, with claims off by 10%
    prof, cmap, Q, box, walls = _poeschl_teller(kappa, lam)
    want = {n: (kappa + lam + 2.0 * n) ** 2 for n in range(6)}
    got = verify.wall_spectrum(prof, cmap, Q, box, walls, {n: 1.1 * e for n, e in want.items()})
    for n, e in want.items():
        assert abs(got[n][0] - e) <= 1e-10 * e, (n, got[n], e)
        assert got[n][1] <= 1e-9 * e


@pytest.mark.parametrize("nu", [0.5, 0.6, 0.9, 1.5])
def test_wall_levels_are_the_radial_oscillator_energies(nu):
    # U = x^2 + nu (nu - 1) / x^2 on (0, oo), z = x^2, a wall at x = 0 and
    # a truncated end at x = 12: levels 4n + 2 nu + 1 to 1e-10
    Q = Poly([0.0, 4.0])
    cmap = coords.build(Q)
    U = potential.PFE(Poly([0.0, 1.0]), (potential.BoundaryPole(0.0, nu * (nu - 1.0), 0.0),))
    prof = potential.PotentialProfile(U, 0.0, bae.BetheBranch((), 0.0, 0))
    want = {n: 4.0 * n + 2.0 * nu + 1.0 for n in range(6)}
    got = verify.wall_spectrum(prof, cmap, Q, (0.0, 12.0), ((0.0, nu), None), want)
    for n, e in want.items():
        assert abs(got[n][0] - e) <= 1e-10 * e, (n, got[n], e)


@pytest.mark.parametrize("config", [
    {"catalog": "trig-interval", "N": 8},
    {"catalog": "sextic-halfline", "N": 6},
    {"Q": [0, 4], "P": [0, 0, 2], "N": 1, "singularities": [{"a": 1, "mu": 0.7}]},
], ids=["trig-interval-N8", "sextic-halfline-N6", "mirror-wall"])
def test_a_walled_verify_runs_no_fd(monkeypatch, wall_spectra, config):
    # every walled group takes the wall basis: neither verify.fd_spectrum
    # nor poly.tridiag_levels (under either name) is called
    def refused(*args, **kwargs):
        raise AssertionError("FD at a wall")

    for module, name in ((verify, "fd_spectrum"), (verify, "tridiag_levels"),
                         (poly, "tridiag_levels")):
        monkeypatch.setattr(module, name, refused)
    spec = cli.spec_from_config(config)
    reports = verify.verify_branches(prepot.integrate_w0(spec), bae.enumerate_branches(spec))
    assert reports and all(rep.verdict for rep in reports)
    assert wall_spectra and all(any(walls) for _, walls, _ in wall_spectra)


def test_a_wrong_claim_moves_no_wall_level(wall_spectra):
    # the claims only seed the wall basis's size: moved by 10% either way,
    # or all set to 0, every level stays where it was, to rounding
    spec = catalog.instantiate("trig-interval", N=8)
    pre = prepot.integrate_w0(spec)
    branches = bae.enumerate_branches(spec)
    reports = verify.verify_branches(pre, branches)
    ((box, walls, mirror),) = wall_spectra
    profile = potential.split_energy(pre, branches[0])
    claims = {rep.node_count: rep.spectrum_matches[0][0] for rep in reports}
    for factor in (0.9, 1.1, 0.0):
        moved = verify.wall_spectrum(profile, pre.cmap, spec.Q, box, walls,
                                     {k: factor * e for k, e in claims.items()}, mirror)
        for rep in reports:
            level = rep.spectrum_matches[0][1]
            assert abs(moved[rep.node_count][0] - level) <= 1e-12 * max(1.0, abs(level))


@pytest.mark.parametrize("name,N", [("trig-interval", 8), ("sextic-halfline", 6)])
def test_a_claim_off_by_1e_7_fails_the_wall_bound(monkeypatch, name, N):
    # E (1 + 1e-7) keeps the residual below tolerance and sits well inside
    # FD's old 1e-2 wall bound, but not inside the wall basis's
    # est + 1e-9 max(1, |E|)
    spec = catalog.instantiate(name, N=N)
    pre = prepot.integrate_w0(spec)
    branches = bae.enumerate_branches(spec)
    assert all(rep.verdict for rep in verify.verify_branches(pre, branches))
    real = potential.split_energies

    def scaled(pre, branches):
        return [p if isinstance(p, Exception) else
                dataclasses.replace(p, energy=p.energy * (1.0 + 1e-7))
                for p in real(pre, branches)]

    monkeypatch.setattr(potential, "split_energies", scaled)
    reports = verify.verify_branches(pre, branches)
    _, fd = _fd_group(pre, branches, reports)
    for rep in reports:
        claimed, level, diff = rep.spectrum_matches[0]
        assert rep.residual_max < 1e-6 and rep.normalizable
        assert abs(fd[rep.node_count] - claimed) < 1e-2 * max(1.0, abs(claimed))
        # claims below 0.01 in size move by less than the 1e-9 floor
        assert rep.verdict == (abs(claimed) < 0.01), (claimed, level, diff)
    assert not all(rep.verdict for rep in reports)


def _vetted(*tags):
    with open(Path(__file__).resolve().parent.parent / "perfbench" / "vetted.json") as fh:
        slots = json.load(fh)["slots"]
    return [(tag, params) for tag in tags for params in slots[tag]["params"]]


@pytest.mark.parametrize("tag", ["sextic-halfline-N6", "sextic-halfline-N12",
                                 "trig-interval-N4", "trig-interval-N8"])
def test_wall_and_fd_levels_agree_on_every_vetted_walled_config(tag):
    # on the FD grid verify had before the wall basis, each level is the
    # wall basis's to within FD's own miss of the claim (and the wall
    # basis's, which the verdict holds to est + 1e-9 max(1, |E|)), and FD
    # misses by less than its old 1e-2 bound at a wall
    family, N = tag.rsplit("-N", 1)
    for _, params in _vetted(tag):
        spec = catalog.instantiate(family, N=int(N), **params)
        pre = prepot.integrate_w0(spec)
        branches = bae.enumerate_branches(spec)
        reports = verify.verify_branches(pre, branches)
        assert reports and all(rep.verdict for rep in reports), params
        _, fd = _fd_group(pre, branches, reports)
        for rep in reports:
            claimed, level, diff = rep.spectrum_matches[0]
            fd_miss = abs(fd[rep.node_count] - claimed)
            assert abs(fd[rep.node_count] - level) <= fd_miss + diff, params
            assert fd_miss < 1e-2 * max(1.0, abs(claimed)), params


def test_a_nan_window_is_undecided_and_fails():
    # inf - inf in W_N, where z overflows toward an exponential end, makes
    # phi nan: such a window is no negligible tail (-inf) but fails the scan
    logphi = np.zeros((3, verify.SIMPSON_POINTS))
    logphi[1, 5] = np.nan
    logphi[2] = -np.inf
    lo, hi = np.zeros(3), np.ones(3)
    ok, nan, vanishing = verify._log_simpsons(lo, hi, logphi)
    assert math.isfinite(ok) and math.isnan(nan) and vanishing == -math.inf
    state = [4, 0, -math.inf]
    with np.errstate(invalid="ignore"):
        totals = np.logaddexp.accumulate([0.0, -50.0, nan]).tolist()
    assert verify._scan([-50.0, nan], totals, [1.0, 2.0], math.inf, 0.0, +1,
                        list(state)) == (True, 0)
    assert verify._scan([nan, -50.0], [0.0, nan, nan], [1.0, 2.0], math.inf, 0.0, +1,
                        list(state)) == (False, 0)
    # inside the bulk a nan window fails too: it is no reading of phi at all
    assert verify._scan([nan], [0.0, nan], [1.0], math.inf, 5.0, +1, list(state)) == (False, 0)
