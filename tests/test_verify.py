import contextlib
import csv
import dataclasses
import importlib.util
import io
import json
import math
import sys
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


def _residual(prof, pre, branch, grid, n=oracles.LATTICE_POINTS):
    phi = prepot.phi_log_sign(pre, branch.roots, oracles.lattice(grid, n))
    return oracles.grid_residual(prof, pre.cmap, grid, phi, n)


def _fd_group(pre, members, reports):
    """verify.fd_spectrum, called through the module, on the lattice that
    verify_branches gave a group before the sinc DVR and the wall basis
    replaced FD: 4001 points over the union of the members' lattices, or
    the cell-centred mirror lattice at that spacing where the component
    holds the map's turning point, with each node count's first claimed
    energy. Returns (grid, levels)."""
    grids = [verify.default_grid(pre, br.roots) for br in members]
    lattices = [oracles.lattice(g) for g in grids]
    lo, hi = min(x[0] for x in lattices), max(x[-1] for x in lattices)
    x_t = pre.cmap.x_turn
    c_lo, c_hi = grids[0].component
    if x_t is not None and c_lo < x_t < c_hi:
        h = float(hi - lo) / 4000
        n = math.ceil(max(x_t - lo, hi - x_t) / h + 0.5)
        grid = verify.Grid(x_t, x_t + n * h, None, grids[0].wall_hi, x_t)
    else:
        n, grid = 4001, verify.Grid(lo, hi, grids[0].wall_lo, grids[0].wall_hi)
    claims = {}
    for rep in reports:
        if grid.mirror is None or rep.node_count % 2 == 0:
            claims.setdefault(rep.node_count, rep.spectrum_matches[0][0])
    return grid, verify.fd_spectrum(potential.split_energy(pre, members[0]), pre.cmap, grid,
                                    claims, n)


def test_residual_harmonic_reference_grid():
    # b = 1, N = 2, Hermite-zero branch, h = 1e-3, 4th order
    spec = harmonic(N=2)
    cmap, pre, br, prof = _pipeline(spec)
    grid = verify.Grid(-9.0, 9.0)
    x = oracles.lattice(grid, 18001)
    assert x[1] - x[0] == pytest.approx(1e-3)
    rmax, rrms = _residual(prof, pre, br, grid, 18001)
    assert rmax < 1e-8
    assert rrms <= rmax


def test_residual_detects_wrong_energy():
    spec = harmonic(N=2)
    cmap, pre, br, prof = _pipeline(spec)
    grid = verify.Grid(-9.0, 9.0)
    base, _ = _residual(prof, pre, br, grid, 18001)
    wrong = potential.PotentialProfile(prof.U, prof.energy + 0.1)
    shifted, _ = _residual(wrong, pre, br, grid, 18001)
    # residual jumps to ~ 0.1 / (1 + max|U - E|)
    z = cmap.z_of_x(oracles.lattice(grid, 18001))
    scale = 1.0 + np.max(np.abs(prof.U(z) - prof.energy))
    assert shifted > 100 * base
    assert shifted == pytest.approx(0.1 / scale, rel=0.5)


def test_residual_convergence_order():
    spec = harmonic(N=1)
    cmap, pre, br, prof = _pipeline(spec)
    res = []
    for n in (901, 1801):
        rmax, _ = _residual(prof, pre, br, verify.Grid(-9.0, 9.0), n)
        res.append(rmax)
    slope = math.log2(res[0] / res[1])
    assert abs(slope - 4) < 0.2 * 4


def test_grid_uniform_spacing():
    # the tests' lattice over a grid's interval: uniform, its ends the
    # interval's, except at a wall, where it stops max(10 h, 1e-3) short
    x = oracles.lattice(verify.Grid(-3.0, 7.0))
    assert (x[0], x[-1]) == (-3.0, 7.0)
    assert np.max(np.abs(np.diff(x) - 10.0 / 4000)) < 1e-14
    x = oracles.lattice(verify.Grid(-3.0, 7.0, (-3.0, 0.5), (7.0, 0.5)), 201)
    assert (x[0], x[-1]) == (-3.0 + 0.5, 7.0 - 0.5)
    assert oracles.lattice(verify.Grid(0.0, 0.2, (0.0, 0.5)))[0] == 1e-3


def test_fd_spectrum_harmonic_normal_form():
    # oracle self-test: U = x^2 has eigenvalues 1, 3, 5, ...
    cmap = coords.build(Poly([1.0]))
    prof = potential.PotentialProfile(
        potential.PFE(Poly([0.0, 0.0, 1.0])), 0.0)
    grid = verify.Grid(-10.0, 10.0)
    levels = verify.fd_spectrum(prof, cmap, grid, {n: 2.0 * n + 1.0 for n in range(5)}, 4000)
    assert list(levels) == [0, 1, 2, 3, 4]
    assert all(abs(levels[n] - (2 * n + 1)) < 1e-4 for n in range(5))


def test_fd_spectrum_sextic_contains_branch_energies():
    spec = ModelSpec(Poly([0.0, 4.0]), Poly([0.0, 0.0, 2.0]), (), 1)
    branches = bae.enumerate_branches(spec)
    cmap, pre, br, prof = _pipeline(spec, branches[0])
    grid = verify.default_grid(pre, br.roots)
    # z = x^2: the ground state is nodeless, the root at z > 0 a node pair
    energies = [potential.split_energy(pre, b).energy for b in branches]
    claims = dict(zip((0, 2), energies))
    levels = verify.fd_spectrum(prof, cmap, grid, claims, 4001)
    for k, e in claims.items():
        assert abs(levels[k] - e) < 1e-3


def test_fd_spectrum_morse_levels():
    A, alpha = 5.0, 1.0
    spec = catalog.instantiate("morse-es", N=0)
    cmap, pre, br, prof = _pipeline(spec)
    grid = verify.default_grid(pre, br.roots)
    want = {n: A ** 2 - (A - n * alpha) ** 2 for n in range(5)}
    levels = verify.fd_spectrum(prof, cmap, grid, want, 6001)
    for n, e in want.items():
        assert abs(levels[n] - e) / max(1.0, abs(e)) < 1e-3


def test_fd_spectrum_k_bounds():
    cmap = coords.build(Poly([1.0]))
    prof = potential.PotentialProfile(
        potential.PFE(Poly([0.0, 0.0, 1.0])), 0.0)
    grid = verify.Grid(-5.0, 5.0)
    for bad in ({0: 1.0, 101: 203.0}, {-1: 1.0, 3: 7.0}):
        with pytest.raises(ValueError):
            verify.fd_spectrum(prof, cmap, grid, bad, 101)


def _nodes(pre, roots, component) -> int:
    """verify.node_count of one row of roots in one component."""
    z = np.array([roots], dtype=float)
    (count,) = verify.node_count(pre, z, pre.cmap.preimages(z).swapaxes(0, 1), [component])
    return count


def test_node_counts():
    # N = 0: nodeless
    spec0 = harmonic(N=0)
    cmap, pre, br, prof = _pipeline(spec0)
    grid = verify.default_grid(pre, br.roots)
    assert _nodes(pre, br.roots, grid.component) == 0
    # harmonic N = 3: three nodes
    spec3 = harmonic(N=3)
    cmap, pre, br, prof = _pipeline(spec3)
    grid = verify.default_grid(pre, br.roots)
    assert _nodes(pre, br.roots, grid.component) == 3
    # sextic N = 1 with negative root: no real preimage, nodeless
    spec = ModelSpec(Poly([0.0, 4.0]), Poly([0.0, 0.0, 2.0]), (), 1)
    br_neg = bae.solve(spec, [-0.6])
    assert br_neg.roots[0] < 0
    cmap, pre, _, prof = _pipeline(spec, br_neg)
    grid = verify.default_grid(pre, br_neg.roots)
    assert _nodes(pre, br_neg.roots, grid.component) == 0


def test_node_count_counts_every_root_preimage_in_the_component():
    # z = x^2: the roots 1e-14 and 0.5 are nodes at x = +-1e-7 and
    # +-sqrt(0.5), the first two closer than any grid step
    spec = ModelSpec(Poly([0.0, 4.0]), Poly([0.0, 0.0, 2.0]), (), 2)
    pre = prepot.integrate_w0(spec)
    line = (-math.inf, math.inf)
    assert _nodes(pre, (1e-14, 0.5), line) == 4
    assert np.diff(oracles.lattice(verify.default_grid(pre, (1e-14, 0.5)))[:2])[0] > 2e-7
    # a root at the image's end z = 0 (a double zero of phi in x) or
    # outside the image is no node
    assert _nodes(pre, (0.0, -0.6), line) == 0
    # x = z with a wall at 0: each root counts in its own component
    spec = ModelSpec(Poly([1.0]), Poly([0.0, 1.0]), (Singularity(0.0, 0.5),), 3)
    pre = prepot.integrate_w0(spec)
    assert list(pre.walls) == [0.0]
    roots = (-0.3, 0.2, 0.7)
    assert _nodes(pre, roots, (0.0, math.inf)) == 2
    assert _nodes(pre, roots, (-math.inf, 0.0)) == 1
    # trigonometric map: the mirror preimage lies outside the x-domain
    pre = prepot.integrate_w0(catalog.instantiate("trig-interval", N=1))
    lo, hi = pre.cmap.x_domain
    z = sum(pre.cmap.z_image) / 2.0
    declared, mirror = pre.cmap.preimages(z).tolist()
    assert lo < declared < hi and math.isfinite(mirror) and not lo <= mirror <= hi
    assert _nodes(pre, (z,), (lo, hi)) == 1


def test_verify_counts_nodes_once_per_branch_whose_residual_ran(monkeypatch):
    spec = catalog.instantiate("sextic", N=4)
    pre = prepot.integrate_w0(spec)
    branches = bae.enumerate_branches(spec)
    # a branch whose roots solve no BAE stops before its residual
    bad = bae.BetheBranch(tuple(z + 0.1 for z in branches[0].roots), math.nan, 0)
    calls, residuals = [], []
    real_count, real_residual = verify.node_count, verify.schrodinger_residual
    monkeypatch.setattr(verify, "node_count",
                        lambda *a: calls.append(a[1:]) or real_count(*a))
    monkeypatch.setattr(verify, "schrodinger_residual",
                        lambda *a: residuals.append(a[1]) or real_residual(*a))
    reports = verify.verify_branches(pre, [br.roots for br in [bad] + branches])
    assert isinstance(reports[0], ValueError)
    ((roots, x, components),), (rows,) = calls, residuals
    good = np.array([br.roots for br in branches])
    assert np.array_equal(roots, good) and np.array_equal(rows, good)
    assert np.array_equal(x, pre.cmap.preimages(good).swapaxes(0, 1), equal_nan=True)
    assert components == [verify.default_grid(pre, br.roots).component for br in branches]
    assert [rep.node_count for rep in reports[1:]] == list(range(0, 2 * len(branches), 2))


def _load(monkeypatch, name, *parts):
    """The module at parts from the repository root, loaded under name
    for the test's duration."""
    spec = importlib.util.spec_from_file_location(
        name, Path(__file__).resolve().parent.parent.joinpath(*parts))
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def _vetted_and_ci_configs(monkeypatch) -> dict:
    """tag -> configs of the vetted benchmark table (drawn with its own
    seed), and name -> [config] of the CI wall, mirror, cosh and two-wall
    configs."""
    workloads = _load(monkeypatch, "perfbench_workloads", "perfbench", "workloads.py")
    ci = _load(monkeypatch, "parity_tool", "tools", "parity.py").CI_CONFIGS
    with open(workloads.VETTED_PATH) as fh:
        vetted = json.load(fh)["slots"]
    configs = {slot.tag: [workloads.build_config(slot, params)
                          for params in vetted[slot.tag]["params"]]
               for slots in workloads.SLOTS.values() for slot in slots}
    return configs | {name: [ci[name]] for name in ("w0-wall", "mirror", "cosh", "two-wall",
                                                    "two-wall-stall")}


def test_solve_verifies_exactly_the_branches_whose_report_has_the_residual(monkeypatch,
                                                                          tmp_path):
    # on every vetted and CI config, solve's verified column is true exactly
    # when verify reports the branch with residual_max below RESIDUAL_TOL
    checked = 0
    for i, cfg in enumerate(cfg for cfgs in _vetted_and_ci_configs(monkeypatch).values()
                            for cfg in cfgs):
        path, roots, report = (str(tmp_path / f"c{i}.{ext}") for ext in ("json", "csv", "out"))
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            if cli.main(["solve", path, "--out", roots]) != 0:
                continue
            assert cli.main(["verify", path, roots, "--json-out", report]) in (0, 3), cfg
        with open(roots) as fh:
            verified = {row["branch_id"]: row["verified"] for row in csv.DictReader(fh)}
        with open(report) as fh:
            reports = json.load(fh)
        for bid, flag in verified.items():
            want = bid in reports and reports[bid]["residual_max"] < verify.RESIDUAL_TOL
            assert flag == ("true" if want else "false"), (cfg, bid)
            checked += 1
    assert checked > 3000


def test_node_count_is_the_sampled_count_on_every_vetted_and_ci_config(monkeypatch):
    # the vetted benchmark table and the CI configs: on every branch with a
    # grid, the preimage count is the sign changes of phi on the grid and
    # its wall insets
    counted = 0
    for cfg in (cfg for cfgs in _vetted_and_ci_configs(monkeypatch).values() for cfg in cfgs):
        pre = prepot.integrate_w0(cli.spec_from_config(cfg))
        branches = bae.enumerate_branches(pre.spec_ref)
        table = verify.branch_setups(pre, [br.roots for br in branches])
        for roots, x, grid, error in zip(table.roots, table.x, table.grid, table.error):
            if error is not None:
                continue
            sampled = oracles.sign_changes(prepot.phi_log_sign(
                pre, roots, oracles.sampled_points(grid)))
            assert verify.node_count(pre, roots[None], x[None], [grid.component]) == [sampled], (
                cfg, roots)
            counted += 1
    assert counted > 3000


@pytest.fixture(scope="module")
def gridded():
    """tag -> [(pre, branches, roots, profiles, grids)] of every vetted and
    CI config, over its branches whose split and grid succeed."""
    with pytest.MonkeyPatch.context() as mp:
        configs = _vetted_and_ci_configs(mp)
    out = {}
    for tag, cfgs in configs.items():
        for cfg in cfgs:
            pre = prepot.integrate_w0(cli.spec_from_config(cfg))
            branches = bae.enumerate_branches(pre.spec_ref)
            table = verify.branch_setups(pre, [br.roots for br in branches])
            kept = [i for i, grid in enumerate(table.grid) if grid is not None]
            out.setdefault(tag, []).append((pre, [branches[i] for i in kept], table.roots[kept],
                                            [table.profile[i] for i in kept],
                                            [table.grid[i] for i in kept]))
    return out


def test_the_spectrum_box_holds_the_lattice_box_on_every_vetted_and_ci_branch(gridded):
    # the box from BOX_SAMPLES values of phi holds the first and last points
    # of the 4001-point lattice within DVR_BOX_LOG of log|phi|'s max on the
    # whole lattice: each truncated end at most BOX_STEPS lattice steps
    # outward of that box's, each wall end between the wall and that box's.
    # The box each spectrum reads, the union over the branches of one
    # potential, holds the union of their lattice boxes within the same bound
    ends = 0
    for pre, branches, roots, profiles, grids in (row for rows in gridded.values() for row in rows):
        groups = {}  # (U, walls) -> [(box, lattice box, lattice step)]
        boxes = verify._spectrum_boxes(pre, roots, grids) if grids else []
        for br, profile, box, grid in zip(branches, profiles, boxes, grids, strict=True):
            x = oracles.lattice(grid)
            want, h = oracles.spectrum_box(x, prepot.phi_log_sign(pre, br.roots, x)[0]), x[1] - x[0]
            groups.setdefault((profile.U, grid.wall_lo, grid.wall_hi), []).append((box, want, h))
            steps = oracles.box_steps(grid, box, want, (h, h))
            assert all(0.0 <= s <= oracles.BOX_STEPS for s in steps), (pre.spec_ref, br.roots,
                                                                      steps)
            ends += 2
        for (_, wall_lo, wall_hi), members in groups.items():
            (lo, _, h_lo), (hi, _, h_hi) = (min(members, key=lambda m: m[0][0]),
                                            max(members, key=lambda m: m[0][1]))
            box = lo[0], hi[1]
            want = min(m[1][0] for m in members), max(m[1][1] for m in members)
            steps = oracles.box_steps(verify.Grid(*box, wall_lo, wall_hi), box, want,
                                      (h_lo, h_hi))
            assert all(0.0 <= s <= oracles.BOX_STEPS for s in steps), (pre.spec_ref, steps)
    assert ends > 6000, ends


def test_the_scan_agrees_with_the_end_rule_on_every_vetted_and_ci_branch(gridded):
    # the tests' scan of phi^2 windows reads every certified component as
    # verify's end rule does
    checked = 0
    for pre, branches, _, _, grids in (row for rows in gridded.values() for row in rows):
        components = [grid.component for grid in grids]
        for br, component, bound in zip(branches, components, verify.normalizability_check(
                pre, components), strict=True):
            assert oracles.normalizability_check(pre, br, component)[0] == bound, (
                pre.spec_ref, component)
            checked += 1
    assert checked > 3000


def test_verify_certifies_with_the_scan_off_its_path(monkeypatch):
    # normalizable comes from one call of the end rule per verify_branches
    # call, for all branches; there is no scan in verify to run
    rule, calls = verify.normalizability_check, []

    def _counted(pre, components):
        calls.append(len(components))
        return rule(pre, components)

    monkeypatch.setattr(verify, "normalizability_check", _counted)
    assert not hasattr(verify, "normalizability_checks") and not hasattr(verify, "_peaks")
    for name, N in (("sextic", 16), ("trig-interval", 8)):
        spec = catalog.instantiate(name, N=N)
        calls.clear()
        reports = verify.verify_branches(prepot.integrate_w0(spec),
                                         [br.roots for br in bae.enumerate_branches(spec)])
        assert calls == [N + 1], (name, calls)
        assert len(reports) == N + 1 and all(rep.verdict for rep in reports), (name, reports)


def test_one_verify_reads_phi_at_most_1000_points_per_branch(monkeypatch):
    # the truncation ladders and the spectrum boxes are all of verify's phi
    phi_log_sign, points = prepot.phi_log_sign, []

    def _counted(pre, roots, x):
        points.append(np.size(x))
        return phi_log_sign(pre, roots, x)

    monkeypatch.setattr(prepot, "phi_log_sign", _counted)
    for name, N in (("sextic", 40), ("sextic-halfline", 30), ("trig-interval", 15),
                    ("morse-es", 4), ("sextic-type2", 3)):
        spec = catalog.instantiate(name, N=N)
        branches = bae.enumerate_branches(spec)
        points.clear()
        reports = verify.verify_branches(prepot.integrate_w0(spec), [br.roots for br in branches])
        assert all(rep.verdict for rep in reports), name
        assert sum(points) <= 1000 * len(branches), (name, sum(points) / len(branches))


def test_both_residuals_pass_on_every_vetted_and_ci_branch(gridded):
    # the rational identity at 4N + 8 points, and the fourth-order stencil
    # on the 4001-point lattice that it replaced, each within its own bound
    checked = 0
    for pre, _, roots, profiles, grids in (row for rows in gridded.values() for row in rows):
        for row, profile, grid, got in zip(roots, profiles, grids, verify.schrodinger_residual(
                pre, roots, profiles, grids), strict=True):
            assert got[0] < verify.RESIDUAL_TOL and got[1] <= got[0], (pre.spec_ref, got)
            phi = prepot.phi_log_sign(pre, row, oracles.lattice(grid))
            stencil = oracles.grid_residual(profile, pre.cmap, grid, phi)
            assert stencil[0] < oracles.GRID_RESIDUAL_TOL, (pre.spec_ref, stencil)
            checked += 1
    assert checked > 3000


def test_an_energy_moved_by_1e_6_fails_the_residual_on_every_vetted_and_ci_branch(gridded):
    # a claim off by 1e-6 max(1, |E|) breaks the identity on every branch
    for pre, _, roots, profiles, grids in (row for rows in gridded.values() for row in rows):
        moved = [dataclasses.replace(p, energy=p.energy + 1e-6 * max(1.0, abs(p.energy)))
                 for p in profiles]
        for got in verify.schrodinger_residual(pre, roots, moved, grids):
            assert got[0] > verify.RESIDUAL_TOL, (pre.spec_ref, got)


@pytest.mark.parametrize("tag", ["two-wall", "singular-N2"])
def test_a_split_without_its_wall_pole_coefficient_fails_the_residual(gridded, monkeypatch,
                                                                       tag):
    # U's root-dependent pole at a wall where Q(a) != 0,
    # 2 mu Q(a) sum_k 1/(a - z_k) / (z - a), dropped from the split: every
    # branch's residual sees it
    real = potential._shift_rows

    def without_wall_poles(spec, roots):
        rows, poles = real(spec, roots)
        return rows, [(a, 0.0 * c1) for a, c1 in poles]

    monkeypatch.setattr(potential, "_shift_rows", without_wall_poles)
    checked = 0
    for pre, branches, roots, _, grids in gridded[tag]:
        profiles, _ = potential.split_energies(pre, roots,
                                               bae.branch_energies(pre.spec_ref, roots))
        for got in verify.schrodinger_residual(pre, roots, profiles, grids):
            assert got[0] > verify.RESIDUAL_TOL, (pre.spec_ref, got)
            checked += 1
    assert checked == sum(len(branches) for _, branches, *_ in gridded[tag]) > 0


def test_normalizability_harmonic():
    spec = harmonic(b=1.0, N=1)
    cmap, pre, br, _ = _pipeline(spec)
    ok, est = oracles.normalizability_check(pre, br, pre.cmap.x_domain)
    assert ok and math.isfinite(est) and est > 0
    assert verify.normalizability_check(pre, [pre.cmap.x_domain]) == [True]
    bad = harmonic(b=-1.0, N=0)
    preb = prepot.integrate_w0(bad)
    brb = bae.BetheBranch((), 0.0, 0)
    ok, est = oracles.normalizability_check(preb, brb, preb.cmap.x_domain)
    assert not ok
    assert verify.normalizability_check(preb, [preb.cmap.x_domain]) == [False]


@pytest.mark.parametrize("N", [18, 20, 30])
def test_normalizability_of_high_oscillator_levels(N):
    # the bulk of level N reaches x ~ sqrt(2N + 1) > 6, past the first four
    # windows from x = 1, whose integrals grow lobe by lobe toward the
    # last one: that is no tail growth, for the scan as for the end rule
    _, pre, br, _ = _pipeline(harmonic(b=1.0, N=N))
    rep = verify.verify_branch(pre, br)
    assert rep.normalizable and rep.verdict
    assert oracles.normalizability_check(pre, br, pre.cmap.x_domain)[0]


def test_normalizability_morse_p_threshold():
    # phi ~ z^(A/alpha - N) at the z -> 0 end: normalizable iff A/alpha > N
    good = catalog.instantiate("morse-p", N=1, A=1.7)
    br = bae.enumerate_branches(good)[0]
    pre = prepot.integrate_w0(good)
    ok, _ = oracles.normalizability_check(pre, br, pre.cmap.x_domain)
    assert ok and verify.normalizability_check(pre, [pre.cmap.x_domain]) == [True]
    bad = catalog.instantiate("morse-p", N=1, A=0.7)
    brb = bae.enumerate_branches(bad)[0]
    preb = prepot.integrate_w0(bad)
    ok, _ = oracles.normalizability_check(preb, brb, preb.cmap.x_domain)
    assert not ok and verify.normalizability_check(preb, [preb.cmap.x_domain]) == [False]


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
    assert not any(oracles.normalizability_check(pre, br, pre.cmap.x_domain)[0]
                   for br in branches)


def test_the_peaks_are_where_w_n_prime_vanishes():
    # double well phi0 = exp(x^2/2 - x^4/200): W0' = P = -z + 0.02 z^3
    spec = ModelSpec(Poly([1.0]), Poly([0.0, -1.0, 0.0, 0.02]), (), 0)
    peaks = oracles.peaks(prepot.integrate_w0(spec), np.zeros(0))
    assert np.sort(peaks) == pytest.approx([-math.sqrt(50.0), 0.0, math.sqrt(50.0)],
                                           abs=1e-12)
    # harmonic N = 2 (roots +-1/sqrt(2)): W_2' = z - 2z/(z^2 - 1/2) vanishes
    # at 0 and +-sqrt(5/2), outside both nodes
    spec = harmonic(N=2)
    (br,) = bae.enumerate_branches(spec)
    peaks = oracles.peaks(prepot.integrate_w0(spec), np.array(br.roots))
    assert np.sort(peaks) == pytest.approx([-math.sqrt(2.5), 0.0, math.sqrt(2.5)])
    # y's coefficients overflow for 120 roots near 1e4: those roots get none
    pre = prepot.integrate_w0(harmonic(N=120))
    assert len(oracles.peaks(pre, np.linspace(1e4, 2e4, 120))) == 0
    assert np.isfinite(oracles.peaks(pre, np.linspace(-1.0, 1.0, 120))).any()


def test_a_window_where_phi_overflows_is_divergent():
    # an overflowing phi reads as +inf, never as a negligible tail, even
    # inside the bulk
    logphi = np.zeros((2, oracles.SIMPSON_POINTS))
    logphi[1, -1] = math.inf
    segs = [oracles.log_simpson(lo, lo + 1.0, row) for lo, row in zip((1.0, 2.0), logphi)]
    assert segs[1] == math.inf and math.isfinite(segs[0])
    for bulk in (-math.inf, 10.0):
        assert oracles.scan_side(zip(segs, [2.0, 3.0]), math.inf, bulk, 1, 0.0) == (
            False, math.inf)


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
    checks = [oracles.normalizability_check(pre, br, (0.0, math.pi / 2)) for br in branches]
    assert len(checks) == 2 and all(ok and math.isfinite(est) for ok, est in checks)
    assert verify.normalizability_check(pre, [(0.0, math.pi / 2)]) == [True]


def test_wall_exponents_include_the_w0_log_weight():
    # P(0) = P(1) = -0.4 gives W0 the terms -0.1 ln z and +0.1 ln|z - 1|, so
    # phi ~ z^(0.3 + 0.1) and |z - 1|^(0.3 - 0.1); z - a ~ x^2 at both
    # turning points doubles them to nu = 0.8 and 0.4 (mu alone: 0.6, 0.6)
    spec = ModelSpec(Poly([0.0, 4.0, -4.0]), Poly([-0.4, -4.0, 4.0]),
                     (Singularity(0.0, 0.3), Singularity(1.0, 0.3)), 2)
    pre = prepot.integrate_w0(spec)
    branches = bae.enumerate_branches(spec)
    assert len(branches) == 3
    for br, rep in zip(branches, verify.verify_branches(pre, [br.roots for br in branches])):
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
    for br, rep in zip(branches, verify.verify_branches(pre, [br.roots for br in branches])):
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
    for br, rep in zip(branches, verify.verify_branches(pre, [br.roots for br in branches])):
        grid = verify.default_grid(pre, br.roots)
        assert (0.4177, pytest.approx(0.003)) in (grid.wall_lo, grid.wall_hi)
        assert rep.spectrum_matches == [] and "limit-circle" in rep.spectrum_note
        assert rep.verdict


def test_a_grid_point_on_a_pole_raises_grid_error():
    spec = harmonic(N=0)
    cmap, pre, br, _ = _pipeline(spec)
    profile = potential.PotentialProfile(
        potential.PFE(Poly([0.0]), (potential.BoundaryPole(0.0, 1.0, 0.0),)), 0.0)
    grid = verify.Grid(-1.0, 1.0)
    assert 0.0 in oracles.lattice(grid, 201)
    with pytest.raises(GridError, match="pole"):
        verify.fd_spectrum(profile, cmap, grid, {k: profile.energy for k in range(4)}, 201)
    with pytest.raises(GridError, match="pole"):
        _residual(profile, pre, br, grid, 201)


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
    certified = oracles.normalizability_check(pre, br, (a, math.inf))
    assert rep.normalizable == certified[0]
    assert oracles.normalizability_check(pre, br, (-math.inf, a))[1] != certified[1]


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
    # both models have two components that the end rule does not flag,
    # each with one unbounded end; only the preferred one is marched
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
    roots = np.array([br.roots for br in branches])
    grids = verify.default_grids(pre, roots, pre.cmap.preimages(roots).swapaxes(0, 1))
    assert len(marches) == len(branches)
    for grid, br in zip(grids, branches):
        assert grid == verify.default_grid(pre, br.roots)


def test_a_component_the_end_rule_flags_is_never_marched(monkeypatch):
    # phi0 = |z|^0.3 exp(2z - z^3/3) grows as z -> -infinity, so
    # prepot.unbound_ends flags the -inf end. The branches whose root lies
    # left of the wall would otherwise prefer (-inf, 0); every branch
    # certifies on (0, inf), all three marched in one pass
    spec = ModelSpec(Poly([1.0]), Poly([-2.0, 0.0, 1.0]), (Singularity(0.0, 0.3),), 1)
    pre = prepot.integrate_w0(spec)
    assert [end.x for end in prepot.unbound_ends(pre)] == [(-math.inf,)]
    roots = np.array([br.roots for br in bae.enumerate_branches(spec)])
    assert roots[:, 0].tolist() == pytest.approx([-1.3322207371911865, -0.15174715600653985,
                                                  1.4839678931977263], rel=1e-12)
    marches = []
    real = verify._march_thresholds

    def counted(pre, rows, starts, directions):
        found = real(pre, rows, starts, directions)
        marches.append((rows[:, 0].tolist(), list(starts), list(directions), found.tolist()))
        return found

    monkeypatch.setattr(verify, "_march_thresholds", counted)
    grids = verify.default_grids(pre, roots, pre.cmap.preimages(roots).swapaxes(0, 1))
    z0, z1, z2 = roots[:, 0].tolist()
    (march,) = marches
    assert march[:3] == ([z0, z1, z2], [1.5, 1.5, z2 + 0.5], [1, 1, 1])
    assert march[3][:2] == [6.4604644775390625] * 2
    assert march[3][2] == pytest.approx(5.752339475228976, rel=1e-12)
    assert grids[:2] == [verify.Grid(0.0, 6.4604644775390625, (0.0, 0.3))] * 2
    assert grids[2] == verify.Grid(0.0, march[3][2], (0.0, 0.3))
    assert all(rep.verdict for rep in verify.verify_branches(pre, roots))


def test_residual_excludes_both_sides_of_every_node():
    # phi is piecewise linear with U = E = 0, so its residual is rounding
    # except at its kinks; each kink sits 3 steps from one of the two
    # nodes, on either side, inside the oracle's NODE_DELTA_STEPS exclusion
    cmap = coords.build(Poly([1.0]))
    grid = verify.Grid(-1.0, 1.0)
    x = oracles.lattice(grid, 201)
    n0, n1, d = -0.3033, 0.3366, 3 * (x[1] - x[0])
    phi = np.interp(x, [-1.0, n0 - d, n0 + d, n1 - d, n1 + d, 1.0],
                    [-0.2, -0.06, 0.06, 0.09, -0.09, -0.3])
    profile = potential.PotentialProfile(potential.PFE(Poly([0.0])), 0.0)
    with np.errstate(divide="raise"):
        rmax, _ = oracles.grid_residual(profile, cmap, grid,
                                        (np.log(np.abs(phi)), np.sign(phi)), 201)
    assert rmax < 1e-9
    # a kink away from the nodes is not excluded
    phi[150:] += 0.5 * (x[150:] - x[150])
    rmax, _ = oracles.grid_residual(profile, cmap, grid,
                                    (np.log(np.abs(phi)), np.sign(phi)), 201)
    assert rmax > 1.0


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


def test_a_root_moved_off_its_branch_fails_the_residual_on_every_preset():
    # each root of every preset's branches at N = 1, 2, 3, 4 and 8, moved by
    # 1e-6 max(1, |z_k|) in turn: every move that split_energies rejects
    # breaks the identity too, with the residue gate bypassed. Its nodes lie
    # where the state does; Chebyshev nodes in z across a Morse grid's
    # z-range all lay past 1e16, far from roots in (0.08, 0.82), and read
    # residuals down to 3e-17 there
    checked = 0
    for name in catalog.names():
        for N in (1, 2, 3, 4, 8):
            spec = catalog.instantiate(name, N=N)
            pre = prepot.integrate_w0(spec)
            moved = []
            for br in bae.enumerate_branches(spec):
                for k, zk in enumerate(br.roots):
                    row = list(br.roots)
                    row[k] += 1e-6 * max(1.0, abs(zk))
                    moved.append(row)
            table = verify.branch_setups(pre, moved)
            rejected = [i for i, error in enumerate(table.error) if isinstance(error, ValueError)
                        and table.profile[i] is None]
            if not rejected:
                continue
            roots = table.roots[rejected]
            profiles = [oracles.split_energy(pre, bae.BetheBranch(tuple(row), 0.0, 0),
                                             residue_tol=math.inf) for row in roots]
            for got in verify.schrodinger_residual(pre, roots, profiles, verify.default_grids(
                    pre, roots, table.x[rejected])):
                assert isinstance(got, tuple) and got[0] > verify.RESIDUAL_TOL, (name, N, got)
                checked += 1
    assert checked == 391


def test_branch_setups_residual_matches_verify_branch():
    # type-1, exactly solvable, and a singular wall: the residual of each
    # branch's setup, which qesf solve reads, from one pass over all
    # branches, is the branch's own report fields
    for name, N in (("sextic", 2), ("morse-es", 2), ("sextic-halfline", 1)):
        spec = catalog.instantiate(name, N=N)
        pre = prepot.integrate_w0(spec)
        branches = bae.enumerate_branches(spec)
        table = verify.branch_setups(pre, [br.roots for br in branches])
        for br, got in zip(branches, table.residual, strict=True):
            rep = verify.verify_branch(pre, br)
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
        grid = verify.default_grid(pre, br.roots)
        rmax, _ = _residual(prof, pre, br, grid)
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
        reports = verify.verify_branches(pre, [br.roots for br in branches])
        grids = [verify.default_grid(pre, br.roots) for br in branches]
        lo, hi = min(g.lo for g in grids), max(g.hi for g in grids)
        assert fd_spectrum_grids == []
        if mirrored:
            # from the mirror at x_t = 0 to the farthest end of the members'
            # e^-18 boxes, inside their e^-40 grids
            assert wall_spectra == []
            (((box_lo, box_hi), mirror),) = dvr_spectra
            assert mirror == 0.0 and box_lo == 0.0
            assert 0.0 < box_hi < max(-lo, hi)
        else:
            # from the wall at x = 0, where the grids begin too, to the
            # farthest end of the members' e^-18 boxes
            assert dvr_spectra == []
            (((box_lo, box_hi), walls, mirror),) = wall_spectra
            assert mirror is None and walls[1] is None and walls[0][0] == 0.0
            assert box_lo == 0.0 == lo and 0.0 < box_hi < hi
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
    reports = verify.verify_branches(pre, [br.roots for br in branches])
    assert len(dvr_spectra) == 3
    assert reports == [verify.verify_branch(pre, br) for br in branches]


def test_verify_branches_isolates_a_failing_branch(dvr_spectra):
    spec = catalog.instantiate("sextic", N=1)
    good, other = bae.enumerate_branches(spec)
    bad = bae.BetheBranch(tuple(z + 0.05 for z in other.roots), 0.0, 0)
    pre = prepot.integrate_w0(spec)
    alone = verify.verify_branch(pre, good)
    dvr_spectra.clear()
    rep, err = verify.verify_branches(pre, [good.roots, bad.roots])
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
    reports = verify.verify_branches(pre, [br.roots for br in branches])
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
    ((grid, n),) = fd_spectrum_grids
    levels = verify.fd_spectrum(potential.split_energy(pre, branches[0]), pre.cmap, grid,
                                {rep.node_count: rep.spectrum_matches[0][0]
                                 for rep in reports}, n)
    assert matched == [levels[rep.node_count] for rep in reports]


@pytest.mark.parametrize("name,N,per_grid", [("harmonic", 12, 1), ("sextic", 4, 5)])
def test_fd_levels_computed_are_the_node_counts(fd_levels, fd_spectrum_grids, name, N,
                                                per_grid):
    # harmonic N = 12 has one branch, so one level on the full line; sextic
    # N = 4 reads the levels 0, 2, ..., 2N, which are the even-sector levels
    # 0..N of its half line, so N + 1 of them and none of the odd ones. Both
    # wanted ranges are contiguous, so each grid's one bisection computes
    # exactly these levels
    spec = catalog.instantiate(name, N=N)
    pre, branches = prepot.integrate_w0(spec), bae.enumerate_branches(spec)
    reports = verify.verify_branches(pre, [br.roots for br in branches])
    assert all(rep.verdict for rep in reports)
    _fd_group(pre, branches, reports)  # wall-free: the FD grid verify had before the DVR
    ((grid, n),) = fd_spectrum_grids
    if grid.mirror is None:
        rows, step = [4001] * per_grid + [8001] * per_grid, 1
    else:
        assert n < 0.6 * 4001
        rows, step = [n] * per_grid + [2 * n] * per_grid, 2
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
    reports = verify.verify_branches(pre, [br.roots for br in branches])
    assert reports and all(rep.verdict for rep in reports)
    assert fd_spectrum_grids == []
    e_fd = _fd_group(pre, branches, reports)[1]  # FD on the grid verify had before
    ((grid, _),) = fd_spectrum_grids
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
            monkeypatch.setattr(verify, "node_count",
                                lambda *a: [n + shift for n in real(*a)])
            reports = verify.verify_branches(pre, [br.roots for br in branches])
            assert len(reports) == N + 1
            assert not any(rep.verdict for rep in reports), (N, shift)
            for rep in reports:
                if shift == 1:
                    assert rep.spectrum_matches == []
                    assert "odd node count" in rep.spectrum_note
                else:
                    assert rep.spectrum_matches[0][2] > 1.0 and rep.spectrum_note == ""


def test_the_verdict_requires_normalizable(monkeypatch):
    # the end rule flags every end of every component
    monkeypatch.setattr(prepot, "unbound_ends", lambda pre: [prepot.UnboundEnd(
        "warning", "flagged", (-math.inf, math.inf, *pre.walls))])
    spec = catalog.instantiate("sextic", N=2)
    reports = verify.verify_branches(prepot.integrate_w0(spec),
                                     [br.roots for br in bae.enumerate_branches(spec)])
    assert reports and not any(rep.verdict for rep in reports)
    assert all(rep.residual_max < 1e-6 and rep.spectrum_matches[0][2] < 1e-3
               for rep in reports)
    # a limit-circle wall skips only the spectrum match: a branch there
    # that is not normalizable fails too
    spec = ModelSpec(Poly([1.0]), Poly([-0.0794, 1.0]), (Singularity(0.4177, 0.003),), 2)
    reports = verify.verify_branches(prepot.integrate_w0(spec),
                                     [br.roots for br in bae.enumerate_branches(spec)])
    assert reports and all(not rep.verdict and "limit-circle" in rep.spectrum_note
                           and rep.residual_max < 1e-6 for rep in reports)


def test_a_state_that_regrows_past_its_outermost_dip_is_not_normalizable():
    # phi = exp(-z^2/2 + 0.00025 z^4) dips to e^-250 at z = +-31.6 and then
    # grows without bound. W0 -> -infinity at both ends, so the end rule
    # flags them; the window across the dip is still bulk, so the scan
    # reaches the regrowth instead of reading that window as a tail
    spec = ModelSpec(Poly([1.0]), Poly([0.0, 1.0, 0.0, -0.001]), (), 0)
    pre = prepot.integrate_w0(spec)
    branch = bae.BetheBranch((), 0.0, 0)
    (rep,) = verify.verify_branches(pre, [branch.roots])
    assert rep.residual_max < 1e-6 and not rep.normalizable and not rep.verdict
    assert not oracles.normalizability_check(pre, branch, (-math.inf, math.inf))[0]
    # a state that decays past its last peak stays normalizable
    pre = prepot.integrate_w0(ModelSpec(Poly([1.0]), Poly([0.0, -1.0, 0.0, 0.02]), (), 0))
    assert verify.verify_branch(pre, branch).normalizable
    assert oracles.normalizability_check(pre, branch, (-math.inf, math.inf))[0]


@pytest.mark.parametrize("mu1,mu2", [(0.05, 0.45), (0.01, 0.3)],
                         ids=["two-wall", "two-wall-stall"])
def test_nodes_inside_a_walls_grid_inset_are_counted(mu1, mu2):
    # on the linear map x = z every root inside the certified component is
    # a node, those between a wall and the tests' lattice's inset end
    # included (two-wall branches 0 and 27, two-wall-stall branch 0)
    spec = ModelSpec(Poly([1.0]), Poly([0.0, 1.0]),
                     (Singularity(-0.1, mu1), Singularity(0.1, mu2)), 7)
    pre = prepot.integrate_w0(spec)
    branches = bae.enumerate_branches(spec)
    inset = 0
    for br, rep in zip(branches, verify.verify_branches(pre, [br.roots for br in branches])):
        grid = verify.default_grid(pre, br.roots)
        lo, hi = grid.component
        assert rep.node_count == sum(lo < z < hi for z in br.roots), br.roots
        x = oracles.lattice(grid)
        inset += any(lo < z < x[0] or x[-1] < z < hi for z in br.roots)
    assert inset


def test_a_wall_within_the_turning_tolerance_shares_one_potential(fd_spectrum_grids,
                                                                 wall_spectra):
    # |Q(a)| = 4e-14 is a turning point: the model is type-1 and its three
    # branches share one potential, as at a = 0
    spec = ModelSpec(Poly([0.0, 4.0]), Poly([0.0, 0.0, 2.0]), (Singularity(1e-14, 0.3),), 2)
    assert model.classify(spec).tag == model.QES_TYPE1
    branches = bae.enumerate_branches(spec)
    assert len(branches) == 3
    assert all(rep.verdict for rep in verify.verify_branches(prepot.integrate_w0(spec),
                                                             [br.roots for br in branches]))
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
    reports = verify.verify_branches(pre, [br.roots for br in branches])
    _, e_fd = _fd_group(pre, branches, reports)  # the mirror FD grid verify had before the DVR
    ((grid, _),) = fd_spectrum_grids
    assert grid.mirror == 0.0
    lattices = [oracles.lattice(verify.default_grid(pre, br.roots)) for br in branches]
    full = verify.Grid(min(x[0] for x in lattices), max(x[-1] for x in lattices))
    assert full.mirror is None
    want = verify.fd_spectrum(potential.split_energy(pre, branches[0]), pre.cmap, full,
                              {rep.node_count: rep.spectrum_matches[0][0] for rep in reports},
                              4001)
    assert [rep.node_count for rep in reports] == [2 * m for m in range(spec.N + 1)]
    for rep in reports:
        assert rep.verdict
        level = e_fd[rep.node_count]
        assert abs(level - want[rep.node_count]) < 1e-7 * max(1.0, abs(level))


@pytest.mark.parametrize("params,N,partner_gap", [
    ({"a": 0.986243, "b": -3.006455}, 1, 0.0016),  # level 1 at E = -6.01
    ({"a": 0.969061, "b": -3.034484}, 2, 0.036),   # level 2 at E = -5.34
])
def test_fd_reads_the_level_above_its_doublet_partner(fd_levels, params, N, partner_gap):
    # in these type-2 double wells a doublet partner lies partner_gap below
    # a claimed level: FD's bisection returns the level of the node count's
    # index, on both Richardson grids, and not its partner
    spec = catalog.instantiate("sextic-type2", N=N, **params)
    branches = bae.enumerate_branches(spec)
    pre = prepot.integrate_w0(spec)
    reports = verify.verify_branches(pre, [br.roots for br in branches])
    assert reports and all(rep.verdict for rep in reports)
    for br, rep in zip(branches, reports):  # each its own potential, on the FD
        _fd_group(pre, [br], [rep])        # grid verify had before the DVR
    partnered = 0
    for t, k, level in fd_levels:
        tol = 8.0 * np.finfo(float).eps * norm1(t)
        assert abs(level - tridiag_eigenvalues(t, (k, k))[0]) <= tol, (t.n, k)
        if k > 0:
            gap = level - tridiag_eigenvalues(t, (k - 1, k - 1))[0]
            partnered += abs(gap - partner_gap) < 0.2 * partner_gap
            assert gap > 0.0
    assert partnered >= 2  # the doublet level, on both Richardson grids


def test_a_mirror_grid_holds_only_the_even_levels(fd_levels):
    # U = x^2 on the half line with a mirror at 0: levels 0, 2, 4 of the
    # oscillator (1, 5, 9); an odd level is not there to ask for
    cmap = coords.build(Poly([1.0]))
    prof = potential.PotentialProfile(
        potential.PFE(Poly([0.0, 0.0, 1.0])), 0.0)
    grid = verify.Grid(0.0, 10.0, mirror=0.0)
    assert grid.component == (0.0, math.inf) and grid.wall_lo is None
    levels = verify.fd_spectrum(prof, cmap, grid, {0: 1.0, 2: 5.0, 4: 9.0}, 2000)
    assert all(abs(levels[n] - (2 * n + 1)) < 1e-4 for n in (0, 2, 4))
    # cell-centred from the mirror: 2000 cells of 0.005, then 4000 of
    # 0.0025, the first point half a cell out, whose ghost mirrors it
    for rows, h in ((2000, 0.005), (4000, 0.0025)):
        (t,) = {id(t): t for t, _, _ in fd_levels if t.n == rows}.values()
        assert np.allclose(t.offdiag, -1.0 / h ** 2, rtol=1e-12, atol=0.0)
        assert t.diag[0] == pytest.approx(1.0 / h ** 2 + (h / 2.0) ** 2, rel=1e-12)
        assert t.diag[1] == pytest.approx(2.0 / h ** 2 + (1.5 * h) ** 2, rel=1e-12)
    with pytest.raises(ValueError, match="odd"):
        verify.fd_spectrum(prof, cmap, grid, {0: 1.0, 1: 3.0}, 2000)


@pytest.mark.parametrize("name,params,Ns", [
    ("harmonic", {"b": 1.0}, (0, 5, 12)),
    ("morse-es", {"A": 5.0, "alpha": 1.0}, (0, 2, 4)),  # bound: A > N alpha
])
def test_dvr_levels_are_the_closed_form_energies(dvr_spectra, name, params, Ns):
    # wall-free exactly solvable models: the sinc DVR's level, shifted to
    # the catalog's normal form, is the closed-form energy to 1e-10
    for N in Ns:
        spec = catalog.instantiate(name, N=N, **params)
        (rep,) = verify.verify_branches(prepot.integrate_w0(spec),
                                        [br.roots for br in bae.enumerate_branches(spec)])
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
    reports = verify.verify_branches(pre, [br.roots for br in branches])
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
    L = max(max(-grid.lo, grid.hi) for grid in (verify.default_grid(pre, br.roots)
                                                for br in branches))
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
    # set to 0, every level stays where it was, bit for bit, on the preset
    # and on a vetted sextic N = 16 (moved by 2.7e-12 relative at 1.1 while
    # the seeded size could reach the final solve)
    for params in ({}, {"a": 1.051758, "b": 0.027859}):
        spec = catalog.instantiate("sextic", N=16, **params)
        pre = prepot.integrate_w0(spec)
        branches = bae.enumerate_branches(spec)
        dvr_spectra.clear()
        reports = verify.verify_branches(pre, [br.roots for br in branches])
        ((box, mirror),) = dvr_spectra
        profile = potential.split_energy(pre, branches[0])
        claims = {rep.node_count: rep.spectrum_matches[0][0] for rep in reports}
        for factor in (0.9, 1.1, 0.0):
            moved = verify.dvr_spectrum(profile, pre.cmap, box,
                                        {k: factor * e for k, e in claims.items()}, mirror)
            for rep in reports:
                assert moved[rep.node_count][0] == rep.spectrum_matches[0][1], (params, factor)


@pytest.mark.parametrize("name,N", [("sextic", 8), ("harmonic", 12)])
def test_a_claim_off_by_1e_7_fails_the_dvr_bound(monkeypatch, dvr_spectra, name, N):
    # E (1 + 1e-7) sits well inside FD's old 1e-3 bound, but not inside the
    # DVR's est + 1e-9 max(1, |E|); the Schrodinger residual, which the
    # verdict reads too, catches it by itself
    spec = catalog.instantiate(name, N=N)
    pre = prepot.integrate_w0(spec)
    branches = bae.enumerate_branches(spec)
    assert all(rep.verdict for rep in verify.verify_branches(pre, [br.roots for br in branches]))
    real = bae.branch_energies
    monkeypatch.setattr(bae, "branch_energies",
                        lambda spec, roots: real(spec, roots) * (1.0 + 1e-7))
    reports = verify.verify_branches(pre, [br.roots for br in branches])
    _, fd = _fd_group(pre, branches, reports)
    box, mirror = dvr_spectra[-1]
    levels = verify.dvr_spectrum(potential.split_energy(pre, branches[0]), pre.cmap, box,
                                 {rep.node_count: rep.spectrum_matches[0][0] for rep in reports},
                                 mirror)
    for rep in reports:
        claimed, level, diff = rep.spectrum_matches[0]
        assert rep.residual_max < 1e-6 and rep.normalizable
        assert abs(fd[rep.node_count] - claimed) < 1e-3 * max(1.0, abs(claimed))
        # claims below 0.01 in size move by less than the 1e-9 floor
        assert levels[rep.node_count][0] == level
        assert (diff < levels[rep.node_count][1] + verify.DVR_AGREE * max(1.0, abs(claimed))
                ) == (abs(claimed) < 0.01), (claimed, level, diff)
        assert rep.verdict == (abs(claimed) < 0.01), (claimed, level, diff)
        assert (rep.residual_max < verify.RESIDUAL_TOL) == (abs(claimed) < 0.01), rep
    assert not all(rep.verdict for rep in reports)


@pytest.mark.parametrize("mirror", [False, True])
def test_the_sinc_kinetic_matrix_is_the_n_by_n_formula_bit_for_bit(mirror):
    # gathered from one row of offsets, the matrix is the Colbert-Miller
    # formula evaluated on every (i, j), to the bit and the sign of zero
    def entries(k):
        t = np.where(k % 2, -2.0, 2.0) / np.maximum(np.abs(k), 1).astype(float) ** 2
        return np.where(k == 0, math.pi ** 2 / 3.0, t)

    for n in (1, 2, 3, 28, 57, 228):
        i = np.arange(n)
        want = entries(i[:, None] - i[None, :])
        if mirror:
            want += entries(i[:, None] + i[None, :])
            want[0, :] /= math.sqrt(2.0)
            want[:, 0] /= math.sqrt(2.0)
        got = verify._sinc_kinetic(n, mirror)
        assert got.dtype == want.dtype and got.shape == (n, n)
        assert got.tobytes() == want.tobytes(), n
        assert np.array_equal(np.signbit(got), np.signbit(want)), n


@pytest.mark.parametrize("alpha,beta", [(0.2, -0.5), (1.0, 0.4)])
@pytest.mark.parametrize("n", [60, 150, 337])
def test_the_wall_rules_barycentric_weights_differentiate_a_polynomial(n, alpha, beta):
    # from the Gauss-Jacobi nodes and their barycentric weights,
    # D_ij = (w_j / w_i) / (t_i - t_j) with rows summing to zero is the
    # derivative of the Lagrange basis: it maps T_(n-1) at the nodes to
    # T'_(n-1) there, to 1e-11 of max |T'_(n-1)|
    t, log_w = verify._gauss_jacobi(n, alpha, beta)
    assert np.all(np.diff(t) > 0) and t[0] > -1.0 and t[-1] < 1.0
    w = (-1.0) ** np.arange(n) * np.exp(log_w - log_w.max())
    gaps = t[:, None] - t[None, :]
    np.fill_diagonal(gaps, 1.0)
    D = w[None, :] / w[:, None] / gaps
    np.fill_diagonal(D, 0.0)
    np.fill_diagonal(D, -D.sum(axis=1))
    T = np.polynomial.chebyshev.Chebyshev.basis(n - 1)
    dT = T.deriv()(t)
    assert np.max(np.abs(D @ T(t) - dT)) <= 1e-11 * np.max(np.abs(dT))


def _poeschl_teller(kappa, lam):
    """U = kappa (kappa - 1) / sin^2 x + lam (lam - 1) / cos^2 x on the
    trigonometric map z = sin^2 x of (0, pi/2), Q = 4 z (1 - z), with its
    walls: levels (kappa + lam + 2n)^2."""
    Q = Poly([0.0, 4.0, -4.0])
    cmap = coords.build(Q)
    U = potential.PFE(Poly([0.0]), (potential.BoundaryPole(0.0, kappa * (kappa - 1.0), 0.0),
                                    potential.BoundaryPole(1.0, -lam * (lam - 1.0), 0.0)))
    prof = potential.PotentialProfile(U, 0.0)
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
    prof = potential.PotentialProfile(U, 0.0)
    want = {n: 4.0 * n + 2.0 * nu + 1.0 for n in range(6)}
    got = verify.wall_spectrum(prof, cmap, Q, (0.0, 12.0), ((0.0, nu), None), want)
    for n, e in want.items():
        assert abs(got[n][0] - e) <= 1e-10 * e, (n, got[n], e)


def test_wall_levels_over_random_exponents():
    # seeded draws of the wall exponents: trigonometric Poeschl-Teller
    # levels (kappa + lam + 2n)^2 and radial-oscillator levels
    # 4n + 2 nu + 1 on (0, 12), each to 1e-10 relative
    rng = np.random.default_rng(34)
    Q = Poly([0.0, 4.0])
    for kappa, lam, nu in rng.uniform(0.5, 4.0, (100, 3)).tolist():
        prof, cmap, Q_pt, box, walls = _poeschl_teller(kappa, lam)
        want = {n: (kappa + lam + 2.0 * n) ** 2 for n in range(6)}
        got = verify.wall_spectrum(prof, cmap, Q_pt, box, walls,
                                   {n: 1.1 * e for n, e in want.items()})
        assert all(abs(got[n][0] - e) <= 1e-10 * e for n, e in want.items()), (kappa, lam)
        U = potential.PFE(Poly([0.0, 1.0]), (potential.BoundaryPole(0.0, nu * (nu - 1.0), 0.0),))
        prof = potential.PotentialProfile(U, 0.0)
        want = {n: 4.0 * n + 2.0 * nu + 1.0 for n in range(6)}
        got = verify.wall_spectrum(prof, coords.build(Q), Q, (0.0, 12.0), ((0.0, nu), None), want)
        assert all(abs(got[n][0] - e) <= 1e-10 * e for n, e in want.items()), nu


@pytest.mark.parametrize("N", [4, 8, 12, 16])
def test_two_truncated_ends_hold_no_spurious_level(N):
    # U = x^2 on the linear map over (-9, 9), both ends truncated (nu = 1
    # walls): level N is 2N + 1, with nothing spurious below it
    Q = Poly([1.0])
    U = potential.PFE(Poly([0.0, 0.0, 1.0]))
    prof = potential.PotentialProfile(U, 0.0)
    e = 2.0 * N + 1.0
    level, est = verify.wall_spectrum(prof, coords.build(Q), Q, (-9.0, 9.0), (None, None),
                                      {N: e})[N]
    assert abs(level - e) <= est + 1e-9 * max(1.0, e), (level, est)


@pytest.mark.parametrize("kappa,lam", [(1.5, 8.0), (0.75, 12.0), (2.0, 20.0)])
def test_wall_levels_are_the_hyperbolic_poeschl_teller_energies(kappa, lam):
    # U = kappa (kappa - 1) / sinh^2 x - lam (lam + 1) / cosh^2 x on the
    # cosh map z = cosh x, Q = z^2 - 1 (deg Q = 2), over (0, 4): a wall at
    # x = 0 with nu = kappa and a truncated end, levels -(lam - kappa - 2n)^2
    Q = Poly([-1.0, 0.0, 1.0])
    c = kappa * (kappa - 1.0) / 2.0  # 1 / (z^2 - 1) = (1/(z - 1) - 1/(z + 1)) / 2
    U = potential.PFE(Poly([0.0]), (potential.BoundaryPole(1.0, c, 0.0),
                                    potential.BoundaryPole(-1.0, -c, 0.0),
                                    potential.BoundaryPole(0.0, 0.0, -lam * (lam + 1.0))))
    prof = potential.PotentialProfile(U, 0.0)
    want = {n: -(lam - kappa - 2.0 * n) ** 2 for n in (0, 1)}
    got = verify.wall_spectrum(prof, coords.build(Q), Q, (0.0, 4.0), ((0.0, kappa), None), want)
    for n, e in want.items():
        assert abs(got[n][0] - e) <= 1e-10 * abs(e), (n, got[n], e)


@pytest.mark.parametrize("config", [
    {"catalog": "trig-interval", "N": 8},
    {"catalog": "sextic-halfline", "N": 6},
    {"Q": [0, 4], "P": [0, 0, 2], "N": 1, "singularities": [{"a": 1, "mu": 0.7}]},
], ids=["trig-interval-N8", "sextic-halfline-N6", "mirror-wall"])
def test_a_walled_verify_runs_no_fd(monkeypatch, wall_spectra, config):
    # every walled group takes the wall basis: neither verify.fd_spectrum
    # nor tridiag_eigenvalues (under either module's name) is called
    def refused(*args, **kwargs):
        raise AssertionError("FD at a wall")

    for module, name in ((verify, "fd_spectrum"), (verify, "tridiag_eigenvalues"),
                         (poly, "tridiag_eigenvalues")):
        monkeypatch.setattr(module, name, refused)
    spec = cli.spec_from_config(config)
    reports = verify.verify_branches(prepot.integrate_w0(spec),
                                     [br.roots for br in bae.enumerate_branches(spec)])
    assert reports and all(rep.verdict for rep in reports)
    assert wall_spectra and all(any(walls) for _, walls, _ in wall_spectra)


def test_a_wrong_claim_moves_no_wall_level(wall_spectra):
    # the claims only seed the wall basis's size: moved by 10% either way,
    # or all set to 0, every level stays where it was, bit for bit, on the
    # trig-interval preset and on a vetted sextic-halfline N = 12 (moved by
    # 2.1e-11 relative at 0.9 while the seeded size could reach the final
    # solve)
    for name, N, params in (("trig-interval", 8, {}),
                            ("sextic-halfline", 12, {"a": 1.03837, "b": 0.01527, "p": 0.396527})):
        spec = catalog.instantiate(name, N=N, **params)
        pre = prepot.integrate_w0(spec)
        branches = bae.enumerate_branches(spec)
        wall_spectra.clear()
        reports = verify.verify_branches(pre, [br.roots for br in branches])
        ((box, walls, mirror),) = wall_spectra
        profile = potential.split_energy(pre, branches[0])
        claims = {rep.node_count: rep.spectrum_matches[0][0] for rep in reports}
        for factor in (0.9, 1.1, 0.0):
            moved = verify.wall_spectrum(profile, pre.cmap, spec.Q, box, walls,
                                         {k: factor * e for k, e in claims.items()}, mirror)
            for rep in reports:
                assert moved[rep.node_count][0] == rep.spectrum_matches[0][1], (name, factor)


@pytest.mark.parametrize("name,N", [("trig-interval", 8), ("sextic-halfline", 6)])
def test_a_claim_off_by_1e_7_fails_the_wall_bound(monkeypatch, wall_spectra, name, N):
    # E (1 + 1e-7) sits well inside FD's old 1e-2 wall bound, but not inside
    # the wall basis's est + 1e-9 max(1, |E|); the Schrodinger residual,
    # which the verdict reads too, catches it by itself
    spec = catalog.instantiate(name, N=N)
    pre = prepot.integrate_w0(spec)
    branches = bae.enumerate_branches(spec)
    assert all(rep.verdict for rep in verify.verify_branches(pre, [br.roots for br in branches]))
    real = bae.branch_energies
    monkeypatch.setattr(bae, "branch_energies",
                        lambda spec, roots: real(spec, roots) * (1.0 + 1e-7))
    reports = verify.verify_branches(pre, [br.roots for br in branches])
    _, fd = _fd_group(pre, branches, reports)
    box, walls, mirror = wall_spectra[-1]
    levels = verify.wall_spectrum(potential.split_energy(pre, branches[0]), pre.cmap, spec.Q,
                                  box, walls,
                                  {rep.node_count: rep.spectrum_matches[0][0] for rep in reports},
                                  mirror)
    for rep in reports:
        claimed, level, diff = rep.spectrum_matches[0]
        assert rep.residual_max < 1e-6 and rep.normalizable
        assert abs(fd[rep.node_count] - claimed) < 1e-2 * max(1.0, abs(claimed))
        # claims below 0.01 in size move by less than the 1e-9 floor
        assert levels[rep.node_count][0] == level
        assert (diff < levels[rep.node_count][1] + verify.DVR_AGREE * max(1.0, abs(claimed))
                ) == (abs(claimed) < 0.01), (claimed, level, diff)
        assert rep.verdict == (abs(claimed) < 0.01), (claimed, level, diff)
        assert (rep.residual_max < verify.RESIDUAL_TOL) == (abs(claimed) < 0.01), rep
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
        reports = verify.verify_branches(pre, [br.roots for br in branches])
        assert reports and all(rep.verdict for rep in reports), params
        _, fd = _fd_group(pre, branches, reports)
        for rep in reports:
            claimed, level, diff = rep.spectrum_matches[0]
            fd_miss = abs(fd[rep.node_count] - claimed)
            assert abs(fd[rep.node_count] - level) <= fd_miss + diff, params
            assert fd_miss < 1e-2 * max(1.0, abs(claimed)), params


def test_a_nan_window_is_undecided_and_fails(monkeypatch):
    # inf - inf in W_N, where z overflows toward an exponential end, makes
    # phi nan: such a window is no negligible tail (-inf) but fails the scan
    logphi = np.zeros((3, oracles.SIMPSON_POINTS))
    logphi[1, 5] = np.nan
    logphi[2] = -np.inf
    ok, nan, vanishing = (oracles.log_simpson(0.0, 1.0, row) for row in logphi)
    assert math.isfinite(ok) and math.isnan(nan) and vanishing == -math.inf
    # the scan reads no further than the window that decides it
    assert oracles.scan_side(iter([(-50.0, 1.0), (nan, 2.0)]), math.inf, 0.0, +1,
                             0.0) == (True, np.logaddexp(0.0, -50.0))
    verdict, total = oracles.scan_side(iter([(nan, 1.0), (-50.0, 2.0)]), math.inf, 0.0, +1, 0.0)
    assert verdict is False and math.isnan(total)
    # inside the bulk a nan window fails too: it is no reading of phi at all
    assert oracles.scan_side(iter([(nan, 1.0)]), math.inf, 5.0, +1, 0.0)[0] is False
    # a nan core window leaves a bound state not normalizable
    pre, branch = prepot.integrate_w0(harmonic(N=0)), bae.BetheBranch((), 0.0, 0)
    assert oracles.normalizability_check(pre, branch, pre.cmap.x_domain)[0]
    phi_log_sign, calls = prepot.phi_log_sign, []

    def _nan_core(pre, roots, x):
        logphi, sign = phi_log_sign(pre, roots, x)
        calls.append(x)
        return np.where(len(calls) == 1 and x == x[5], np.nan, logphi), sign

    monkeypatch.setattr(prepot, "phi_log_sign", _nan_core)
    assert not oracles.normalizability_check(pre, branch, pre.cmap.x_domain)[0]
    assert len(calls) > 1
