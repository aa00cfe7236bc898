import math

import numpy as np
import pytest

from qesf import bae, catalog, coords, potential, prepot, verify
from qesf.errors import GridError
from qesf.model import ModelSpec
from qesf.poly import Poly, hermite_zeros


def harmonic(b=1.0, N=2):
    return ModelSpec(Poly([1.0]), Poly([0.0, b]), (), N)


def _pipeline(spec, branch=None):
    cmap = coords.build(spec.Q, branch_sign=spec.branch_sign)
    pre = prepot.integrate_w0(spec, cmap)
    if branch is None:
        branch = bae.enumerate_branches(spec)[0]
    prof = potential.split_energy(spec, branch)
    return cmap, pre, branch, prof


def test_residual_harmonic_reference_grid():
    # b = 1, N = 2, Hermite-zero branch, h = 1e-3, 4th order
    spec = harmonic(N=2)
    cmap, pre, br, prof = _pipeline(spec)
    grid = verify.make_grid(-9.0, 9.0, 18001)
    assert grid.h == pytest.approx(1e-3)
    rmax, rrms = verify.schrodinger_residual(prof, br, cmap, pre, grid)
    assert rmax < 1e-8
    assert rrms <= rmax


def test_residual_detects_wrong_energy():
    spec = harmonic(N=2)
    cmap, pre, br, prof = _pipeline(spec)
    grid = verify.make_grid(-9.0, 9.0, 18001)
    base, _ = verify.schrodinger_residual(prof, br, cmap, pre, grid)
    wrong = potential.PotentialProfile(prof.U, prof.energy + 0.1, br)
    shifted, _ = verify.schrodinger_residual(wrong, br, cmap, pre, grid)
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
            rmax, _ = verify.schrodinger_residual(prof, br, cmap, pre, grid,
                                                  stencil_order=order)
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
        verify.schrodinger_residual(prof, br, cmap, pre, grid, stencil_order=3)


def test_fd_spectrum_harmonic_normal_form():
    # oracle self-test: U = x^2 has eigenvalues 1, 3, 5, ...
    cmap = coords.build(Poly([1.0]))
    prof = potential.PotentialProfile(
        potential.PFE(Poly([0.0, 0.0, 1.0])), 0.0,
        bae.BetheBranch((), 0.0, 0, "synthetic"))
    grid = verify.make_grid(-10.0, 10.0, 4000)
    levels = verify.fd_spectrum(prof, cmap, grid, 5)
    assert np.max(np.abs(levels - np.array([1, 3, 5, 7, 9]))) < 1e-4


def test_fd_spectrum_sextic_contains_branch_energies():
    spec = ModelSpec(Poly([0.0, 4.0]), Poly([0.0, 0.0, 2.0]), (), 1)
    branches = bae.enumerate_branches(spec)
    cmap, pre, br, prof = _pipeline(spec, branches[0])
    grid = verify.default_grid(pre, br.roots, n_points=4001)
    levels = verify.fd_spectrum(prof, cmap, grid, 8)
    for b in branches:
        e = potential.split_energy(spec, b).energy
        assert np.min(np.abs(levels - e)) < 1e-3


def test_fd_spectrum_morse_levels():
    A, alpha = 5.0, 1.0
    spec = catalog.instantiate("morse-es", N=0)
    cmap, pre, br, prof = _pipeline(spec)
    grid = verify.default_grid(pre, br.roots, n_points=6001)
    levels = verify.fd_spectrum(prof, cmap, grid, 5)
    want = np.array([A ** 2 - (A - n * alpha) ** 2 for n in range(5)])
    assert np.max(np.abs(levels - want) / np.maximum(1.0, np.abs(want))) < 1e-3


def test_fd_spectrum_k_bounds():
    cmap = coords.build(Poly([1.0]))
    prof = potential.PotentialProfile(
        potential.PFE(Poly([0.0, 0.0, 1.0])), 0.0,
        bae.BetheBranch((), 0.0, 0, "synthetic"))
    grid = verify.make_grid(-5.0, 5.0, 101)
    with pytest.raises(ValueError):
        verify.fd_spectrum(prof, cmap, grid, 101)


def test_node_counts():
    # N = 0: nodeless
    spec0 = harmonic(N=0)
    cmap, pre, br, prof = _pipeline(spec0)
    grid = verify.default_grid(pre, br.roots)
    assert verify.node_count(pre, br, grid) == 0
    # harmonic N = 3: three nodes
    spec3 = harmonic(N=3)
    cmap, pre, br, prof = _pipeline(spec3)
    grid = verify.default_grid(pre, br.roots)
    assert verify.node_count(pre, br, grid) == 3
    # sextic N = 1 with negative root: no real preimage, nodeless
    spec = ModelSpec(Poly([0.0, 4.0]), Poly([0.0, 0.0, 2.0]), (), 1)
    br_neg = bae.solve(spec, [-0.6])
    assert br_neg.roots[0] < 0
    cmap, pre, _, prof = _pipeline(spec, br_neg)
    grid = verify.default_grid(pre, br_neg.roots)
    assert verify.node_count(pre, br_neg, grid) == 0


def test_normalizability_harmonic():
    spec = harmonic(b=1.0, N=1)
    cmap, pre, br, _ = _pipeline(spec)
    ok, est = verify.normalizability_check(pre, br)
    assert ok and math.isfinite(est) and est > 0
    bad = harmonic(b=-1.0, N=0)
    cmapb = coords.build(bad.Q)
    preb = prepot.integrate_w0(bad, cmapb)
    brb = bae.BetheBranch((), 0.0, 0, "empty")
    ok, est = verify.normalizability_check(preb, brb)
    assert not ok


def test_normalizability_morse_p_threshold():
    # phi ~ z^(A/alpha - N) at the z -> 0 end: normalizable iff A/alpha > N
    good = catalog.instantiate("morse-p", N=1, A=1.7)
    br = bae.enumerate_branches(good)[0]
    cmap = coords.build(good.Q, branch_sign=good.branch_sign)
    pre = prepot.integrate_w0(good, cmap)
    ok, _ = verify.normalizability_check(pre, br)
    assert ok
    bad = catalog.instantiate("morse-p", N=1, A=0.7)
    brb = bae.enumerate_branches(bad)[0]
    cmapb = coords.build(bad.Q, branch_sign=bad.branch_sign)
    preb = prepot.integrate_w0(bad, cmapb)
    ok, _ = verify.normalizability_check(preb, brb)
    assert not ok


def test_default_grid_refuses_nonnormalizable():
    bad = harmonic(b=-1.0, N=0)
    cmap = coords.build(bad.Q)
    pre = prepot.integrate_w0(bad, cmap)
    with pytest.raises(GridError):
        verify.default_grid(pre, ())


def test_verify_branch_full_pipeline():
    spec = harmonic(N=2)
    br = bae.enumerate_branches(spec)[0]
    rep = verify.verify_branch(spec, br)
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
        br = bae.BetheBranch(tuple(hermite_zeros(n)), 0.0, 0, "oracle")
        rep = verify.verify_branch(spec, br)
        assert rep.residual_max < 1e-7
        assert rep.node_count == n


def test_residual_check_matches_verify_branch():
    # type-1, exactly solvable, and a singular wall
    for name, N in (("sextic", 2), ("morse-es", 2), ("sextic-halfline", 1)):
        spec = catalog.instantiate(name, N=N)
        for br in bae.enumerate_branches(spec):
            rep = verify.verify_branch(spec, br, n_points=2001)
            got = verify.residual_check(spec, br, n_points=2001)
            assert got == (rep.residual_max, rep.residual_rms), (name, br)


def test_singularity_induced_model_certifies():
    # linear coordinate with a z^mu wall at the origin: Q(0) != 0 couples the
    # roots into the potential (singularity-induced QES); the state lives on
    # the half-line cut by the wall
    from qesf.model import Singularity
    spec = ModelSpec(Poly([1.0]), Poly([0.5, 1.0]), (Singularity(0.0, 0.3),), 1)
    branches = bae.enumerate_branches(spec)
    assert len(branches) == 2  # z^2 + 0.5 z - 0.3 = 0
    for br in branches:
        prof = potential.split_energy(spec, br)
        rep = verify.verify_branch(spec, br)
        assert rep.residual_max < 1e-6, br
        # nu = mu = 0.3 < 1/2: limit-circle wall, FD oracle stands down
        assert "limit-circle" in rep.spectrum_note
        assert rep.verdict, (br, rep.spectrum_matches)
    # root-dependent 1/z coefficient: the two branch potentials differ
    u_poles = []
    for br in branches:
        prof = potential.split_energy(spec, br)
        u_poles.append(sum(b.c1 for b in prof.U.boundary_poles
                           if abs(b.location) < 1e-12))
    assert abs(u_poles[0] - u_poles[1]) > 1e-6


def test_residual_arbitrates_quoted_trig_form():
    # The commonly quoted interval-family equations (constant -1 instead of
    # the residue-derived -(1 + 4 p1)) put the N=1 root at 1/2 instead of
    # 1/sqrt(2). Only the residue-derived root yields a certified eigenpair.
    spec = catalog.instantiate("trig-interval", N=1)
    cmap = coords.build(spec.Q, branch_sign=spec.branch_sign)
    pre = prepot.integrate_w0(spec, cmap)

    def forced_residual(root):
        br = bae.BetheBranch((root,), 0.0, 0, "forced")
        dv = potential.delta_v_pfe(spec, br)
        prof = potential.PotentialProfile(
            potential.v0_pfe(spec) + dv.without_constant().without_root_poles(),
            -dv.constant, br)
        grid = verify.default_grid(pre, br.roots, n_points=4001)
        rmax, _ = verify.schrodinger_residual(prof, br, cmap, pre, grid)
        return rmax

    assert forced_residual(1 / math.sqrt(2)) < 1e-6
    assert forced_residual(0.5) > 1e-4
