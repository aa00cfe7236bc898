import math

import numpy as np
import pytest

from qesf import bae, catalog, potential, prepot
from qesf.errors import ModelError
from qesf.model import ModelSpec, Singularity
from qesf.poly import Poly

import oracles


def harmonic(b=1.0, N=1):
    return ModelSpec(Poly([1.0]), Poly([0.0, b]), (), N)


def sextic(a=1.0, b=0.0, N=1):
    return ModelSpec(Poly([0.0, 4.0]), Poly([0.0, 2 * b, 2 * a]), (), N)


def test_v0_harmonic():
    b = 1.7
    pfe = potential.v0_pfe(harmonic(b=b))
    assert np.allclose(pfe.poly.coeffs, (-b, 0.0, b * b))
    assert pfe.boundary_poles == ()


def test_v0_sextic():
    a, b = 1.0, 0.5
    pfe = potential.v0_pfe(sextic(a=a, b=b))
    # in z = x^2: a^2 z^3 + 2ab z^2 + (b^2 - 3a) z - b
    assert np.allclose(pfe.poly.coeffs, (-b, b * b - 3 * a, 2 * a * b, a * a))
    assert pfe.boundary_poles == ()


def test_v0_morse():
    A, alpha, B = 5.0, 1.0, 2.0
    spec = catalog.instantiate("morse-es", N=1, A=A, alpha=alpha, B=B)
    pfe = potential.v0_pfe(spec)
    assert np.allclose(pfe.poly.coeffs, (A * A,))
    (pole,) = pfe.boundary_poles
    assert pole.location == 0.0
    assert pole.c1 == pytest.approx(-B * (2 * A + alpha))
    assert pole.c2 == pytest.approx(B * B)


def test_v0_halfline_centrifugal_coefficient():
    # 1/x^2 coefficient is 4p(p - 1/2); exactly zero at p = 1/2
    for p, want in ((0.3, 4 * 0.3 * (0.3 - 0.5)), (0.5, 0.0), (0.8, 4 * 0.8 * 0.3)):
        spec = catalog.instantiate("sextic-halfline", N=1, p=p)
        pfe = potential.v0_pfe(spec)
        c1 = sum(b.c1 for b in pfe.boundary_poles if b.location == 0.0)
        assert c1 == pytest.approx(want, abs=1e-15)
        if p == 0.5:
            assert c1 == 0.0  # exact


def test_v0_rejects_undeclared_interior_pole():
    # singularity coupling at a point inside the image where Q(a) != 0,
    # but declared -> allowed; removing the declaration must raise is not
    # possible (poles only arise from declared singularities or zeros of Q),
    # so check the irreducible-Q remainder guard instead
    spec = ModelSpec(Poly([1.0, 0.0, 1.0]), Poly([1.0, 2.0, 0.5]), (), 0)
    with pytest.raises(ModelError):
        potential.v0_pfe(spec)


def test_delta_v_harmonic_constant():
    b, N = 1.3, 3
    spec = harmonic(b=b, N=N)
    br = bae.enumerate_branches(spec)[0]
    dv = potential.delta_v_pfe(spec, br)
    assert np.allclose(dv.poly.coeffs, (-2 * b * N,))
    ok, worst = potential.check_residues(dv)
    assert ok and worst < 1e-10


def test_delta_v_morse_constant():
    A, alpha, N = 5.0, 1.0, 2
    spec = catalog.instantiate("morse-es", N=N, A=A, alpha=alpha, B=0.5)
    br = bae.enumerate_branches(spec)[0]
    dv = potential.delta_v_pfe(spec, br)
    assert np.allclose(dv.poly.coeffs, (alpha ** 2 * N ** 2 - 2 * alpha * A * N,))


def test_delta_v_sextic_linear_part():
    spec = sextic(N=1)
    zk = 1 / math.sqrt(2)
    br = bae.solve(spec, [0.6])
    dv = potential.delta_v_pfe(spec, br)
    # poly part: -2 (2 a z + 2 a z_k) = -4 z - 4 z_k for a=1, b=0
    assert dv.poly.coeff(1) == pytest.approx(-4.0, abs=1e-12)
    assert dv.poly.coeff(0) == pytest.approx(-4.0 * zk, abs=1e-10)


def test_check_residues_detects_perturbation():
    spec = harmonic(N=2)
    br = bae.enumerate_branches(spec)[0]
    dv_ok = potential.delta_v_pfe(spec, br)
    assert potential.check_residues(dv_ok)[0]
    bad_roots = tuple(np.asarray(br.roots) + np.array([1e-3, 0.0]))
    bad = bae.BetheBranch(bad_roots, 1.0, 0)
    dv_bad = potential.delta_v_pfe(spec, bad)
    ok, worst = potential.check_residues(dv_bad)
    assert not ok
    # linear response: d_k = -2 F_k, F ~ J * dz
    assert 1e-4 < worst < 1e-1


def test_check_residues_vacuous_for_n0():
    spec = harmonic(N=0)
    br = bae.enumerate_branches(spec)[0]
    dv = potential.delta_v_pfe(spec, br)
    ok, worst = potential.check_residues(dv)
    assert ok and worst == 0.0


def test_split_energy_harmonic():
    spec = harmonic(b=1.0, N=3)
    br = bae.enumerate_branches(spec)[0]
    prof = potential.split_energy(prepot.integrate_w0(spec), br)
    assert prof.energy == pytest.approx(6.0, abs=1e-12)
    assert np.allclose(prof.U.poly.coeffs, (-1.0, 0.0, 1.0))
    shift = catalog.reference_shift("harmonic", {"b": 1.0}, 3)
    assert prof.energy + shift == pytest.approx(7.0, abs=1e-12)


def test_split_energy_morse():
    spec = catalog.instantiate("morse-es", N=2, A=5.0, alpha=1.0, B=1.0)
    br = bae.enumerate_branches(spec)[0]
    prof = potential.split_energy(prepot.integrate_w0(spec), br)
    assert prof.energy == pytest.approx(25.0 - 9.0, abs=1e-10)


def test_split_energy_sextic_branches():
    spec = sextic(N=1)
    branches = bae.enumerate_branches(spec)
    pre = prepot.integrate_w0(spec)
    energies = sorted(potential.split_energy(pre, b).energy for b in branches)
    assert energies[0] == pytest.approx(-2 * math.sqrt(2), abs=1e-10)
    assert energies[1] == pytest.approx(+2 * math.sqrt(2), abs=1e-10)
    prof = potential.split_energy(pre, branches[0])
    # U = x^6 - (4N+3) x^2 in z-coordinates: z^3 - 7 z^... with z = x^2:
    # poly in z: (0, -7, 0, 1)
    assert np.allclose(prof.U.poly.coeffs, (0.0, -7.0, 0.0, 1.0), atol=1e-12)


def test_split_energy_requires_converged_branch():
    spec = harmonic(N=2)
    bad = bae.BetheBranch((0.3, 0.9), 0.5, 0)
    with pytest.raises(ValueError):
        potential.split_energy(prepot.integrate_w0(spec), bad)


def test_split_energy_matches_branch_energy_closed_form():
    for name, N in [("harmonic", 4), ("sextic", 2), ("morse-es", 3),
                    ("sextic-halfline", 2), ("trig-interval", 2), ("morse-p", 2)]:
        spec = catalog.instantiate(name, N=N)
        pre = prepot.integrate_w0(spec)
        for br in bae.enumerate_branches(spec):
            prof = potential.split_energy(pre, br)
            want = bae.branch_energy(spec, np.asarray(br.roots))
            assert prof.energy == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_type1_potential_identical_across_branches():
    spec = sextic(N=2)
    branches = bae.enumerate_branches(spec)
    assert len(branches) == 3
    pre = prepot.integrate_w0(spec)
    profs = [potential.split_energy(pre, b) for b in branches]
    base = profs[0].U
    for p in profs[1:]:
        n = max(len(base.poly.coeffs), len(p.U.poly.coeffs))
        for i in range(n):
            assert p.U.poly.coeff(i) == pytest.approx(base.poly.coeff(i), abs=1e-9)
        assert p.U.boundary_poles == base.boundary_poles


def test_type2_potential_differs_in_linear_term():
    spec = ModelSpec(Poly([1.0]), Poly([0.0, -1.0, 0.0, 1.0]), (), 1)  # a=1, b=-1
    branches = bae.enumerate_branches(spec)
    assert len(branches) == 3  # roots of z^3 - z: -1, 0, +1
    lin = {}
    pre = prepot.integrate_w0(spec)
    for br in branches:
        prof = potential.split_energy(pre, br)
        sum_roots = float(np.sum(np.asarray(br.roots)))
        # V0 has no linear term here, so U's linear coefficient is -2 a sum(x_k)
        assert prof.U.poly.coeff(1) == pytest.approx(-2 * sum_roots, abs=1e-9)
        lin[round(sum_roots, 6)] = prof.U.poly.coeff(1)
    assert len(set(round(v, 9) for v in lin.values())) == 3


def test_m1_n2_family_energy_formula():
    # m = 1, n = 2 family: E = N (2 p1 - q2 N)
    A, alpha = 5.0, 1.0
    for N in range(5):
        spec = catalog.instantiate("morse-es", N=N)
        br = bae.enumerate_branches(spec)[0]
        prof = potential.split_energy(prepot.integrate_w0(spec), br)
        p1 = spec.P.coeff(1)
        q2 = spec.Q.coeff(2)
        assert prof.energy == pytest.approx(N * (2 * p1 - q2 * N), abs=1e-12)


def test_identity_check():
    rng = np.random.default_rng(8)
    assert oracles.identity_check([1.0, 2.0])
    assert oracles.identity_check([0.5])  # vacuous
    for _ in range(20):
        n = rng.integers(2, 7)
        roots = np.sort(rng.uniform(-5, 5, n))
        while np.min(np.diff(roots)) < 0.05:
            roots = np.sort(rng.uniform(-5, 5, n))
        assert oracles.identity_check(roots)


def test_pfe_resummation_against_direct():
    rng = np.random.default_rng(77)
    for name, N in [("harmonic", 3), ("sextic", 2), ("morse-es", 2),
                    ("sextic-halfline", 1), ("trig-interval", 2), ("morse-p", 2)]:
        spec = catalog.instantiate(name, N=N)
        br = bae.enumerate_branches(spec)[0]
        v0 = potential.v0_pfe(spec)
        dv = potential.delta_v_pfe(spec, br)
        roots = np.asarray(br.roots)
        locs = [s.location for s in spec.singularities]
        checked = 0
        while checked < 50:
            z = rng.uniform(-6, 6)
            if abs(spec.Q(z)) < 0.05:
                continue
            if any(abs(z - v) < 0.2 for v in list(roots) + locs):
                continue
            checked += 1
            direct = oracles.v0_direct(spec, z) + oracles.delta_v_direct(spec, roots, z)
            got = v0(z) + dv(z)
            assert got == pytest.approx(direct, rel=1e-9, abs=1e-9)

def test_v0_of_a_small_scale_model_matches_the_direct_sum():
    # P = 1e-8 Q over Q = 1 + z^2: V0 = 1e-16 (1 + z^2) - 1e-8 z, which needs
    # P^2's top terms; a trim at an absolute 1e-14 drops them
    Q = Poly([1.0, 0.0, 1.0])
    spec = ModelSpec(Q, 1e-8 * Q, (), 1)
    z = np.linspace(-2.0, 2.0, 41)
    direct = oracles.v0_direct(spec, z)
    assert potential.v0_pfe(spec)(z) == pytest.approx(direct, rel=1e-12, abs=0.0)
