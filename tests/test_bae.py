import math

import numpy as np
import pytest

from qesf import bae, catalog, prepot, verify
from qesf.errors import CollisionError, ModelError
from qesf.model import ModelSpec, Singularity
from qesf.poly import Poly

from oracles import hermite_zeros, laguerre_zeros


def harmonic(b=1.0, N=1):
    return ModelSpec(Poly([1.0]), Poly([0.0, b]), (), N)


def sextic(a=1.0, b=0.0, N=1):
    return ModelSpec(Poly([0.0, 4.0]), Poly([0.0, 2 * b, 2 * a]), (), N)


def test_residual_examples():
    assert np.allclose(bae.residual(harmonic(N=1), [0.0]), [0.0])
    w = [-1 / math.sqrt(2), 1 / math.sqrt(2)]
    assert np.max(np.abs(bae.residual(harmonic(N=2), w))) < 1e-14
    assert np.max(np.abs(bae.residual(sextic(N=1), [1 / math.sqrt(2)]))) < 1e-14
    assert bae.residual(harmonic(N=0), []).size == 0
    assert np.array_equal(bae.residual(harmonic(N=2), [-1, 1]),
                          bae.residual(harmonic(N=2), [-1.0, 1.0]))


def test_residual_hermite_zeros_solve_harmonic():
    for n in range(1, 9):
        w = hermite_zeros(n)
        assert np.max(np.abs(bae.residual(harmonic(N=n), w))) < 1e-12


def test_residual_laguerre_zeros_solve_morse_p():
    A, alpha = 5.0, 1.0
    for n in (1, 2, 3, 4):
        spec = catalog.instantiate("morse-p", N=n)
        w = laguerre_zeros(n, 2 * A / alpha - 2 * n)
        assert np.max(np.abs(bae.residual(spec, w))) < 1e-10


def test_residual_collision_error():
    cases = [(harmonic(N=2), [0.5, 0.5 + 1e-12], "roots 0 and 1 collide"),
             # non-adjacent pair in unsorted input
             (harmonic(N=3), [0.5, 2.0, 0.5 + 1e-12], "roots 0 and 2 collide"),
             (harmonic(N=3), [2.0, 0.5 + 1j, 0.5 + 1j + 1e-12j], "roots 1 and 2 collide"),
             (catalog.instantiate("morse-p", N=1), [1e-12], "singularity at z = 0")]
    for spec, roots, msg in cases:
        for fn in (bae.residual, bae.jacobian):
            with pytest.raises(CollisionError, match=msg):
                fn(spec, roots)


def test_jacobian_against_finite_differences():
    rng = np.random.default_rng(19)
    specs = [harmonic(N=3), sextic(N=2), catalog.instantiate("morse-p", N=3),
             catalog.instantiate("trig-interval", N=2)]
    checked = 0
    while checked < 20:
        spec = specs[rng.integers(len(specs))]
        roots = np.sort(rng.uniform(0.5, 4.0, spec.N) * rng.choice([-1, 1], spec.N))
        if np.min(np.diff(np.sort(roots)), initial=np.inf) < 0.2:
            continue
        if any(abs(r - s.location) < 0.2 for r in roots for s in spec.singularities):
            continue
        checked += 1
        J = bae.jacobian(spec, roots)
        eps = 1e-6
        for j in range(spec.N):
            dp = roots.copy()
            dm = roots.copy()
            dp[j] += eps
            dm[j] -= eps
            col = (bae.residual(spec, dp) - bae.residual(spec, dm)) / (2 * eps)
            scale = np.maximum(1.0, np.abs(col))
            assert np.max(np.abs(J[:, j] - col) / scale) < 1e-6


def test_jacobian_diagonal_dominance_near_hermite_zeros():
    spec = harmonic(b=1.0, N=3)
    J = bae.jacobian(spec, hermite_zeros(3))
    for k in range(3):
        off = sum(abs(J[k, j]) for j in range(3) if j != k)
        assert abs(J[k, k]) > off


def test_jacobian_offdiagonal_closed_form():
    spec = sextic(N=3)
    roots = np.array([-1.4, 0.3, 2.0])
    J = bae.jacobian(spec, roots)
    for k in range(3):
        for j in range(3):
            if k != j:
                want = -spec.Q(roots[k]) / (roots[k] - roots[j]) ** 2
                assert J[k, j] == pytest.approx(want, rel=1e-14)


def test_solve_harmonic_from_perturbed_hermite():
    spec = harmonic(N=4)
    w = hermite_zeros(4)
    rng = np.random.default_rng(4)
    init = w + rng.uniform(-0.05, 0.05, 4)
    br = bae.solve(spec, init)
    assert br.newton_iters <= 6
    assert np.max(np.abs(np.asarray(br.roots) - w)) < 1e-9


def test_solve_sextic_from_one():
    br = bae.solve(sextic(N=1), [1.0])
    assert br.roots[0] == pytest.approx(1 / math.sqrt(2), abs=1e-12)


def test_solve_rejects_duplicate_init():
    with pytest.raises(CollisionError):
        bae.solve(harmonic(N=2), [0.3, 0.3])


def test_solve_rejects_complex_starts():
    # Newton runs in real arithmetic only: a complex start is an input error,
    # even one whose imaginary parts are all 0
    spec = harmonic(N=2)
    for start in ([-0.7 + 0.1j, 0.7], [-0.7 + 0j, 0.7 + 0j]):
        with pytest.raises(ValueError, match="real"):
            bae.solve(spec, start)
        with pytest.raises(ValueError, match="real"):
            bae.solve_many(spec, [start, [-0.7, 0.7]])


def test_enumerate_sextic_branches():
    specs = {1: 2, 2: 3, 3: 4}
    for N, want in specs.items():
        branches = bae.enumerate_branches(sextic(N=N))
        assert len(branches) == want
        es = [bae.branch_energy(sextic(N=N), np.asarray(b.roots)) for b in branches]
        assert all(np.isreal(e) for e in es)
        assert es == sorted(es)
    b1 = bae.enumerate_branches(sextic(N=1))
    r = sorted(br.roots[0] for br in b1)
    assert r[0] == pytest.approx(-1 / math.sqrt(2), abs=1e-10)
    assert r[1] == pytest.approx(+1 / math.sqrt(2), abs=1e-10)


def test_enumerate_harmonic_unique_branch():
    branches = bae.enumerate_branches(harmonic(N=3))
    assert len(branches) == 1
    assert np.allclose(branches[0].roots, hermite_zeros(3), atol=1e-10)


def test_enumerate_n0():
    branches = bae.enumerate_branches(harmonic(N=0))
    assert len(branches) == 1
    assert branches[0].roots == ()
    assert branches[0].residual_norm == 0.0


def test_harmonic_rescaling_property():
    b = 2.3
    for n in range(1, 11):
        branches = bae.enumerate_branches(harmonic(b=b, N=n))
        assert len(branches) == 1
        got = np.asarray(branches[0].roots) * math.sqrt(b)
        assert np.max(np.abs(got - hermite_zeros(n))) < 1e-9


def test_morse_p_roots_match_laguerre():
    A, alpha = 5.0, 1.0
    for n in (1, 2, 3, 4):
        spec = catalog.instantiate("morse-p", N=n)
        branches = bae.enumerate_branches(spec)
        assert len(branches) == 1
        want = laguerre_zeros(n, 2 * A / alpha - 2 * n)
        assert np.max(np.abs(np.asarray(branches[0].roots) - want)) < 1e-9


def test_reciprocal_map_equivalence():
    # morse-es roots z_k -> 1/z_k solve the morse-p equations with mu = -N
    for n in (1, 2, 3, 4):
        es = catalog.instantiate("morse-es", N=n)  # default B = alpha/2
        branches = bae.enumerate_branches(es)
        assert len(branches) == 1
        mapped = np.sort(1.0 / np.asarray(branches[0].roots))
        mp = catalog.instantiate("morse-p", N=n)
        assert np.max(np.abs(bae.residual(mp, mapped))) < 1e-9


def test_branch_energy_formula():
    # sextic N=1: E = 4 a sum(z_k) (b = 0)
    e = bae.branch_energy(sextic(N=1), [1 / math.sqrt(2)])
    assert e == pytest.approx(2 * math.sqrt(2), abs=1e-14)
    # morse-es: E = 2 alpha A N - alpha^2 N^2 independent of roots
    spec = catalog.instantiate("morse-es", N=3)
    e = bae.branch_energy(spec, [0.1, 0.2, 0.4])
    assert e == pytest.approx(2 * 5 * 3 - 9, abs=1e-12)


def test_bae_comparison_tables():
    # no singularities: quoted form and residue form agree
    cmp = bae.bae_comparison(catalog.instantiate("morse-es", N=2))
    assert cmp["diff"] == {}
    # q0 != 0 with singularity at 0: quoted form differs by 2 mu q0 / z
    spec = ModelSpec(Poly([1.0]), Poly([0.5, 1.0]), (Singularity(0.0, 0.3),), 1)
    cmp = bae.bae_comparison(spec)
    assert cmp["diff"] == pytest.approx({"pole@0": 2 * 0.3 * 1.0})
    # trigonometric family: quoted constant omits the -4 p1 piece
    cmp = bae.bae_comparison(catalog.instantiate("trig-interval", N=1))
    assert cmp["diff"] == pytest.approx({"1": 4 * 0.25})


def test_harmonic_residue_terms_match_quoted_form():
    spec = harmonic(b=1.0, N=3)
    terms = bae.residue_bae_terms(spec)
    assert terms == {"z^1": 1.0, "1": 0.0}


def singular(N, c0=-0.143939, a=0.135345, mu=0.341415):
    # one wall where Q = 1 does not vanish (a vetted benchmark config)
    return ModelSpec(Poly([1.0]), Poly([c0, 1.0]), (Singularity(a, mu),), N)


def type2(N, a=1.0, b=-3.0):
    return catalog.instantiate("sextic-type2", N=N, a=a, b=b)


# (spec, k): k = max(deg A - 2, deg B - 1, 1) free parameters of the eigenproblem
SHAPES = [
    (catalog.instantiate("harmonic", N=2), 1),
    (catalog.instantiate("morse-p", N=2), 1),
    (catalog.instantiate("sextic", N=2), 1),
    (catalog.instantiate("trig-interval", N=2), 1),
    (singular(2), 1),
    (type2(2), 2),
    # two walls where Q does not vanish
    (ModelSpec(Poly([1.0]), Poly([0.1, 1.0]),
               (Singularity(-0.2, 0.3), Singularity(0.3, 0.2)), 2), 2),
    # type-2 with a wall where Q does not vanish
    (ModelSpec(Poly([1.0]), Poly([0.0, -3.0, 0.0, 1.0]), (Singularity(0.1, 0.3),), 2), 3),
]


@pytest.fixture
def polished_rows(monkeypatch):
    """The row count of every bae.solve_many call made through the module:
    one Newton polish per row."""
    rows = []
    real_solve_many = bae.solve_many

    def counted(spec, inits, **kwargs):
        rows.append(len(inits))
        return real_solve_many(spec, inits, **kwargs)

    monkeypatch.setattr(bae, "solve_many", counted)
    return rows


def test_finder_chosen_by_shape(polished_rows):
    # one eigenproblem for every class: its parameter count k follows from
    # the shape, and only its eigen-solutions are polished
    for spec, k in SHAPES:
        M0, _ = bae._heine_matrix(spec)
        assert M0.shape == (spec.N + k, spec.N + 1), spec
        polished_rows.clear()
        branches = bae.enumerate_branches(spec)
        assert branches, spec
        assert 0 < sum(polished_rows) <= math.comb(spec.N + k, k), spec


def test_matrix_path_one_solve_per_branch(polished_rows):
    for spec, want in ((catalog.instantiate("sextic", N=8), 9),
                       (catalog.instantiate("sextic-halfline", N=5), 6),
                       (catalog.instantiate("trig-interval", N=6), 7),
                       (singular(6), 7), (type2(4), 5)):
        polished_rows.clear()
        branches = bae.enumerate_branches(spec)
        assert len(branches) == want, spec
        assert sum(polished_rows) == want, spec


def test_singular_models_have_n_plus_1_certified_branches():
    # multi-start found 7 of 9 at N = 8 and missed one from N = 6
    for N in range(1, 9):
        spec = singular(N)
        branches = bae.enumerate_branches(spec)
        assert len(branches) == N + 1, N
        assert all(br.is_real for br in branches)
        reports = verify.verify_branches(prepot.integrate_w0(spec), branches)
        assert all(rep.verdict for rep in reports), N


@pytest.mark.xfail(strict=True, reason="ROADMAP item 14: the k = 2 eigenproblem loses "
                   "two-wall branches from N = 7; it finds 35 of these 36")
def test_two_wall_model_at_n7_finds_every_branch():
    spec = ModelSpec(Poly([1.0]), Poly([0.0, 1.0]),
                     (Singularity(-0.1, 0.05), Singularity(0.1, 0.45)), 7)
    assert len(bae.enumerate_branches(spec)) == math.comb(7 + 2, 2)


def test_type2_branch_counts():
    # real branches at a = 1, b = -3
    for N, real in zip(range(1, 5), (3, 5, 3, 5)):
        assert len(bae.enumerate_branches(type2(N))) == real, N
    # b = 1: of z^3 + z = 0 only the root z = 0 is real (z = +-i is no branch)
    (br,) = bae.enumerate_branches(ModelSpec(Poly([1.0]), Poly([0.0, 1.0, 0.0, 1.0]), (), 1))
    assert abs(br.roots[0]) < 1e-10


def test_delta0_depends_only_on_the_shape_and_is_well_conditioned():
    # Delta_0 comes from the fixed compressions alone, so
    # _rank_deficient's Delta_0^-1 has one condition number per (N, k)
    rng = np.random.default_rng(3)
    for k in range(2, 7):
        shapes = [N for N in range(1, bae.MAX_ORDER) if (N + 1) ** k <= bae.MAX_ORDER]
        assert shapes, k
        for N in shapes:
            D0, _ = bae._delta_operators(rng.standard_normal((N + k, N + 1)))
            other, _ = bae._delta_operators(rng.standard_normal((N + k, N + 1)))
            assert np.array_equal(D0, other), (N, k)
            assert np.linalg.cond(D0) < 1e6, (N, k)


def test_size_cap_names_the_largest_n():
    for spec, largest in ((type2(1), 10), (SHAPES[-1][0], 3), (singular(1), 120)):
        big = ModelSpec(spec.Q, spec.P, spec.singularities, largest + 1)
        with pytest.raises(ModelError, match=f"N <= {largest}"):
            bae.enumerate_branches(big)


def test_a_scale_past_the_float_range_is_a_model_error():
    # P = 3e-251 over Q = 1 balances the bands at s ~ 1.7e250, whose square
    # overflows: invalid input, not an OverflowError from the solver
    spec = ModelSpec(Poly([1.0]), Poly([3e-251]), (), 2)
    with pytest.raises(ModelError, match="basis scale s = 1.67e\\+250 overflows"):
        bae.enumerate_branches(spec)


def test_heine_matrix_eigenvalues_are_branch_energies():
    # L y = -E y: the N+1 eigenvalues are minus the N+1 branch energies
    for name, N in (("sextic", 6), ("sextic-halfline", 5), ("trig-interval", 4)):
        spec = catalog.instantiate(name, N=N)
        L, _ = bae._heine_matrix(spec)
        lam = np.linalg.eigvals(L)
        assert np.all(lam.imag == 0.0)
        energies = [bae.branch_energy(spec, br.roots) for br in bae.enumerate_branches(spec)]
        assert np.allclose(energies, np.sort(-lam.real), rtol=1e-10, atol=1e-10), name


def test_degenerate_levels_give_no_branch():
    # morse-es at A = 5, alpha = 1: the triangular matrix has diagonal
    # n (n - 10), so d_6 = d_4 = -24 is a defective eigenvalue and no
    # degree-6 polynomial solution exists (multi-start used to report
    # spurious branches with a root pair near +-1e8)
    assert bae.enumerate_branches(catalog.instantiate("morse-es", N=6)) == []
    # morse-p N = 6: the only polynomial solution is z^2 L_4^(2), whose
    # double root sits on the z = 0 wall
    assert bae.enumerate_branches(catalog.instantiate("morse-p", N=6)) == []
    # one step inside the bound-state limit the single branch is there
    for name in ("morse-es", "morse-p"):
        assert len(bae.enumerate_branches(catalog.instantiate(name, N=4))) == 1


def test_a_one_ulp_energy_move_keeps_the_branch_order(monkeypatch):
    # the symmetric type-2 sextic's mirror branches have energies equal but
    # for rounding; they are ordered by their roots, so moving any branch's
    # E by one ulp either way (as rounding-level moves of the Newton starts
    # do) swaps no two of them
    real = bae.branch_energy
    for N in (2, 4):
        spec = catalog.instantiate("sextic-type2", N=N, a=1.0, b=-3.0)
        order = [br.roots for br in bae.enumerate_branches(spec)]
        for target in order:
            for way in (-math.inf, math.inf):
                def moved(spec_, roots, target=target, way=way):
                    e = real(spec_, roots)
                    return math.nextafter(e, way) if tuple(roots) == target else e

                monkeypatch.setattr(bae, "branch_energy", moved)
                assert [br.roots for br in bae.enumerate_branches(spec)] == order, (N, target)
