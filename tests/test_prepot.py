import math

import numpy as np
import pytest

from qesf import bae, catalog, coords, model, prepot, verify
from qesf.errors import ModelError
from qesf.model import ModelSpec, Singularity
from qesf.poly import Poly

import oracles
from oracles import dw0_dz, dz_dx, w0_of_z


def harmonic(b=1.0, N=1):
    return ModelSpec(Poly([1.0]), Poly([0.0, b]), (), N)


def sextic(a=1.0, b=0.0, N=1):
    return ModelSpec(Poly([0.0, 4.0]), Poly([0.0, 2 * b, 2 * a]), (), N)


def morse_es(A=5.0, alpha=1.0, B=0.5, N=2):
    return ModelSpec(Poly([0.0, 0.0, alpha ** 2]), Poly([-alpha * B, alpha * A]), (), N)


def morse_p(A=5.0, alpha=1.0, N=2, mu=None):
    mu = -float(N) if mu is None else mu
    return ModelSpec(Poly([0.0, 0.0, alpha ** 2]),
                     Poly([0.0, -alpha * A, alpha ** 2 / 2]),
                     (Singularity(0.0, mu),), N, -1)


def test_w0_harmonic():
    pre = prepot.integrate_w0(harmonic(b=1.5))
    assert np.allclose(pre.poly_part.coeffs, (0.0, 0.0, 0.75))
    assert pre.log_terms == () and pre.pole_terms == ()


def test_w0_sextic():
    a, b = 1.3, 0.4
    pre = prepot.integrate_w0(sextic(a=a, b=b))
    # W0(z) = a z^2/4 + b z/2, i.e. a x^4/4 + b x^2/2
    assert np.allclose(pre.poly_part.coeffs, (0.0, b / 2, a / 4))
    x = 1.234
    assert w0_of_z(pre, x ** 2) == pytest.approx(a * x ** 4 / 4 + b * x ** 2 / 2)


def test_w0_morse():
    A, alpha, B = 5.0, 1.0, 0.5
    pre = prepot.integrate_w0(morse_es(A, alpha, B))
    for x in (-1.0, 0.0, 2.5):
        z = math.exp(alpha * x)
        want = A * x + (B / alpha) * math.exp(-alpha * x)
        assert w0_of_z(pre, z) == pytest.approx(want, abs=1e-12)


def test_w0_derivative_matches_P_over_Q():
    rng = np.random.default_rng(23)
    specs = [harmonic(), sextic(), morse_es(), morse_p(),
             ModelSpec(Poly([0.0, 4.0, -4.0]), Poly([0.0, -4.0, 4.0]),
                       (Singularity(0.0, 0.25), Singularity(1.0, 0.25)), 1),
             ModelSpec(Poly([1.0, 0.0, 1.0]), Poly([0.5, -1.0, 0.5]), (), 1)]
    for spec in specs:
        pre = prepot.integrate_w0(spec)
        lo, hi = pre.cmap.z_image
        lo, hi = max(lo, -6.0), min(hi, 6.0)
        count = 0
        while count < 100:
            z = rng.uniform(lo + 1e-3, hi - 1e-3)
            if abs(spec.Q(z)) < 1e-3:
                continue
            count += 1
            want = spec.P(z) / spec.Q(z)
            assert dw0_dz(pre, z) == pytest.approx(want, rel=1e-10, abs=1e-10)


def wn(pre, roots, x):
    """W_N = -ln|phi_N|."""
    return -prepot.phi_log_sign(pre, roots, x)[0]


def test_wn_value_examples():
    pre = prepot.integrate_w0(harmonic(b=1.0, N=1))
    # W0 = x^2/2; root at 0: W_1(2) = 2 - ln 2
    assert wn(pre, [0.0], 2.0) == pytest.approx(2 - math.log(2))
    pre0 = prepot.integrate_w0(harmonic(b=1.0, N=0))
    assert wn(pre0, [], 2.0) == pytest.approx(2.0)
    # Morse with mu = -N: W_N = Ax + (B/a) e^(-ax) + N ln z - sum ln|z - z_k|
    A, alpha, N = 5.0, 1.0, 2
    prep = prepot.integrate_w0(morse_p(A, alpha, N))
    roots = [5.171572875253808, 10.828427124746192]
    x = 0.7
    z = math.exp(-alpha * x)
    want = (A * x + 0.5 * math.exp(-alpha * x) + N * math.log(z)
            - sum(math.log(abs(z - zk)) for zk in roots))
    assert wn(prep, roots, x) == pytest.approx(want, abs=1e-12)


def test_wn_pole_is_a_node():
    # W_N's log pole at a root is a zero of phi: no error, sign 0
    pre = prepot.integrate_w0(harmonic(N=1))
    assert prepot.phi_log_sign(pre, [2.0], 2.0) == (-math.inf, 0.0)


def test_phi_value_examples():
    pre = prepot.integrate_w0(harmonic(b=1.0, N=0))
    lm, sg = prepot.phi_log_sign(pre, [], 0.0)
    assert lm == pytest.approx(0.0) and sg == 1.0
    # harmonic N=1, root 0: phi ~ x exp(-x^2/2), sign flips at 0
    pre1 = prepot.integrate_w0(harmonic(b=1.0, N=1))
    lm_m, sg_m = prepot.phi_log_sign(pre1, [0.0], -0.5)
    lm_p, sg_p = prepot.phi_log_sign(pre1, [0.0], 0.5)
    assert sg_m == -1.0 and sg_p == 1.0
    assert lm_p == pytest.approx(math.log(0.5) - 0.125)
    # sextic N=1, root 1/sqrt(2): phi ~ (x^2 - 1/sqrt2) exp(-x^4/4)
    pre2 = prepot.integrate_w0(sextic(N=1))
    zk = 1 / math.sqrt(2)
    x = 1.1
    lm, sg = prepot.phi_log_sign(pre2, [zk], x)
    want = (x * x - zk) * math.exp(-x ** 4 / 4)
    assert sg * math.exp(lm) == pytest.approx(want, rel=1e-12)


def test_an_exact_root_hit_in_a_batched_setup_is_a_node():
    # sextic-type2 N = 1, b = -1: the roots are 0 and +-1, and the grid of
    # the branch at z = 0 runs through x = 0, where the product of its
    # chunk is 0; redone root by root it is a node, as per-root logs give
    spec = catalog.instantiate("sextic-type2", N=1, a=1.0, b=-1.0)
    pre = prepot.integrate_w0(spec)
    branches = bae.enumerate_branches(spec)
    setups = verify.branch_setups(pre, branches, n_points=2001)
    (hit,) = [i for i, br in enumerate(branches) if br.roots == (0.0,)]
    _, grid, (logphi, sign) = setups[hit]
    (node,) = np.flatnonzero(grid.points == 0.0)
    assert (logphi[node], sign[node]) == (-math.inf, 0.0)
    roots = np.array([br.roots for br in branches])
    points = np.array([g.points for _, g, _ in setups])
    want = oracles.phi_log_sign(pre, roots, points)
    got = prepot.phi_log_sign(pre, roots, points)
    assert np.array_equal(got[1], want[1])
    assert np.array_equal(got[0], want[0])  # one root: the same single log


def test_phi_redoes_chunk_products_that_overflow_or_underflow():
    # sextic N = 16 far out on a truncation ladder: each of a chunk's eight
    # factors z - z_k is ~1e60, so their product overflows; the chunk is
    # redone root by root, within rounding of the per-root log sum
    spec = catalog.instantiate("sextic", N=16)
    pre = prepot.integrate_w0(spec)
    roots = np.array([br.roots for br in bae.enumerate_branches(spec)])
    x = np.outer(np.ones(len(roots)), [-1e30, -3.0, 2.5, 1e20, 1e30, 1e38])
    z = pre.cmap.z_of_x(x[0])  # finite: 1e76 at most
    with np.errstate(over="ignore"):
        products = np.prod(np.subtract.outer(z, roots[0][:8]), axis=1)
    assert not np.all(np.isfinite(products))
    logphi, sign = prepot.phi_log_sign(pre, roots, x)
    logphi_w, sign_w = oracles.phi_log_sign(pre, roots, x)
    assert np.array_equal(sign, sign_w)
    assert np.all(np.isfinite(logphi))
    assert np.all(np.abs(logphi - logphi_w) <= 1e-12 * np.maximum(1.0, np.abs(logphi_w)))
    # and one whose product underflows: eight roots within 1e-49 of z = 0
    tiny = np.arange(1, 9) * 1e-50
    logphi, sign = prepot.phi_log_sign(pre, tiny, 0.0)
    assert math.isfinite(logphi) and sign == 1.0
    assert logphi == pytest.approx(oracles.phi_log_sign(pre, tiny, 0.0)[0], rel=1e-12)


def test_phi_log_space_handles_underflow():
    pre = prepot.integrate_w0(sextic(N=0))
    lm, sg = prepot.phi_log_sign(pre, [], 60.0)
    # exp(-60^4/4) underflows; the log form stays finite
    assert math.isfinite(lm) and lm < -3e6
    assert sg == 1.0


def test_phi_at_a_w0_log_term_on_a_singularity():
    # W0 = -z - 0.1 ln z + 0.1 ln|1 - z| and mu at z = 0: phi ~ z^(mu + 0.1),
    # so phi at z = 0 is 0, inf or (mu = -0.1) finite; never inf - inf
    for mu, want in ((0.3, -math.inf), (-0.3, math.inf), (-0.1, 0.0)):
        spec = ModelSpec(Poly([0.0, 4.0, -4.0]), Poly([-0.4, -4.0, 4.0]),
                         (Singularity(0.0, mu), Singularity(1.0, 0.3)), 0)
        pre = prepot.integrate_w0(spec)
        lo, hi = pre.cmap.x_domain
        lm, _ = prepot.phi_log_sign(pre, [], np.array([lo, hi]))
        assert lm[0] == want
        assert lm[1] == -math.inf  # |z - 1|^(0.3 - 0.1)


def test_phi_sign_changes_at_in_image_roots():
    pre = prepot.integrate_w0(sextic(N=1))
    xs = np.linspace(-2, 2, 801)
    _, sg = prepot.phi_log_sign(pre, [1 / math.sqrt(2)], xs)
    flips = np.sum(sg[:-1] * sg[1:] < 0)
    assert flips == 2  # two preimages of the positive root
    _, sg = prepot.phi_log_sign(pre, [-1 / math.sqrt(2)], xs)
    assert np.sum(sg[:-1] * sg[1:] < 0) == 0  # negative root has no preimage


def test_wn_fd_derivative_matches_analytic():
    # W_N' = P(z)/z' - sum_j mu_j z'/(z-a_j) - sum_k z'/(z-z_k)
    rng = np.random.default_rng(31)
    cases = [
        (harmonic(N=2), [-1 / math.sqrt(2), 1 / math.sqrt(2)]),
        (sextic(N=1), [1 / math.sqrt(2)]),
        (morse_p(N=2), [5.171572875253808, 10.828427124746192]),
    ]
    for spec, roots in cases:
        pre = prepot.integrate_w0(spec)
        cmap = pre.cmap
        checked = 0
        while checked < 25:
            x = rng.uniform(0.3, 2.2)
            z = cmap.z_of_x(x)
            zp = dz_dx(cmap, x)
            if abs(zp) < 1e-2:
                continue
            if any(abs(z - zk) < 0.1 for zk in roots):
                continue
            if any(abs(z - s.location) < 0.1 for s in spec.singularities):
                continue
            checked += 1
            h = 1e-5
            fd = (wn(pre, roots, x + h)
                  - wn(pre, roots, x - h)) / (2 * h)
            want = spec.P(z) / zp
            for s in spec.singularities:
                want -= s.exponent * zp / (z - s.location)
            for zk in roots:
                want -= zp / (z - zk)
            assert fd == pytest.approx(want, rel=1e-6, abs=1e-6)


def test_irreducible_Q_gets_a_quad_log_term():
    # Q = 1 + z^2, P = Q/2 - Q'/2: W0 = z/2 - ln(1 + z^2)/2
    spec = ModelSpec(Poly([1.0, 0.0, 1.0]), Poly([0.5, -1.0, 0.5]), (), 0)
    pre = prepot.integrate_w0(spec)
    assert pre.quad_log_terms == (prepot.QuadLogTerm(0.0, 1.0, -0.5),)
    rng = np.random.default_rng(2)
    for z in rng.uniform(-4, 4, 50):
        assert dw0_dz(pre, z) == pytest.approx(spec.P(z) / spec.Q(z), rel=1e-10)


@pytest.mark.parametrize("Q,a,preimages", [
    ([0.0, 4.0], 1.0, [-1.0, 1.0]),  # parabolic z = x^2
    ([-1.0, 0.0, 1.0], 2.0, [-math.acosh(2.0), math.acosh(2.0)]),  # cosh
    ([0.0, 4.0, -4.0], 0.5, [math.pi / 4]),  # trigonometric: mirror outside (0, pi/2)
    ([1.0], 0.5, [0.5]),  # linear: one preimage
], ids=["parabolic", "cosh", "trigonometric", "linear"])
def test_walls_cut_every_x_preimage_in_the_domain(Q, a, preimages):
    # Q(a) != 0, so nu = mu = 0.3 at each preimage
    spec = ModelSpec(Poly(Q), Poly([0.0, 1.0]), (Singularity(a, 0.3),), 1)
    walls = prepot.integrate_w0(spec).walls
    assert [x for x, nu in walls.items() if nu == 0.3] == pytest.approx(preimages)


@pytest.mark.parametrize("spec", [
    ModelSpec(Poly([1.0]), Poly([0.0, 0.0, 0.0, 0.0, 1.0]), (), 1),
    ModelSpec(Poly([1.0]), Poly([0.5, 1.0]),
              (Singularity(-1.0, 0.3), Singularity(0.0, 0.3), Singularity(1.0, 0.3)), 1),
    ModelSpec(Poly([1.0]), Poly([0.0, 1.0]), (), -1),
    ModelSpec(Poly([1.0]), Poly([float("nan"), 1.0]), (), 1),
    ModelSpec(Poly([1.0]), Poly([0.5, 1.0]), (Singularity(0.2, 0.3), Singularity(0.2, 0.4)), 1),
], ids=["deg-P-4", "three-singularities", "negative-N", "nan-in-P", "coincident"])
def test_integrate_w0_raises_every_structural_error(spec):
    # the model is built only after model.validate's structural check
    messages = [d.message for d in model.validate(spec) if d.level == "error"]
    assert messages
    with pytest.raises(ModelError) as info:
        prepot.integrate_w0(spec)
    assert str(info.value) == "invalid model: " + "; ".join(messages)
