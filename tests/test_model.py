import numpy as np
import pytest

from qesf import catalog
from qesf.errors import ModelError
from qesf.model import (EXACTLY_SOLVABLE, QES_SINGULAR, QES_TYPE1, QES_TYPE2,
                        ModelSpec, Singularity, classify, validate)
from qesf.poly import Poly
from qesf.prepot import integrate_w0, unbound_ends


def harmonic(b=1.0, N=2):
    return ModelSpec(Poly([1.0]), Poly([0.0, b]), (), N)


def sextic(a=1.0, b=0.0, N=1):
    return ModelSpec(Poly([0.0, 4.0]), Poly([0.0, 2 * b, 2 * a]), (), N)


def test_classify_examples():
    assert classify(harmonic()).tag == EXACTLY_SOLVABLE
    assert classify(sextic()).tag == QES_TYPE1
    type2 = ModelSpec(Poly([1.0]), Poly([0.0, 1.0, 0.0, 1.0]), (), 1)
    assert classify(type2).tag == QES_TYPE2
    class8 = ModelSpec(Poly([1.0]), Poly([0.5, 1.0]),
                       (Singularity(0.0, 0.3),), 1)
    assert classify(class8).tag == QES_SINGULAR
    # quadratic P: the wall pole still has the root-dependent weight
    # 2 mu Q(a) sum_k 1/(a - z_k)
    quad = ModelSpec(Poly([1.0]), Poly([0.0, 0.5, 1.0]), (Singularity(-0.1, 0.3),), 1)
    assert classify(quad).tag == QES_SINGULAR
    assert "Q(a) != 0 at a=-0.1" in classify(quad).rationale
    # a wall where Q vanishes leaves a type-1 model type-1, and cubic P is type-2
    assert classify(catalog.instantiate("sextic-halfline", N=2)).tag == QES_TYPE1
    cubic = ModelSpec(Poly([1.0]), Poly([0.0, 1.0, 0.0, 1.0]), (Singularity(0.1, 0.3),), 1)
    assert classify(cubic).tag == QES_TYPE2


def test_no_promotion_when_Q_vanishes_at_singularity():
    # radial-oscillator pattern: Q linear with a zero at the singularity
    spec = ModelSpec(Poly([0.0, 1.0]), Poly([0.0, 1.0]),
                     (Singularity(0.0, 1.5),), 2)
    assert classify(spec).tag == EXACTLY_SOLVABLE


def test_classify_rejects_invalid():
    with pytest.raises(ModelError):
        classify(ModelSpec(Poly([0.0]), Poly([0.0, 1.0]), (), 1))
    with pytest.raises(ModelError):
        classify(ModelSpec(Poly([1.0]), Poly([0, 0, 0, 0, 1.0]), (), 1))


def test_classify_scale_invariance():
    rng = np.random.default_rng(5)
    specs = [harmonic(), sextic(),
             ModelSpec(Poly([1.0]), Poly([0.0, 1.0, 0.0, 1.0]), (), 1),
             ModelSpec(Poly([1.0]), Poly([0.5, 1.0]), (Singularity(0.0, 0.3),), 1)]
    for spec in specs:
        base = classify(spec).tag
        for _ in range(10):
            lam = 10.0 ** rng.uniform(-3, 3)
            scaled = ModelSpec(spec.Q, lam * spec.P, spec.singularities, spec.N)
            assert classify(scaled).tag == base


def test_validate_advisories():
    assert any("square-integrable" in d.message
               for d in unbound_ends(integrate_w0(harmonic(b=-1.0))) if d.level == "warning")
    assert unbound_ends(integrate_w0(sextic(a=1.0))) == []
    dup = ModelSpec(Poly([1.0]), Poly([0.0, 1.0]),
                    (Singularity(0.5, 0.1), Singularity(0.5, 0.2)), 1)
    assert any(d.level == "error" for d in validate(dup))


def test_validate_negative_mu_warning():
    spec = ModelSpec(Poly([0.0, 0.0, 1.0]), Poly([0.0, -5.0, 0.5]),
                     (Singularity(0.0, -1.0),), 2, -1)
    msgs = [d.message for d in validate(spec) if d.level == "warning"]
    assert any("negative singularity exponent" in m for m in msgs)
    # the documented mu = -N case stays silent
    ok = ModelSpec(Poly([0.0, 0.0, 1.0]), Poly([0.0, -5.0, 0.5]),
                   (Singularity(0.0, -2.0),), 2, -1)
    assert not any("negative singularity exponent" in d.message for d in validate(ok))


@pytest.mark.parametrize("name,N,A,bound", [
    # defaults A = 5, alpha = 1: level N is bound iff A > N alpha
    ("morse-es", 4, 5.0, True), ("morse-es", 5, 5.0, False),
    ("morse-p", 4, 5.0, True), ("morse-p", 5, 5.0, False), ("morse-p", 6, 5.0, False),
    # just past the limit on either side
    ("morse-es", 5, 5.001, True), ("morse-p", 5, 5.001, True),
    ("morse-es", 5, 4.999, False), ("morse-p", 5, 4.999, False),
])
def test_validate_exponential_level_bound(name, N, A, bound):
    diags = unbound_ends(integrate_w0(catalog.instantiate(name, N=N, A=A)))
    warned = [d for d in diags if "is not bound" in d.message]
    assert bool(warned) != bound, diags
    assert all(d.level == "warning" for d in diags)
    assert classify(catalog.instantiate(name, N=N, A=A)).tag in (EXACTLY_SOLVABLE, QES_TYPE1)


def test_validate_exponential_level_bound_ends():
    # phi_N ~ z^(N - p1/q2) at z -> infinity for linear P (morse-es), and
    # ~ z^(mu - p1/q2) at z -> 0 for P without a constant term (morse-p)
    (es,) = unbound_ends(integrate_w0(catalog.instantiate("morse-es", N=6)))
    assert "z^1 as z -> infinity" in es.message
    (p,) = unbound_ends(integrate_w0(catalog.instantiate("morse-p", N=6)))
    assert "z^-1 as z -> 0" in p.message



@pytest.mark.parametrize("p0,warned", [(0.5, True), (0.0, False), (-0.5, False)])
def test_validate_exponential_p0_sign(p0, warned):
    # Q = z^2, P = p0 + 5 z: phi0 ~ exp(p0/z) z^-5 blows up as z -> 0 when p0 > 0
    spec = ModelSpec(Poly([0.0, 0.0, 1.0]), Poly([p0, 5.0]), (), 1)
    msgs = [d.message for d in unbound_ends(integrate_w0(spec)) if d.level == "warning"]
    assert any("exp(0.5/z) as z -> 0" in m for m in msgs) == warned, msgs


def test_validate_morse_presets_have_no_p0_warning():
    # morse-es has p0 = -alpha B < 0 and morse-p has p0 = 0
    for spec in (catalog.instantiate("morse-es", N=2), catalog.instantiate("morse-es", N=2, B=2.7),
                 catalog.instantiate("morse-p", N=2)):
        assert unbound_ends(integrate_w0(spec)) == [], spec
