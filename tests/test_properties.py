"""Property tests of the branch finder on random type-2 and
singularity-induced models."""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from qesf import bae, catalog
from qesf.model import ModelSpec, Singularity
from qesf.poly import Poly

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
