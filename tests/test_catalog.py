import math

import numpy as np
import pytest

from qesf import bae, catalog, classify, cli, potential, verify
from qesf.errors import ModelError
from qesf.model import Singularity


def test_instantiate_harmonic():
    spec = catalog.instantiate("harmonic", N=2, b=1.0)
    assert spec.Q.coeffs == (1.0,)
    assert spec.P.coeffs == (0.0, 1.0)
    assert spec.singularities == ()


def test_instantiate_morse_es():
    spec = catalog.instantiate("morse-es", N=1, A=5.0, alpha=1.0, B=2.0)
    assert spec.Q.coeffs == (0.0, 0.0, 1.0)
    assert spec.P.coeffs == (-2.0, 5.0)


def test_instantiate_trig():
    spec = catalog.instantiate("trig-interval", N=1, a=1.0, p1=0.25, p2=0.25)
    assert spec.Q.coeffs == (0.0, 4.0, -4.0)
    assert spec.P.coeffs == (0.0, -4.0, 4.0)
    assert spec.singularities == (Singularity(0.0, 0.25), Singularity(1.0, 0.25))


def test_instantiate_morse_p_defaults_mu():
    spec = catalog.instantiate("morse-p", N=3)
    assert spec.singularities[0].exponent == -3.0
    assert spec.branch_sign == -1
    spec2 = catalog.instantiate("morse-p", N=3, mu=0.7)
    assert spec2.singularities[0].exponent == 0.7


def test_instantiate_rejects_bad_params():
    with pytest.raises(ModelError):
        catalog.instantiate("sextic", N=1, a=-1.0)
    with pytest.raises(ModelError):
        catalog.instantiate("harmonic", N=1, nope=2.0)
    with pytest.raises(ModelError):
        catalog.instantiate("does-not-exist", N=1)


def test_expected_energies():
    assert catalog.expected_energies("harmonic", {"b": 1.0}, 4) == [9.0]
    assert catalog.expected_energies("morse-es", {"A": 5.0, "alpha": 1.0}, 3) == [21.0]
    got = catalog.expected_energies("sextic", {"a": 1.0, "b": 0.0}, 1)
    assert np.allclose(sorted(got), [-2 * math.sqrt(2), 2 * math.sqrt(2)])
    assert catalog.expected_energies("sextic", None, 3) == catalog.ORACLE_REQUIRED
    assert catalog.expected_energies("trig-interval", None, 1) == catalog.ORACLE_REQUIRED


def test_catalog_census():
    assert len(catalog.names()) == 7


def test_every_entry_defaults_pass_full_pipeline():
    data = catalog.shipped_configs()
    assert list(data) == list(catalog.ENTRIES)
    for name, cfg in data.items():
        spec = catalog.instantiate(name, N=cfg["N"],
                                   branch_sign=cfg.get("branch"), **cfg["params"])
        assert spec.N == cfg["N"]
        classify(spec)
        branches = bae.enumerate_branches(spec)
        assert branches, name
        for br in branches:
            prof = potential.split_energy(spec, br)
            assert math.isfinite(prof.energy)
            rep = verify.verify_branch(spec, br, n_points=3001)
            assert rep.verdict, (name, rep.residual_max, rep.spectrum_matches)
            exp = catalog.expected_energies(name, cfg["params"], cfg["N"])
            if exp != catalog.ORACLE_REQUIRED:
                shift = catalog.reference_shift(name, cfg["params"], cfg["N"])
                assert any(abs(prof.energy + shift - e) < 1e-8 for e in exp), name


SHIPPED_CONFIG_LINES = {
    "harmonic": '{"catalog": "harmonic", "params": {"b": 1.0}, "N": 2, "branch": 1}',
    "sextic": '{"catalog": "sextic", "params": {"a": 1.0, "b": 0.0}, "N": 1, '
              '"branch": 1}',
    "sextic-type2": '{"catalog": "sextic-type2", "params": {"a": 1.0, "b": 0.0}, '
                    '"N": 1, "branch": 1}',
    "morse-es": '{"catalog": "morse-es", "params": {"A": 5.0, "alpha": 1.0, '
                '"B": 0.5}, "N": 2, "branch": 1}',
    "sextic-halfline": '{"catalog": "sextic-halfline", "params": {"a": 1.0, '
                       '"b": 0.0, "p": 0.3}, "N": 1, "branch": 1}',
    "morse-p": '{"catalog": "morse-p", "params": {"A": 5.0, "alpha": 1.0, '
               '"mu": null}, "N": 2, "branch": -1}',
    "trig-interval": '{"catalog": "trig-interval", "params": {"a": 1.0, '
                     '"p1": 0.25, "p2": 0.25}, "N": 1, "branch": 1}',
}


def test_shipped_configs_match_entries(capsys):
    # the `config:` line of `qesf catalog show`, pinned for every entry
    assert set(SHIPPED_CONFIG_LINES) == set(catalog.names())
    for name, line in SHIPPED_CONFIG_LINES.items():
        assert cli.main(["catalog", "show", name]) == 0
        out = capsys.readouterr().out
        assert f"config: {line}\n" in out, name
