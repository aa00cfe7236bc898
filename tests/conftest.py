import os
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture(autouse=True)
def _subprocess_pythonpath(monkeypatch):
    """Let `python -m qesf.cli` subprocesses import qesf from this checkout,
    as pytest itself does through `pythonpath` in pyproject.toml."""
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))


@pytest.fixture
def fd_spectrum_grids(monkeypatch):
    """The grid of every verify.fd_spectrum call made through the module."""
    from qesf import verify
    grids = []
    real = verify.fd_spectrum

    def counted(profile, cmap, grid, *args, **kwargs):
        grids.append(grid)
        return real(profile, cmap, grid, *args, **kwargs)

    monkeypatch.setattr(verify, "fd_spectrum", counted)
    return grids


@pytest.fixture
def fd_levels(monkeypatch):
    """(matrix, index, level) of every level computed by a
    verify.tridiag_levels call made through the module, in call order."""
    from qesf import verify
    levels = []
    real = verify.tridiag_levels

    def recorded(t, wanted):
        out = real(t, wanted)
        levels.extend((t, index, level) for (index, _), level in zip(wanted, out))
        return out

    monkeypatch.setattr(verify, "tridiag_levels", recorded)
    return levels


@pytest.fixture
def bisections(monkeypatch):
    """Name of every bisecting call, in call order: dstebz of scipy's LAPACK
    extension, the object poly calls it through, and poly's Gershgorin
    bisection tridiag_eigenvalues."""
    from qesf import poly
    calls = []
    for module, attr in ((poly._lapack(), "dstebz"), (poly, "tridiag_eigenvalues")):
        def call(*args, _real=getattr(module, attr), _attr=attr):
            calls.append(_attr)
            return _real(*args)

        monkeypatch.setattr(module, attr, call)
    return calls


@pytest.fixture
def factorizations(monkeypatch):
    """Order n of every dgttrf call of scipy's LAPACK extension, the LU
    factorization of T - s I that poly reads a Sturm count from, in call
    order."""
    from qesf import poly
    lapack = poly._lapack()
    calls = []
    real = lapack.dgttrf

    def factor(dl, d, du, *args):
        calls.append(len(d))
        return real(dl, d, du, *args)

    monkeypatch.setattr(lapack, "dgttrf", factor)
    return calls
