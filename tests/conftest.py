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
    """(grid, n) of every verify.fd_spectrum call made through the module."""
    from qesf import verify
    grids = []
    real = verify.fd_spectrum

    def counted(profile, cmap, grid, levels, n):
        grids.append((grid, n))
        return real(profile, cmap, grid, levels, n)

    monkeypatch.setattr(verify, "fd_spectrum", counted)
    return grids


@pytest.fixture
def dvr_spectra(monkeypatch):
    """(box, mirror) of every verify.dvr_spectrum call made through the
    module."""
    from qesf import verify
    calls = []
    real = verify.dvr_spectrum

    def counted(profile, cmap, box, levels, mirror=None):
        calls.append((box, mirror))
        return real(profile, cmap, box, levels, mirror)

    monkeypatch.setattr(verify, "dvr_spectrum", counted)
    return calls


@pytest.fixture
def wall_spectra(monkeypatch):
    """(box, walls, mirror) of every verify.wall_spectrum call made through
    the module."""
    from qesf import verify
    calls = []
    real = verify.wall_spectrum

    def counted(profile, cmap, Q, box, walls, levels, mirror=None):
        calls.append((box, walls, mirror))
        return real(profile, cmap, Q, box, walls, levels, mirror)

    monkeypatch.setattr(verify, "wall_spectrum", counted)
    return calls


@pytest.fixture
def fd_levels(monkeypatch):
    """(matrix, index, level) of every level computed by a
    verify.tridiag_eigenvalues call made through the module, every index
    of each call's range, in call order."""
    from qesf import verify
    levels = []
    real = verify.tridiag_eigenvalues

    def recorded(t, index_range):
        out = real(t, index_range)
        levels.extend((t, k, float(level)) for k, level in enumerate(out, index_range[0]))
        return out

    monkeypatch.setattr(verify, "tridiag_eigenvalues", recorded)
    return levels
