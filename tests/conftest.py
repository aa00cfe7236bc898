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
