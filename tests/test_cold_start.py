"""Cold start: qesf loads scipy only for verify's FD level finder, and
then only scipy's LAPACK extension, scipy.linalg._flapack: the
scipy.linalg package is never imported.

Each check runs in a fresh interpreter, because this process may already
have scipy loaded. Setting sys.modules["scipy"] = None before qesf is
imported makes any import of scipy raise ImportError, and
sys.modules["scipy.linalg"] = None any import of scipy.linalg."""

import contextlib
import io
import json
import subprocess
import sys

import pytest

from qesf import catalog, cli

BLOCK = 'import sys; sys.modules["scipy"] = None\n'
# every preset at N = 3, and the k = 2 preset at N = 2 too
SOLVES = [(name, 3) for name in catalog.names()] + [("sextic-type2", 2)]


def _python(script: str, tmp_path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)


def _config(tmp_path, name: str, N: int) -> str:
    path = tmp_path / f"{name}-N{N}.json"
    path.write_text(json.dumps({"catalog": name, "N": N}))
    return str(path)


def test_import_leaves_scipy_unloaded(tmp_path):
    done = _python('import sys, qesf.cli\nassert "scipy" not in sys.modules\n', tmp_path)
    assert done.returncode == 0, done.stderr
    done = _python(BLOCK + "import qesf\n", tmp_path)
    assert done.returncode == 0, done.stderr


def test_commands_without_an_eigenproblem_run_without_scipy(tmp_path):
    config = _config(tmp_path, "sextic", 3)
    # every wall limit-circle (nu < 1/2): verify skips the FD spectrum
    walls = tmp_path / "limit-circle.json"
    walls.write_text(json.dumps({"Q": [1.0], "P": [0.1, 1.0], "N": 1,
                                 "singularities": [{"a": 0.05, "mu": 0.2}]}))
    walls_csv = str(tmp_path / "limit-circle.csv")
    calls = [["classify", config], ["derive", config], ["catalog", "show", "sextic"],
             ["solve", str(walls), "--out", walls_csv], ["verify", str(walls), walls_csv]]
    for name, N in SOLVES:
        calls.append(["solve", _config(tmp_path, name, N),
                      "--out", str(tmp_path / f"{name}-N{N}.blocked.csv")])
    done = _python(BLOCK + "from qesf.cli import main\n"
                   f"for argv in {calls!r}:\n"
                   "    assert main(argv) == 0, argv\n", tmp_path)
    assert done.returncode == 0, done.stderr
    for name, N in SOLVES:
        out = tmp_path / f"{name}-N{N}.csv"
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["solve", _config(tmp_path, name, N), "--out", str(out)]) == 0
        assert (tmp_path / f"{name}-N{N}.blocked.csv").read_bytes() == out.read_bytes(), name


def test_eigenproblems_never_load_scipy_linalg(tmp_path):
    # solve: numpy's eigenproblems only; verify: scipy's LAPACK extension
    # alone, for a half-line mirror grid (sextic), two walls with ghost-point
    # rows (trig-interval) and a k = 2 model's per-branch potentials
    for name in ("sextic", "trig-interval", "sextic-type2"):
        config = _config(tmp_path, name, 2)
        roots, report = str(tmp_path / f"{name}.csv"), tmp_path / f"{name}.json"
        solve = f"assert main(['solve', {config!r}, '--out', {roots!r}]) == 0\n"
        verify = (f"assert main(['verify', {config!r}, {roots!r}, '--json-out', "
                  f"{str(report)!r}]) == 0\n")
        done = _python("import sys\nfrom qesf.cli import main\n" + solve
                       + "assert 'scipy.linalg' not in sys.modules\n" + verify
                       + "assert 'scipy.linalg._flapack' in sys.modules\n"
                       "assert 'scipy.linalg' not in sys.modules\n", tmp_path)
        assert done.returncode == 0, (name, done.stderr)
        assert all(rep["spectrum_matches"] for rep in json.loads(report.read_text()).values())
        unblocked = report.read_bytes()
        report.unlink()
        done = _python('import sys; sys.modules["scipy.linalg"] = None\n'
                       "from qesf.cli import main\n" + verify, tmp_path)
        assert done.returncode == 0, (name, done.stderr)
        assert report.read_bytes() == unblocked, name


LOAD_ORDERS = {
    "extension first": "lapack = poly._lapack()\nimport scipy.linalg\n",
    "package first": "import scipy.linalg\nlapack = poly._lapack()\n",
}


@pytest.mark.parametrize("order", LOAD_ORDERS)
def test_the_extension_is_one_copy_in_either_load_order(tmp_path, order):
    # scipy.linalg.lapack and poly call the same routines whichever loads first
    done = _python("import sys\nfrom qesf import poly\n" + LOAD_ORDERS[order]
                   + "assert sys.modules['scipy.linalg._flapack'] is lapack\n"
                   "assert scipy.linalg.lapack.dgttrf is lapack.dgttrf\n"
                   "assert scipy.linalg.lapack.dstebz is lapack.dstebz\n", tmp_path)
    assert done.returncode == 0, done.stderr
