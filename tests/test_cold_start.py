"""Cold start: no command loads scipy, and classifying a model by its two
degrees loads no numpy.

verify's spectra come from numpy's eigvalsh, the sinc DVR's on a component
with no wall and the wall basis's at a wall. Only verify.fd_spectrum, the
finite-difference cross-check that the tests call and no command runs,
imports scipy, for its bisection (scipy.linalg.eigh_tridiagonal), on its
first level.

`import qesf` imports no submodule: each exported name is imported from its
submodule on first access. `import qesf.cli`, spec_from_config and
model.classify load only errors, poly, model, catalog and cli, none of
which imports numpy; the solver modules load when a command builds a model.

Each check runs in a fresh interpreter, because this process may already
have scipy or numpy loaded. Setting sys.modules["scipy"] = None before qesf
is imported makes any import of scipy, or of a scipy submodule, raise
ImportError, and the same holds for numpy."""

import contextlib
import importlib
import io
import json
import subprocess
import sys

import pytest

import qesf
from qesf import catalog, cli

BLOCK = 'import sys; sys.modules["scipy"] = None\n'
BLOCK_NUMPY = 'import sys; sys.modules["numpy"] = None\n'
# what classifying by the degrees loads of qesf, and the modules it must not load
LIGHT = ["qesf", "qesf.catalog", "qesf.cli", "qesf.errors", "qesf.model", "qesf.poly"]
HEAVY = ("numpy", "qesf.bae", "qesf.coords", "qesf.potential", "qesf.prepot", "qesf.verify")
SINGULAR = {"Q": [1], "P": [0.1, 1], "singularities": [{"a": 0.05, "mu": 0.3}], "N": 2}
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
    # every wall limit-circle (nu < 1/2): verify skips the spectrum oracle
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
    # solve: numpy's eigenproblems only; verify: numpy's eigvalsh for the
    # sinc DVR spectra of a half-line mirror (sextic) and of a k = 2
    # model's per-branch potentials (sextic-type2), and for the wall basis
    # at two walls (trig-interval). No scipy module is loaded, and with
    # scipy blocked verify writes the same report
    for name in ("sextic", "trig-interval", "sextic-type2"):
        config = _config(tmp_path, name, 2)
        roots, report = str(tmp_path / f"{name}.csv"), tmp_path / f"{name}.json"
        solve = f"assert main(['solve', {config!r}, '--out', {roots!r}]) == 0\n"
        verify = (f"assert main(['verify', {config!r}, {roots!r}, '--json-out', "
                  f"{str(report)!r}]) == 0\n")
        done = _python("import sys\nfrom qesf.cli import main\n" + solve
                       + "assert 'scipy.linalg' not in sys.modules\n" + verify
                       + "assert not [m for m in sys.modules if m.startswith('scipy')]\n",
                       tmp_path)
        assert done.returncode == 0, (name, done.stderr)
        assert all(rep["spectrum_matches"] for rep in json.loads(report.read_text()).values())
        unblocked = report.read_bytes()
        report.unlink()
        done = _python(BLOCK + "from qesf.cli import main\n" + verify, tmp_path)
        assert done.returncode == 0, (name, done.stderr)
        assert report.read_bytes() == unblocked, name


def test_a_wall_free_verify_loads_no_scipy(tmp_path):
    # sextic N = 16: every level from the sinc DVR on the half line, so
    # verify imports no scipy module, and with scipy blocked it writes the
    # same report
    config = _config(tmp_path, "sextic", 16)
    roots, report = str(tmp_path / "sextic.csv"), tmp_path / "sextic.json"
    verify = (f"assert main(['verify', {config!r}, {roots!r}, '--json-out', "
              f"{str(report)!r}]) == 0\n")
    done = _python(f"import sys\nfrom qesf.cli import main\n"
                   f"assert main(['solve', {config!r}, '--out', {roots!r}]) == 0\n" + verify
                   + "assert not [m for m in sys.modules if m.startswith('scipy')]\n", tmp_path)
    assert done.returncode == 0, done.stderr
    unblocked = report.read_bytes()
    report.unlink()
    done = _python(BLOCK + "from qesf.cli import main\n" + verify, tmp_path)
    assert done.returncode == 0, done.stderr
    assert report.read_bytes() == unblocked


def test_fd_needs_scipy_on_its_first_level(tmp_path):
    # with scipy blocked qesf imports, and fd_spectrum, the one caller of
    # scipy, raises ImportError on the first level it bisects
    done = _python(BLOCK + "import qesf\n"
                   "from qesf import potential\n"
                   "U = potential.PFE(qesf.Poly([0.0, 0.0, 1.0]))\n"
                   "profile = potential.PotentialProfile(U, 0.0)\n"
                   "cmap, grid = qesf.build(qesf.Poly([1.0])), qesf.Grid(-8.0, 8.0)\n"
                   "try:\n"
                   "    qesf.fd_spectrum(profile, cmap, grid, {0: 1.0}, 401)\n"
                   "except ImportError:\n"
                   "    pass\n"
                   "else:\n"
                   "    raise AssertionError('fd_spectrum ran without scipy')\n", tmp_path)
    assert done.returncode == 0, done.stderr


# Runs in a fresh interpreter: classifies every preset and SINGULAR, runs the
# commands that need no model, and prints what they did and what it loaded.
LIGHT_PATH = """
import contextlib, io, json, sys
import qesf, qesf.cli
from qesf import catalog, model
from qesf.cli import main, spec_from_config

def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return [argv, code, out.getvalue(), err.getvalue()]

def loaded():
    return sorted(m for m, mod in sys.modules.items() if mod is not None
                  and (m in HEAVY or m.startswith(("numpy.", "qesf"))))

configs = list(catalog.shipped_configs().values()) + [SINGULAR]
classes = [[c.tag, c.rationale] for c in
           (model.classify(spec_from_config(cfg)) for cfg in configs)]
after_classify = loaded()
calls = [run(argv) for argv in ARGVS]
print(json.dumps({"classes": classes, "calls": calls,
                  "loaded": [after_classify, loaded()]}))
"""


def _light_path(tmp_path, block: str = "") -> dict:
    bad = {"invalid-json": '{"Q": [1], "P": [0, 1], "N": 1',
           "unknown-key": json.dumps({"Q": [1], "P": [0, 1], "singularites": [], "N": 1}),
           "non-number": json.dumps({"Q": [1], "P": [0, "1"], "N": 1})}
    argvs = [["catalog", "list"], ["catalog", "list", "sextic"], ["--help"]]
    argvs += [["catalog", "show", name] for name in catalog.names()]
    for name, text in bad.items():
        (tmp_path / f"{name}.json").write_text(text)
        cfg = str(tmp_path / f"{name}.json")
        argvs += [["classify", cfg], ["solve", cfg], ["verify", cfg, cfg], ["derive", cfg]]
    script = (block + f"SINGULAR = {SINGULAR!r}\nHEAVY = {HEAVY!r}\nARGVS = {argvs!r}\n"
              + LIGHT_PATH)
    done = _python(script, tmp_path)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_classifying_by_the_degrees_loads_no_numpy(tmp_path):
    light = _light_path(tmp_path)
    assert light["loaded"] == [LIGHT, LIGHT]  # after classifying, then after the calls
    tags = [tag for tag, _ in light["classes"]]
    assert tags == ["exactly-solvable", "qes-type1", "qes-type2", "exactly-solvable",
                    "qes-type1", "qes-type1", "qes-type1", "qes-singularity-induced"]
    codes = {" ".join(argv): code for argv, code, _, _ in light["calls"]}
    assert codes.pop("catalog list") == codes.pop("--help") == 0
    assert all(codes.pop(f"catalog show {name}") == 0 for name in catalog.names())
    # a name after catalog list, and every config that fails before the build
    assert set(codes.values()) == {4}
    # with numpy blocked every call prints and exits as it does unblocked
    assert _light_path(tmp_path, BLOCK_NUMPY) == light


def test_import_qesf_loads_no_submodule(tmp_path):
    done = _python(BLOCK_NUMPY + "import qesf\n"
                   "assert [m for m in sys.modules if m.startswith('qesf')] == ['qesf']\n"
                   "assert qesf.ModelError.__module__ == 'qesf.errors'\n", tmp_path)
    assert done.returncode == 0, done.stderr


def test_each_export_is_its_submodules_object():
    owners = qesf._EXPORTS
    names = [name for group in owners.values() for name in group]
    assert sorted(names) == qesf.__all__ and len(set(names)) == len(names)
    for module, group in owners.items():
        sub = importlib.import_module(f"qesf.{module}")
        assert getattr(qesf, module) is sub
        for name in group:
            assert getattr(qesf, name) is getattr(sub, name), name
    star: dict = {}
    exec("from qesf import *", star)
    assert set(qesf.__all__) <= set(star)
    assert all(star[name] is getattr(qesf, name) for name in qesf.__all__)
    assert set(qesf.__all__) | set(owners) <= set(dir(qesf))
    for missing in ("make_grid", "frobnicate", "cli_main"):
        with pytest.raises(AttributeError, match=missing):
            getattr(qesf, missing)
        assert not hasattr(qesf, missing)
