import importlib.util
import json
import shutil
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "parity", Path(__file__).resolve().parent.parent / "tools" / "parity.py")
parity = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(parity)

CONFIGS = {"harmonic": {"Q": [1], "P": [0, 1], "N": 2},
           "no-map": {"Q": [-1], "P": [0, 1], "N": 1}}


@pytest.fixture(scope="module")
def tree(tmp_path_factory):
    """A parity record of two small configs: one that verifies, one that
    exits 4."""
    work, out = tmp_path_factory.mktemp("work"), tmp_path_factory.mktemp("tree") / "a"
    out.mkdir()
    for name, cfg in CONFIGS.items():
        parity.record(name, cfg, str(work), str(out))
    return out


def _edit_report(path, edit):
    reports = json.loads(path.read_text())
    edit(reports["0"])
    path.write_text(json.dumps(reports))


def _level_moved(report):
    report["spectrum_matches"][0][1] += 3e-11


def _verdict_flipped(report):
    report["verdict"] = not report["verdict"]


@pytest.mark.parametrize("change,code,listed", [
    (None, 0, ""),
    (lambda b: _edit_report(b / "harmonic" / "verify.json", _level_moved), 0,
     "harmonic: verify.json"),
    (lambda b: (b / "harmonic" / "verify.stdout").write_text("moved\n"), 0,
     "harmonic: verify.stdout"),
    (lambda b: _edit_report(b / "harmonic" / "verify.json", _verdict_flipped), 1,
     "harmonic: verify.json"),
    (lambda b: (b / "harmonic" / "solve.csv").write_bytes(
        (b / "harmonic" / "solve.csv").read_bytes() + b"\n"), 1, "harmonic: solve.csv"),
    (lambda b: (b / "no-map" / "exit_codes").write_text("classify 4\nsolve 0\n"), 1,
     "no-map: exit_codes"),
    (lambda b: shutil.rmtree(b / "no-map"), 1, ""),
], ids=["identical", "level-moved", "stdout", "verdict", "solve-csv", "exit-code",
        "one-tree-only"])
def test_compare_fails_only_on_csv_exit_code_verdict_or_config_set(
        tmp_path, tree, capsys, change, code, listed):
    other = tmp_path / "b"
    shutil.copytree(tree, other)
    if change is not None:
        change(other)
    assert parity.main(["--compare", str(tree), str(other)]) == code
    out, err = capsys.readouterr()
    *changed, summary = out.splitlines()
    assert changed == ([listed] if listed else []), out
    assert summary.startswith(f"{len(changed)} of "), out
    assert bool(err) == bool(code), err


def test_compare_reports_the_largest_level_move(tmp_path, tree, capsys):
    other = tmp_path / "b"
    shutil.copytree(tree, other)
    _edit_report(other / "harmonic" / "verify.json", _level_moved)
    assert parity.main(["--compare", str(tree), str(other)]) == 0
    level = json.loads((tree / "harmonic" / "verify.json").read_text())["0"][
        "spectrum_matches"][0][1]
    move = 3e-11 / max(1.0, abs(level))
    assert f"(E_fd): {move:.3g} at harmonic branch 0" in capsys.readouterr().out


def test_compare_reports_claim_moves_and_node_count_changes(tmp_path, tree, capsys):
    # neither is a fault: a claimed energy moves by its rounding when its
    # formula changes, and a node count when the count sees more of phi
    other = tmp_path / "b"
    shutil.copytree(tree, other)

    def edit(report):
        report["spectrum_matches"][0][0] += 3e-11
        report["node_count"] += 1

    _edit_report(other / "harmonic" / "verify.json", edit)
    assert parity.main(["--compare", str(tree), str(other)]) == 0
    out, err = capsys.readouterr()
    nodes = json.loads((tree / "harmonic" / "verify.json").read_text())["0"]["node_count"]
    claim = json.loads((tree / "harmonic" / "verify.json").read_text())["0"][
        "spectrum_matches"][0][0]
    move = 3e-11 / max(1.0, abs(claim))
    assert out.splitlines()[:2] == ["harmonic: verify.json",
                                    f"  branch 0: node_count {nodes} -> {nodes + 1}"], out
    assert "(E_fd): 0;" in out
    assert f"(E_claimed): {move:.3g} at harmonic branch 0" in out and err == ""


def test_compare_reports_the_largest_residual_of_each_tree(tmp_path, tree, capsys):
    # the headroom of each tree against verify.RESIDUAL_TOL; a residual
    # that moves is no fault
    other = tmp_path / "b"
    shutil.copytree(tree, other)
    _edit_report(other / "harmonic" / "verify.json", lambda r: r.update(residual_max=2.5e-11))
    assert parity.main(["--compare", str(tree), str(other)]) == 0
    rmax = json.loads((tree / "harmonic" / "verify.json").read_text())["0"]["residual_max"]
    assert capsys.readouterr().out.endswith(
        f"; largest residual_max {rmax:.3g} at harmonic branch 0 -> 2.5e-11 at harmonic "
        "branch 0\n")
