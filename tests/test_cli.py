import json
import subprocess
import sys
import warnings

import pytest

from qesf import cli


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run_cli(args):
    """Invoke main() in-process, capturing stdout."""
    import contextlib
    import io
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(args)
    return code, out.getvalue(), err.getvalue()


HARMONIC = {"Q": [1.0], "P": [0.0, 1.0], "N": 2, "branch": 1}
SEXTIC = {"catalog": "sextic", "params": {"a": 1.0, "b": 0.0}, "N": 1}


def test_classify_harmonic(tmp_path):
    cfg = write_config(tmp_path, "h.json", HARMONIC)
    code, out, _ = run_cli(["classify", cfg])
    assert code == 0
    assert "exactly-solvable" in out


def test_classify_sextic(tmp_path):
    cfg = write_config(tmp_path, "s.json", SEXTIC)
    code, out, _ = run_cli(["classify", cfg])
    assert code == 0
    assert "qes-type1" in out
    assert "max{m, n-1}" in out


def test_classify_bad_degree_exits_4(tmp_path):
    cfg = write_config(tmp_path, "bad.json",
                       {"Q": [1.0], "P": [0, 0, 0, 0, 1.0], "N": 1})
    code, _, err = run_cli(["classify", cfg])
    assert code == 4
    assert "exceeds 3" in err


def test_classify_missing_file_exits_4(tmp_path):
    code, _, err = run_cli(["classify", str(tmp_path / "nope.json")])
    assert code == 4


def test_solve_harmonic_csv(tmp_path):
    cfg = write_config(tmp_path, "h.json", HARMONIC)
    out_csv = tmp_path / "roots.csv"
    code, out, _ = run_cli(["solve", cfg, "--out", str(out_csv)])
    assert code == 0
    assert "seed:" in out
    lines = out_csv.read_text().strip().split("\n")
    assert lines[0] == "branch_id,k,z_k,residual_max,E,verified"
    rows = [ln.split(",") for ln in lines[1:]]
    assert len(rows) == 2  # one branch, N = 2 roots
    zs = sorted(float(r[2]) for r in rows)
    assert zs[0] == pytest.approx(-0.7071067811865476, abs=1e-9)
    assert zs[1] == pytest.approx(+0.7071067811865476, abs=1e-9)
    assert all(float(r[4]) == pytest.approx(4.0, abs=1e-10) for r in rows)
    assert all(r[5] == "true" for r in rows)


def test_solve_sextic_two_branches(tmp_path):
    cfg = write_config(tmp_path, "s.json", SEXTIC)
    out_csv = tmp_path / "roots.csv"
    code, _, _ = run_cli(["solve", cfg, "--out", str(out_csv)])
    assert code == 0
    lines = out_csv.read_text().strip().split("\n")[1:]
    branch_ids = {ln.split(",")[0] for ln in lines}
    assert len(branch_ids) == 2


def test_solve_n0_single_row(tmp_path):
    cfg = write_config(tmp_path, "h0.json", dict(HARMONIC, N=0))
    out_csv = tmp_path / "roots.csv"
    code, _, _ = run_cli(["solve", cfg, "--out", str(out_csv)])
    assert code == 0
    lines = out_csv.read_text().strip().split("\n")[1:]
    assert len(lines) == 1
    bid, k, zk, _, energy, _ = lines[0].split(",")
    assert (bid, k, zk) == ("0", "-1", "")
    assert float(energy) == 0.0


def test_verify_roundtrip_pass(tmp_path):
    cfg = write_config(tmp_path, "h.json", HARMONIC)
    out_csv = tmp_path / "roots.csv"
    run_cli(["solve", cfg, "--out", str(out_csv)])
    code, out, _ = run_cli(["verify", cfg, str(out_csv),
                            "--grid-points", "2001"])
    assert code == 0
    assert "pass" in out
    assert '"verdict": true' in out


def test_verify_corrupted_root_exits_3(tmp_path):
    cfg = write_config(tmp_path, "h.json", HARMONIC)
    out_csv = tmp_path / "roots.csv"
    run_cli(["solve", cfg, "--out", str(out_csv)])
    lines = out_csv.read_text().strip().split("\n")
    parts = lines[1].split(",")
    parts[2] = format(float(parts[2]) + 0.05, ".17g")
    lines[1] = ",".join(parts)
    bad_csv = tmp_path / "bad.csv"
    bad_csv.write_text("\n".join(lines) + "\n")
    code, _, err = run_cli(["verify", cfg, str(bad_csv), "--grid-points", "2001"])
    assert code == 3


def test_verify_missing_file_exits_4(tmp_path):
    cfg = write_config(tmp_path, "h.json", HARMONIC)
    code, _, _ = run_cli(["verify", cfg, str(tmp_path / "missing.csv")])
    assert code == 4


def test_verify_malformed_csv_exits_4(tmp_path):
    cfg = write_config(tmp_path, "h.json", HARMONIC)
    bad = tmp_path / "bad.csv"
    bad.write_text("who,knows\n1,2\n")
    code, _, _ = run_cli(["verify", cfg, str(bad)])
    assert code == 4


def test_verify_catalog_defaults_pass(tmp_path):
    for name in ("harmonic", "morse-es", "trig-interval"):
        cfg = write_config(tmp_path, f"{name}.json",
                           {"catalog": name, "N": 1})
        out_csv = tmp_path / f"{name}.csv"
        code, _, _ = run_cli(["solve", cfg, "--out", str(out_csv)])
        assert code == 0
        code, out, err = run_cli(["verify", cfg, str(out_csv),
                                  "--grid-points", "3001"])
        assert code == 0, (name, out, err)


def test_derive_harmonic(tmp_path):
    cfg = write_config(tmp_path, "h.json", HARMONIC)
    code, out, _ = run_cli(["derive", cfg])
    assert code == 0
    # quoted closed form agrees with the residue form: b z_k - sum 1/(z_k-z_l)
    assert "z^1: +1" in out
    assert "forms agree" in out


def test_derive_morse_matches_quoted_form(tmp_path):
    cfg = write_config(tmp_path, "m.json", {"catalog": "morse-es", "N": 2})
    code, out, _ = run_cli(["derive", cfg])
    assert code == 0
    assert "forms agree" in out


def test_derive_trig_reports_difference(tmp_path):
    cfg = write_config(tmp_path, "t.json", {"catalog": "trig-interval", "N": 1})
    code, out, _ = run_cli(["derive", cfg])
    assert code == 0
    assert "term-by-term difference" in out
    assert "1: +1" in out  # reference constant -1 vs residue-derived -(1 + 4 p1)
    assert "residue-derived form is the implementation truth" in out


def test_catalog_list_and_show():
    code, out, _ = run_cli(["catalog", "list"])
    assert code == 0
    assert len([ln for ln in out.splitlines() if ln and not ln.startswith(" ")]) == 7
    code, out, _ = run_cli(["catalog", "show", "harmonic"])
    assert code == 0
    assert "b (2N + 1)" in out
    code, _, _ = run_cli(["catalog", "show", "nonsense"])
    assert code == 4


@pytest.mark.parametrize("name,N", [("morse-p", 5), ("morse-p", 6), ("morse-es", 5)])
def test_bound_state_limit_raises_no_warnings(tmp_path, name, N):
    # at the default A = 5 <= N alpha there is no bound state: the branch
    # is found but does not certify, and no RuntimeWarning leaks on the way
    cfg = write_config(tmp_path, "m.json", {"catalog": name, "N": N})
    out_csv = tmp_path / "m.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, _ = run_cli(["solve", cfg, "--out", str(out_csv)])
        assert code == 0
        assert out_csv.read_text().splitlines()[1].endswith(",false")
        code, _, err = run_cli(["verify", cfg, str(out_csv)])
    assert code == 3
    assert "no normalizable domain component" in err


def test_solve_determinism_byte_identical(tmp_path):
    cfg = write_config(tmp_path, "s.json", dict(SEXTIC, N=2))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        cmd = [sys.executable, "-m", "qesf.cli", "solve", cfg,
               "--seed", "123", "--out", str(path)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
    assert a.read_bytes() == b.read_bytes()


def test_solve_failure_exits_2(tmp_path):
    # P - Q'/4 = z^2 + 1 has no real zero: the N=1 equations are unsolvable
    cfg = write_config(tmp_path, "nosol.json",
                       {"Q": [1.0], "P": [1.0, 0.0, 1.0], "N": 1})
    code, _, err = run_cli(["solve", cfg])
    assert code == 2
    assert "solver failure" in err


def test_seed_env_fallback(tmp_path, monkeypatch):
    cfg = write_config(tmp_path, "h.json", HARMONIC)
    monkeypatch.setenv("QESF_SEED", "777")
    code, out, _ = run_cli(["solve", cfg])
    assert code == 0
    assert "seed: 777" in out
    monkeypatch.setenv("QESF_SEED", "not-an-int")
    code, _, err = run_cli(["solve", cfg])
    assert code == 4
    assert "QESF_SEED" in err


def test_config_parse_round_trip(tmp_path):
    cfg_path = write_config(tmp_path, "h.json", HARMONIC)
    spec1 = cli.spec_from_config(cli.load_config(cfg_path))
    redumped = write_config(tmp_path, "h2.json", {
        "Q": list(spec1.Q.coeffs), "P": list(spec1.P.coeffs),
        "singularities": [{"a": s.location, "mu": s.exponent}
                          for s in spec1.singularities],
        "N": spec1.N, "branch": spec1.branch_sign})
    spec2 = cli.spec_from_config(cli.load_config(redumped))
    assert spec1 == spec2
