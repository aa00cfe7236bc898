import collections
import csv
import io
import json
import subprocess
import sys
import warnings

import numpy as np
import pytest

from qesf import bae, cli, coords, potential, prepot, verify


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


@pytest.mark.parametrize("name,N", [("morse-es", 5), ("morse-p", 5), ("morse-p", 6)])
def test_classify_warns_past_bound_state_limit(tmp_path, name, N):
    for n, warned in ((N, True), (4, False)):
        cfg = write_config(tmp_path, "m.json", {"catalog": name, "N": n})
        code, out, _ = run_cli(["classify", cfg])
        assert code == 0
        assert (f"[warning] level N = {n} is not bound" in out) == warned, out


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
    code, out, _ = run_cli(["verify", cfg, str(out_csv)])
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
    code, _, err = run_cli(["verify", cfg, str(bad_csv)])
    assert code == 3


def test_verify_one_spectrum_for_a_shared_potential(tmp_path, dvr_spectra):
    cfg = write_config(tmp_path, "s.json", dict(SEXTIC, N=3))
    out_csv = tmp_path / "roots.csv"
    run_cli(["solve", cfg, "--out", str(out_csv)])
    code, out, _ = run_cli(["verify", cfg, str(out_csv)])
    assert code == 0
    assert out.count(": pass") == 4
    assert len(dvr_spectra) == 1


def test_verify_error_in_one_branch_leaves_the_others(tmp_path, dvr_spectra):
    cfg = write_config(tmp_path, "s.json", SEXTIC)
    out_csv = tmp_path / "roots.csv"
    run_cli(["solve", cfg, "--out", str(out_csv)])
    header, good, other = out_csv.read_text().strip().split("\n")
    parts = other.split(",")
    parts[2] = format(float(parts[2]) + 0.05, ".17g")
    good_csv, mixed_csv = tmp_path / "good.csv", tmp_path / "mixed.csv"
    good_csv.write_text(f"{header}\n{good}\n")
    mixed_csv.write_text(f"{header}\n{good}\n{','.join(parts)}\n")
    code, out_good, _ = run_cli(["verify", cfg, str(good_csv)])
    assert code == 0
    dvr_spectra.clear()
    code, out, err = run_cli(["verify", cfg, str(mixed_csv)])
    assert code == 3
    assert "branch 1: verification error: branch residues not cancelled" in err
    assert out == out_good  # branch 0's lines and report are unchanged
    assert len(dvr_spectra) == 1


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
        code, out, err = run_cli(["verify", cfg, str(out_csv)])
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
    # at the default A = 5 <= N alpha there is no bound state, and no
    # RuntimeWarning leaks on the way. At N = 5 the branch is found but does
    # not certify. morse-p N = 6 has no branch: its only polynomial solution
    # is z^2 L_4^(2), with a double root on the z = 0 wall.
    cfg = write_config(tmp_path, "m.json", {"catalog": name, "N": N})
    out_csv = tmp_path / "m.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run_cli(["solve", cfg, "--out", str(out_csv)])
        if N == 6:
            assert code == 2
            assert "no converged real branch" in err
            return
        assert code == 0
        assert out_csv.read_text().splitlines()[1].endswith(",false")
        code, _, err = run_cli(["verify", cfg, str(out_csv)])
    assert code == 3
    assert "no normalizable domain component" in err


# W0's -0.25 ln z at the parabolic turning point z = 0 is the same wall as
# a declared mu = 0.25 there: the same BAE, E = -4 and 4
UNDECLARED_TWIN = {"Q": [0, 4], "P": [-1, 0, 2], "N": 1}
DECLARED_TWIN = {"Q": [0, 4], "P": [0, 0, 2],
                 "singularities": [{"a": 0, "mu": 0.25}], "N": 1}


def _solve_and_verify(tmp_path, name, payload):
    """(solve code, CSV, verify code, stdout, stderr, JSON) with every
    warning raised as an error."""
    cfg = write_config(tmp_path, f"{name}.json", payload)
    out_csv, out_json = tmp_path / f"{name}.csv", tmp_path / f"{name}.report.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        solve_code, _, _ = run_cli(["solve", cfg, "--out", str(out_csv)])
        code, out, err = run_cli(["verify", cfg, str(out_csv), "--json-out", str(out_json)])
    return solve_code, out_csv.read_text(), code, out, err, out_json.read_text()


def test_w0_log_wall_equals_its_declared_twin(tmp_path):
    und = _solve_and_verify(tmp_path, "u", UNDECLARED_TWIN)
    dec = _solve_and_verify(tmp_path, "d", DECLARED_TWIN)
    assert und[0] == dec[0] == 0 and und[2] == dec[2] == 0
    assert und[1] == dec[1]  # CSV
    assert und[5] == dec[5]  # JSON report
    assert [float(row.split(",")[4]) for row in und[1].splitlines()[1:]] == [-4.0, 4.0]


def test_w0_log_wall_at_a_cosh_turning_point_rejects_both_sides(tmp_path):
    # W0's 1.5 ln|z - 1| gives phi ~ |x - xc|^-3 at the turning point: the
    # residual passes, so solve's verified column reads true, but the end
    # rule says phi is not square-integrable there
    solve_code, csv_text, code, out, _, report = _solve_and_verify(
        tmp_path, "c", {"Q": [-1, 0, 1], "P": [0, 3], "N": 1})
    assert solve_code == 0
    assert csv_text.splitlines()[1].endswith(",true")
    assert code == 3
    (rep,) = json.loads(report).values()
    assert rep["normalizable"] is False and rep["verdict"] is False
    assert rep["spectrum_note"] == ("spectrum oracle skipped: phi is not square-integrable "
                                    "at the wall x = 0, where nu = -3")
    assert out.count(": FAIL") == 1


# Walls with -1/2 < nu <= 0, where phi is bound and normalizable: they
# certify on the residual and the end rule, as a limit-circle wall does.
# z = sin^2 x: the wall z = 1 at x = pi/2 has nu = -0.2
NEGATIVE_NU_WALL = {"Q": [0, 4, -4], "P": [0, -4, 4], "N": 1,
                    "singularities": [{"a": 0, "mu": 0.25}, {"a": 1, "mu": -0.1}]}
NEGATIVE_NU_DRAWS = {
    # walls with nu = -0.14 at x = +-0.3768, the two preimages of z = 0.142
    "mirror-walls": ({"Q": [0, 4], "P": [-0.323, 0.163, 0.284], "N": 1,
                      "singularities": [{"a": 0.142, "mu": -0.14}]}, 3),
    # no declared wall: W0 puts nu = -0.246 at the cosh turning point
    "w0-cosh-wall": ({"Q": [-1, 0, 1], "P": [0.049, -1.743, 1.94], "N": 1}, 2),
    # a wall with nu = -0.382 at the cosh turning point
    "cosh-wall": ({"Q": [-1, 0, 1], "P": [0.202, -0.188, -0.669, 1.037], "N": 3,
                   "singularities": [{"a": -0.615, "mu": -0.3}]}, 8),
    "negative-nu-wall": (NEGATIVE_NU_WALL, 2),
}


@pytest.mark.parametrize("payload,branches", NEGATIVE_NU_DRAWS.values(),
                         ids=NEGATIVE_NU_DRAWS.keys())
def test_a_wall_with_nu_above_minus_half_certifies(tmp_path, payload, branches):
    solve_code, csv_text, code, out, err, _ = _solve_and_verify(tmp_path, "n", payload)
    rows = list(csv.DictReader(io.StringIO(csv_text)))
    assert solve_code == 0 and len({row["branch_id"] for row in rows}) == branches
    assert all(row["verified"] == "true" for row in rows), csv_text
    assert code == 0 and out.count(": pass") == branches, (out, err)


# z = x^2 reaches the wall a = 1, where Q(1) = 4 != 0, at x = -1 and x = 1
MIRROR = {"Q": [0, 4], "P": [0, 0, 2], "singularities": [{"a": 1, "mu": 0.3}], "N": 1}


def test_a_wall_is_cut_at_both_of_its_x_preimages(tmp_path):
    solve_code, csv_text, code, out, _, _ = _solve_and_verify(tmp_path, "m", MIRROR)
    rows = csv_text.splitlines()[1:]
    assert solve_code == 0 and len(rows) == 3
    assert all(row.endswith(",true") for row in rows)
    assert code == 0 and out.count(": pass") == 3


@pytest.mark.parametrize("payload", [{"catalog": "sextic", "N": 2}, MIRROR],
                         ids=["sextic-N2", "mirror"])
@pytest.mark.parametrize("huge", ["1e200", "1e308", "-1e300"])
def test_a_huge_root_fails_its_branch_without_a_warning(tmp_path, payload, huge):
    # a finite root whose powers overflow: its residues are not cancelled,
    # the branch fails (exit 3) and every other branch passes, with no
    # RuntimeWarning from the first pass over the rows (the BAE residual,
    # the energy, the split and the preimages all overflow there)
    solve_code, csv_text, *_ = _solve_and_verify(tmp_path, "h", payload)
    assert solve_code == 0
    roots = [huge, "2.0"][:payload["N"]]
    extra = "".join(f"9,{k},{z}\n" for k, z in enumerate(roots))
    bad_csv = tmp_path / "huge.csv"
    bad_csv.write_text("branch_id,k,z_k\n" + "".join(
        ",".join(row.split(",")[:3]) + "\n" for row in csv_text.splitlines()[1:]) + extra)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(["verify", str(tmp_path / "h.json"), str(bad_csv)])
    assert code == 3, (out, err)
    assert err.startswith("branch 9: verification error: branch residues not cancelled")
    assert err.count("\n") == 1 and "Traceback" not in err, err
    assert out.count(": pass") == 3 and "FAIL" not in out


def test_solve_and_verify_build_the_model_once(tmp_path, monkeypatch):
    # and classify and derive: one map and one V0 per command
    from qesf import coords, potential
    calls = {"build": 0, "v0_pfe": 0}

    def counted(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    counted(coords, "build")
    counted(potential, "v0_pfe")
    cfg = write_config(tmp_path, "s.json", {"catalog": "sextic", "N": 10})
    out_csv = tmp_path / "roots.csv"
    for argv in (["classify", cfg], ["solve", cfg, "--out", str(out_csv)],
                 ["verify", cfg, str(out_csv)], ["derive", cfg]):
        calls.update(build=0, v0_pfe=0)
        assert run_cli(argv)[0] == 0, argv
        assert calls == {"build": 1, "v0_pfe": 1}, argv


def test_solve_evaluates_phi_in_as_many_calls_for_any_branch_count(tmp_path, monkeypatch):
    # the verified column's setup marches and evaluates phi for all branches
    # at once: sextic N = 4 and N = 16 (5 and 17 branches) make the same
    # number of prepot.phi_log_sign calls
    from qesf import prepot
    calls = []
    real = prepot.phi_log_sign

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(prepot, "phi_log_sign", counted)
    counts = {}
    for N in (4, 16):
        cfg = write_config(tmp_path, "s.json", {"catalog": "sextic", "N": N})
        calls.clear()
        code, out, _ = run_cli(["solve", cfg])
        assert code == 0
        assert {row.split(",")[0] for row in out.splitlines()[1:]} == {
            str(b) for b in range(N + 1)}
        assert out.count(",true\n") == N * (N + 1)
        counts[N] = len(calls)
    assert counts[4] == counts[16], counts


@pytest.mark.parametrize("payload,message", [
    ({"Q": [-1], "P": [0, 1], "N": 1}, "constant Q must be positive"),
    ({"Q": [0, 0, -1], "P": [0, 1], "N": 1}, "no real trigonometric motion"),
    ({"Q": [1, 0, 1], "P": [1, 2, 0.5], "N": 1}, "outside the closed pole basis"),
    # singularities that are no list: no TypeError traceback
    ({"Q": [0, 4], "P": [0, 0, 2], "singularities": 5, "N": 1},
     'config key "singularities" must be a list'),
    ({"Q": [0, 4], "P": [0, 0, 2], "singularities": None, "N": 1},
     'config key "singularities" must be a list'),
    ({"Q": [0, 4], "P": [0, 0, 2], "singularities": {"a": 1, "mu": 0.3}, "N": 1},
     'config key "singularities" must be a list'),
], ids=["negative-Q", "negative-square-Q", "irreducible-Q", "singularities-number",
        "singularities-null", "singularities-object"])
def test_an_unbuildable_model_exits_4_from_every_command(tmp_path, payload, message):
    cfg = write_config(tmp_path, "u.json", payload)
    roots = tmp_path / "roots.csv"
    roots.write_text("branch_id,k,z_k\n0,0,0.5\n")
    for argv in (["classify", cfg], ["solve", cfg], ["verify", cfg, str(roots)],
                 ["derive", cfg]):
        code, out, err = run_cli(argv)
        assert code == 4 and out == "", (argv, out, err)
        assert err.startswith("error: ") and message in err, (argv, err)


@pytest.mark.parametrize("z_k", ["inf", "-inf", "1e999", "nan"])
def test_a_root_that_is_not_finite_is_a_malformed_row(tmp_path, z_k):
    # rejected before any work: no RuntimeWarning from the residuals or
    # the polynomials, and exit 4, not a verification failure
    cfg = write_config(tmp_path, "h.json", HARMONIC)
    roots = tmp_path / "roots.csv"
    roots.write_text(f"branch_id,k,z_k\n0,0,0.5\n0,1,{z_k}\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(["verify", cfg, str(roots)])
    assert code == 4 and out == "", (out, err)
    assert "malformed row at line 3" in err, err


@pytest.mark.parametrize("rows,bad", [
    (["0,0,{z0}", "0,0,{z1}"], "k = 0 at line 3, not 1"),
    (["0,0,{z0}", "0,5,{z1}"], "k = 5 at line 3, not 1"),
    (["0,0,{z0}", "0,1,{z1}", "0,-1,"], "k = -1 at line 4, not 0"),
    (["0,0,{z0}", "0,1,{z1}", "0,-2,0.25"], "k = -2 at line 4, not 0"),
], ids=["two-k0", "k0-k5", "marker-beside-roots", "k-minus-2"])
def test_a_branch_whose_k_are_not_0_to_n_minus_1_is_invalid_input(tmp_path, rows, bad):
    # sextic N = 2, with branch 0's roots from solve: each of these files
    # was read as a 2-root branch (the k = -2 row's z_k dropped) and
    # verified; a branch's k must run 0..N-1, or be one k = -1 marker row
    cfg = write_config(tmp_path, "s.json", {"catalog": "sextic", "N": 2})
    solved = tmp_path / "s.csv"
    assert run_cli(["solve", cfg, "--out", str(solved)])[0] == 0
    z = [row["z_k"] for row in csv.DictReader(io.StringIO(solved.read_text()))
         if row["branch_id"] == "0"]
    roots = tmp_path / "roots.csv"
    roots.write_text("branch_id,k,z_k\n" + "\n".join(rows).format(z0=z[0], z1=z[1]) + "\n")
    code, out, err = run_cli(["verify", cfg, str(roots)])
    assert code == 4 and out == "", (out, err)
    assert f"branch 0 has {bad}" in err, err


def test_an_n0_branch_is_one_marker_row(tmp_path):
    # solve's k = -1 row with an empty z_k is an N = 0 branch; a z_k on it,
    # or a second marker row, is invalid input
    cfg = write_config(tmp_path, "h.json", dict(HARMONIC, N=0))
    solved = tmp_path / "h.csv"
    assert run_cli(["solve", cfg, "--out", str(solved)])[0] == 0
    assert run_cli(["verify", cfg, str(solved)])[0] == 0
    for rows, line in (("0,-1,0.5", 2), ("0,-1,\n0,-1,", 2)):
        roots = tmp_path / "roots.csv"
        roots.write_text(f"branch_id,k,z_k\n{rows}\n")
        code, out, err = run_cli(["verify", cfg, str(roots)])
        assert code == 4 and f"branch 0 has k = -1 at line {line}, not 0" in err, err


@pytest.mark.parametrize("payload,key", [
    ({"Q": [0, 4], "P": [0, 0, 2], "singularites": [{"a": 1, "mu": 0.3}], "N": 1},
     "singularites"),
    ({"Q": [0, 4], "P": [0, 0, 2], "N": 1, "anchor": 0.5}, "anchor"),
    ({"catalog": "sextic", "N": 1, "param": {"a": 2.0}}, "param"),
    ({"Q": [0, 4], "P": [0, 0, 2], "singularities": [{"a": 1, "mu": 0.3, "nu": 1}],
      "N": 1}, "singularities[0].nu"),
    # a key of the other schema: a catalog config would drop the wall or
    # the polynomials, and an explicit one the parameters
    ({"catalog": "sextic", "singularities": [{"a": 0, "mu": 0.3}], "N": 1},
     "singularities"),
    ({"catalog": "sextic", "Q": [1], "P": [0, 1]}, "Q"),
    ({"Q": [1], "P": [0, 1], "params": {"a": 2.0}, "N": 1}, "params"),
], ids=["misspelt-singularities", "anchor", "misspelt-params", "singularity-key",
        "catalog-with-singularities", "catalog-with-polynomials", "explicit-with-params"])
def test_an_unknown_config_key_exits_4_from_every_command(tmp_path, payload, key):
    cfg = write_config(tmp_path, "k.json", payload)
    roots = tmp_path / "roots.csv"
    roots.write_text("branch_id,k,z_k\n0,0,0.5\n")
    for argv in (["classify", cfg], ["solve", cfg], ["verify", cfg, str(roots)],
                 ["derive", cfg]):
        code, out, err = run_cli(argv)
        assert code == 4 and out == "", (argv, out, err)
        assert f'unknown config key "{key}"' in err, (argv, err)


@pytest.mark.parametrize("argv", [
    ["solve", "{cfg}", "--out", "{missing}/x.csv"],
    ["verify", "{cfg}", "{roots}", "--json-out", "{missing}/r.json"],
    ["classify", "{dir}"],
    ["solve", "{dir}"],
    ["verify", "{dir}", "{roots}"],
    ["derive", "{dir}"],
    ["verify", "{cfg}", "{dir}"],
], ids=["solve-out", "verify-json-out", "classify-config-dir", "solve-config-dir",
        "verify-config-dir", "derive-config-dir", "verify-roots-dir"])
def test_a_path_that_cannot_be_read_or_written_exits_4(tmp_path, argv):
    cfg = write_config(tmp_path, "h.json", HARMONIC)
    roots = tmp_path / "roots.csv"
    code, _, _ = run_cli(["solve", cfg, "--out", str(roots)])
    assert code == 0
    paths = {"cfg": cfg, "roots": str(roots), "missing": str(tmp_path / "missing"),
             "dir": str(tmp_path)}
    code, out, err = run_cli([arg.format(**paths) for arg in argv])
    assert code == 4, (code, out, err)
    assert err.startswith("error: cannot ") and err.count("\n") == 1, err
    assert "report ->" not in out and "branch(es) ->" not in out


@pytest.mark.parametrize("argv,work", [
    (["solve", "{cfg}", "--out", "{missing}/x.csv"], (bae, "enumerate_branches")),
    (["verify", "{cfg}", "{roots}", "--json-out", "{missing}/r.json"],
     (verify, "verify_branches")),
], ids=["solve-out", "verify-json-out"])
def test_an_output_path_in_a_missing_directory_fails_before_any_work(
        tmp_path, monkeypatch, argv, work):
    cfg = write_config(tmp_path, "h.json", HARMONIC)
    roots = tmp_path / "roots.csv"
    assert run_cli(["solve", cfg, "--out", str(roots)])[0] == 0

    def never(*args, **kwargs):
        raise AssertionError(f"{work[1]} ran before the output path was checked")

    monkeypatch.setattr(*work, never)
    paths = {"cfg": cfg, "roots": str(roots), "missing": str(tmp_path / "missing")}
    code, out, err = run_cli([arg.format(**paths) for arg in argv])
    assert code == 4 and out == "", (code, out, err)
    assert err.startswith("error: cannot write ") and err.count("\n") == 1, err
    assert not (tmp_path / "missing").exists()


def test_a_sinh_model_in_the_pole_basis_is_certified(tmp_path):
    # P = Q (0.3 + 0.7 z): V0 is a polynomial although P^2/Q leaves a
    # rounding-level remainder
    payload = {"Q": [2, 2, 1], "P": [0.6, 2.0, 1.7, 0.7]}
    for N in (1, 2, 3):
        solve_code, csv_text, code, out, _, _ = _solve_and_verify(
            tmp_path, f"sinh{N}", dict(payload, N=N))
        rows = csv_text.splitlines()[1:]
        assert solve_code == 0 and rows and all(row.endswith(",true") for row in rows)
        assert code == 0, out


SINGULAR = {"Q": [1.0], "P": [-0.143939, 1.0],
            "singularities": [{"a": 0.135345, "mu": 0.341415}], "N": 3}


@pytest.mark.parametrize("payload,seed_args", [
    # --seed still parses and changes nothing
    (dict(SEXTIC, N=2), ["--seed", "123"]),
    ({"catalog": "sextic-type2", "params": {"a": 1.0, "b": -3.0}, "N": 4}, []),
    (SINGULAR, []),
], ids=["sextic", "sextic-type2", "singular"])
def test_solve_determinism_byte_identical(tmp_path, payload, seed_args):
    cfg = write_config(tmp_path, "s.json", payload)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path, extra in ((a, seed_args), (b, [])):
        cmd = [sys.executable, "-m", "qesf.cli", "solve", cfg, "--out", str(path)] + extra
        proc = subprocess.run(cmd, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
    assert a.read_bytes() == b.read_bytes()
    assert len(a.read_text().splitlines()) > 1


@pytest.mark.parametrize("command,flags,message", [
    ("solve", ["--grid-points", "2001"], "unrecognized arguments: --grid-points 2001"),
    ("solve", ["--grid-points", "-3"], "unrecognized arguments: --grid-points -3"),
    ("verify", ["--grid-points", "4001"], "unrecognized arguments: --grid-points 4001"),
    # Newton's bound is relative to the Bethe equations' own scale: solve
    # has no --tol either
    ("solve", ["--tol", "0"], "unrecognized arguments: --tol 0"),
    ("solve", ["--tol", "nan"], "unrecognized arguments: --tol nan"),
    ("solve", ["--tol", "inf"], "unrecognized arguments: --tol inf"),
    # the config's N is the one source of N
    ("solve", ["--N", "3"], "unrecognized arguments: --N 3"),
])
def test_out_of_range_flags_exit_4(tmp_path, command, flags, message):
    # a flag qesf no longer has is a usage error, which is invalid input
    cfg = write_config(tmp_path, "h.json", HARMONIC)
    out_csv = tmp_path / "roots.csv"
    assert run_cli(["solve", cfg, "--out", str(out_csv)])[0] == 0
    code, out, err = run_cli([command, cfg] + [str(out_csv)] * (command == "verify") + flags)
    assert code == 4, (out, err)
    assert out == "" and f"error: {message}" in err


def test_verify_has_no_tol_flag(tmp_path):
    # verify judges every residual by verify.RESIDUAL_TOL: --tol is an
    # unknown argument, a usage error, which is invalid input
    cfg = write_config(tmp_path, "h.json", HARMONIC)
    out_csv = tmp_path / "roots.csv"
    assert run_cli(["solve", cfg, "--out", str(out_csv)])[0] == 0
    assert run_cli(["verify", cfg, str(out_csv), "--tol", "1e-6"])[0] == 4


@pytest.mark.parametrize("argv,code", [
    (["frobnicate"], 4), (["verify", "h.json"], 4), (["solve"], 4),
    (["--help"], 0), (["verify", "--help"], 0),
], ids=["unknown-command", "missing-roots", "missing-config", "help", "verify-help"])
def test_a_usage_error_returns_4(argv, code):
    # main returns argparse's outcome, with its usage line and message on
    # stderr, instead of raising SystemExit(2), the solver-failure code
    got, out, err = run_cli(argv)
    assert got == code
    assert (err if code else out).startswith("usage: qesf")


def test_verify_certifies_the_csv_energy_bit_for_bit(tmp_path):
    # the E verify certifies is the E solve wrote, to the last bit: the
    # table's energy and the profile's energy of every branch, and the
    # claim of every match
    for i, payload in enumerate([
            {"catalog": "sextic", "N": 3}, {"catalog": "trig-interval", "N": 8},
            {"catalog": "sextic-type2", "params": {"a": 1.0, "b": -3.0}, "N": 4}, SINGULAR]):
        solve_code, csv_text, code, out, err, report = _solve_and_verify(tmp_path, f"c{i}",
                                                                         payload)
        assert solve_code == 0 and code == 0, (payload, out, err)
        energies = {row["branch_id"]: float(row["E"])
                    for row in csv.DictReader(io.StringIO(csv_text))}
        pre = prepot.integrate_w0(cli.spec_from_config(payload))
        roots = cli._read_roots_csv(str(tmp_path / f"c{i}.csv"))
        table = verify.branch_setups(pre, [roots[int(b)] for b in energies])
        assert table.energy.tolist() == list(energies.values()), payload
        assert [p.energy for p in table.profile] == list(energies.values()), payload
        reports = json.loads(report)
        assert reports.keys() == energies.keys()
        for bid, rep in reports.items():
            for claimed, _, _ in rep["spectrum_matches"]:
                assert claimed == energies[bid], (payload, bid)


def test_a_colliding_branch_stops_no_other(tmp_path):
    # branch 1 of the roots CSV has two equal roots: verify names the pair,
    # reports every other branch and exits 3
    solve_code, csv_text, *_ = _solve_and_verify(tmp_path, "s", {"catalog": "sextic", "N": 3})
    assert solve_code == 0
    rows = csv_text.splitlines()
    z = {row.split(",")[1]: row.split(",")[2] for row in rows[1:] if row.startswith("1,")}
    roots = tmp_path / "collide.csv"
    roots.write_text("\n".join(row.replace(f"1,1,{z['1']},", f"1,1,{z['0']},")
                               for row in rows) + "\n")
    cfg = str(tmp_path / "s.json")
    code, out, err = run_cli(["verify", cfg, str(roots)])
    assert code == 3, (out, err)
    assert "branch 1: verification error: roots 0 and 1 collide" in err, err
    report = json.loads(out[out.index("{"):])
    assert sorted(report) == ["0", "2", "3"] and all(r["verdict"] for r in report.values())


def test_verify_evaluates_the_bae_residuals_once(tmp_path, monkeypatch):
    # split_energies' one bae.residuals pass is the only one
    solve_code, *_ = _solve_and_verify(tmp_path, "s", {"catalog": "sextic", "N": 3})
    assert solve_code == 0
    calls = []
    real = bae.residuals
    monkeypatch.setattr(bae, "residuals", lambda *a: calls.append(a) or real(*a))
    code, out, err = run_cli(["verify", str(tmp_path / "s.json"), str(tmp_path / "s.csv")])
    assert code == 0, (out, err)
    assert len(calls) == 1


def test_solve_and_verify_run_one_chain_from_roots_to_residual(tmp_path, monkeypatch):
    # each command splits, grids and takes the residual once, all through
    # verify.branch_setups; the spectrum box step runs once in verify and
    # never in solve. Each per-branch value has one producer: the roots'
    # x-preimages come from one CoordinateMap.preimages call (the grids and
    # verify's node counts read it), and the energies from one
    # bae.branch_energies call, which split_energies and solve's E column
    # read; solve's other call is enumeration's energy order
    counts = collections.Counter()
    for module, name in ((verify, "branch_setups"), (potential, "split_energies"),
                         (verify, "default_grids"), (verify, "schrodinger_residual"),
                         (verify, "_spectrum_boxes"), (bae, "branch_energies")):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, _real=real, _name=name: (
            counts.update([_name]) or _real(*a)))
    real_preimages = coords.CoordinateMap.preimages
    monkeypatch.setattr(coords.CoordinateMap, "preimages", lambda cmap, z: (
        counts.update(["preimages of the roots"] * (np.ndim(z) == 2))
        or real_preimages(cmap, z)))
    chain = {"branch_setups": 1, "split_energies": 1, "default_grids": 1,
             "schrodinger_residual": 1, "preimages of the roots": 1}
    for payload in ({"catalog": "sextic", "N": 10}, {"catalog": "trig-interval", "N": 8},
                    {"catalog": "sextic-type2", "N": 2}):
        cfg = write_config(tmp_path, "c.json", payload)
        roots = str(tmp_path / "c.csv")
        counts.clear()
        assert run_cli(["solve", cfg, "--out", roots])[0] == 0
        assert counts == chain | {"branch_energies": 2}, (payload, counts)
        counts.clear()
        assert run_cli(["verify", cfg, roots])[0] == 0
        assert counts == chain | {"_spectrum_boxes": 1, "branch_energies": 1}, (payload, counts)


# Configs whose FD level at a wall missed its claim by more than FD's 1e-2
# bound: the wall basis certifies them (trig-interval's nu = 1/2 walls; a
# wall where Q(a) != 0, cut at both of its x-preimages).
# two walls 1e-3 apart: branch 3's roots, -2.85e-4 and 2.42e-4, lie in the
# component between them
NARROW = {"Q": [1], "P": [0, 1], "N": 2,
          "singularities": [{"a": -0.0005, "mu": 0.6}, {"a": 0.0005, "mu": 0.7}]}


def test_a_narrow_component_between_two_walls_certifies_its_residual(tmp_path):
    # the certified interval ends at the walls themselves, so a component
    # narrower than any wall inset still gets its residual: every branch is
    # verified. On that 1e-3-wide box the wall basis sits at the
    # eigensolver's floor, about 1e-7 here, above DVR_AGREE's 4e-9: its
    # level agrees with its own check but misses the exact E = 4 by 1e-7, so
    # that branch alone fails (exit 3) with a spectrum match, not an error
    solve_code, csv_text, code, out, err, report = _solve_and_verify(tmp_path, "narrow", NARROW)
    rows = list(csv.DictReader(io.StringIO(csv_text)))
    assert solve_code == 0 and len(rows) == 12
    assert all(row["verified"] == "true" for row in rows), csv_text
    assert [row["z_k"] for row in rows if row["branch_id"] == "3"] == [
        "-0.00028501306077504063", "0.00024153480069163648"]
    assert code == 3 and out.count(": pass") == 5
    assert "verification error" not in err, err
    assert out.count(": FAIL") == 1 and "branch 3: FAIL" in out, out
    branch = json.loads(report)["3"]
    assert not branch["verdict"] and branch["node_count"] == 2 and branch["normalizable"]
    [(claimed, level, diff)] = branch["spectrum_matches"]
    assert claimed == 4.0 and abs(level - 4.0) <= 1e-6 and diff == abs(level - claimed)


TWO_WALL_STALL = {"Q": [1], "P": [0, 1], "N": 7,
                  "singularities": [{"a": -0.1, "mu": 0.01}, {"a": 0.1, "mu": 0.3}]}


def test_two_wall_branches_whose_residual_floors_above_1e12_are_written(tmp_path):
    # four of these branches' residuals floor at 1.5-2.5e-12, which the
    # bound on the Bethe equations' own scale accepts: all C(9, 2) = 36 are
    # written, and every one certifies
    solve_code, csv_text, code, out, err, _ = _solve_and_verify(tmp_path, "s", TWO_WALL_STALL)
    rows = list(csv.DictReader(io.StringIO(csv_text)))
    assert solve_code == 0 and len({row["branch_id"] for row in rows}) == 36
    assert all(row["verified"] == "true" for row in rows), csv_text
    assert code == 0 and out.count(": pass") == 36, err


# seeded two-wall draws at N = 9 with a close real root pair in one branch:
# each has all C(11, 2) = 55 branches
TWO_WALL_N9 = [
    {"Q": [1], "P": [0.2207, 1], "N": 9,
     "singularities": [{"a": -0.0989, "mu": 1.1016}, {"a": 0.0797, "mu": 1.136}]},
    {"Q": [1], "P": [-0.2397, 1], "N": 9,
     "singularities": [{"a": -0.1372, "mu": 0.19}, {"a": 0.0661, "mu": 0.0657}]},
]


@pytest.mark.parametrize("config", TWO_WALL_N9)
def test_two_wall_n9_writes_and_certifies_every_branch(tmp_path, config):
    # y is read straight from each Delta-eigenvector, so the close pair
    # stays real
    solve_code, csv_text, code, out, err, _ = _solve_and_verify(tmp_path, "w", config)
    rows = list(csv.DictReader(io.StringIO(csv_text)))
    assert solve_code == 0 and len({row["branch_id"] for row in rows}) == 55
    assert all(row["verified"] == "true" for row in rows), csv_text
    assert code == 0 and out.count(": pass") == 55, err


def test_trig_interval_n15_certifies(tmp_path):
    solve_code, _, code, out, err, _ = _solve_and_verify(
        tmp_path, "t", {"catalog": "trig-interval", "N": 15})
    assert solve_code == 0
    assert code == 0, (out, err)


def test_a_wall_off_the_turning_points_certifies(tmp_path):
    solve_code, _, code, out, err, _ = _solve_and_verify(tmp_path, "w", dict(
        MIRROR, singularities=[{"a": 1, "mu": 0.7}]))
    assert solve_code == 0
    assert code == 0, (out, err)


# The one rule of prepot.unbound_ends against the numerical oracle, on
# models the family screens it replaced got wrong: on a parabolic map with
# q1 < 0, W0 = -z/8 -> +infinity as z -> -infinity, so phi is bound there,
# while a screen read the sign of P's lead alone; and phi0 = exp(-x^3/3)
# grows as x -> -infinity, which no screen looked at.
@pytest.mark.parametrize("payload,warned", [
    ({"Q": [0, -4], "P": [0.3, 0.5], "N": 1}, False),
    ({"Q": [0, -4], "P": [0.3, -0.5], "N": 1}, True),
    ({"Q": [1], "P": [0, 0, 1], "N": 1}, True),
])
def test_classify_warns_where_verify_finds_no_normalizable_end(tmp_path, payload, warned):
    code, out, _ = run_cli(["classify", write_config(tmp_path, "c.json", payload)])
    assert code == 0
    assert ("[warning]" in out) == warned, out
    assert ("[warning] level N = 1 is not bound: phi_N ~ exp(" in out
            and "as z -> -infinity" in out) == warned, out
    solve_code, _, code, out, err, _ = _solve_and_verify(tmp_path, "c", payload)
    assert solve_code == 0
    if warned:
        assert code == 3 and "no normalizable domain component found" in err, (out, err)
    else:
        assert code == 0 and "normalizable=True" in out, (out, err)


def test_verify_passes_no_branch_at_an_end_the_rule_flags(tmp_path):
    # phi_1 ~ exp(3.6e-190/z) as z -> 0, that is x -> -infinity on z = e^x:
    # not bound, though phi starts to grow only near x = ln(3.6e-190), far
    # beyond the numerical scan's windows. normalizable is the rule's, so
    # verify passes no branch; solve's verified column reads the residual
    # alone. Branch 0's root 2.03e-190 lies within 1e-154 of every residual
    # point, where 1/(z - z_k)^2 overflows: the error names it, not a pole
    payload = {"Q": [0, 0, 1], "P": [3.6e-190, -1.27, 0, 0.5], "N": 1}
    code, out, _ = run_cli(["classify", write_config(tmp_path, "far.json", payload)])
    assert code == 0
    assert "phi_N ~ exp(3.6e-190/z) as z -> 0 is not square-integrable" in out, out
    solve_code, _, code, out, err, _ = _solve_and_verify(tmp_path, "far", payload)
    assert solve_code == 0
    assert code == 3, (out, err)
    assert ": pass" not in out and out.count("normalizable=False") == 2, out
    assert "from the root z = 2.0339e-190" in err and "pole" not in err, err


def test_a_ground_state_peaked_far_out_is_normalizable(tmp_path):
    # The branch is correct (residual 2.4e-12, FD level within 4.8e-11 of
    # E = 0, W0 -> +infinity at both ends), and unbound_ends flags no end.
    # phi0 = exp(x^2/2 - x^4/200) peaks at x = +-sqrt(50), where W0' = P
    # vanishes; the tests' normalizability scan grows its windows from the
    # core [-1, 1] four times before the peak, the state's bulk, not tail
    # growth.
    payload = {"Q": [1], "P": [0, -1, 0, 0.02], "N": 0}
    code, out, _ = run_cli(["classify", write_config(tmp_path, "d.json", payload)])
    assert code == 0 and "[warning]" not in out
    solve_code, _, code, out, err, _ = _solve_and_verify(tmp_path, "d", payload)
    assert solve_code == 0
    assert code == 0, (out, err)


def test_solve_failure_exits_2(tmp_path):
    # P - Q'/4 = z^2 + 1 has no real zero: the N=1 equations are unsolvable
    cfg = write_config(tmp_path, "nosol.json",
                       {"Q": [1.0], "P": [1.0, 0.0, 1.0], "N": 1})
    code, _, err = run_cli(["solve", cfg])
    assert code == 2
    assert "solver failure" in err


@pytest.mark.parametrize("payload,message", [
    ({"Q": [1], "P": [0, float("nan")], "N": 2}, "every P value must be finite"),
    ({"Q": [float("inf")], "P": [0, 1], "N": 2}, "every Q value must be finite"),
    ({"Q": [1], "P": [0.5, 1], "singularities": [{"a": float("inf"), "mu": 0.3}], "N": 1},
     "every singularity location value must be finite"),
    ({"Q": [1], "P": [0.5, 1], "singularities": [{"a": 0.0, "mu": float("nan")}], "N": 1},
     "every singularity exponent value must be finite"),
    ({"catalog": "sextic", "params": {"b": float("nan")}, "N": 2}, "must be finite"),
    ({"catalog": "trig-interval", "params": {"p1": float("inf")}, "N": 2}, "must be finite"),
    ({"Q": [True], "P": [0, 1], "N": 1}, 'config key "Q[0]" must be a number'),
    ({"Q": [1], "P": [0, 1], "singularities": [{"a": False, "mu": 0.3}], "N": 1},
     'config key "singularities[0].a" must be a number'),
    ({"Q": [1], "P": [0, 1], "N": True}, 'config key "N" must be an integer'),
    ({"Q": [1], "P": [0, 1], "N": 1, "branch": True}, 'config key "branch" must be +1 or -1'),
    ({"catalog": "sextic", "params": {"a": True}, "N": 2},
     'config key "params.a" must be a number'),
    ({"catalog": ["sextic"], "N": 1}, 'config key "catalog" must be a string'),
    ([{"Q": [1], "P": [0, 1], "N": 1}], "config must be a JSON object"),
    # an integer past the float range is not finite: no OverflowError traceback
    ({"Q": [10 ** 400], "P": [0, 1], "N": 1},
     'config key "Q[0]" must be finite (got an integer of 401 digits)'),
    ({"Q": [1], "P": [0, -10 ** 400], "N": 1}, 'config key "P[1]" must be finite'),
    ({"Q": [1], "P": [0.5, 1], "singularities": [{"a": 10 ** 400, "mu": 0.3}], "N": 1},
     'config key "singularities[0].a" must be finite'),
    ({"Q": [1], "P": [0.5, 1], "singularities": [{"a": 0.0, "mu": 10 ** 400}], "N": 1},
     'config key "singularities[0].mu" must be finite'),
    ({"catalog": "sextic", "params": {"a": 10 ** 400}, "N": 1},
     'config key "params.a" must be finite'),
    # and one past Python's digit limit is no JSON number qesf reads
    pytest.param('{"Q": [1' + "0" * 5000 + '], "P": [0, 1], "N": 1}', "Exceeds the limit",
                 id="digit-limit"),
    pytest.param('{"Q": [1], "P": [0, 1], "N": 1', "invalid JSON at line 1", id="invalid-json"),
    pytest.param(b"\xff\xfe{}", "'utf-8' codec can't decode byte 0xff", id="not-utf-8"),
    ({"catalog": "sextic", "params": [1.0], "N": 1}, 'config key "params" must be an object'),
    ({"P": [0, 1], "N": 1}, 'config key "Q" is required'),
    ({"Q": [1], "P": 1, "N": 1}, 'config key "P" must be a list of numbers'),
    ({"Q": [1], "P": [0, 1], "singularities": [5], "N": 1},
     'config key "singularities[0]" must be an object with "a" and "mu"'),
])
def test_non_finite_and_boolean_numbers_exit_4(tmp_path, payload, message):
    # a str payload is the file's text as it is, bytes its bytes
    path = tmp_path / "bad.json"
    if isinstance(payload, bytes):
        path.write_bytes(payload)
    else:
        path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    cfg, roots = str(path), str(tmp_path / "roots.csv")
    for argv in (["classify", cfg], ["solve", cfg], ["verify", cfg, roots], ["derive", cfg]):
        code, out, err = run_cli(argv)
        assert code == 4 and out == "", (argv, out, err)
        assert message in err, err


@pytest.mark.parametrize("argv,roots,message", [
    (["verify", "{cfg}", "{roots}"], "branch_id,k,z_k\n", "roots file {roots}: no branches"),
    (["verify", "{cfg}", "{roots}"], "branch_id,k,z_k\n0,0,0.5\n",
     "branch 0 has 1 roots but the model has N = 2"),
    (["catalog", "show"], "", "catalog show requires a name"),
    (["catalog", "list", "sextic"], "", "catalog list takes no name (got 'sextic')"),
], ids=["roots-with-no-branch", "branch-with-too-few-roots", "catalog-show-without-name",
        "catalog-list-with-a-name"])
def test_arguments_that_name_no_work_exit_4(tmp_path, argv, roots, message):
    paths = {"cfg": write_config(tmp_path, "h.json", HARMONIC), "roots": str(tmp_path / "r.csv")}
    (tmp_path / "r.csv").write_text(roots)
    code, out, err = run_cli([a.format(**paths) for a in argv])
    assert code == 4 and out == "", (out, err)
    assert message.format(**paths) in err, err


def test_size_cap_exits_4_before_the_eigenproblem(tmp_path, monkeypatch):
    def refused(*args):
        raise AssertionError("Delta-operators built above the size cap")

    monkeypatch.setattr(bae, "_delta_operators", refused)
    cfg = write_config(tmp_path, "t2.json", {"catalog": "sextic-type2", "N": 11})
    code, _, err = run_cli(["solve", cfg])
    assert code == 4
    assert "N <= 10" in err


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

