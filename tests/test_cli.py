import json
import subprocess
import sys
import warnings

import pytest

from qesf import bae, cli


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
    # W0's 1.5 ln|z - 1| gives phi ~ |x - xc|^-3 at the turning point
    solve_code, csv_text, code, _, err, _ = _solve_and_verify(
        tmp_path, "c", {"Q": [-1, 0, 1], "P": [0, 3], "N": 1})
    assert solve_code == 0
    assert csv_text.splitlines()[1].endswith(",false")
    assert code == 3
    assert "no normalizable domain component found" in err


# z = sin^2 x: the wall z = 1 at x = pi/2 has nu = -0.2, so phi is bound and
# normalizable there, but verify needs nu > 0 at each wall
NEGATIVE_NU_WALL = {"Q": [0, 4, -4], "P": [0, -4, 4], "N": 1,
                    "singularities": [{"a": 0, "mu": 0.25}, {"a": 1, "mu": -0.1}]}


def test_a_wall_the_fd_oracle_cannot_take_is_named(tmp_path):
    solve_code, csv_text, code, out, err, _ = _solve_and_verify(tmp_path, "n", NEGATIVE_NU_WALL)
    assert solve_code == 0 and len(csv_text.splitlines()) == 3
    assert code == 3
    reason = ("no normalizable domain component found; verify needs nu > 0 at "
              "each wall, and the wall at x = 1.5708 has nu = -0.2")
    assert err.count(f"verification error: {reason}") == 2, (out, err)


# z = x^2 reaches the wall a = 1, where Q(1) = 4 != 0, at x = -1 and x = 1
MIRROR = {"Q": [0, 4], "P": [0, 0, 2], "singularities": [{"a": 1, "mu": 0.3}], "N": 1}


def test_a_wall_is_cut_at_both_of_its_x_preimages(tmp_path):
    solve_code, csv_text, code, out, _, _ = _solve_and_verify(tmp_path, "m", MIRROR)
    rows = csv_text.splitlines()[1:]
    assert solve_code == 0 and len(rows) == 3
    assert all(row.endswith(",true") for row in rows)
    assert code == 0 and out.count(": pass") == 3


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
], ids=["negative-Q", "negative-square-Q", "irreducible-Q"])
def test_an_unbuildable_model_exits_4_from_every_command(tmp_path, payload, message):
    cfg = write_config(tmp_path, "u.json", payload)
    roots = tmp_path / "roots.csv"
    roots.write_text("branch_id,k,z_k\n0,0,0.5\n")
    for argv in (["classify", cfg], ["solve", cfg], ["verify", cfg, str(roots)],
                 ["derive", cfg]):
        code, out, err = run_cli(argv)
        assert code == 4 and out == "", (argv, out, err)
        assert err.startswith("error: ") and message in err, (argv, err)


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
     (cli.verify, "verify_branches")),
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
    ("solve", ["--grid-points", "5"], "--grid-points must be at least 8 (got 5)"),
    ("solve", ["--grid-points", "-3"], "--grid-points must be at least 8 (got -3)"),
    ("verify", ["--grid-points", "7"], "--grid-points must be at least 8 (got 7)"),
    ("solve", ["--tol", "0"], "--tol must be finite and positive (got 0)"),
    ("solve", ["--tol", "nan"], "--tol must be finite and positive (got nan)"),
    ("solve", ["--tol", "inf"], "--tol must be finite and positive (got inf)"),
    ("verify", ["--tol", "-1"], "--tol must be finite and positive (got -1)"),
    ("verify", ["--tol", "nan"], "--tol must be finite and positive (got nan)"),
])
def test_out_of_range_flags_exit_4(tmp_path, command, flags, message):
    # a grid needs 8 points and a tolerance is finite and positive: anything
    # else is invalid input, not a run that reports every branch unverified
    cfg = write_config(tmp_path, "h.json", HARMONIC)
    out_csv = tmp_path / "roots.csv"
    assert run_cli(["solve", cfg, "--out", str(out_csv)])[0] == 0
    code, out, err = run_cli([command, cfg] + [str(out_csv)] * (command == "verify") + flags)
    assert code == 4, (out, err)
    assert out == "" and f"error: {message}" in err


def test_the_smallest_grid_is_accepted(tmp_path):
    cfg = write_config(tmp_path, "h.json", HARMONIC)
    code, out, _ = run_cli(["solve", cfg, "--grid-points", "8"])
    assert code == 0 and len(out.splitlines()) == 3


# Configs whose FD level at a wall missed its claim by more than FD's 1e-2
# bound: the wall basis certifies them (trig-interval's nu = 1/2 walls; a
# wall where Q(a) != 0, cut at both of its x-preimages).
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


def test_a_ground_state_peaked_far_out_is_normalizable(tmp_path):
    # The branch is correct (residual 2.4e-12, FD level within 4.8e-11 of
    # E = 0, W0 -> +infinity at both ends), and unbound_ends flags no end.
    # phi0 = exp(x^2/2 - x^4/200) peaks at x = +-sqrt(50), where W0' = P
    # vanishes; the windows grow from the core [-1, 1] four times before
    # the peak, which is the state's bulk, not tail growth.
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
])
def test_non_finite_and_boolean_numbers_exit_4(tmp_path, payload, message):
    cfg = write_config(tmp_path, "bad.json", payload)
    for command in ("classify", "solve"):
        code, out, err = run_cli([command, cfg])
        assert code == 4, (command, out, err)
        assert message in err, err


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

