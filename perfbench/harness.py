"""Running qesf from a source checkout: environment, one config, its checks.

The benchmark drives the program through its own command line,
`qesf.cli.main`, in-process: one `solve` and one `verify` per config, as a
closed loop with one client. Everything timed here is a call into
`cli.main`; the output checks run outside the timed regions.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import platform
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from workloads import MULTISTART_SEED, Config

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
ENERGY_TOL = 1e-8
# Solves per config per pass. Each re-solve must give the first CSV byte for
# byte; the extra samples steady the solve percentiles, whose single calls
# (~0.1 s of interpreter-bound work) vary far more than verify's.
SOLVE_REPEATS = 2


class SetupError(Exception):
    """The checkout cannot be benchmarked (no qesf sources, or the wrong ones)."""


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - not Linux
        return os.cpu_count() or 1


def cap_threads() -> int:
    """Set the BLAS/OpenMP thread count, capped at nproc; call before numpy loads."""
    cap = nproc()
    want = cap
    for var in THREAD_VARS:
        try:
            want = min(want, int(os.environ[var]))
        except (KeyError, ValueError):
            pass
    threads = max(1, min(want, cap))
    for var in THREAD_VARS:
        os.environ[var] = str(threads)
    return threads


def import_qesf(root: Path):
    """Import qesf from `root/src`, refusing any other copy."""
    src = root / "src"
    if not (src / "qesf" / "cli.py").is_file():
        raise SetupError(f"no qesf sources under {src}")
    sys.path.insert(0, str(src))
    import qesf
    import qesf.cli
    if Path(qesf.__file__).resolve().parent != (src / "qesf").resolve():
        raise SetupError(f"imported qesf from {qesf.__file__}, not from {src}")
    return qesf


def git_commit(root: Path) -> str:
    """HEAD of the checkout, or 'unknown' where git or the repository is missing."""
    if not (root / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment(root: Path, threads: int, workload: str, seed: int) -> dict:
    import numpy
    import scipy
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_omp_threads": threads,
        "git_commit": git_commit(root),
        "workload": workload,
        "seed": seed,
        "multistart_seed": MULTISTART_SEED,
    }


@dataclass
class Outcome:
    """What one solve + verify of one config did, and what its checks found."""

    solve_s: list = field(default_factory=list)  # one per solve (SOLVE_REPEATS)
    verify_s: float = 0.0
    solve_rc: int = -1
    verify_rc: int | None = None
    csv_bytes: bytes = b""
    found: int = 0
    certified: int = 0
    failures: list = field(default_factory=list)  # count against failed_frac
    wrong: list = field(default_factory=list)  # outputs that are incorrect


class Runner:
    """Runs configs through `qesf solve` and `qesf verify` in a work directory."""

    def __init__(self, qesf, workdir: Path, configs: list[Config], tracer=None):
        self.cli = qesf.cli
        self.catalog = qesf.catalog
        self.configs = configs
        self.tracer = tracer
        self.first_csv: dict[int, bytes] = {}
        workdir.mkdir(parents=True, exist_ok=True)
        self.paths = []
        for i, c in enumerate(configs):
            p = workdir / f"config-{i}.json"
            p.write_text(json.dumps(c.cfg))
            self.paths.append((str(p), str(workdir / f"roots-{i}.csv"),
                               str(workdir / f"report-{i}.json")))

    def _call(self, argv: list[str], command: str) -> tuple[int, float]:
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            if self.tracer is None:
                t0 = time.perf_counter()
                rc = self.cli.main(argv)
                return rc, time.perf_counter() - t0
            with self.tracer.command(command) as rec:
                rc = self.cli.main(argv)
            return rc, rec[5] - rec[4]

    def run(self, i: int) -> Outcome:
        c = self.configs[i]
        cfg_path, csv_path, rep_path = self.paths[i]
        out = Outcome()
        for stale in (csv_path, rep_path):
            Path(stale).unlink(missing_ok=True)
        for _ in range(SOLVE_REPEATS):
            out.solve_rc, took = self._call(
                ["solve", cfg_path, "--out", csv_path, "--seed", str(MULTISTART_SEED)], "solve")
            out.solve_s.append(took)
            if out.solve_rc != 0:
                out.failures.append(f"solve exited {out.solve_rc}")
                return out
            csv_bytes = Path(csv_path).read_bytes()
            first = self.first_csv.setdefault(i, csv_bytes)
            if csv_bytes != first:
                out.failures.append("re-solve CSV differs")
                out.wrong.append("re-solve CSV differs from the first solve")
        out.csv_bytes = csv_bytes
        out.verify_rc, out.verify_s = self._call(
            ["verify", cfg_path, csv_path, "--json-out", rep_path], "verify")
        self._check(c, out, rep_path)
        return out

    def _check(self, c: Config, out: Outcome, rep_path: str) -> None:
        rows = list(csv.DictReader(io.StringIO(out.csv_bytes.decode())))
        energies = {int(r["branch_id"]): float(r["E"]) for r in rows}
        out.found = len(energies)
        expected = c.slot.expected_branches
        if expected is not None and out.found > expected:
            out.wrong.append(f"{out.found} branches found, at most {expected} exist")
        if c.slot.closed_form:
            name, N = c.slot.family, c.slot.N
            exp = self.catalog.expected_energies(name, c.params, N)
            shift = self.catalog.reference_shift(name, c.params, N)
            for e in energies.values():
                if not any(abs(e + shift - x) < ENERGY_TOL for x in exp):
                    out.failures.append("closed-form energy mismatch")
                    out.wrong.append(f"E + shift = {e + shift!r} is not in {exp}")
        try:
            with open(rep_path) as fh:
                report = json.load(fh)
        except (OSError, json.JSONDecodeError):
            report = {}
        verdicts = [r["verdict"] for r in report.values()]
        out.certified = sum(verdicts)
        if out.verify_rc != 0:
            out.failures.append(f"verify exited {out.verify_rc}")
        if out.certified < out.found:
            out.failures.append(f"{out.found - out.certified} branch(es) not certified")
        if (out.verify_rc == 0) != (len(verdicts) == out.found and all(verdicts)):
            out.wrong.append(f"verify exit {out.verify_rc} disagrees with its verdicts")
