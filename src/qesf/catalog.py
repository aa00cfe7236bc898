"""Named presets for the worked model families.

Each entry bundles a parameterized spec builder, default parameters, the
closed-form energies where the family has them, and the reference shift that
aligns the split-energy convention (potential keeps its static constant)
with the family's conventional normal form.

Each entry also names a preset N; shipped_configs() turns the defaults at
that N into the config schema the CLI accepts, so the presets double as
ready-to-run config files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .errors import ModelError
from .model import ModelSpec, Singularity
from .poly import Poly

ORACLE_REQUIRED = "oracle-required"


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    description: str
    citation: str
    defaults: dict
    preset_N: int
    build: Callable[[dict, int, int], ModelSpec]
    energy_formula: str
    expected: Callable[[dict, int], list | str]
    reference_shift: Callable[[dict, int], float]
    check: Callable[[dict], None]


def _need_positive(params: dict, *names: str) -> None:
    for nm in names:
        if params[nm] <= 0:
            raise ModelError(f"parameter {nm} must be > 0 (got {params[nm]})")


def _harmonic_build(p, N, branch):
    return ModelSpec(Poly([1.0]), Poly([0.0, p["b"]]), (), N, branch or 1)


def _sextic_build(p, N, branch):
    return ModelSpec(Poly([0.0, 4.0]), Poly([0.0, 2.0 * p["b"], 2.0 * p["a"]]),
                     (), N, branch or 1)


def _sextic2_build(p, N, branch):
    return ModelSpec(Poly([1.0]), Poly([0.0, p["b"], 0.0, p["a"]]), (), N, branch or 1)


def _morse_es_build(p, N, branch):
    al, A, B = p["alpha"], p["A"], p["B"]
    return ModelSpec(Poly([0.0, 0.0, al * al]), Poly([-al * B, al * A]),
                     (), N, branch or 1)


def _sextic_halfline_build(p, N, branch):
    return ModelSpec(Poly([0.0, 4.0]), Poly([0.0, 2.0 * p["b"], 2.0 * p["a"]]),
                     (Singularity(0.0, p["p"]),), N, branch or 1)


def _morse_p_build(p, N, branch):
    al, A = p["alpha"], p["A"]
    mu = p["mu"] if p.get("mu") is not None else -float(N)
    return ModelSpec(Poly([0.0, 0.0, al * al]),
                     Poly([0.0, -al * A, al * al / 2.0]),
                     (Singularity(0.0, mu),), N, branch or -1)


def _trig_build(p, N, branch):
    a = p["a"]
    return ModelSpec(Poly([0.0, 4.0, -4.0]), Poly([0.0, -4.0 * a, 4.0 * a]),
                     (Singularity(0.0, p["p1"]), Singularity(1.0, p["p2"])),
                     N, branch or 1)


def _sextic_level(a: float, b: float, p: float, N: int) -> list:
    # Closed-form branch energies for N <= 1 against the conventional zero
    # point: E = 4 a sum(z_k) + (4N + 4p + 1) b.
    if N == 0:
        return [(4 * 0 + 4 * p + 1) * b]
    if N == 1:
        rad = math.sqrt(b * b + 2 * a * (4 * p + 1))
        return sorted([(-2 * b - 2 * rad) + (5 + 4 * p) * b,
                       (-2 * b + 2 * rad) + (5 + 4 * p) * b])
    return ORACLE_REQUIRED


ENTRIES: dict[str, CatalogEntry] = {}


def _register(entry: CatalogEntry) -> None:
    ENTRIES[entry.name] = entry


_register(CatalogEntry(
    name="harmonic",
    description="Harmonic oscillator: linear coordinate, linear driver",
    citation="textbook oscillator; root systems are the Stieltjes "
             "electrostatic equilibria at Hermite zeros",
    defaults={"b": 1.0},
    preset_N=2,
    build=_harmonic_build,
    energy_formula="E = b (2N + 1)",
    expected=lambda p, N: [p["b"] * (2 * N + 1)],
    reference_shift=lambda p, N: p["b"],
    check=lambda p: _need_positive(p, "b"),
))

_register(CatalogEntry(
    name="sextic",
    description="Sextic oscillator (type-1 QES): parabolic coordinate, "
                "quadratic driver",
    citation="the classic quasi-exactly-solvable sextic anharmonic "
             "oscillator, symmetric sector",
    defaults={"a": 1.0, "b": 0.0},
    preset_N=1,
    build=_sextic_build,
    energy_formula="E = 4 a sum(z_k) + (4N + 1) b",
    expected=lambda p, N: _sextic_level(p["a"], p["b"], 0.0, N),
    reference_shift=lambda p, N: p["b"],
    check=lambda p: _need_positive(p, "a"),
))

_register(CatalogEntry(
    name="sextic-type2",
    description="Sextic oscillator with linear coordinate (type-2 QES): "
                "same ground-state factor, root-dependent potentials",
    citation="type-2 QES sextic family: N+1 parameter-shifted potentials "
             "share one level",
    defaults={"a": 1.0, "b": 0.0},
    preset_N=1,
    build=_sextic2_build,
    energy_formula="E = 2 a sum(z_k^2) + (2N + 1) b",
    expected=lambda p, N: _sextic2_expected(p, N),
    reference_shift=lambda p, N: p["b"],
    check=lambda p: _need_positive(p, "a"),
))

_register(CatalogEntry(
    name="morse-es",
    description="Morse potential, exponential coordinate z = exp(alpha x)",
    citation="shape-invariant Morse potential; full spectrum algebraic",
    defaults={"A": 5.0, "alpha": 1.0, "B": 0.5},
    preset_N=2,
    build=_morse_es_build,
    energy_formula="E = A^2 - (A - N alpha)^2",
    expected=lambda p, N: [p["A"] ** 2 - (p["A"] - N * p["alpha"]) ** 2],
    reference_shift=lambda p, N: 0.0,
    check=lambda p: _need_positive(p, "A", "alpha", "B"),
))

_register(CatalogEntry(
    name="sextic-halfline",
    description="Sextic oscillator on the half-line with an x^(2p) "
                "ground-state prefactor; p in {0, 1/2} removes the 1/x^2 "
                "term and recovers the full-line model",
    citation="half-line sextic family with centrifugal-like coupling "
             "4p(p-1/2)/x^2",
    defaults={"a": 1.0, "b": 0.0, "p": 0.3},
    preset_N=1,
    build=_sextic_halfline_build,
    energy_formula="E = 4 a sum(z_k) + (4N + 4p + 1) b",
    expected=lambda p, N: _sextic_level(p["a"], p["b"], p["p"], N),
    reference_shift=lambda p, N: (4.0 * p["p"] + 1.0) * p["b"],
    check=lambda p: _need_positive(p, "a"),
))

_register(CatalogEntry(
    name="morse-p",
    description="Morse potential from the decaying exponential coordinate "
                "z = exp(-alpha x) with a z^mu prefactor; mu = -N (the "
                "default) reproduces the standard Morse spectrum with "
                "roots at generalized Laguerre zeros",
    citation="second Morse construction; equivalent to morse-es under "
             "z -> 1/z",
    defaults={"A": 5.0, "alpha": 1.0, "mu": None},
    preset_N=2,
    build=_morse_p_build,
    energy_formula="E = A^2 - (A - N alpha)^2 for mu = -N "
                   "(reported potential absorbs the level otherwise)",
    expected=lambda p, N: ([p["A"] ** 2 - (p["A"] - N * p["alpha"]) ** 2]
                           if p.get("mu") is None or p["mu"] == -float(N)
                           else ORACLE_REQUIRED),
    reference_shift=lambda p, N: (p["A"] ** 2 - (p["A"] - N * p["alpha"]) ** 2
                                  if p.get("mu") is None or p["mu"] == -float(N)
                                  else 0.0),
    check=lambda p: _need_positive(p, "A", "alpha"),
))

_register(CatalogEntry(
    name="trig-interval",
    description="Trigonometric interval model on 0 < x < pi/2: z = sin^2 x "
                "with boundary exponents p1 (at z=0) and p2 (at z=1)",
    citation="two-singularity interval family; driver 4 a z (z - 1)",
    defaults={"a": 1.0, "p1": 0.25, "p2": 0.25},
    preset_N=1,
    build=_trig_build,
    energy_formula="no closed form; certified against the FD spectrum",
    expected=lambda p, N: ORACLE_REQUIRED,
    reference_shift=lambda p, N: 8.0 * p["p1"] * p["p2"],
    check=lambda p: _need_positive(p, "p1", "p2"),
))


def _sextic2_expected(p, N):
    a, b = p["a"], p["b"]
    if N == 0:
        return [b]
    if N == 1:
        # roots of a z^3 + b z = 0: z = 0 and, when b/a < 0, +-sqrt(-b/a)
        out = [3 * b]
        if b / a < 0:
            out.append(2 * a * (-b / a) + 3 * b)
        return sorted(set(out))
    return ORACLE_REQUIRED


def names() -> list[str]:
    return sorted(ENTRIES)


def get(name: str) -> CatalogEntry:
    if name not in ENTRIES:
        raise ModelError(f"unknown catalog entry {name!r}; known: {', '.join(names())}")
    return ENTRIES[name]


def instantiate(name: str, N: int = 1, branch_sign: int | None = None,
                **overrides) -> ModelSpec:
    """Concrete ModelSpec from a named entry with parameter overrides."""
    entry = get(name)
    params = dict(entry.defaults)
    for key, val in overrides.items():
        if key not in params:
            raise ModelError(f"{name} has no parameter {key!r}; "
                             f"known: {', '.join(sorted(params))}")
        params[key] = val
    entry.check(params)
    return entry.build(params, N, branch_sign)


def expected_energies(name: str, params: dict | None, N: int):
    """Closed-form energies in the entry's conventional normal form.

    Returns ORACLE_REQUIRED when the family has no closed form at this N.
    """
    entry = get(name)
    p = dict(entry.defaults)
    p.update(params or {})
    return entry.expected(p, N)


def reference_shift(name: str, params: dict | None, N: int) -> float:
    entry = get(name)
    p = dict(entry.defaults)
    p.update(params or {})
    return float(entry.reference_shift(p, N))


def shipped_configs() -> dict:
    """Config (CLI schema) of every entry: its defaults at its preset N. A
    parameter whose default is None is left out, which means the same."""
    return {name: {"catalog": name,
                   "params": {k: v for k, v in entry.defaults.items() if v is not None},
                   "N": entry.preset_N,
                   "branch": instantiate(name, N=entry.preset_N).branch_sign}
            for name, entry in ENTRIES.items()}
