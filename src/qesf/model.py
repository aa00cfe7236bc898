"""Model definitions and the solvability classifier.

A model is fixed by two polynomials: Q (degree <= 2) giving the squared
coordinate velocity z'^2 = Q(z), and P (degree <= 3) giving W0' z' = P(z),
plus up to two boundary singularities (location a_j, exponent mu_j) that
multiply the ground state by |z - a_j|^mu_j, and the polynomial order N of
the excited-state factor.

Solvability is decided purely by the degrees (m, n) and the q0-coupling of
the singularities:
    max{m, n-1} <= 1  -> exactly solvable (all levels algebraic)
    max{m, n-1} == 2  -> type-1 QES (one potential, N+1 algebraic levels)
    m == 3            -> type-2 QES (N+1 potentials sharing one level)
A singularity at a point where Q does not vanish couples the roots into the
potential (a pole of weight 2 mu Q(a) sum_k 1/(a - z_k)) and makes an
otherwise ES or type-1 model singularity-induced.

Whether phi_N is square-integrable is not decided here but on the built
model, by one rule over every end (prepot.unbound_ends).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ModelError
from .poly import Poly

EXACTLY_SOLVABLE = "exactly-solvable"
QES_TYPE1 = "qes-type1"
QES_TYPE2 = "qes-type2"
QES_SINGULAR = "qes-singularity-induced"

_SING_MIN_GAP = 1e-12
TURNING_TOL = 1e-12  # |Q(a)| at or below it makes a a turning point


@dataclass(frozen=True)
class Singularity:
    """One boundary singularity: ground-state factor |z - location|^exponent."""

    location: float
    exponent: float


@dataclass(frozen=True)
class ModelSpec:
    """Complete definition of one model."""

    Q: Poly
    P: Poly
    singularities: tuple[Singularity, ...] = ()
    N: int = 0
    branch_sign: int = 1


@dataclass(frozen=True)
class Diagnostic:
    level: str  # "error" | "warning"
    message: str


@dataclass(frozen=True)
class SolvabilityClass:
    tag: str
    rationale: str


def validate(spec: ModelSpec) -> list[Diagnostic]:
    """Structural checks plus the negative-exponent advisory.

    Structural violations come back at level "error"; a negative
    singularity exponent other than the documented mu = -N is a "warning".
    An empty list means clean. Whether level N is bound is read from the
    built model: prepot.unbound_ends.
    """
    out: list[Diagnostic] = []

    numbers = {"Q": spec.Q.coeffs, "P": spec.P.coeffs,
               "singularity location": [s.location for s in spec.singularities],
               "singularity exponent": [s.exponent for s in spec.singularities]}
    for what, values in numbers.items():
        if not all(math.isfinite(v) for v in values):
            out.append(Diagnostic("error", f"every {what} value must be finite "
                                           f"(got {list(values)})"))
    if out:
        return out
    if spec.Q.is_zero():
        out.append(Diagnostic("error", "Q must not be identically zero"))
    if spec.Q.degree > 2:
        out.append(Diagnostic("error", f"deg Q = {spec.Q.degree} exceeds 2"))
    if spec.P.degree > 3:
        out.append(Diagnostic("error", f"deg P = {spec.P.degree} exceeds 3"))
    if len(spec.singularities) > 2:
        out.append(Diagnostic("error", "at most two singularities supported"))
    if not isinstance(spec.N, int) or spec.N < 0:
        out.append(Diagnostic("error", f"N must be an integer >= 0 (got {spec.N!r})"))
    if spec.branch_sign not in (1, -1):
        out.append(Diagnostic("error", f"branch_sign must be +1 or -1 (got {spec.branch_sign!r})"))
    sings = spec.singularities
    for i in range(len(sings)):
        for j in range(i + 1, len(sings)):
            if abs(sings[i].location - sings[j].location) <= _SING_MIN_GAP:
                out.append(Diagnostic(
                    "error",
                    f"singularity locations coincide: a={sings[i].location}"))
    if any(d.level == "error" for d in out):
        return out

    for s in sings:
        if s.exponent < 0 and s.exponent != -float(spec.N):
            out.append(Diagnostic(
                "warning",
                f"negative singularity exponent mu={s.exponent}: only the "
                f"mu = -N case is a documented construction"))
    return out


def is_turning_point(Q: Poly, a: float) -> bool:
    """Whether Q vanishes at a, up to TURNING_TOL: there z'^2 = Q(z) = 0."""
    return abs(Q(a)) <= TURNING_TOL


def promoted_singularities(spec: ModelSpec) -> list[Singularity]:
    """Singularities with a nonzero exponent at a point where Q does not
    vanish: they couple the roots into the potential."""
    return [s for s in spec.singularities
            if s.exponent != 0.0 and not is_turning_point(spec.Q, s.location)]


def classify(spec: ModelSpec) -> SolvabilityClass:
    """Solvability class from the polynomial degrees and pole couplings."""
    diags = validate(spec)
    errors = [d.message for d in diags if d.level == "error"]
    if errors:
        raise ModelError("invalid model: " + "; ".join(errors))

    m = spec.P.degree
    n = spec.Q.degree
    top = max(m, n - 1)
    promoted = promoted_singularities(spec)
    if top <= 2 and promoted:
        locs = ", ".join(f"a={s.location:g}" for s in promoted)
        return SolvabilityClass(
            QES_SINGULAR,
            f"max{{m, n-1}} = {top} <= 2 but Q(a) != 0 at {locs}: the "
            f"singularity couples the roots into the potential")
    if top <= 1:
        return SolvabilityClass(
            EXACTLY_SOLVABLE,
            f"max{{m, n-1}} = max{{{m}, {n - 1}}} = {top} <= 1: roots enter "
            f"only through an additive constant")
    if top == 2:
        return SolvabilityClass(
            QES_TYPE1,
            f"max{{m, n-1}} = max{{{m}, {n - 1}}} = 2: N enters the linear "
            f"term of the potential, roots only additively")
    # top > 2 means m == 3, since validate caps deg P at 3 and deg Q at 2
    return SolvabilityClass(
        QES_TYPE2,
        "m = 3: roots enter the linear term, yielding N+1 distinct "
        "potentials sharing one level")
