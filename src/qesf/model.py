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
    level: str  # "error" | "warning" | "info"
    message: str


@dataclass(frozen=True)
class SolvabilityClass:
    tag: str
    rationale: str


def validate(spec: ModelSpec) -> list[Diagnostic]:
    """Structural checks plus advisory normalizability screening.

    Structural violations come back at level "error". Sign conditions known
    for the catalog families are advisory ("warning"); when the shape is not
    recognized a deferred flag ("info") points at the numerical check in the
    verify module. An empty list means clean.
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

    # Advisory normalizability screening for recognized shapes.
    q0 = spec.Q.coeff(0)
    q1 = spec.Q.coeff(1)
    q2 = spec.Q.coeff(2)
    m = spec.P.degree
    lead = spec.P.coeffs[-1]
    recognized = False
    if q2 == 0.0 and q1 == 0.0:
        # Linear coordinate z ~ x: ground state exp(-lead*x^(m+1)/...)
        if m >= 1:
            recognized = True
            if lead < 0:
                out.append(Diagnostic(
                    "warning",
                    "phi0 not square-integrable: leading coefficient of P "
                    "must be positive for a linear coordinate"))
    elif q2 == 0.0 and q1 != 0.0:
        # Parabolic coordinate: image is a half-line in the sign of q1.
        if m >= 1:
            recognized = True
            if lead * q1 < 0:
                out.append(Diagnostic(
                    "warning",
                    "phi0 not square-integrable: leading coefficient of P "
                    "must carry the sign of q1 for a parabolic coordinate"))
    elif q2 > 0.0 and q1 == 0.0 and q0 == 0.0:
        # Pure exponential coordinate (Morse family).
        recognized = True
        if m == 2 and spec.P.coeff(2) < 0:
            out.append(Diagnostic(
                "warning", "phi0 not square-integrable: quadratic P coefficient "
                "must be positive for an exponential coordinate"))
        elif m <= 1 and lead <= 0:
            out.append(Diagnostic(
                "warning", "no normalizable ground state: linear P coefficient "
                "must be positive for an exponential coordinate"))
        elif all(s.location == 0.0 for s in sings):
            out.extend(_exponential_level_bound(spec))
        if spec.P.coeff(0) > 0:
            out.append(Diagnostic(
                "warning", "no normalizable ground state: phi0 ~ exp(p0/(q2 z)) "
                "blows up as z -> 0 when the constant P coefficient p0 > 0 "
                "on an exponential coordinate"))
    for s in sings:
        if s.exponent < 0 and s.exponent != -float(spec.N):
            out.append(Diagnostic(
                "warning",
                f"negative singularity exponent mu={s.exponent}: only the "
                f"mu = -N case is a documented construction"))
    if not recognized:
        out.append(Diagnostic(
            "info",
            "normalizability not decided structurally; resolve numerically "
            "with verify.normalizability_check"))
    return out


def _exponential_level_bound(spec: ModelSpec) -> list[Diagnostic]:
    """Warnings for the ends at which level N is not bound on the
    exponential coordinate Q = q2 z^2.

    With every singularity at z = 0 (total exponent mu), W0 = int P/Q dz
    gives phi_N = z^(mu - p1/q2) exp(p0/(q2 z) - p2 z/q2) prod_k (z - z_k),
    and dx = dz / (sqrt(q2) z). Where the exponential factor is 1 (p0 = 0
    at z -> 0, deg P <= 1 at z -> infinity), phi_N is a power z^e there,
    square-integrable only for e > 0 at z -> 0 and e < 0 at z -> infinity.
    For the Morse presets both conditions read A > N alpha.
    """
    P, q2, N = spec.P, spec.Q.coeff(2), spec.N
    mu = sum(s.exponent for s in spec.singularities)
    ends = []
    if P.degree <= 1 and P.coeff(1) <= q2 * (N + mu):
        ends.append(("z -> infinity", N + mu - P.coeff(1) / q2, "p1 > q2 (N + mu)"))
    if P.coeff(0) == 0.0 and P.coeff(1) >= q2 * mu:
        ends.append(("z -> 0", mu - P.coeff(1) / q2, "p1 < q2 mu"))
    return [Diagnostic(
        "warning", f"level N = {N} is not bound: phi_N ~ z^{e + 0.0:g} as {end} is not "
        f"square-integrable on the exponential coordinate (needs {need}, "
        f"A > N alpha for the Morse presets)") for end, e, need in ends]


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
