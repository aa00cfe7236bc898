"""Closed-form sinusoidal coordinates solving z'^2 = Q(z).

The sign structure of Q selects the family:

    q2 = q1 = 0          z linear in x
    q2 = 0, q1 != 0      z quadratic in x (parabolic)
    q2 > 0, disc = 0     pure exponential (Morse)
    q2 > 0, disc != 0    cosh / sinh
    q2 < 0               trigonometric, bounded between the zeros of Q

where disc = q1^2 - 4 q0 q2. The free integration constant is fixed by the
canonical particular solutions (z = sqrt(q0) x, z = (q1/4) x^2 - q0/q1,
z = exp(w x) - q1/(2 q2), z = c cosh(w x) - q1/(2 q2) with c > 0,
z = c sinh(w x) - q1/(2 q2), z = S - R cos(w x)). branch_sign picks the
monotone branch used by the inverse map (and, for exponential maps, the
growing vs. decaying solution).

The inverse map is preimages: one set of per-family formulas (_inverse)
applied on the declared branch and on the mirror one (the other
branch_sign) at once, with nan where z has no x. The walls, the grids and
the normalizability windows all read it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ModelError
from .poly import Poly

LINEAR = "linear"
PARABOLIC = "parabolic"
EXPONENTIAL = "exponential"
HYPERBOLIC = "hyperbolic"
TRIGONOMETRIC = "trigonometric"

_DOMAIN_TOL = 1e-9


@dataclass(frozen=True)
class CoordinateMap:
    family: str
    params: dict
    x_domain: tuple[float, float] = (-math.inf, math.inf)
    z_image: tuple[float, float] = (-math.inf, math.inf)
    branch_sign: int = 1

    @property
    def z_tol(self) -> float:
        """Tolerance of z-image membership: 1e-9 (1 + span), with span 1
        for an unbounded image."""
        lo, hi = self.z_image
        span = (hi - lo) if math.isfinite(hi) and math.isfinite(lo) else 1.0
        return _DOMAIN_TOL * (1.0 + abs(span))

    @property
    def x_turn(self) -> float | None:
        """x of the map's interior turning point, z'(x_t) = 0: the vertex
        of a parabolic map, the centre of a cosh map. z(x) is even about
        it. None for the monotone families, and for the trigonometric one,
        whose turning points are the ends of its x-domain."""
        if self.family == PARABOLIC:
            return self.params["xv"]
        if self.family == HYPERBOLIC and self.params["kind"] == "cosh":
            return self.params["xc"]
        return None

    # -- evaluation ---------------------------------------------------------

    def _check_x(self, x):
        lo, hi = self.x_domain
        finite = [abs(v) for v in (lo, hi) if math.isfinite(v)]
        tol = _DOMAIN_TOL * (1.0 + max(finite, default=0.0))
        if np.any(np.asarray(x) < lo - tol) or np.any(np.asarray(x) > hi + tol):
            raise DomainError(f"x outside domain {self.x_domain}")

    def z_of_x(self, x):
        self._check_x(x)
        p = self.params
        f = self.family
        xa = np.asarray(x, dtype=float)
        if f == LINEAR:
            out = p["slope"] * xa + p["intercept"]
        elif f == PARABOLIC:
            out = p["q1"] / 4.0 * (xa - p["xv"]) ** 2 + p["C"]
        elif f == EXPONENTIAL:
            with np.errstate(over="ignore"):  # inf far out; callers reject it
                out = p["amp"] * np.exp(p["sign"] * p["omega"] * xa) - p["shift"]
        elif f == HYPERBOLIC:
            if p["kind"] == "cosh":
                # half-angle form keeps z - z_min exact near the turning point
                half = np.sinh(p["omega"] * (xa - p["xc"]) / 2.0)
                out = (p["c"] - p["shift"]) + 2.0 * p["c"] * half * half
            else:
                out = p["c"] * np.sinh(p["omega"] * (xa - p["xc"])) - p["shift"]
        elif f == TRIGONOMETRIC:
            # half-angle form: cos(w dx) rounds to 1 near the turning point
            half = np.sin(p["omega"] * (xa - p["x0"]) / 2.0)
            out = (p["S"] - p["R"]) + 2.0 * p["R"] * half * half
        else:  # pragma: no cover
            raise ValueError(f"unknown family {f}")
        return out[()].item() if out.shape == () else out

    def preimages(self, z) -> np.ndarray:
        """x of z on the declared branch and on the mirror one (the other
        branch_sign), shape (2,) + z.shape. The two rows differ only where
        the map is two-to-one (parabolic, cosh and trigonometric maps; the
        trigonometric mirror lies outside the x-domain). nan where z lies
        outside z_image +- z_tol, and at an exponential map's image end."""
        lo, hi = self.z_image
        za = np.asarray(z, dtype=float)
        za = np.where((za >= lo - self.z_tol) & (za <= hi + self.z_tol),
                      np.clip(za, lo, hi), np.nan)
        return np.array([self._inverse(za, s) for s in (self.branch_sign, -self.branch_sign)])

    def _inverse(self, za: np.ndarray, s: int) -> np.ndarray:
        """x of z on the branch of sign s, for z inside z_image: the
        per-family formulas of preimages. nan at an exponential map's
        image end, where x is infinite."""
        p = self.params
        f = self.family
        if f == LINEAR:
            out = (za - p["intercept"]) / p["slope"]
        elif f == PARABOLIC:
            t = np.clip(4.0 * (za - p["C"]) / p["q1"], 0.0, None)
            out = p["xv"] + s * np.sqrt(t)
        elif f == EXPONENTIAL:
            ratio = (za + p["shift"]) / p["amp"]
            with np.errstate(divide="ignore", invalid="ignore"):
                out = np.where(ratio > 0, np.log(ratio) / (p["sign"] * p["omega"]), np.nan)
        elif f == HYPERBOLIC:
            y = (za + p["shift"]) / p["c"]
            if p["kind"] == "cosh":
                out = p["xc"] + s * np.arccosh(np.clip(y, 1.0, None)) / p["omega"]
            else:
                out = p["xc"] + np.arcsinh(y) / p["omega"]
        elif f == TRIGONOMETRIC:
            u = np.clip((p["S"] - za) / p["R"], -1.0, 1.0)
            out = p["x0"] + s * np.arccos(u) / p["omega"]
        else:  # pragma: no cover
            raise ValueError(f"unknown family {f}")
        return np.asarray(out)


def build(Q: Poly, branch_sign: int = 1) -> CoordinateMap:
    """Construct the closed-form coordinate map for z'^2 = Q(z)."""
    if branch_sign not in (1, -1):
        raise ModelError("branch_sign must be +1 or -1")
    if Q.is_zero():
        raise ModelError("Q must not be identically zero")
    if Q.degree > 2:
        raise ModelError(f"deg Q = {Q.degree} exceeds 2")

    q0, q1, q2 = Q.coeff(0), Q.coeff(1), Q.coeff(2)
    inf = math.inf

    if q2 == 0.0 and q1 == 0.0:
        if q0 <= 0:
            raise ModelError("constant Q must be positive (z'^2 = q0 > 0)")
        slope = branch_sign * math.sqrt(q0)
        return CoordinateMap(LINEAR, {"slope": slope, "intercept": 0.0},
                             (-inf, inf), (-inf, inf), branch_sign)

    if q2 == 0.0:
        C = -q0 / q1
        image = (C, inf) if q1 > 0 else (-inf, C)
        return CoordinateMap(PARABOLIC, {"q1": q1, "xv": 0.0, "C": C},
                             (-inf, inf), image, branch_sign)

    disc = q1 * q1 - 4.0 * q0 * q2
    scale = max(q1 * q1, abs(4.0 * q0 * q2), 1e-30)

    if q2 > 0.0:
        omega = math.sqrt(q2)
        shift = q1 / (2.0 * q2)
        if abs(disc) <= 1e-12 * scale:
            # Degenerate discriminant: pure single exponential (Morse).
            return CoordinateMap(
                EXPONENTIAL,
                {"omega": omega, "shift": shift, "amp": 1.0, "sign": float(branch_sign)},
                (-inf, inf), (-shift, inf), branch_sign)
        if disc > 0.0:
            c = math.sqrt(disc) / (2.0 * q2)
            return CoordinateMap(
                HYPERBOLIC,
                {"omega": omega, "shift": shift, "c": c, "xc": 0.0, "kind": "cosh"},
                (-inf, inf), (c - shift, inf), branch_sign)
        c = branch_sign * math.sqrt(-disc) / (2.0 * q2)
        return CoordinateMap(
            HYPERBOLIC,
            {"omega": omega, "shift": shift, "c": c, "xc": 0.0, "kind": "sinh"},
            (-inf, inf), (-inf, inf), branch_sign)

    # q2 < 0: oscillation between the two real zeros of Q.
    if disc <= 1e-12 * scale:
        raise ModelError("Q(z) has no positive range: no real trigonometric motion")
    omega = math.sqrt(-q2)
    S = -q1 / (2.0 * q2)
    R = math.sqrt(disc) / (2.0 * abs(q2))
    period = math.pi / omega
    dom = (0.0, period) if branch_sign > 0 else (-period, 0.0)
    return CoordinateMap(
        TRIGONOMETRIC, {"omega": omega, "S": S, "R": R, "x0": 0.0},
        dom, (S - R, S + R), branch_sign)
