"""Closed-form sinusoidal coordinates solving z'^2 = Q(z).

The sign structure of Q selects the family:

    q2 = q1 = 0          z linear in x
    q2 = 0, q1 != 0      z quadratic in x (parabolic)
    q2 > 0, disc = 0     pure exponential (Morse)
    q2 > 0, disc != 0    cosh / sinh
    q2 < 0               trigonometric, bounded between the zeros of Q

where disc = q1^2 - 4 q0 q2. Without an anchor the canonical particular
solutions are produced (z = sqrt(q0) x, z = (q1/4) x^2 - q0/q1,
z = exp(w x) - q1/(2 q2), z = S - R cos(w x)); an anchor (x0, z0) shifts the
free integration constant so that z(x0) = z0. branch_sign picks the monotone
branch used by the inverse map (and, for exponential maps, the growing vs.
decaying solution).
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

    def dz_dx(self, x):
        self._check_x(x)
        p = self.params
        f = self.family
        xa = np.asarray(x, dtype=float)
        if f == LINEAR:
            out = p["slope"] * np.ones_like(xa)
        elif f == PARABOLIC:
            out = p["q1"] / 2.0 * (xa - p["xv"])
        elif f == EXPONENTIAL:
            out = p["sign"] * p["omega"] * p["amp"] * np.exp(p["sign"] * p["omega"] * xa)
        elif f == HYPERBOLIC:
            if p["kind"] == "cosh":
                out = p["c"] * p["omega"] * np.sinh(p["omega"] * (xa - p["xc"]))
            else:
                out = p["c"] * p["omega"] * np.cosh(p["omega"] * (xa - p["xc"]))
        elif f == TRIGONOMETRIC:
            out = p["R"] * p["omega"] * np.sin(p["omega"] * (xa - p["x0"]))
        else:  # pragma: no cover
            raise ValueError(f"unknown family {f}")
        return out[()].item() if out.shape == () else out

    def x_of_z(self, z):
        """Inverse on the declared monotone branch."""
        lo, hi = self.z_image
        span = (hi - lo) if math.isfinite(hi) and math.isfinite(lo) else 1.0
        tol = _DOMAIN_TOL * (1.0 + abs(span))
        za = np.asarray(z, dtype=float)
        if np.any(za < lo - tol) or np.any(za > hi + tol):
            raise DomainError(f"z outside branch image {self.z_image}")
        za = np.clip(za, lo, hi)
        p = self.params
        f = self.family
        s = self.branch_sign
        if f == LINEAR:
            out = (za - p["intercept"]) / p["slope"]
        elif f == PARABOLIC:
            t = np.clip(4.0 * (za - p["C"]) / p["q1"], 0.0, None)
            out = p["xv"] + s * np.sqrt(t)
        elif f == EXPONENTIAL:
            ratio = (za + p["shift"]) / p["amp"]
            if np.any(ratio <= 0):
                raise DomainError("z outside exponential branch image")
            out = np.log(ratio) / (p["sign"] * p["omega"])
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
        out = np.asarray(out)
        return out[()].item() if out.shape == () else out


def build(Q: Poly, anchor: tuple[float, float] | None = None,
          branch_sign: int = 1) -> CoordinateMap:
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
        intercept = 0.0
        if anchor is not None:
            x0, z0 = anchor
            intercept = z0 - slope * x0
        return CoordinateMap(LINEAR, {"slope": slope, "intercept": intercept},
                             (-inf, inf), (-inf, inf), branch_sign)

    if q2 == 0.0:
        C = -q0 / q1
        xv = 0.0
        if anchor is not None:
            x0, z0 = anchor
            t = 4.0 * (z0 - C) / q1
            if t < -_DOMAIN_TOL:
                raise ModelError(f"invalid anchor: Q({z0}) < 0")
            xv = x0 - branch_sign * math.sqrt(max(t, 0.0))
        image = (C, inf) if q1 > 0 else (-inf, C)
        return CoordinateMap(PARABOLIC, {"q1": q1, "xv": xv, "C": C},
                             (-inf, inf), image, branch_sign)

    disc = q1 * q1 - 4.0 * q0 * q2
    scale = max(q1 * q1, abs(4.0 * q0 * q2), 1e-30)

    if q2 > 0.0:
        omega = math.sqrt(q2)
        shift = q1 / (2.0 * q2)
        if abs(disc) <= 1e-12 * scale:
            # Degenerate discriminant: pure single exponential (Morse).
            sign = float(branch_sign)
            amp = 1.0
            if anchor is not None:
                x0, z0 = anchor
                y0 = z0 + shift
                if y0 == 0.0:
                    raise ModelError("invalid anchor: z0 at the exponential limit point")
                amp = y0 * math.exp(-sign * omega * x0)
            image = (-shift, inf) if amp > 0 else (-inf, -shift)
            return CoordinateMap(
                EXPONENTIAL,
                {"omega": omega, "shift": shift, "amp": amp, "sign": sign},
                (-inf, inf), image, branch_sign)
        if disc > 0.0:
            c = math.sqrt(disc) / (2.0 * q2)
            xc = 0.0
            if anchor is not None:
                x0, z0 = anchor
                y0 = z0 + shift
                if abs(y0) < c * (1.0 - _DOMAIN_TOL):
                    raise ModelError(f"invalid anchor: Q({z0}) < 0")
                if y0 < 0:
                    c = -c
                xc = x0 - branch_sign * math.acosh(max(abs(y0) / abs(c), 1.0)) / omega
            lo_img = c - shift if c > 0 else -inf
            hi_img = inf if c > 0 else c - shift
            return CoordinateMap(
                HYPERBOLIC,
                {"omega": omega, "shift": shift, "c": c, "xc": xc, "kind": "cosh"},
                (-inf, inf), (lo_img, hi_img), branch_sign)
        c = branch_sign * math.sqrt(-disc) / (2.0 * q2)
        xc = 0.0
        if anchor is not None:
            x0, z0 = anchor
            xc = x0 - math.asinh((z0 + shift) / c) / omega
        return CoordinateMap(
            HYPERBOLIC,
            {"omega": omega, "shift": shift, "c": c, "xc": xc, "kind": "sinh"},
            (-inf, inf), (-inf, inf), branch_sign)

    # q2 < 0: oscillation between the two real zeros of Q.
    if disc <= 1e-12 * scale:
        raise ModelError("Q(z) has no positive range: no real trigonometric motion")
    omega = math.sqrt(-q2)
    S = -q1 / (2.0 * q2)
    R = math.sqrt(disc) / (2.0 * abs(q2))
    x0 = 0.0
    if anchor is not None:
        xa, za = anchor
        u = (S - za) / R
        if abs(u) > 1.0 + _DOMAIN_TOL:
            raise ModelError(f"invalid anchor: Q({za}) < 0")
        x0 = xa - branch_sign * math.acos(max(-1.0, min(1.0, u))) / omega
    period = math.pi / omega
    dom = (x0, x0 + period) if branch_sign > 0 else (x0 - period, x0)
    return CoordinateMap(
        TRIGONOMETRIC, {"omega": omega, "S": S, "R": R, "x0": x0},
        dom, (S - R, S + R), branch_sign)
