"""Prepotential construction by exact partial-fraction integration.

The ground-state prepotential satisfies dW0/dz = P(z)/Q(z); with deg P <= 3
and deg Q <= 2 the integral is a polynomial plus log terms at real zeros of
Q, a simple-pole term when Q has a double root, and log+arctan terms when Q
is irreducible. Everything is represented in z and composed with the
coordinate map at evaluation time, so no numerical quadrature ever enters.

The order-N prepotential adds -mu_j ln|z - a_j| per declared singularity and
-ln|z - z_k| per root; the wave function exp(-W_N) is evaluated in
sign/log-magnitude form because e.g. exp(-a x^4 / 4) underflows long before
the certification boxes end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import coords
from .errors import ModelError
from .model import ModelSpec
from .poly import Poly, divmod_poly, partial_fractions


@dataclass(frozen=True)
class LogTerm:
    """weight * ln|z - location|"""
    location: float
    weight: float


@dataclass(frozen=True)
class QuadLogTerm:
    """weight * ln((z - center)^2 + imag^2)  (conjugate pole pair)"""
    center: float
    imag: float
    weight: float


@dataclass(frozen=True)
class PoleTerm:
    """weight / (z - location)  (from a double zero of Q)"""
    location: float
    weight: float


@dataclass(frozen=True)
class ArctanTerm:
    """weight * arctan((z - center) / scale)"""
    center: float
    scale: float
    weight: float


@dataclass(frozen=True)
class Prepotential:
    poly_part: Poly
    log_terms: tuple[LogTerm, ...]
    quad_log_terms: tuple[QuadLogTerm, ...]
    pole_terms: tuple[PoleTerm, ...]
    arctan_terms: tuple[ArctanTerm, ...]
    spec_ref: ModelSpec
    cmap: coords.CoordinateMap

    def w0_of_z(self, z):
        """W0 evaluated in the z variable (smooth part only, no root logs)."""
        za = np.asarray(z, dtype=float)
        # ln 0 at a log location and z = inf give non-finite values, which
        # callers treat as out of range
        with np.errstate(divide="ignore", invalid="ignore"):
            val = np.asarray(self.poly_part(za), dtype=float)
            for t in self.log_terms:
                val = val + t.weight * np.log(np.abs(za - t.location))
            for t in self.quad_log_terms:
                val = val + t.weight * np.log((za - t.center) ** 2 + t.imag ** 2)
            for t in self.pole_terms:
                val = val + t.weight / (za - t.location)
            for t in self.arctan_terms:
                val = val + t.weight * np.arctan((za - t.center) / t.scale)
        return val[()].item() if val.shape == () else val

    def dw0_dz(self, z):
        """d W0 / dz, which must reproduce P(z)/Q(z)."""
        za = np.asarray(z, dtype=float)
        val = np.asarray(self.poly_part.derivative()(za), dtype=float)
        for t in self.log_terms:
            val = val + t.weight / (za - t.location)
        for t in self.quad_log_terms:
            val = val + t.weight * 2.0 * (za - t.center) / ((za - t.center) ** 2 + t.imag ** 2)
        for t in self.pole_terms:
            val = val - t.weight / (za - t.location) ** 2
        for t in self.arctan_terms:
            val = val + t.weight * t.scale / ((za - t.center) ** 2 + t.scale ** 2)
        return val[()].item() if val.shape == () else val


def integrate_w0(spec: ModelSpec, cmap: coords.CoordinateMap | None = None) -> Prepotential:
    """Integrate dW0/dz = P/Q in closed form (exact partial fractions)."""
    P, Q = spec.P, spec.Q
    if Q.is_zero():
        raise ModelError("Q must not be identically zero")
    if cmap is None:
        cmap = coords.build(Q, branch_sign=spec.branch_sign)

    quot, rem = divmod_poly(P, Q)
    # Antiderivative of the polynomial quotient.
    poly_part = Poly([0.0] + [c / (i + 1) for i, c in enumerate(quot.coeffs)])

    logs: list[LogTerm] = []
    qlogs: list[QuadLogTerm] = []
    poles: list[PoleTerm] = []
    atans: list[ArctanTerm] = []

    real, pair = partial_fractions(rem, Q)
    for rho, c1, c2 in real:
        if c1 != 0.0:
            logs.append(LogTerm(rho, c1))
        if c2 != 0.0:
            poles.append(PoleTerm(rho, -c2))
    if pair is not None:
        center, imag, w_log, w_atan = pair
        if w_log != 0.0:
            qlogs.append(QuadLogTerm(center, imag, w_log))
        if w_atan != 0.0:
            atans.append(ArctanTerm(center, imag, w_atan))

    # Poles of P/Q strictly inside the coordinate image cannot belong to a
    # normalizable model (they sit on the particle's trajectory).
    lo, hi = cmap.z_image
    span = (hi - lo) if math.isfinite(hi) and math.isfinite(lo) else 1.0
    margin = 1e-9 * (1.0 + abs(span))
    for loc in [t.location for t in logs] + [t.location for t in poles]:
        if lo + margin < loc < hi - margin:
            raise ModelError(
                f"non-normalizable interior singularity: P/Q has a pole at "
                f"z = {loc:g} inside the coordinate image {cmap.z_image}")

    return Prepotential(poly_part, tuple(logs), tuple(qlogs), tuple(poles),
                        tuple(atans), spec, cmap)


def wn_value(pre: Prepotential, roots, x) -> float:
    """Order-N prepotential W_N(x) = W0 - sum_j mu_j ln|z-a_j| - sum_k ln|z-z_k|."""
    z = pre.cmap.z_of_x(x)
    val = pre.w0_of_z(z)
    za = np.asarray(z, dtype=float)
    for s in pre.spec_ref.singularities:
        d = za - s.location
        if np.any(d == 0.0):
            raise ValueError(f"W_N evaluated at singularity a = {s.location}")
        val = val - s.exponent * np.log(np.abs(d))
    for zk in np.atleast_1d(np.asarray(roots, dtype=float)):
        d = za - zk
        if np.any(d == 0.0):
            raise ValueError(f"W_N evaluated at root z_k = {zk}")
        val = val - np.log(np.abs(d))
    out = np.asarray(val)
    return out[()].item() if out.shape == () else out


def phi_log_sign(pre: Prepotential, roots, x):
    """phi_N = exp(-W_N) in (log-magnitude, sign) form, vectorized over x.

    Zeros of phi come back as log-magnitude -inf with sign 0. Non-integer
    singularity exponents contribute |z-a|^mu to the magnitude only; on the
    physical domain z - a does not change sign, so this at most drops a
    constant prefactor sign.
    """
    z = np.asarray(pre.cmap.z_of_x(x), dtype=float)
    scalar = z.shape == ()
    za = np.atleast_1d(z)
    logmag = -np.asarray(pre.w0_of_z(za), dtype=float)
    sign = np.ones_like(za)
    with np.errstate(divide="ignore"):
        for s in pre.spec_ref.singularities:
            d = za - s.location
            logmag = logmag + s.exponent * np.log(np.abs(d))
            if s.exponent == int(s.exponent):
                sign = sign * np.where(d >= 0, 1.0, -1.0) ** int(abs(s.exponent))
        for zk in np.atleast_1d(np.asarray(roots, dtype=float)):
            d = za - zk
            logmag = logmag + np.log(np.abs(d))
            sign = sign * np.sign(d)
    logmag = np.where(sign == 0, -np.inf, logmag)
    if scalar:
        return float(logmag[0]), float(sign[0])
    return logmag, sign


def phi_value(pre: Prepotential, roots, x) -> tuple[float, float]:
    """phi_N at a single point as (log_magnitude, sign)."""
    lm, sg = phi_log_sign(pre, roots, x)
    return float(lm), float(sg)
