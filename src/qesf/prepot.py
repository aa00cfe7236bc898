"""Prepotential construction by exact partial-fraction integration.

The ground-state prepotential satisfies dW0/dz = P(z)/Q(z); with deg P <= 3
and deg Q <= 2 the integral is a polynomial plus log terms at real zeros of
Q, a simple-pole term when Q has a double root, and log+arctan terms when Q
is irreducible. Everything is represented in z and composed with the
coordinate map at evaluation time, so no numerical quadrature ever enters.

The order-N prepotential adds -mu_j ln|z - a_j| per declared singularity and
-ln|z - z_k| per root; the wave function exp(-W_N) is evaluated in
sign/log-magnitude form because e.g. exp(-a x^4 / 4) underflows long before
the certification boxes end. phi's power of |z - a| at every finite point a
is algebraic: the declared mu at a minus the weight of W0's ln|z - a| term.
integrate_w0 tabulates these powers once, and every caller reads the table.
"""

from __future__ import annotations

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
    """W0's closed-form terms, and powers: per finite point a, phi's power p
    of |z - a| (declared mu at a minus W0's ln|z - a| weight), p != 0."""

    poly_part: Poly
    log_terms: tuple[LogTerm, ...]
    quad_log_terms: tuple[QuadLogTerm, ...]
    pole_terms: tuple[PoleTerm, ...]
    arctan_terms: tuple[ArctanTerm, ...]
    spec_ref: ModelSpec
    cmap: coords.CoordinateMap
    powers: tuple[tuple[float, float], ...]


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
    margin = cmap.z_tol
    for loc in [t.location for t in logs] + [t.location for t in poles]:
        if lo + margin < loc < hi - margin:
            raise ModelError(
                f"non-normalizable interior singularity: P/Q has a pole at "
                f"z = {loc:g} inside the coordinate image {cmap.z_image}")

    # W0's own log points come first, then the declared ones, so that
    # phi_log_sign, which sums in table order, adds W0's terms before the
    # declared factors.
    declared = [[s.location, s.exponent] for s in spec.singularities]
    own = []
    for t in logs:
        hit = [e for e in declared if abs(e[0] - t.location) <= margin]
        if hit:
            hit[0][1] -= t.weight
        else:
            own.append([t.location, -t.weight])
    powers = tuple((a, p) for a, p in own + declared if p != 0.0)
    return Prepotential(poly_part, tuple(logs), tuple(qlogs), tuple(poles),
                        tuple(atans), spec, cmap, powers)


def phi_log_sign(pre: Prepotential, roots, x):
    """phi_N = exp(-W_N) in (log-magnitude, sign) form, vectorized over x.

    Zeros of phi come back as log-magnitude -inf with sign 0. Each entry of
    pre.powers adds p ln|z - a|, so a W0 log term and a declared singularity
    at one point never meet as inf - inf. Non-integer singularity exponents
    contribute to the magnitude only; on the physical domain z - a does not
    change sign, so this at most drops a constant prefactor sign.
    """
    z = np.asarray(pre.cmap.z_of_x(x), dtype=float)
    scalar = z.shape == ()
    za = np.atleast_1d(z)
    sign = np.ones_like(za)
    # ln 0 at a power's point and z = inf give non-finite values, which
    # callers treat as out of range
    with np.errstate(divide="ignore", invalid="ignore"):
        logmag = -np.asarray(pre.poly_part(za), dtype=float)
        for a, p in pre.powers:
            logmag = logmag + p * np.log(np.abs(za - a))
        for t in pre.quad_log_terms:
            logmag = logmag - t.weight * np.log((za - t.center) ** 2 + t.imag ** 2)
        for t in pre.pole_terms:
            logmag = logmag - t.weight / (za - t.location)
        for t in pre.arctan_terms:
            logmag = logmag - t.weight * np.arctan((za - t.center) / t.scale)
        for s in pre.spec_ref.singularities:
            if s.exponent == int(s.exponent):
                sign = sign * np.where(za >= s.location, 1.0, -1.0) ** int(abs(s.exponent))
        for zk in np.atleast_1d(np.asarray(roots, dtype=float)):
            d = za - zk
            logmag = logmag + np.log(np.abs(d))
            sign = sign * np.sign(d)
    logmag = np.where(sign == 0, -np.inf, logmag)
    if scalar:
        return float(logmag[0]), float(sign[0])
    return logmag, sign
