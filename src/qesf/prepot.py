"""Prepotential construction by exact partial-fraction integration.

The ground-state prepotential satisfies dW0/dz = P(z)/Q(z); with deg P <= 3
and deg Q <= 2 the integral is a polynomial plus log terms at real zeros of
Q, a simple-pole term when Q has a double root, and a log term of the
conjugate pair when Q is irreducible (an arctan term would put V0 outside
the closed pole basis, so no model that builds has one). Everything is
represented in z and composed with the coordinate map at evaluation time,
so no numerical quadrature ever enters.

The order-N prepotential adds -mu_j ln|z - a_j| per declared singularity and
-ln|z - z_k| per root; the wave function exp(-W_N) is evaluated in
sign/log-magnitude form because e.g. exp(-a x^4 / 4) underflows long before
the certification boxes end. It takes the roots of one branch, or rows of
them (every branch of a model at once), and multiplies the root factors
in chunks of ROOT_CHUNK before taking one log per chunk; a chunk whose
product underflows to 0, overflows or hits a root exactly is redone root
by root there, so a node is still exactly -inf with sign 0. phi's power
of |z - a| at every finite point a is algebraic: the declared mu at a
minus the weight of W0's ln|z - a| term.
integrate_w0 builds the model once: the coordinate map, W0, the static
potential V0, the table of these powers and the walls they cut in x. It is
the one place that decides whether a model can be built: it runs
model.validate's structural check first, and every caller reads that one
Prepotential. unbound_ends reads it to name every end at which phi_N is
not square-integrable: one rule over the image's ends and the walls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import coords, potential
from .errors import ModelError
from .model import Diagnostic, ModelSpec, is_turning_point, validate
from .poly import Poly, divmod_poly, partial_fractions

ROOT_CHUNK = 8  # root factors of phi multiplied before one log


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
class Prepotential:
    """One model, built once: its coordinate map, W0's closed-form terms,
    V0's partial-fraction expansion, powers (per finite point a, phi's
    power p of |z - a|: the declared mu at a minus W0's ln|z - a| weight,
    p != 0) and walls (x of every finite cut point -> exponent nu of
    phi ~ |x - wall|^nu, ascending in x)."""

    poly_part: Poly
    log_terms: tuple[LogTerm, ...]
    quad_log_terms: tuple[QuadLogTerm, ...]
    pole_terms: tuple[PoleTerm, ...]
    spec_ref: ModelSpec
    cmap: coords.CoordinateMap
    v0: potential.PFE
    powers: tuple[tuple[float, float], ...]
    walls: dict[float, float]


def integrate_w0(spec: ModelSpec) -> Prepotential:
    """Build the model: its coordinate map, dW0/dz = P/Q integrated in
    closed form (exact partial fractions), V0, phi's powers and its walls.

    Raises ModelError, before building anything, on every structural
    error model.validate reports (degrees, finiteness, N, branch sign, the
    singularities' count and spacing), and when the model has no coordinate
    map or its V0 lies outside the closed pole basis.
    """
    errors = [d for d in validate(spec) if d.level == "error"]
    if errors:
        raise ModelError("invalid model: " + "; ".join(d.message for d in errors))
    P, Q = spec.P, spec.Q
    cmap = coords.build(Q, branch_sign=spec.branch_sign)
    v0 = potential.v0_pfe(spec)

    quot, rem = divmod_poly(P, Q)
    # Antiderivative of the polynomial quotient.
    poly_part = Poly([0.0] + [c / (i + 1) for i, c in enumerate(quot.coeffs)])

    logs: list[LogTerm] = []
    qlogs: list[QuadLogTerm] = []
    poles: list[PoleTerm] = []

    real, pair = partial_fractions(rem, Q)
    for rho, c1, c2 in real:
        if c1 != 0.0:
            logs.append(LogTerm(rho, c1))
        if c2 != 0.0:
            poles.append(PoleTerm(rho, -c2))
    if pair is not None:
        center, imag, w_log = pair
        if w_log != 0.0:
            qlogs.append(QuadLogTerm(center, imag, w_log))

    # W0's own log points come first, then the declared ones, so that
    # phi_log_sign, which sums in table order, adds W0's terms before the
    # declared factors.
    declared = [[s.location, s.exponent] for s in spec.singularities]
    own = []
    for t in logs:
        hit = [e for e in declared if abs(e[0] - t.location) <= cmap.z_tol]
        if hit:
            hit[0][1] -= t.weight
        else:
            own.append([t.location, -t.weight])
    powers = tuple((a, p) for a, p in own + declared if p != 0.0)
    return Prepotential(poly_part, tuple(logs), tuple(qlogs), tuple(poles),
                        spec, cmap, v0, powers, _finite_walls(cmap, Q, powers))


def _finite_walls(cmap: coords.CoordinateMap, Q: Poly,
                  powers: tuple[tuple[float, float], ...]) -> dict[float, float]:
    """x of every finite cut point -> exponent nu of phi ~ |x - wall|^nu.

    The cuts are the finite ends of the map's x-domain and, for every point
    a of powers inside the coordinate image, declared or from W0, each
    x-preimage of a in the x-domain (CoordinateMap.preimages): where
    Q(a) != 0 the map's mirror branch (the other branch_sign) may reach a
    at a second x. A turning point takes its declared preimage only: where
    0 < |Q(a)| <= 1e-12 the mirror one lies about sqrt|Q(a)| away, a
    spurious second wall. phi's power
    p of |z - a| comes from powers; z - a vanishes to first order in x
    where Q(a) != 0 and to second order at a turning point Q(a) = 0, so
    nu = p or 2p. The model is the authority here: where the conjugate
    indicial root 1 - nu is also normalizable (limit-circle walls), the
    potential alone cannot tell the two apart.
    """
    tol = cmap.z_tol
    walls: dict[float, float] = {}

    def _add(xa: float, a: float) -> None:
        if math.isfinite(xa) and not any(abs(xa - w) < 1e-9 for w in walls):
            power = sum(p for b, p in powers if abs(b - a) <= tol)
            walls[xa] = power * (2 if is_turning_point(Q, a) else 1)

    dlo, dhi = cmap.x_domain
    for xa in cmap.x_domain:
        if math.isfinite(xa):
            _add(xa, cmap.z_of_x(xa))
    for a, _ in powers:
        xs = cmap.preimages(a).tolist()
        for xa in xs[:1] if is_turning_point(Q, a) else xs:
            if dlo <= xa <= dhi:  # False for nan: a outside the image
                _add(xa, a)
    return dict(sorted(walls.items()))


@dataclass(frozen=True)
class UnboundEnd(Diagnostic):
    """A warning of unbound_ends, with x, the ends of the map's x-domain
    or the wall at which phi_N is not square-integrable: the x of the
    wall, or each infinite end of the x-domain where z(x) tends to the
    image end named."""
    x: tuple[float, ...] = ()


def unbound_ends(pre: Prepotential) -> list[UnboundEnd]:
    """A "warning" for each end where phi_N is not square-integrable over
    dx = dz / sqrt(Q), read from the built model alone:

    - an infinite end of the coordinate image: phi_N is bound there iff
      W0's polynomial part tends to +infinity. With none, phi_N ~ |z|^e,
      e = N + sum(powers) - 2 sum(conjugate-pair log weights), and
      dx ~ |z|^(-deg Q / 2) dz, so it is bound iff 2e - deg Q / 2 < -1;
    - a finite image end that no finite x reaches (the double zero of Q
      at an exponential map's end, where dx ~ dz / |z - a|): bound iff
      W0's pole term there sends phi_N to 0, or, with none, iff phi's
      power there is positive;
    - each wall, phi_N ~ |x - wall|^nu: bound iff nu > -1/2.

    verify reads the ends' x (verify.normalizability_check): a branch
    whose certified component ends at one is not normalizable, and one
    whose component ends at none is; verify.default_grids certifies a
    branch on a component that ends at none wherever there is one.
    """
    spec, cmap, unbound = pre.spec_ref, pre.cmap, []  # (phi_N's form, the end, its x)
    far = [(x, cmap.z_of_x(x)) for x in cmap.x_domain if math.isinf(x)]  # z at infinite x
    for end, inward in zip(cmap.z_image, (1.0, -1.0)):
        xs = tuple(x for x, z in far if z == end)
        if math.isinf(end):
            where = "z -> infinity" if end > 0 else "z -> -infinity"
            w, deg = pre.poly_part.coeffs[-1], pre.poly_part.degree
            e = (spec.N + sum(p for _, p in pre.powers)
                 - 2 * sum(t.weight for t in pre.quad_log_terms))
            if deg and w * (-inward) ** deg < 0:  # W0 -> -infinity
                unbound.append((f"exp({_g(-w)} z^{deg})", where, xs))
            elif not deg and 2 * e - spec.Q.degree / 2 >= -1:
                unbound.append((f"{'z' if end > 0 else '|z|'}^{_g(e)}", where, xs))
        elif np.isnan(cmap.preimages(end)).all():
            where, base = f"z -> {_g(end)}", "z" if end == 0 else f"(z - {_g(end)})"
            poles = [t.weight for t in pre.pole_terms if abs(t.location - end) <= cmap.z_tol]
            p = sum(p for a, p in pre.powers if abs(a - end) <= cmap.z_tol)
            if poles and poles[0] * inward < 0:  # -w / (z - end) -> +infinity
                unbound.append((f"exp({_g(-poles[0])}/{base})", where, xs))
            elif not poles and p <= 0:
                unbound.append((f"{base}^{_g(p)}", where, xs))
    unbound += [(f"|x - {_g(x)}|^{_g(nu)}", f"x -> {_g(x)}", (x,))
                for x, nu in pre.walls.items() if nu <= -0.5]
    return [UnboundEnd("warning", f"level N = {spec.N} is not bound: phi_N ~ {form} as {where} "
                                  f"is not square-integrable in x", xs)
            for form, where, xs in unbound]


def _g(v: float) -> str:
    """v in %g form, -0.0 as 0."""
    return format(v + 0.0, "g")


def phi_log_sign(pre: Prepotential, roots, x):
    """phi_N = exp(-W_N) in (log-magnitude, sign) form, vectorized over x.

    roots has shape (N,), with x of any shape; or it holds rows, shape
    (B, N), with x of shape (B, n): row b of x is evaluated with row b of
    roots, so one call serves every branch of a model.

    Zeros of phi come back as log-magnitude -inf with sign 0. Each entry of
    pre.powers adds p ln|z - a|, so a W0 log term and a declared singularity
    at one point never meet as inf - inf. Non-integer singularity exponents
    contribute to the magnitude only; on the physical domain z - a does not
    change sign, so this at most drops a constant prefactor sign.

    The root factors z - z_k are multiplied in chunks of ROOT_CHUNK, one log
    and one sign per chunk. Where a chunk's product is 0 or not finite (it
    underflows or overflows far out, or a root is hit exactly) that chunk
    is redone root by root at those points, so a genuine node still gives
    -inf with sign 0.
    """
    z = np.asarray(pre.cmap.z_of_x(x), dtype=float)
    scalar = z.shape == ()
    za = np.atleast_1d(z)
    r = np.asarray(roots, dtype=float)
    # root k's entries, broadcast against za: a scalar, or a (B, 1) column
    cols = r.T[..., None] if r.ndim == 2 else np.atleast_1d(r)
    sign = np.ones_like(za)
    # ln 0 at a power's point and z = inf give non-finite values, which
    # callers treat as out of range
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        logmag = -np.asarray(pre.poly_part(za), dtype=float)
        for a, p in pre.powers:
            logmag = logmag + p * np.log(np.abs(za - a))
        for t in pre.quad_log_terms:
            logmag = logmag - t.weight * np.log((za - t.center) ** 2 + t.imag ** 2)
        for t in pre.pole_terms:
            logmag = logmag - t.weight / (za - t.location)
        for s in pre.spec_ref.singularities:
            if s.exponent == int(s.exponent):
                sign = sign * np.where(za >= s.location, 1.0, -1.0) ** int(abs(s.exponent))
        for c in range(0, len(cols), ROOT_CHUNK):
            chunk = cols[c:c + ROOT_CHUNK]
            prod = za - chunk[0]
            for zk in chunk[1:]:
                prod *= za - zk
            log_chunk, sign_chunk = np.log(np.abs(prod)), np.sign(prod)
            redo = np.nonzero(~np.isfinite(log_chunk))
            if len(redo[0]):
                zr, lg, sg = za[redo], 0.0, 1.0
                for zk in chunk:
                    d = zr - np.broadcast_to(zk, za.shape)[redo]
                    lg, sg = lg + np.log(np.abs(d)), sg * np.sign(d)
                log_chunk[redo], sign_chunk[redo] = lg, sg
            logmag += log_chunk
            sign *= sign_chunk
    logmag = np.where(sign == 0, -np.inf, logmag)
    if scalar:
        return float(logmag[0]), float(sign[0])
    return logmag, sign
