"""Potential assembly in a closed partial-fraction basis.

Everything reported lives in the basis

    polynomial in z  +  poles of order <= 2 at boundary locations
                     +  simple poles at the Bethe roots,

which is closed under the construction as long as deg P <= 3, deg Q <= 2 and
at most two singularities are declared. The static part V0 comes from the
rational identity

    V0 = P^2/Q - P' + P Q'/(2Q)
         - 2 (P - Q'/4) sum_j mu_j/(z - a_j)
         + Q [ sum_j mu_j(mu_j - 1)/(z - a_j)^2 + 2 mu_1 mu_2 /((z-a_1)(z-a_2)) ]

and the root-dependent shift reduces, by exact divided differences, to

    dV_N = q2 N^2 + 2 q2 N sum_j mu_j - 2 sum_k (P(z) - P(z_k))/(z - z_k)
           + sum_j [2 mu_j Q(a_j) sum_k 1/(a_j - z_k)] / (z - a_j)
           - 2 sum_k F_k / (z - z_k)

with F_k the Bethe residual, so a converged branch kills every root pole and
the residue coefficients d_k = -2 F_k are directly assertable. The energy is
the negated constant of the dV_N polynomial part; the remaining constant
(inherited from V0) stays in the reported potential.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import bae, coords
from .errors import ModelError
from .model import ModelSpec
from .poly import Poly, divmod_poly, partial_fractions

_LOC_MERGE_TOL = 1e-9
RESIDUE_TOL = 1e-8  # largest root-pole coefficient split_energy accepts


@dataclass(frozen=True)
class BoundaryPole:
    """c1/(z - location) + c2/(z - location)^2"""
    location: float
    c1: float
    c2: float


@dataclass(frozen=True)
class RootPole:
    """weight/(z - location), location a Bethe root"""
    location: float
    weight: float


@dataclass(frozen=True)
class PFE:
    """Partial-fraction expansion: polynomial + boundary poles + root poles."""

    poly: Poly
    boundary_poles: tuple[BoundaryPole, ...] = ()
    root_poles: tuple[RootPole, ...] = ()

    def __call__(self, z):
        za = np.asarray(z, dtype=float)
        val = np.asarray(self.poly(za), dtype=float)
        for b in self.boundary_poles:
            d = za - b.location
            val = val + b.c1 / d + b.c2 / d ** 2
        for r in self.root_poles:
            val = val + r.weight / (za - r.location)
        return val[()].item() if val.shape == () else val

    @property
    def constant(self) -> float:
        return self.poly.coeff(0)

    def without_constant(self) -> "PFE":
        cs = list(self.poly.coeffs)
        cs[0] = 0.0
        return PFE(Poly(cs), self.boundary_poles, self.root_poles)

    def without_root_poles(self) -> "PFE":
        return PFE(self.poly, self.boundary_poles, ())

    def __add__(self, other: "PFE") -> "PFE":
        merged: list[list[float]] = []

        def _push(loc, c1, c2):
            for entry in merged:
                if abs(entry[0] - loc) < _LOC_MERGE_TOL:
                    entry[1] += c1
                    entry[2] += c2
                    return
            merged.append([loc, c1, c2])

        for b in self.boundary_poles + other.boundary_poles:
            _push(b.location, b.c1, b.c2)
        bnd = tuple(BoundaryPole(*e) for e in sorted(merged) if e[1] != 0.0 or e[2] != 0.0)
        return PFE(self.poly + other.poly, bnd, self.root_poles + other.root_poles)


@dataclass(frozen=True)
class PotentialProfile:
    """Reported potential U (root poles removed), energy E, owning branch."""

    U: PFE
    energy: float
    branch: bae.BetheBranch


def v0_pfe(spec: ModelSpec, cmap: coords.CoordinateMap | None = None) -> PFE:
    """Partial-fraction expansion of the static potential V0."""
    P, Q = spec.P, spec.Q
    if cmap is None:
        cmap = coords.build(Q, branch_sign=spec.branch_sign)

    # Regular part: (P^2 + P Q'/2)/Q - P'
    num = P * P + 0.5 * (P * Q.derivative())
    quot, rem = divmod_poly(num, Q)
    poly = quot - P.derivative()
    poles: dict[float, list[float]] = {}

    def _add(loc, c1=0.0, c2=0.0):
        loc = loc + 0.0  # normalize -0.0
        for known in poles:
            if abs(known - loc) < _LOC_MERGE_TOL:
                poles[known][0] += c1
                poles[known][1] += c2
                return
        poles[loc] = [c1, c2]

    real, pair = partial_fractions(rem, Q)
    if pair is not None and not rem.is_zero():
        raise ModelError(
            "potential outside the closed pole basis: P^2/Q leaves a "
            "remainder over an irreducible Q")
    for rho, c1, c2 in real:
        _add(rho, c1=c1, c2=c2)

    # Singularity couplings.
    PmQ4 = P - 0.25 * Q.derivative()
    q2 = Q.coeff(2)
    for s in spec.singularities:
        a, mu = s.location, s.exponent
        poly = poly + (-2.0 * mu) * PmQ4.divided_difference(a)
        _add(a, c1=-2.0 * mu * PmQ4(a))
        poly = poly + Poly([mu * (mu - 1.0) * q2])
        _add(a, c1=mu * (mu - 1.0) * Q.derivative()(a), c2=mu * (mu - 1.0) * Q(a))
    if len(spec.singularities) == 2:
        (s1, s2) = spec.singularities
        a1, a2 = s1.location, s2.location
        w = 2.0 * s1.exponent * s2.exponent
        poly = poly + Poly([w * q2])
        _add(a1, c1=w * Q(a1) / (a1 - a2))
        _add(a2, c1=w * Q(a2) / (a2 - a1))

    # All pole locations must sit on (or outside) the coordinate-image
    # boundary, or be declared singularities: an undeclared interior pole
    # means the model is inconsistent.
    declared = [s.location for s in spec.singularities]
    lo, hi = cmap.z_image
    span = (hi - lo) if math.isfinite(hi) and math.isfinite(lo) else 1.0
    margin = 1e-9 * (1.0 + abs(span))
    bnd = []
    for loc in sorted(poles):
        c1, c2 = poles[loc]
        if c1 == 0.0 and c2 == 0.0:
            continue
        interior = lo + margin < loc < hi - margin
        if interior and not any(abs(loc - d) < _LOC_MERGE_TOL for d in declared):
            raise ModelError(
                f"model inconsistency: potential pole at z = {loc:g} lies inside "
                f"the coordinate image {cmap.z_image} and is not a declared "
                f"singularity")
        bnd.append(BoundaryPole(loc, c1, c2))
    return PFE(poly, tuple(bnd), ())


def delta_v_pfe(spec: ModelSpec, branch: bae.BetheBranch) -> PFE:
    """Partial-fraction expansion of the root-dependent potential shift."""
    roots = np.asarray(branch.roots, dtype=float)
    N = spec.N
    q2 = spec.Q.coeff(2)
    smu = sum(s.exponent for s in spec.singularities)
    poly = Poly([q2 * N * N + 2.0 * q2 * N * smu])
    for zk in roots:
        poly = poly + (-2.0) * spec.P.divided_difference(zk)
    bnd = []
    for s in spec.singularities:
        Qa = spec.Q(s.location)
        if Qa != 0.0 and roots.size:
            c1 = 2.0 * s.exponent * Qa * float(np.sum(1.0 / (s.location - roots)))
            bnd.append(BoundaryPole(s.location, c1, 0.0))
    d = -2.0 * bae.residual(spec, roots)
    root_poles = tuple(RootPole(float(zk), float(dk)) for zk, dk in zip(roots, d))
    return PFE(poly, tuple(bnd), root_poles)


def check_residues(pfe: PFE, tol: float = 1e-10) -> tuple[bool, float]:
    """Pass iff every root-pole coefficient is below tol (max reported)."""
    worst = max((abs(r.weight) for r in pfe.root_poles), default=0.0)
    return worst < tol, worst


def split_energy(spec: ModelSpec, branch: bae.BetheBranch) -> PotentialProfile:
    """Split V_N into a reported potential and an energy constant.

    E is the negated constant of the dV_N polynomial part; U keeps V0's own
    constant, so V_N = U - E + (root-pole remainder, ~0 for a converged
    branch).
    """
    dv = delta_v_pfe(spec, branch)
    ok, worst = check_residues(dv, RESIDUE_TOL)
    if not ok:
        raise ValueError(
            f"branch residues not cancelled (max |d_k| = {worst:.2e}): solve "
            f"the Bethe ansatz equations first")
    energy = -dv.constant
    U = v0_pfe(spec) + dv.without_constant().without_root_poles()
    return PotentialProfile(U, energy, branch)


def identity_check(roots, n_samples: int = 20, tol: float = 1e-10,
                   seed: int = 20240801) -> bool:
    """Numerically verify the three double-sum reduction identities.

    For numerators 1, z, z^2 the double sum over (z - z_k)(z - z_l) collapses
    onto single poles; the z^2 case picks up the extra constant N(N-1).
    Checked at random z kept away from the roots.
    """
    roots = np.asarray(roots, dtype=float)
    N = roots.size
    if N < 2:
        return True  # both sides vanish identically
    rng = np.random.default_rng(seed)
    span = max(1.0, np.max(np.abs(roots)))
    checked = 0
    while checked < n_samples:
        z = rng.uniform(-3 * span, 3 * span)
        if np.min(np.abs(z - roots)) < 0.1:
            continue
        checked += 1
        lhs = np.zeros(3)
        rhs = np.zeros(3)
        for k in range(N):
            for l in range(N):
                if k == l:
                    continue
                lhs += np.array([1.0, z, z * z]) / ((z - roots[k]) * (z - roots[l]))
                rhs += 2.0 * np.array([1.0, roots[k], roots[k] ** 2]) / (
                    (z - roots[k]) * (roots[k] - roots[l]))
        rhs[2] += N * (N - 1)
        scale = 1.0 + np.max(np.abs(lhs))
        if np.max(np.abs(lhs - rhs)) / scale > tol:
            return False
    return True


def v0_direct(spec: ModelSpec, z):
    """Reference evaluation of V0 straight from the defining expression.

    Independent of the PFE reduction; used to certify re-summation.
    """
    P, Q = spec.P, spec.Q
    za = np.asarray(z, dtype=float)
    Pv, Qv = P(za), Q(za)
    val = Pv * Pv / Qv - P.derivative()(za) + Pv * Q.derivative()(za) / (2.0 * Qv)
    for s in spec.singularities:
        val = val - 2.0 * (Pv - Q.derivative()(za) / 4.0) * s.exponent / (za - s.location)
        val = val + Qv * s.exponent * (s.exponent - 1.0) / (za - s.location) ** 2
    if len(spec.singularities) == 2:
        s1, s2 = spec.singularities
        val = val + Qv * 2.0 * s1.exponent * s2.exponent / (
            (za - s1.location) * (za - s2.location))
    out = np.asarray(val)
    return out[()].item() if out.shape == () else out


def delta_v_direct(spec: ModelSpec, roots, z):
    """Reference evaluation of dV_N as the raw double sum."""
    roots = np.asarray(roots, dtype=float)
    P, Q = spec.P, spec.Q
    za = np.asarray(z, dtype=float)
    Pv, Qv = P(za), Q(za)
    s1 = np.zeros_like(za, dtype=float)
    s2 = np.zeros_like(za, dtype=float)
    s3 = np.zeros_like(za, dtype=float)
    for k, zk in enumerate(roots):
        s1 = s1 + 1.0 / (za - zk)
        for l, zl in enumerate(roots):
            if l != k:
                s2 = s2 + 1.0 / ((za - zk) * (za - zl))
        for s in spec.singularities:
            s3 = s3 + 2.0 * s.exponent / ((za - s.location) * (za - zk))
    val = -2.0 * (Pv - Q.derivative()(za) / 4.0) * s1 + Qv * (s2 + s3)
    out = np.asarray(val)
    return out[()].item() if out.shape == () else out
