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

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import bae
from .errors import ModelError
from .model import ModelSpec, is_turning_point
from .poly import Poly, divmod_poly, partial_fractions

if TYPE_CHECKING:  # prepot builds V0 with this module
    from . import prepot

_LOC_MERGE_TOL = 1e-9
RESIDUE_TOL = 1e-8  # largest root-pole coefficient split_energy accepts
BASIS_TOL = 1e-12  # relative size of P's remainder over an irreducible Q taken as 0


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
        # a pole hit gives a non-finite value, which callers report
        with np.errstate(divide="ignore", invalid="ignore"):
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
        bnd = _merged_poles((b.location, b.c1, b.c2)
                            for b in self.boundary_poles + other.boundary_poles)
        return PFE(self.poly + other.poly, bnd, self.root_poles + other.root_poles)


def _merged_poles(terms) -> tuple[BoundaryPole, ...]:
    """Boundary poles from (location, c1, c2) terms: each term is summed
    into the first pole, in input order, within _LOC_MERGE_TOL of its
    location; ascending in location, with the poles whose coefficients
    cancel to 0 dropped."""
    merged: list[list[float]] = []
    for loc, c1, c2 in terms:
        for entry in merged:
            if abs(entry[0] - loc) < _LOC_MERGE_TOL:
                entry[1] += c1
                entry[2] += c2
                break
        else:
            merged.append([loc, c1, c2])
    return tuple(BoundaryPole(*e) for e in sorted(merged) if e[1] != 0.0 or e[2] != 0.0)


@dataclass(frozen=True)
class PotentialProfile:
    """Reported potential U (root poles removed), energy E, owning branch."""

    U: PFE
    energy: float
    branch: bae.BetheBranch


def v0_pfe(spec: ModelSpec) -> PFE:
    """Partial-fraction expansion of the static potential V0.

    Its poles sit at real zeros of Q and at declared singularities. No zero
    of Q lies strictly inside the coordinate image, where z'^2 = Q > 0, so
    every undeclared pole is on the image's boundary or outside it.

    Over an irreducible Q, V0 lies in the basis only when Q divides
    P^2 + P Q'/2 = P (P + Q'/2). Q is prime over the reals, so it must
    divide P or P + Q'/2: the remainder of P over Q must be 0 or -Q'/2, up
    to BASIS_TOL times the largest coefficient of P and Q'/2. Otherwise
    ModelError is raised.
    """
    P, Q = spec.P, spec.Q
    # Regular part: (P^2 + P Q'/2)/Q - P'
    num = P * P + 0.5 * (P * Q.derivative())
    quot, rem = divmod_poly(num, Q)
    poly = quot - P.derivative()

    real, pair = partial_fractions(rem, Q)
    if pair is not None:
        half = 0.5 * Q.derivative()
        tol = BASIS_TOL * max(map(abs, P.coeffs + half.coeffs))
        p_rem = divmod_poly(P, Q)[1]
        if all(max(map(abs, (p_rem - t).coeffs)) > tol for t in (Poly([0.0]), -half)):
            raise ModelError(
                "potential outside the closed pole basis: P^2/Q leaves a "
                "remainder over an irreducible Q")
    poles = list(real)  # (location, c1, c2)

    # Singularity couplings.
    PmQ4 = P - 0.25 * Q.derivative()
    q2 = Q.coeff(2)
    for s in spec.singularities:
        a, mu = s.location, s.exponent
        poly = poly + (-2.0 * mu) * PmQ4.divided_difference(a)
        poles.append((a, -2.0 * mu * PmQ4(a), 0.0))
        poly = poly + Poly([mu * (mu - 1.0) * q2])
        poles.append((a, mu * (mu - 1.0) * Q.derivative()(a), mu * (mu - 1.0) * Q(a)))
    if len(spec.singularities) == 2:
        (s1, s2) = spec.singularities
        a1, a2 = s1.location, s2.location
        w = 2.0 * s1.exponent * s2.exponent
        poly = poly + Poly([w * q2])
        poles += [(a1, w * Q(a1) / (a1 - a2), 0.0), (a2, w * Q(a2) / (a2 - a1), 0.0)]

    # + 0.0 makes every -0.0 location a 0.0
    return PFE(poly, _merged_poles((loc + 0.0, c1, c2) for loc, c1, c2 in poles), ())


def delta_v_pfe(spec: ModelSpec, branch: bae.BetheBranch) -> PFE:
    """Partial-fraction expansion of the root-dependent potential shift."""
    roots = np.asarray(branch.roots, dtype=float)
    N = spec.N
    q2 = spec.Q.coeff(2)
    smu = sum(s.exponent for s in spec.singularities)
    # Row 0 is the constant; row k + 1 is -2 (P(z) - P(z_k))/(z - z_k) by
    # synthetic division, for every root at once. cumsum adds the rows in
    # root order, as a sum of per-root Polys does.
    c = spec.P.coeffs
    d = len(c) - 1
    rows = np.zeros((len(roots) + 1, max(d, 1)))
    rows[0, 0] = q2 * N * N + 2.0 * q2 * N * smu
    if d > 0:
        rows[1:, d - 1] = c[d]
        for i in range(d - 1, 0, -1):
            rows[1:, i - 1] = c[i] + roots * rows[1:, i]
        rows[1:] *= -2.0
    poly = Poly(np.cumsum(rows, axis=0)[-1])
    bnd = []
    for s in spec.singularities:
        if roots.size and not is_turning_point(spec.Q, s.location):
            c1 = (2.0 * s.exponent * spec.Q(s.location)
                  * float(np.sum(1.0 / (s.location - roots))))
            bnd.append(BoundaryPole(s.location, c1, 0.0))
    d = -2.0 * bae.residual(spec, roots)
    root_poles = tuple(RootPole(float(zk), float(dk)) for zk, dk in zip(roots, d))
    return PFE(poly, tuple(bnd), root_poles)


def check_residues(pfe: PFE, tol: float = 1e-10) -> tuple[bool, float]:
    """Pass iff every root-pole coefficient is below tol (max reported)."""
    worst = max((abs(r.weight) for r in pfe.root_poles), default=0.0)
    return worst < tol, worst


def split_energy(pre: prepot.Prepotential, branch: bae.BetheBranch) -> PotentialProfile:
    """Split V_N of one branch of the built model into a reported potential
    and an energy constant.

    E is the negated constant of the dV_N polynomial part; U keeps V0's own
    constant (pre.v0), so V_N = U - E + (root-pole remainder, ~0 for a
    converged branch).
    """
    dv = delta_v_pfe(pre.spec_ref, branch)
    ok, worst = check_residues(dv, RESIDUE_TOL)
    if not ok:
        raise ValueError(
            f"branch residues not cancelled (max |d_k| = {worst:.2e}): solve "
            f"the Bethe ansatz equations first")
    energy = -dv.constant
    U = pre.v0 + dv.without_constant().without_root_poles()
    return PotentialProfile(U, energy, branch)
