"""Independent certification of (potential, energy, eigenfunction) triples.

Nothing here reuses the algebra that produced the claims: the Schrodinger
residual applies a finite-difference second derivative to the log-space wave
function, the spectrum oracle diagonalizes the discretized operator, node
counts come from raw sign changes, and normalizability from adaptive
quadrature of phi^2. These are the arbiters for every sign or convention
ambiguity upstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import coords, potential, prepot
from .errors import GridError
from .model import ModelSpec
from .poly import Tridiag, tridiag_eigenvalues

W_THRESHOLD = 40.0  # |phi| <= e^-40 at box ends for unbounded domains
NODE_DELTA_STEPS = 10  # residual exclusion radius around nodes, in grid steps
WALL_DELTA_STEPS = 50  # residual exclusion width at singular walls, in grid steps
MAX_WINDOWS = 120  # normalizability windows per side

_STENCILS = {
    2: np.array([1.0, -2.0, 1.0]),
    4: np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0,
    6: np.array([2.0, -27.0, 270.0, -490.0, 270.0, -27.0, 2.0]) / 180.0,
}


@dataclass(frozen=True)
class Grid:
    """Uniform certification grid, flagged at singular endpoints."""

    points: np.ndarray
    h: float
    singular_lo: bool = False  # grid start abuts a singular endpoint
    singular_hi: bool = False
    wall_lo: float = math.nan  # x of the singular wall, when singular_lo
    wall_hi: float = math.nan
    nu_lo: float = math.nan  # endpoint exponent phi ~ (x - wall)^nu, if known
    nu_hi: float = math.nan

    @property
    def n(self) -> int:
        return len(self.points)


@dataclass
class VerificationReport:
    residual_max: float
    residual_rms: float
    node_count: int
    normalizable: bool
    norm_estimate: float
    spectrum_matches: list  # (E_claimed, E_fd, |diff|)
    spectrum_note: str
    verdict: bool

    def as_dict(self) -> dict:
        return {
            "residual_max": self.residual_max,
            "residual_rms": self.residual_rms,
            "spectrum_matches": [list(m) for m in self.spectrum_matches],
            "spectrum_note": self.spectrum_note,
            "node_count": self.node_count,
            "normalizable": self.normalizable,
            "norm_estimate": self.norm_estimate,
            "verdict": self.verdict,
        }


def make_grid(x_lo: float, x_hi: float, n: int, **flags) -> Grid:
    if n < 8:
        raise GridError("grid needs at least 8 points")
    if not (x_hi > x_lo):
        raise GridError(f"empty grid interval [{x_lo}, {x_hi}]")
    pts = np.linspace(x_lo, x_hi, n)
    return Grid(pts, float(pts[1] - pts[0]), **flags)


# ---------------------------------------------------------------------------
# Domain determination


def _finite_walls(pre: prepot.Prepotential) -> list[float]:
    """x-positions of finite cut points: singular map endpoints plus
    singularities sitting strictly inside the coordinate image."""
    cmap = pre.cmap
    walls = [v for v in cmap.x_domain if math.isfinite(v)]
    lo, hi = cmap.z_image
    for s in pre.spec_ref.singularities:
        if s.exponent == 0.0:
            continue
        a = s.location
        span = (hi - lo) if math.isfinite(hi) and math.isfinite(lo) else 1.0
        margin = 1e-9 * (1.0 + abs(span))
        if lo - margin <= a <= hi + margin:
            try:
                xa = cmap.x_of_z(a)
            except Exception:
                continue
            if math.isfinite(xa) and not any(abs(xa - w) < 1e-9 for w in walls):
                walls.append(xa)
    return sorted(walls)


def _march_threshold(pre: prepot.Prepotential, roots, start: float, direction: int,
                     limit: float) -> float:
    """First marched point with W_N >= W_THRESHOLD going outward from start."""
    step = 0.25
    x = start + direction * step
    for _ in range(400):
        if (direction > 0 and x >= limit) or (direction < 0 and x <= limit):
            raise GridError(
                "W_N never reaches the truncation threshold: state does not "
                "decay in this direction (non-normalizable?)")
        try:
            w = prepot.wn_value(pre, roots, x)
        except ValueError:
            w = -math.inf  # sat on a node, keep going
        if w >= W_THRESHOLD:
            return x
        step *= 1.25
        x += direction * step
    raise GridError("truncation search exhausted")


def _wall_decays(pre: prepot.Prepotential, roots, wall: float, interior_sign: int,
                 span: float) -> bool:
    """True when phi decays toward the finite wall (W_N grows approaching it).

    Probe offsets stay above the floating-point floor of z(x) - a near
    quadratic turning points (z - a ~ dx^2 there).
    """
    scale = min(1.0, span / 4.0)
    try:
        w_far = prepot.wn_value(pre, roots, wall + interior_sign * 1e-4 * scale)
        w_near = prepot.wn_value(pre, roots, wall + interior_sign * 1e-7 * scale)
    except ValueError:
        return False
    return w_near > w_far + 0.1


def _domain_components(pre: prepot.Prepotential,
                       roots) -> tuple[list[tuple[float, float]], list[float]]:
    """Domain components between the cut points (map endpoints and finite
    walls), and the finite x-preimages of the roots."""
    cmap = pre.cmap
    dlo, dhi = cmap.x_domain
    cuts = sorted({dlo, dhi, *_finite_walls(pre)})
    components = [(cuts[i], cuts[i + 1]) for i in range(len(cuts) - 1)
                  if cuts[i + 1] - cuts[i] > 1e-9]
    xr = []
    for zk in np.atleast_1d(np.asarray(roots, dtype=float)):
        try:
            xk = cmap.x_of_z(zk)
            if math.isfinite(xk):
                xr.append(xk)
        except Exception:
            pass
    return components, xr


def certification_domain(pre: prepot.Prepotential,
                         roots) -> tuple[float, float, bool, bool]:
    """Certification box (x_lo, x_hi, singular_lo, singular_hi).

    Finite walls (singular endpoints) are kept as-is and flagged; unbounded
    ends are truncated where W_N >= W_THRESHOLD, so |phi| <= e^-W_THRESHOLD
    at the box edge.
    """
    # The root preimages xr pull the box out far enough to contain the state.
    components, xr = _domain_components(pre, roots)
    if not components:
        raise GridError("empty coordinate domain")

    def _component_ok(a: float, b: float) -> tuple[bool, float, float]:
        span = (b - a) if math.isfinite(a) and math.isfinite(b) else 4.0
        inside = [v for v in xr if a < v < b]
        lo_edge, hi_edge = a, b
        try:
            if math.isfinite(b):
                if not _wall_decays(pre, roots, b, -1, span):
                    return False, a, b
            else:
                s0 = (max(inside) if inside else (a + 1.0 if math.isfinite(a) else 0.0)) + 0.5
                hi_edge = _march_threshold(pre, roots, s0, +1, math.inf)
            if math.isfinite(a):
                if not _wall_decays(pre, roots, a, +1, span):
                    return False, a, b
            else:
                s0 = (min(inside) if inside else (b - 1.0 if math.isfinite(b) else 0.0)) - 0.5
                lo_edge = _march_threshold(pre, roots, s0, -1, -math.inf)
        except (GridError, ValueError):
            return False, a, b
        return True, lo_edge, hi_edge

    bsign = pre.spec_ref.branch_sign
    candidates = []
    for a, b in components:
        ok, lo_edge, hi_edge = _component_ok(a, b)
        if ok:
            contains_roots = all(a < v < b for v in xr) if xr else True
            mid = (max(a, -1e18) + min(b, 1e18)) / 2.0
            candidates.append((contains_roots, mid, (a, b), (lo_edge, hi_edge)))
    if not candidates:
        raise GridError("no normalizable domain component found")
    candidates.sort(key=lambda c: (not c[0],
                                   -(min(c[2][1], 1e18) - max(c[2][0], -1e18)),
                                   -bsign * c[1]))
    _, _, (a, b), (lo_edge, hi_edge) = candidates[0]
    return lo_edge, hi_edge, math.isfinite(a), math.isfinite(b)


def _wall_nu(pre: prepot.Prepotential, wall: float) -> float:
    """Endpoint exponent phi ~ (x - wall)^nu from the model's singularity.

    nu = mu * (vanishing order of z - a in x): order 1 at a point where
    Q(a) != 0, order 2 at a turning point Q(a) = 0. The model data is the
    authority here: when the conjugate indicial root 1 - nu is also
    normalizable (limit-circle endpoints), the potential alone cannot
    distinguish the two.
    """
    spec = pre.spec_ref
    cmap = pre.cmap
    for s in spec.singularities:
        try:
            xa = cmap.x_of_z(s.location)
        except Exception:
            continue
        if math.isfinite(xa) and abs(xa - wall) < 1e-9 * (1.0 + abs(wall)):
            order = 1 if abs(spec.Q(s.location)) > 1e-12 else 2
            return s.exponent * order
    return math.nan


def default_grid(pre: prepot.Prepotential, roots, n_points: int = 4001) -> Grid:
    """Grid over the certification box; finite singular endpoints are inset
    by max(10h, 1e-3)."""
    x_lo, x_hi, sing_lo, sing_hi = certification_domain(pre, roots)
    wall_lo, wall_hi = x_lo, x_hi
    h0 = (x_hi - x_lo) / (n_points - 1)
    inset = max(10.0 * h0, 1e-3)
    if sing_lo:
        x_lo += inset
    if sing_hi:
        x_hi -= inset
    return make_grid(x_lo, x_hi, n_points, singular_lo=sing_lo, singular_hi=sing_hi,
                     wall_lo=wall_lo if sing_lo else math.nan,
                     wall_hi=wall_hi if sing_hi else math.nan,
                     nu_lo=_wall_nu(pre, wall_lo) if sing_lo else math.nan,
                     nu_hi=_wall_nu(pre, wall_hi) if sing_hi else math.nan)


# ---------------------------------------------------------------------------
# Certification operations


def schrodinger_residual(profile: potential.PotentialProfile, branch, cmap, pre,
                         grid: Grid, stencil_order: int = 4) -> tuple[float, float]:
    """Normalized residual of (-d2/dx2 + U - E) phi on the grid.

    phi is evaluated in log space and normalized to max 1; the residual is
    scaled by 1 + max|U - E| so that it is dimensionless and converges at
    the stencil order. Neighborhoods of wave-function nodes (radius
    NODE_DELTA_STEPS * h) and of singular walls (WALL_DELTA_STEPS * h) are
    excluded: phi ~ 0 there makes the normalized residual ill-conditioned
    without carrying certification content.
    """
    if stencil_order not in _STENCILS:
        raise ValueError(f"stencil_order must be one of {sorted(_STENCILS)}")
    x = grid.points
    roots = np.asarray(branch.roots, dtype=float)
    logphi, sign = prepot.phi_log_sign(pre, roots, x)
    finite = np.isfinite(logphi)
    if not np.any(finite):
        raise GridError("phi vanishes identically on the grid")
    logphi = logphi - np.max(logphi[finite])
    phi = np.where(finite, sign * np.exp(logphi), 0.0)

    z = cmap.z_of_x(x)
    u_minus_e = profile.U(z) - profile.energy
    if not np.all(np.isfinite(u_minus_e)):
        raise GridError("grid intersects a pole of the potential")

    w = _STENCILS[stencil_order]
    half = len(w) // 2
    d2 = np.convolve(phi, w[::-1], mode="valid") / grid.h ** 2
    interior = slice(half, len(x) - half)
    res = -d2 + u_minus_e[interior] * phi[interior]

    mask = np.ones(len(res), dtype=bool)
    xi = x[interior]
    # node exclusion zones
    flips = np.where(phi[:-1] * phi[1:] < 0)[0]
    delta = NODE_DELTA_STEPS * grid.h
    for i in flips:
        xn = 0.5 * (x[i] + x[i + 1])
        mask &= np.abs(xi - xn) > delta
    # singular-wall exclusion zones
    wdelta = WALL_DELTA_STEPS * grid.h
    if grid.singular_lo:
        mask &= xi > x[0] + wdelta
    if grid.singular_hi:
        mask &= xi < x[-1] - wdelta
    if not np.any(mask):
        raise GridError("all grid points excluded")

    scale = 1.0 + np.max(np.abs(u_minus_e))
    r = np.abs(res[mask]) / scale
    return float(np.max(r)), float(np.sqrt(np.mean(r ** 2)))


def _wall_exponent(profile: potential.PotentialProfile, cmap, wall: float,
                   interior_sign: int, inset: float) -> float:
    """Regular-solution exponent nu at a singular wall: phi ~ (x - wall)^nu.

    Probes the 1/x^2 coefficient alpha of U near the wall and solves
    nu(nu-1) = alpha, taking the normalizable root nu = (1 + sqrt(1+4a))/2.
    """
    eps = inset * 1e-3
    x = wall + interior_sign * eps
    alpha = float(profile.U(cmap.z_of_x(x))) * eps * eps
    return 0.5 * (1.0 + math.sqrt(max(0.0, 1.0 + 4.0 * alpha)))


def fd_spectrum(profile: potential.PotentialProfile, cmap, grid: Grid,
                k: int) -> np.ndarray:
    """Lowest k eigenvalues of -d2/dx2 + U discretized on the grid.

    Second-order stencil with Dirichlet truncation, Richardson-extrapolated:
    the computation repeats on a doubled grid and the O(h^2) error is
    extrapolated away. At singular walls (x^-2 endpoint behavior) a plain
    Dirichlet node badly perturbs the spectrum, so the boundary row instead
    uses a ghost point carrying the known regular behavior phi ~ (x - wall)^nu.
    """
    if k >= grid.n:
        raise ValueError("k must be smaller than the number of grid points")

    nu_lo = nu_hi = None
    if grid.singular_lo and math.isfinite(grid.wall_lo):
        nu_lo = grid.nu_lo if math.isfinite(grid.nu_lo) else _wall_exponent(
            profile, cmap, grid.wall_lo, +1, grid.points[0] - grid.wall_lo)
    if grid.singular_hi and math.isfinite(grid.wall_hi):
        nu_hi = grid.nu_hi if math.isfinite(grid.nu_hi) else _wall_exponent(
            profile, cmap, grid.wall_hi, -1, grid.wall_hi - grid.points[-1])

    def _levels(g: Grid) -> np.ndarray:
        u = profile.U(cmap.z_of_x(g.points))
        if not np.all(np.isfinite(u)):
            raise GridError("grid intersects a pole of the potential")
        diag = 2.0 / g.h ** 2 + u
        off = np.full(g.n - 1, -1.0 / g.h ** 2)
        if nu_lo is not None:
            d0 = g.points[0] - grid.wall_lo
            r = (d0 - g.h) / d0
            if r > 0:
                diag[0] -= r ** nu_lo / g.h ** 2
        if nu_hi is not None:
            d1 = grid.wall_hi - g.points[-1]
            r = (d1 - g.h) / d1
            if r > 0:
                diag[-1] -= r ** nu_hi / g.h ** 2
        return tridiag_eigenvalues(Tridiag(diag, off), k=k)

    e1 = _levels(grid)
    fine = make_grid(grid.points[0], grid.points[-1], 2 * grid.n - 1,
                     singular_lo=grid.singular_lo, singular_hi=grid.singular_hi,
                     wall_lo=grid.wall_lo, wall_hi=grid.wall_hi,
                     nu_lo=grid.nu_lo, nu_hi=grid.nu_hi)
    e2 = _levels(fine)
    return (4.0 * e2 - e1) / 3.0


def node_count(pre: prepot.Prepotential, branch, grid: Grid) -> int:
    """Number of sign changes of phi_N on the grid."""
    roots = np.asarray(branch.roots, dtype=float)
    _, sign = prepot.phi_log_sign(pre, roots, grid.points)
    s = sign[sign != 0]
    return int(np.sum(s[:-1] * s[1:] < 0))


def _segment_log_integral(pre, roots, a: float, b: float, n: int = 129) -> float:
    """log of integral_a^b phi^2 dx by Simpson, computed in log space."""
    if not b > a:
        return -math.inf
    if n % 2 == 0:
        n += 1
    xs = np.linspace(a, b, n)
    logphi, _ = prepot.phi_log_sign(pre, roots, xs)
    m = np.max(2.0 * logphi)
    if not math.isfinite(m):
        return -math.inf
    vals = np.exp(2.0 * logphi - m)
    h = (b - a) / (n - 1)
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    integral = h / 3.0 * float(np.dot(w, vals))
    return m + math.log(integral) if integral > 0 else -math.inf


def normalizability_check(pre: prepot.Prepotential, branch) -> tuple[bool, float]:
    """Adaptive test that the integral of phi^2 converges over the domain.

    Unbounded sides are covered by geometrically growing windows, finite
    singular endpoints by geometrically shrinking ones; the verdict is True
    when the window contributions decay (tail bounded by a geometric
    series), False as soon as they grow persistently.
    """
    roots = np.asarray(branch.roots, dtype=float)
    try:
        comps, xr = _domain_components(pre, roots)
        # pick the component the certification would use, but without
        # requiring a decaying state (that is what we are testing)
        a, b = max(comps, key=lambda c: min(c[1], 1e18) - max(c[0], -1e18))
        for aa, bb in comps:
            if xr and all(aa < v < bb for v in xr):
                a, b = aa, bb
                break
    except Exception:
        a, b = pre.cmap.x_domain

    if math.isfinite(a) and math.isfinite(b):
        core_lo, core_hi = a + (b - a) / 4, b - (b - a) / 4
    elif math.isfinite(a):
        core_lo, core_hi = a + 0.5, a + 1.5
    elif math.isfinite(b):
        core_lo, core_hi = b - 1.5, b - 0.5
    else:
        core_lo, core_hi = -1.0, 1.0
    total = _segment_log_integral(pre, roots, core_lo, core_hi)

    def _side(edge: float, inner: float, outward: int) -> bool:
        nonlocal total
        grow = 0
        prev = -math.inf
        if math.isfinite(edge):
            # shrink toward the endpoint; outward < 0 means the endpoint is
            # the left end of the component
            t = abs(inner - edge)
            for _ in range(MAX_WINDOWS):
                t2 = t / 2.0
                if outward < 0:
                    seg = _segment_log_integral(pre, roots, edge + t2, edge + t)
                else:
                    seg = _segment_log_integral(pre, roots, edge - t, edge - t2)
                total = np.logaddexp(total, seg)
                if seg < total - 36.0:
                    return True
                if seg > prev:
                    grow += 1
                    if grow >= 6:
                        return False
                else:
                    grow = 0
                prev = seg
                t = t2
            return False
        # march to infinity with growing windows
        width = 1.0
        x0 = inner
        for _ in range(MAX_WINDOWS):
            x1 = x0 + outward * width
            seg = _segment_log_integral(pre, roots, min(x0, x1), max(x0, x1))
            total = np.logaddexp(total, seg)
            if seg < total - 36.0:
                return True
            if seg > prev:
                grow += 1
                if grow >= 4:
                    return False
            else:
                grow = 0
            prev = seg
            x0 = x1
            width *= 1.4
        return False

    ok_lo = _side(a, core_lo, -1)
    ok_hi = _side(b, core_hi, +1)
    estimate = math.exp(total) if total < 700 else math.inf
    return bool(ok_lo and ok_hi), estimate


def _setup(spec: ModelSpec, branch, n_points: int):
    """Map, prepotential, reported potential and certification grid."""
    cmap = coords.build(spec.Q, branch_sign=spec.branch_sign)
    pre = prepot.integrate_w0(spec, cmap)
    profile = potential.split_energy(spec, branch)
    grid = default_grid(pre, branch.roots, n_points=n_points)
    return cmap, pre, profile, grid


def residual_check(spec: ModelSpec, branch, *,
                   n_points: int = 4001) -> tuple[float, float]:
    """Schrodinger residual (max, rms) of one branch on its default grid:
    the residual oracle of verify_branch, at its default stencil order."""
    cmap, pre, profile, grid = _setup(spec, branch, n_points)
    return schrodinger_residual(profile, branch, cmap, pre, grid)


def verify_branch(spec: ModelSpec, branch, *, n_points: int = 4001,
                  stencil_order: int = 4,
                  residual_tol: float = 1e-6) -> VerificationReport:
    """Full certification pipeline for one branch.

    Builds map, prepotential, profile and grid, then runs the residual,
    node count, normalizability and FD spectrum oracles. The verdict
    requires the residual below tolerance and the claimed energy matched
    by a Richardson-extrapolated FD eigenvalue; at a limit-circle wall the
    spectrum oracle is skipped and spectrum_note says so. Singular-endpoint
    models carry a documented FD accuracy downgrade (relative tolerance
    1e-2 instead of 1e-3).
    """
    cmap, pre, profile, grid = _setup(spec, branch, n_points)
    rmax, rrms = schrodinger_residual(profile, branch, cmap, pre, grid,
                                      stencil_order=stencil_order)
    nodes = node_count(pre, branch, grid)
    normalizable, norm_estimate = normalizability_check(pre, branch)
    matches, note, matched = [], "", True
    # At a limit-circle wall where the state follows the weaker indicial
    # root (nu < 1/2) the discrete operator mixes in the conjugate solution
    # and grows spurious corner modes: the FD spectrum is not a trustworthy
    # oracle there, so the residual alone carries the verdict.
    limit_circle = any(
        flag and math.isfinite(nu) and nu < 0.5 - 1e-12
        for flag, nu in ((grid.singular_lo, grid.nu_lo),
                         (grid.singular_hi, grid.nu_hi)))
    if limit_circle:
        note = "FD spectrum oracle skipped: limit-circle wall with endpoint exponent nu < 1/2"
    else:
        tol = 1e-2 if grid.singular_lo or grid.singular_hi else 1e-3
        levels = fd_spectrum(profile, cmap, grid, max(8, 2 * spec.N + 4))
        nearest = levels[np.argmin(np.abs(levels - profile.energy))]
        diff = abs(nearest - profile.energy)
        matches = [(profile.energy, float(nearest), float(diff))]
        matched = diff < tol * max(1.0, abs(profile.energy))
    return VerificationReport(
        residual_max=rmax, residual_rms=rrms, node_count=nodes,
        normalizable=normalizable, norm_estimate=norm_estimate,
        spectrum_matches=matches, spectrum_note=note,
        verdict=bool(rmax < residual_tol and matched))
