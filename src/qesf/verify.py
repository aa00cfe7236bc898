"""Independent certification of (potential, energy, eigenfunction) triples.

Nothing here reuses the algebra that produced the claims: the Schrodinger
residual applies a finite-difference second derivative to the log-space wave
function, node counts come from raw sign changes of the same sampled phi,
the spectrum oracle computes the discretized operator's level whose index
is the node count (a state with n nodes is level n, by Sturm oscillation),
and normalizability comes from adaptive quadrature of phi^2. These are the
arbiters for every sign or convention ambiguity upstream.

The claimed energy does enter the spectrum oracle, but only as the place
to look for the level: the claim seeds the search, a Sturm count fixes the
level's index, and bisection fixes its value. A wrong claim therefore
costs time and can never change the level it is compared with.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import potential, prepot
from .errors import DomainError, GridError
# tridiag_eigenvalues is bound here, though unused, because the benchmark's
# tracer (perfbench/tracing.py) wraps verify.tridiag_eigenvalues.
from .poly import Tridiag, tridiag_eigenvalue, tridiag_eigenvalues

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
    """Uniform certification grid. An end that abuts a singular wall carries
    it as (x of the wall, nu), with phi ~ |x - wall|^nu there."""

    points: np.ndarray
    h: float
    wall_lo: tuple[float, float] | None = None
    wall_hi: tuple[float, float] | None = None

    @property
    def n(self) -> int:
        return len(self.points)

    @property
    def component(self) -> tuple[float, float]:
        """The domain component the grid lies in: bounded by its walls,
        unbounded at an end without one."""
        return (-math.inf if self.wall_lo is None else self.wall_lo[0],
                math.inf if self.wall_hi is None else self.wall_hi[0])


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
        return asdict(self)


def make_grid(x_lo: float, x_hi: float, n: int,
              wall_lo: tuple[float, float] | None = None,
              wall_hi: tuple[float, float] | None = None) -> Grid:
    if n < 8:
        raise GridError("grid needs at least 8 points")
    if not (x_hi > x_lo):
        raise GridError(f"empty grid interval [{x_lo}, {x_hi}]")
    pts = np.linspace(x_lo, x_hi, n)
    return Grid(pts, float(pts[1] - pts[0]), wall_lo, wall_hi)


# ---------------------------------------------------------------------------
# Domain determination


def _march_threshold(pre: prepot.Prepotential, roots, start: float,
                     direction: int) -> float:
    """First point of an outward x-ladder from start with W_N >= W_THRESHOLD.

    The ladder's steps start at 0.25 and grow by 1.25, accumulated in
    sequence. It is evaluated in one call, so it runs far past the
    crossing, where z or W_N may overflow; those values are never used. A
    node (sign 0) is no crossing.
    """
    steps = np.cumprod(np.r_[0.25, np.full(399, 1.25)])
    xs = np.cumsum(np.r_[start, direction * steps])[1:]
    with np.errstate(over="ignore", invalid="ignore"):
        logphi, sign = prepot.phi_log_sign(pre, roots, xs)
    crossed = np.flatnonzero((-logphi >= W_THRESHOLD) & (sign != 0))
    if not len(crossed):
        raise GridError("truncation search exhausted")
    return float(xs[crossed[0]])


def default_grid(pre: prepot.Prepotential, roots, n_points: int = 4001) -> Grid:
    """Certification grid of n_points points for the branch with these roots.

    The map's endpoints and the model's finite walls (pre.walls) cut the
    x-domain into components. A component is admitted when phi vanishes at
    each of its walls (nu > 0). Admitted components are preferred in this
    order: the one holding every root preimage, then the widest, then the
    one on the side of the spec's branch_sign. The first of them whose
    unbounded ends truncate is certified: an unbounded end is cut where
    W_N >= W_THRESHOLD, so |phi| <= e^-W_THRESHOLD at the box edge, and an
    end at a wall is inset by max(10h, 1e-3) and carries the wall's (x, nu).
    """
    walls = pre.walls
    cuts = sorted({*pre.cmap.x_domain, *walls})
    components = [(a, b) for a, b in zip(cuts, cuts[1:]) if b - a > 1e-9]
    if not components:
        raise GridError("empty coordinate domain")
    # The root preimages xr pull the box out far enough to contain the state.
    xr = []
    for zk in np.atleast_1d(np.asarray(roots, dtype=float)):
        try:
            xk = pre.cmap.x_of_z(zk)
        except DomainError:
            continue
        if math.isfinite(xk):
            xr.append(xk)
    bsign = pre.spec_ref.branch_sign
    admitted = [(a, b) for a, b in components
                if not any(math.isfinite(e) and walls[e] <= 0.0 for e in (a, b))]
    admitted.sort(key=lambda c: (not all(c[0] < v < c[1] for v in xr),
                                 -(min(c[1], 1e18) - max(c[0], -1e18)),
                                 -bsign * (max(c[0], -1e18) + min(c[1], 1e18)) / 2.0))
    for a, b in admitted:
        inside = [v for v in xr if a < v < b]
        x_lo, x_hi = a, b
        try:
            if not math.isfinite(b):
                s0 = (max(inside) if inside else (a + 1.0 if math.isfinite(a) else 0.0)) + 0.5
                x_hi = _march_threshold(pre, roots, s0, +1)
            if not math.isfinite(a):
                s0 = (min(inside) if inside else (b - 1.0 if math.isfinite(b) else 0.0)) - 0.5
                x_lo = _march_threshold(pre, roots, s0, -1)
        except (GridError, ValueError):
            continue
        inset = max(10.0 * ((x_hi - x_lo) / (n_points - 1)), 1e-3)
        wall_lo = (a, walls[a]) if math.isfinite(a) else None
        wall_hi = (b, walls[b]) if math.isfinite(b) else None
        return make_grid(x_lo + inset if wall_lo else x_lo,
                         x_hi - inset if wall_hi else x_hi, n_points, wall_lo, wall_hi)
    raise GridError("no normalizable domain component found")


# ---------------------------------------------------------------------------
# Certification operations


def schrodinger_residual(profile: potential.PotentialProfile, cmap, grid: Grid, phi,
                         stencil_order: int = 4) -> tuple[float, float]:
    """Normalized residual of (-d2/dx2 + U - E) phi_N on the grid, phi_N
    the wave function of the profile's branch, given on the grid points as
    phi = (log|phi_N|, sign) from prepot.phi_log_sign.

    phi is normalized to max 1 from its log magnitude; the residual is
    scaled by 1 + max|U - E| so that it is dimensionless and converges at
    the stencil order. Neighborhoods of wave-function nodes (radius
    NODE_DELTA_STEPS * h) and of singular walls (WALL_DELTA_STEPS * h) are
    excluded: phi ~ 0 there makes the normalized residual ill-conditioned
    without carrying certification content.
    """
    if stencil_order not in _STENCILS:
        raise ValueError(f"stencil_order must be one of {sorted(_STENCILS)}")
    x = grid.points
    logphi, sign = phi
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
    if grid.wall_lo is not None:
        mask &= xi > x[0] + wdelta
    if grid.wall_hi is not None:
        mask &= xi < x[-1] - wdelta
    if not np.any(mask):
        raise GridError("all grid points excluded")

    scale = 1.0 + np.max(np.abs(u_minus_e))
    r = np.abs(res[mask]) / scale
    return float(np.max(r)), float(np.sqrt(np.mean(r ** 2)))


def fd_spectrum(profile: potential.PotentialProfile, cmap, grid: Grid,
                levels: dict[int, float]) -> dict[int, float]:
    """Eigenvalues of -d2/dx2 + U discretized on the grid, for
    levels = {index: energy to look near}, indices ascending from the
    ground level at 0. Returns {index: eigenvalue}. Only these levels are
    computed; an index outside 0..grid.n - 1 raises ValueError.

    Each level comes from poly.tridiag_eigenvalue: the energy only seeds
    the search, a Sturm count fixes the index and bisection fixes the
    value, so a wrong energy costs time and never moves the level.

    Second-order stencil with Dirichlet truncation, Richardson-extrapolated:
    the computation repeats on a doubled grid and the O(h^2) error is
    extrapolated away. At singular walls (x^-2 endpoint behavior) a plain
    Dirichlet node badly perturbs the spectrum, so the boundary row instead
    uses a ghost point carrying the wall's behavior phi ~ |x - wall|^nu.
    """

    def _levels(g: Grid) -> dict[int, float]:
        u = profile.U(cmap.z_of_x(g.points))
        if not np.all(np.isfinite(u)):
            raise GridError("grid intersects a pole of the potential")
        diag = 2.0 / g.h ** 2 + u
        off = np.full(g.n - 1, -1.0 / g.h ** 2)
        for wall, end in ((g.wall_lo, 0), (g.wall_hi, -1)):
            if wall is not None:
                x_wall, nu = wall
                d = abs(g.points[end] - x_wall)
                r = (d - g.h) / d
                if r > 0:
                    diag[end] -= r ** nu / g.h ** 2
        t = Tridiag(diag, off)
        return {k: tridiag_eigenvalue(t, k, near) for k, near in levels.items()}

    e1 = _levels(grid)
    e2 = _levels(make_grid(grid.points[0], grid.points[-1], 2 * grid.n - 1,
                           grid.wall_lo, grid.wall_hi))
    return {k: (4.0 * e2[k] - e1[k]) / 3.0 for k in e1}


def node_count(phi) -> int:
    """Number of sign changes of phi_N on the grid, for phi = (log|phi_N|,
    sign) on its points."""
    _, sign = phi
    s = sign[sign != 0]
    return int(np.sum(s[:-1] * s[1:] < 0))


def _segment_log_integral(pre, roots, a: float, b: float) -> float:
    """log of integral_a^b phi^2 dx by 129-point Simpson, computed in log space."""
    if not b > a:
        return -math.inf
    n = 129
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


def _windows(edge: float, inner: float, outward: int) -> tuple[np.ndarray, np.ndarray]:
    """The MAX_WINDOWS integration windows (lo, hi) of one side of a
    component, from inner outward: halving toward a finite endpoint edge
    (outward < 0 when it is the left end), growing by 1.4 toward an
    infinite one. Widths and edges accumulate in sequence, as a loop would."""
    if math.isfinite(edge):
        t = abs(inner - edge) / 2.0 ** np.arange(MAX_WINDOWS + 1)
        if outward < 0:
            return edge + t[1:], edge + t[:-1]
        return edge - t[:-1], edge - t[1:]
    widths = np.cumprod(np.r_[1.0, np.full(MAX_WINDOWS - 1, 1.4)])
    x = np.cumsum(np.r_[inner, outward * widths])
    return (x[:-1], x[1:]) if outward > 0 else (x[1:], x[:-1])


def normalizability_check(pre: prepot.Prepotential, branch,
                          component: tuple[float, float]) -> tuple[bool, float]:
    """Adaptive test that the integral of phi^2 converges over the domain
    component (a, b), the one default_grid certifies.

    Unbounded sides are covered by geometrically growing windows, finite
    singular endpoints by geometrically shrinking ones; the verdict is True
    when the window contributions decay (tail bounded by a geometric
    series), False as soon as they grow persistently.
    """
    roots = np.asarray(branch.roots, dtype=float)
    a, b = component

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
        patience = 6 if math.isfinite(edge) else 4
        grow = 0
        prev = -math.inf
        for lo, hi in zip(*_windows(edge, inner, outward)):
            seg = _segment_log_integral(pre, roots, lo, hi)
            total = np.logaddexp(total, seg)
            if seg < total - 36.0:
                return True
            if seg > prev:
                grow += 1
                if grow >= patience:
                    return False
            else:
                grow = 0
            prev = seg
        return False

    ok_lo = _side(a, core_lo, -1)
    ok_hi = _side(b, core_hi, +1)
    estimate = math.exp(total) if total < 700 else math.inf
    return bool(ok_lo and ok_hi), estimate


def _branch_setup(pre: prepot.Prepotential, branch, n_points: int):
    """Reported potential, certification grid and phi_N = (log|phi_N|,
    sign) on its points, of one branch."""
    profile = potential.split_energy(pre, branch)
    grid = default_grid(pre, branch.roots, n_points=n_points)
    roots = np.asarray(branch.roots, dtype=float)
    return profile, grid, prepot.phi_log_sign(pre, roots, grid.points)


def residual_check(pre: prepot.Prepotential, branch, *,
                   n_points: int = 4001) -> tuple[float, float]:
    """Schrodinger residual (max, rms) of one branch of the built model on
    its default grid: the residual oracle of verify_branch, at its default
    stencil order."""
    profile, grid, phi = _branch_setup(pre, branch, n_points)
    return schrodinger_residual(profile, pre.cmap, grid, phi)


def verify_branches(pre: prepot.Prepotential, branches, *, n_points: int = 4001,
                    stencil_order: int = 4, residual_tol: float = 1e-6) -> list:
    """Full certification pipeline for the branches of one built model.

    Returns, per branch and in order, its VerificationReport or the
    GridError, DomainError or ValueError that stopped its checks; a failed
    branch stops no other.

    Each branch gets its profile and grid from the built model, then the
    residual, node count and normalizability oracles. The verdict requires
    the residual below tolerance, phi normalizable, and the claimed energy
    matched by the Richardson-extrapolated FD eigenvalue whose index is the
    branch's node count: by Sturm oscillation a state with n nodes is
    level n. At a limit-circle wall the spectrum oracle is skipped,
    spectrum_note says so, and the residual alone carries the verdict.
    Singular-endpoint models carry a documented FD accuracy downgrade
    (relative tolerance 1e-2 instead of 1e-3).

    The FD spectrum runs once per potential: branches with the same FD
    operator up to the grid span (equal potential U, as type-1 and ES
    models share, and equal walls with their exponents) are matched
    against one spectrum on a grid of n_points points spanning all their
    boxes, which for a branch alone is its own grid. Only the levels whose
    indices are the group's node counts are computed, each looked for near
    its branch's claimed energy. The claim only seeds that search: the
    level's index comes from a Sturm count and its value from bisection,
    so the claim cannot choose the level it is compared with.
    """
    results: list = [None] * len(branches)
    groups: dict[tuple, list] = {}  # (U, wall_lo, wall_hi) -> [(index, profile, grid, fields)]
    for i, br in enumerate(branches):
        try:
            profile, grid, phi = _branch_setup(pre, br, n_points)
            rmax, rrms = schrodinger_residual(profile, pre.cmap, grid, phi,
                                              stencil_order=stencil_order)
            nodes = node_count(phi)
            normalizable, norm_estimate = normalizability_check(pre, br, grid.component)
        except (GridError, DomainError, ValueError) as exc:
            results[i] = exc
            continue
        fields = dict(residual_max=rmax, residual_rms=rrms, node_count=nodes,
                      normalizable=normalizable, norm_estimate=norm_estimate)
        # At a limit-circle wall where the state follows the weaker
        # indicial root (nu < 1/2) the discrete operator mixes in the
        # conjugate solution and grows spurious corner modes: the FD
        # spectrum is not a trustworthy oracle there, so the residual
        # alone carries the verdict.
        limit_circle = any(wall is not None and wall[1] < 0.5 - 1e-12
                           for wall in (grid.wall_lo, grid.wall_hi))
        if limit_circle:
            results[i] = VerificationReport(
                **fields, spectrum_matches=[],
                spectrum_note="FD spectrum oracle skipped: limit-circle wall "
                              "with endpoint exponent nu < 1/2",
                verdict=bool(rmax < residual_tol))
        else:
            groups.setdefault((profile.U, grid.wall_lo, grid.wall_hi), []).append(
                (i, profile, grid, fields))

    for members in groups.values():
        grids = [grid for _, _, grid, _ in members]
        grid = make_grid(min(g.points[0] for g in grids),
                         max(g.points[-1] for g in grids), n_points,
                         grids[0].wall_lo, grids[0].wall_hi)
        # each node count with the energy of its first branch to look near
        claims = {}
        for _, profile, _, fields in members:
            claims.setdefault(fields["node_count"], profile.energy)
        try:
            levels = fd_spectrum(members[0][1], pre.cmap, grid, claims)
        except (GridError, DomainError, ValueError) as exc:
            for i, *_ in members:
                results[i] = exc
            continue
        tol = 1e-3 if grid.wall_lo is None and grid.wall_hi is None else 1e-2
        for i, profile, _, fields in members:
            energy = profile.energy
            level = levels[fields["node_count"]]
            diff = abs(level - energy)
            results[i] = VerificationReport(
                **fields, spectrum_matches=[(energy, float(level), float(diff))],
                spectrum_note="",
                verdict=bool(fields["residual_max"] < residual_tol
                             and fields["normalizable"]
                             and diff < tol * max(1.0, abs(energy))))
    return results


def verify_branch(pre: prepot.Prepotential, branch, *, n_points: int = 4001,
                  stencil_order: int = 4,
                  residual_tol: float = 1e-6) -> VerificationReport:
    """verify_branches for one branch: its report, or its error raised."""
    (rep,) = verify_branches(pre, [branch], n_points=n_points,
                             stencil_order=stencil_order, residual_tol=residual_tol)
    if isinstance(rep, Exception):
        raise rep
    return rep
