"""Independent certification of (potential, energy, eigenfunction) triples.

Nothing here reuses the algebra that produced the claims: the Schrodinger
residual applies a finite-difference second derivative to the log-space wave
function, node counts come from raw sign changes of the same sampled phi,
the spectrum oracle computes the discretized operator's level whose index
is the node count (a state with n nodes is level n, by Sturm oscillation),
and normalizability comes from adaptive quadrature of phi^2. These are the
arbiters for every sign or convention ambiguity upstream.

The spectrum oracle has two discretizations. On a component with no wall
it is the sinc discrete variable representation (dvr_spectrum): one
np.linalg.eigvalsh of a dense matrix of a few dozen to a few hundred
rows gives every level, spectrally accurate, with its own error estimate
from a second solve on 0.8 times the points. The claimed energies enter
it only through the largest one, which seeds the matrix size; the size is
re-checked against the solve's own top level, so a wrong claim costs time
and can never change a level. At a wall the oracle stays the
second-order finite-difference (FD) operator with a ghost-point row for
the wall, Richardson-extrapolated (fd_spectrum). There the claim seeds
each level's search: two Sturm counts fix the level's index in a window
that holds it alone, and the Kato-Temple bound fixes its value, with
bisection as the fallback, so again a wrong claim costs time and never
changes the level. All levels of one FD matrix are found in one
poly.tridiag_levels call, so the Sturm count at each claim's shift can
end the other levels' windows. Those LAPACK routines come from scipy's
LAPACK extension, loaded on the first FD level found; the scipy.linalg
package is never imported, and a verify with no wall imports no scipy
module at all.

Where the coordinate map has a turning point x_t inside the certified
component (parabolic or cosh maps, with no wall at x_t), z(x), the
potential and every algebraic phi_N are even about x_t. The spectrum
oracle then runs on the half component with a mirror end at x_t: its
levels are the even sector, whose level m is the full line's level 2m. A
branch there needs an even node count n and is matched against even-sector
level n // 2; the odd partners of tunnelling doublets, never algebraic,
are not in that operator at all. Residual, node count and normalizability
stay on each branch's full-component grid.

The setup the oracles start from (branch_setups: profile, grid and phi)
is built for all branches of a model in one array pass: the truncation
ladders of every branch and end are marched together, and phi on every
grid comes from one prepot.phi_log_sign call with a row per branch. The
normalizability windows of all branches are rows of one pass too
(normalizability_checks): one phi_log_sign call per chunk of windows over
the branches still undecided, while each branch's scan of its windows
stays sequential. The residual and node count then run per branch, and
the spectrum oracle per potential. The residual stays per branch because rows
of one pass were measured slower: stacking every branch's stencil,
masks and U(z) took a type-1 benchmark pass from 27.3 to 36.2 ms at 4001
points and from 16.6 to 20.9 ms at 2001 (2-core machine). Every
x-preimage of a root or of phi's peak, on the map's declared branch or
its mirror, comes from coords.CoordinateMap.preimages in one call per
pass, nan where it has none.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass

import numpy as np

from . import bae, potential, prepot
from .errors import DomainError, GridError
# tridiag_eigenvalues is bound here, though unused, because the benchmark's
# tracer (perfbench/tracing.py) wraps verify.tridiag_eigenvalues.
from .poly import Poly, Tridiag, tridiag_eigenvalues, tridiag_levels

W_THRESHOLD = 40.0  # |phi| <= e^-40 at box ends for unbounded domains
NODE_DELTA_STEPS = 10  # residual exclusion radius around nodes, in grid steps
WALL_DELTA_STEPS = 50  # residual exclusion width at singular walls, in grid steps
MIN_GRID_POINTS = 8  # fewest points of a certification grid
MAX_WINDOWS = 120  # normalizability windows per side
SIMPSON_POINTS = 129  # points per normalizability window
DVR_BOX_LOG = 18.0  # DVR box: where log|phi| >= its max - DVR_BOX_LOG
DVR_STEP = 0.8  # largest h sqrt(E_top - min U) of a DVR solve
DVR_MARGIN = 1.1  # n is sized for DVR_STEP / DVR_MARGIN
DVR_AGREE = 1e-9  # relative agreement of the two solves, and the verdict's floor
DVR_MAX_POINTS = 2000  # largest DVR matrix
_LADDER_STEPS = np.cumprod(np.r_[0.25, np.full(399, 1.25)])  # of _march_thresholds
_SIMPSON = np.ones(SIMPSON_POINTS)
_SIMPSON[1:-1:2] = 4.0
_SIMPSON[2:-1:2] = 2.0
_SIMPSON_INDEX = np.arange(SIMPSON_POINTS, dtype=float)
_HALVINGS = 2.0 ** np.arange(MAX_WINDOWS + 1)  # of _windows toward a finite end
_WIDTHS = np.cumprod(np.r_[1.0, np.full(MAX_WINDOWS - 1, 1.4)])  # and toward an infinite one

_STENCILS = {
    2: np.array([1.0, -2.0, 1.0]),
    4: np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0,
    6: np.array([2.0, -27.0, 270.0, -490.0, 270.0, -27.0, 2.0]) / 180.0,
}


@dataclass(frozen=True)
class Grid:
    """Uniform certification grid. An end that abuts a singular wall carries
    it as (x of the wall, nu), with phi ~ |x - wall|^nu there. A mirror
    grid (mirror = x_t, from mirror_grid) is cell-centred on the half of a
    component that is reflection-symmetric about x_t: its low end is the
    mirror, h/2 below its first point, where phi is even."""

    points: np.ndarray
    h: float
    wall_lo: tuple[float, float] | None = None
    wall_hi: tuple[float, float] | None = None
    mirror: float | None = None

    @property
    def n(self) -> int:
        return len(self.points)

    @property
    def component(self) -> tuple[float, float]:
        """The domain component the grid lies in: bounded by its walls (or
        its mirror), unbounded at an end without one."""
        lo = self.mirror if self.mirror is not None else (
            -math.inf if self.wall_lo is None else self.wall_lo[0])
        return lo, math.inf if self.wall_hi is None else self.wall_hi[0]


@dataclass
class VerificationReport:
    residual_max: float
    residual_rms: float
    node_count: int
    normalizable: bool
    norm_estimate: float
    spectrum_matches: list  # (E_claimed, E_fd, |diff|), E_fd the oracle's level, DVR or FD
    spectrum_note: str
    verdict: bool

    def as_dict(self) -> dict:
        return asdict(self)


def make_grid(x_lo: float, x_hi: float, n: int,
              wall_lo: tuple[float, float] | None = None,
              wall_hi: tuple[float, float] | None = None) -> Grid:
    if n < MIN_GRID_POINTS:
        raise GridError(f"grid needs at least {MIN_GRID_POINTS} points")
    if not (x_hi > x_lo):
        raise GridError(f"empty grid interval [{x_lo}, {x_hi}]")
    pts = np.linspace(x_lo, x_hi, n)
    return Grid(pts, float(pts[1] - pts[0]), wall_lo, wall_hi)


def mirror_grid(x_t: float, n: int, h: float,
                wall_hi: tuple[float, float] | None = None) -> Grid:
    """Cell-centred grid of the n points x_t + (i + 1/2) h, with a mirror
    end at x_t."""
    if n < MIN_GRID_POINTS:
        raise GridError(f"grid needs at least {MIN_GRID_POINTS} points")
    return Grid(x_t + (np.arange(n) + 0.5) * h, h, None, wall_hi, x_t)


# ---------------------------------------------------------------------------
# Domain determination


def _march_thresholds(pre: prepot.Prepotential, roots: np.ndarray, starts,
                      directions) -> np.ndarray:
    """Per row i, the first point of an outward x-ladder from starts[i] in
    directions[i] with W_N >= W_THRESHOLD, for the branch with roots[i]
    (roots of shape (R, N)); nan where the ladder never gets there.

    The ladder's 400 steps start at 0.25 and grow by 1.25, accumulated in
    sequence. phi is evaluated lazily for chunks of 16, 32, 64, ... ladder
    points, one prepot.phi_log_sign call per chunk over the rows not yet
    crossed. A chunk runs past the crossing, where z or W_N may overflow;
    those values are never used. A node (sign 0) is no crossing.
    """
    steps = np.asarray(directions, dtype=float)[:, None] * _LADDER_STEPS
    xs = np.cumsum(np.concatenate((np.asarray(starts, dtype=float)[:, None], steps),
                                  axis=1), axis=1)[:, 1:]
    found = np.full(len(xs), np.nan)
    todo = np.arange(len(xs))
    lo, size = 0, 16
    while len(todo) and lo < xs.shape[1]:
        chunk = xs[todo, lo:lo + size]
        with np.errstate(over="ignore", invalid="ignore"):
            logphi, sign = prepot.phi_log_sign(pre, roots[todo], chunk)
        crossed = (-logphi >= W_THRESHOLD) & (sign != 0)
        hit = crossed.any(axis=1)
        found[todo[hit]] = chunk[hit, crossed[hit].argmax(axis=1)]
        todo = todo[~hit]
        lo, size = lo + size, 2 * size
    return found


def default_grids(pre: prepot.Prepotential, roots, n_points: int = 4001) -> list:
    """Certification grids of n_points points, one per branch, for roots of
    shape (B, N) (a branch's roots per row): per branch, in order, its Grid
    or the GridError that stopped it.

    The map's endpoints and the model's finite walls (pre.walls) cut the
    x-domain into components. A component is admitted when phi vanishes at
    each of its walls (nu > 0), which the FD oracle needs; a wall with
    nu <= 0 (bound, and normalizable, for nu > -1/2) is named in the
    GridError of a branch left with no component. Admitted components are
    preferred in this order: the one holding every root preimage, then the
    widest, then the one on the side of the spec's branch_sign. The first
    of them whose unbounded ends truncate is certified: an unbounded end is
    cut where W_N >= W_THRESHOLD, so |phi| <= e^-W_THRESHOLD at the box
    edge, and an end at a wall is inset by max(10h, 1e-3) and carries the
    wall's (x, nu).

    The truncation ladders of every branch's preferred component, both ends,
    run in one _march_thresholds pass; a branch whose component does not
    truncate tries its next one in a further pass.
    """
    roots = np.asarray(roots, dtype=float)
    walls = pre.walls
    cuts = sorted({*pre.cmap.x_domain, *walls})
    components = [(a, b) for a, b in zip(cuts, cuts[1:]) if b - a > 1e-9]
    if not components:
        return [GridError("empty coordinate domain") for _ in roots]
    # The root preimages xr pull the box out far enough to contain the
    # state; a root outside the map's image, or at an exponential map's
    # image end, has none (nan).
    xr = pre.cmap.preimages(roots)[0]
    bsign = pre.spec_ref.branch_sign
    weak = {e for c in components for e in c if math.isfinite(e) and walls[e] <= 0.0}
    admitted = [c for c in components if weak.isdisjoint(c)]
    exhausted = "no normalizable domain component found"
    if weak:  # named, as the reason their components were not tried
        exhausted += "; the FD oracle needs nu > 0 at each wall, and " + ", ".join(
            f"the wall at x = {x:.6g} has nu = {walls[x]:.6g}" for x in sorted(weak))
    pending = {}  # branch -> (its root preimages, its components still to try)
    for i, row in enumerate(xr):
        xi = row[np.isfinite(row)].tolist()
        pending[i] = xi, iter(sorted(
            admitted, key=lambda c: (not all(c[0] < v < c[1] for v in xi),
                                     -(min(c[1], 1e18) - max(c[0], -1e18)),
                                     -bsign * (max(c[0], -1e18) + min(c[1], 1e18)) / 2.0)))
    grids: list = [None] * len(roots)
    while pending:
        boxes, rows, starts, directions = {}, [], [], []
        for i, (xi, comps) in list(pending.items()):
            comp = next(comps, None)
            if comp is None:
                grids[i] = GridError(exhausted)
                del pending[i]
                continue
            a, b = boxes[i] = comp
            inside = [v for v in xi if a < v < b]
            if not math.isfinite(b):
                rows.append(i)
                starts.append((max(inside) if inside else
                               (a + 1.0 if math.isfinite(a) else 0.0)) + 0.5)
                directions.append(+1)
            if not math.isfinite(a):
                rows.append(i)
                starts.append((min(inside) if inside else
                               (b - 1.0 if math.isfinite(b) else 0.0)) - 0.5)
                directions.append(-1)
        ends = {i: list(box) for i, box in boxes.items()}
        found = _march_thresholds(pre, roots[rows], starts, directions)
        for i, direction, x_end in zip(rows, directions, found.tolist()):
            ends[i][1 if direction > 0 else 0] = x_end
        for i, (a, b) in boxes.items():
            x_lo, x_hi = ends[i]
            if math.isnan(x_lo) or math.isnan(x_hi):
                continue  # no truncation: the next component
            del pending[i]
            inset = max(10.0 * ((x_hi - x_lo) / (n_points - 1)), 1e-3)
            wall_lo = (a, walls[a]) if math.isfinite(a) else None
            wall_hi = (b, walls[b]) if math.isfinite(b) else None
            try:
                grids[i] = make_grid(x_lo + inset if wall_lo else x_lo,
                                     x_hi - inset if wall_hi else x_hi, n_points,
                                     wall_lo, wall_hi)
            except GridError as exc:
                grids[i] = exc
    return grids


def default_grid(pre: prepot.Prepotential, roots, n_points: int = 4001) -> Grid:
    """default_grids for the branch with these roots: its grid, or its
    GridError raised."""
    (grid,) = default_grids(pre, [roots], n_points)
    if isinstance(grid, GridError):
        raise grid
    return grid


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
    # node exclusion zones: each point against its nearest node on either side
    flips = np.flatnonzero(phi[:-1] * phi[1:] < 0)
    if len(flips):
        xn = 0.5 * (x[flips] + x[flips + 1])
        right = np.minimum(np.searchsorted(xn, xi), len(xn) - 1)
        delta = NODE_DELTA_STEPS * grid.h
        left = np.maximum(right - 1, 0)
        mask = (np.abs(xi - xn[right]) > delta) & (np.abs(xi - xn[left]) > delta)
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
    computed; an index outside the grid's levels raises ValueError.

    The levels of each matrix come from one poly.tridiag_levels call: each
    energy only seeds its level's search, two Sturm counts fix the index in
    a window that holds the level alone and the Kato-Temple bound fixes the
    value (bisection where they do not), so a wrong energy costs time and
    never moves the level. The count that each level's factorization gives
    at its own shift is shared: it ends another level's window where it
    leaves that level alone, and only a level that finds no such count
    factors the matrix a second time for its window's far end.

    Second-order stencil with Dirichlet truncation, Richardson-extrapolated:
    the computation repeats on a doubled grid and the O(h^2) error is
    extrapolated away. At singular walls (x^-2 endpoint behavior) a plain
    Dirichlet node badly perturbs the spectrum, so the boundary row instead
    uses a ghost point carrying the wall's behavior phi ~ |x - wall|^nu.

    On a mirror grid the ghost point below the first one mirrors it
    (phi(x_t - h/2) = phi(x_t + h/2)), so the operator is the even sector
    of the symmetric component's: its level m is the full component's
    level 2m. Indices still count the full component's levels, so only
    even ones exist there, 0..2(grid.n - 1); an odd one raises ValueError.
    """
    step = 1 if grid.mirror is None else 2
    odd = [k for k in levels if k % step]
    if odd:
        raise ValueError(f"levels {odd} are odd about the mirror x = {grid.mirror}: "
                         "a mirror grid holds only the even levels")

    def _levels(g: Grid) -> dict[int, float]:
        u = profile.U(cmap.z_of_x(g.points))
        if not np.all(np.isfinite(u)):
            raise GridError("grid intersects a pole of the potential")
        diag = 2.0 / g.h ** 2 + u
        off = np.full(g.n - 1, -1.0 / g.h ** 2)
        if g.mirror is not None:
            diag[0] -= 1.0 / g.h ** 2
        for wall, end in ((g.wall_lo, 0), (g.wall_hi, -1)):
            if wall is not None:
                x_wall, nu = wall
                d = abs(g.points[end] - x_wall)
                r = (d - g.h) / d
                if r > 0:
                    diag[end] -= r ** nu / g.h ** 2
        t = Tridiag(diag, off)
        return dict(zip(levels, tridiag_levels(t, [(k // step, near)
                                                    for k, near in levels.items()])))

    e1 = _levels(grid)
    if grid.mirror is None:
        fine = make_grid(grid.points[0], grid.points[-1], 2 * grid.n - 1,
                         grid.wall_lo, grid.wall_hi)
    else:
        fine = mirror_grid(grid.mirror, 2 * grid.n, grid.h / 2.0, grid.wall_hi)
    e2 = _levels(fine)
    return {k: (4.0 * e2[k] - e1[k]) / 3.0 for k in e1}


def _sinc_t(k: np.ndarray) -> np.ndarray:
    """Colbert-Miller kinetic entries at unit spacing for index offsets k:
    pi^2/3 at 0, 2 (-1)^k / k^2 elsewhere."""
    t = np.where(k % 2, -2.0, 2.0) / np.maximum(np.abs(k), 1).astype(float) ** 2
    return np.where(k == 0, math.pi ** 2 / 3.0, t)


def _sinc_kinetic(n: int, mirror: bool) -> np.ndarray:
    """The n x n sinc kinetic matrix at unit spacing. On a
    mirror the points are i = 0..n-1 from the mirror, and the even sector
    of the full line's 2n - 1 points is T(i - j) + T(i + j) with row 0
    and column 0 scaled by 1/sqrt(2)."""
    i = np.arange(n)
    t = _sinc_t(i[:, None] - i[None, :])
    if mirror:
        t += _sinc_t(i[:, None] + i[None, :])
        t[0, :] /= math.sqrt(2.0)
        t[:, 0] /= math.sqrt(2.0)
    return t


def dvr_spectrum(profile: potential.PotentialProfile, cmap, box: tuple[float, float],
                 levels: dict[int, float], mirror: float | None = None) -> dict:
    """Eigenvalues of -d2/dx2 + U by the sinc discrete variable
    representation on box = (lo, hi), for levels = {index: energy}, indices
    ascending from the ground level at 0. Returns {index: (eigenvalue, est)},
    est the level's move between the two solves below.

    The matrix is H = T / h^2 + diag(U(z(x_i))) on the n points
    x_i = lo + i h, h = (hi - lo) / (n - 1), T the Colbert-Miller kinetic
    matrix (J. Chem. Phys. 96 (1992) 1982); its levels converge
    spectrally once h sqrt(E - min U) is below about 1. With a mirror
    (lo = mirror = x_t) H is the even sector of the component symmetric
    about x_t: its level m is the full component's level 2m, so indices
    count the full component's levels and an odd one raises ValueError.

    The largest energy only seeds n, at h sqrt(E_top - min U) =
    DVR_STEP / DVR_MARGIN, min U over the points; n is re-checked against
    the solve's own level at the largest index, so a wrong energy costs
    time and never moves a level. A second solve at ceil(0.8 n) points
    must then agree to DVR_AGREE max(1, |E|) on every wanted level, or n
    grows to floor(1.25 n), whose check is the solve just made. More than
    DVR_MAX_POINTS points raise GridError.
    """
    step = 1 if mirror is None else 2
    odd = [k for k in levels if k % step]
    if odd:
        raise ValueError(f"levels {odd} are odd about the mirror x = {mirror}: "
                         "a mirror component holds only the even levels")
    if not levels:
        return {}
    if min(levels) < 0:
        raise ValueError(f"level indices {sorted(levels)} must be at least 0")
    lo, hi = box
    if not hi > lo:
        raise GridError(f"empty DVR box [{lo}, {hi}]")
    top = max(levels) // step  # the largest wanted row of the sector

    @functools.cache
    def _potential(n: int) -> tuple[float, np.ndarray]:
        h = (hi - lo) / (n - 1)
        u = profile.U(cmap.z_of_x(lo + h * np.arange(n)))
        if not np.all(np.isfinite(u)):
            raise GridError("a DVR point lies on a pole of the potential")
        return h, u

    @functools.cache
    def _levels(n: int) -> np.ndarray:
        h, u = _potential(n)
        H = _sinc_kinetic(n, mirror is not None)
        H /= h ** 2
        H.flat[::n + 1] += u
        return np.linalg.eigvalsh(H)

    def _size(e_top: float, u_min: float) -> int:
        span = (hi - lo) * math.sqrt(max(e_top - u_min, 0.0))
        return max(MIN_GRID_POINTS, 2 * top + 2, math.ceil(span * DVR_MARGIN / DVR_STEP) + 1)

    e_top, n = max(levels.values()), MIN_GRID_POINTS
    while True:
        if n > DVR_MAX_POINTS:
            raise GridError(f"the sinc DVR on [{lo:.6g}, {hi:.6g}] needs more "
                            f"than {DVR_MAX_POINTS} points")
        h, u = _potential(n)
        u_min = float(np.min(u))
        if _size(e_top, u_min) > n:
            n = _size(e_top, u_min)
            continue
        fine = _levels(n)
        if h * math.sqrt(max(fine[top] - u_min, 0.0)) > DVR_STEP:
            e_top = float(fine[top])  # the solve's own top level resizes n
            n = max(_size(e_top, u_min), n + 1)
            continue
        coarse = _levels((4 * n + 4) // 5)  # ceil(0.8 n)
        out = {k: (float(fine[k // step]), float(abs(fine[k // step] - coarse[k // step])))
               for k in levels}
        if all(est <= DVR_AGREE * max(1.0, abs(e)) for e, est in out.values()):
            return out
        n = 5 * n // 4  # whose ceil(0.8 n) is this n: its levels are the next check


def node_count(phi) -> int:
    """Number of sign changes of phi_N on the grid, for phi = (log|phi_N|,
    sign) on its points."""
    _, sign = phi
    s = sign[sign != 0]
    return int(np.sum(s[:-1] * s[1:] < 0))


def _log_simpsons(lo: np.ndarray, hi: np.ndarray, logphi: np.ndarray) -> list:
    """log of integral_lo^hi phi^2 dx by Simpson's rule for each window
    (lo, hi), lo and hi of one shape S, computed in log space from log|phi|
    on its SIMPSON_POINTS points, logphi of shape S + (SIMPSON_POINTS,).
    Flat list in row-major order over S; +inf for a window where phi
    overflows, -inf for an empty window or one where phi vanishes. The
    Simpson sum is np.sum over the last axis, whose bits do not depend on
    S."""
    with np.errstate(invalid="ignore", over="ignore"):
        m = np.max(2.0 * logphi, axis=-1)
        sums = np.sum(np.exp(2.0 * logphi - m[..., None]) * _SIMPSON, axis=-1)
    integrals = (hi - lo) / (SIMPSON_POINTS - 1) / 3.0 * sums
    return [math.inf if mi == math.inf else
            mi + math.log(v) if b > a and math.isfinite(mi) and v > 0 else -math.inf
            for a, b, mi, v in zip(lo.ravel().tolist(), hi.ravel().tolist(),
                                   m.ravel().tolist(), integrals.ravel().tolist())]


def _simpson_points(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """np.linspace(lo, hi, SIMPSON_POINTS) of each window, as if alone:
    shape lo.shape + (SIMPSON_POINTS,)."""
    x = _SIMPSON_INDEX * ((hi - lo) / (SIMPSON_POINTS - 1))[..., None] + lo[..., None]
    x[..., -1] = hi
    return x


def _windows(edge: np.ndarray, inner: np.ndarray, outward: int) -> tuple[np.ndarray, np.ndarray]:
    """The MAX_WINDOWS integration windows (lo, hi) of one side of each
    row's component, from inner outward, shape (R, MAX_WINDOWS) each:
    halving toward a finite endpoint edge (outward < 0 when it is the left
    end), growing by 1.4 toward an infinite one. Widths and edges
    accumulate in sequence, as a loop would."""
    lo, hi = np.empty((2, len(edge), MAX_WINDOWS))
    fin = np.isfinite(edge)
    for rows, finite in ((fin, True), (~fin, False)):
        if not rows.any():
            continue
        rows = slice(None) if rows.all() else rows
        if finite:
            e = edge[rows][:, None]
            t = np.abs(inner[rows] - edge[rows])[:, None] / _HALVINGS
            lo[rows], hi[rows] = ((e + t[:, 1:], e + t[:, :-1]) if outward < 0
                                  else (e - t[:, :-1], e - t[:, 1:]))
        else:
            x0 = inner[rows]
            x = np.empty((len(x0), MAX_WINDOWS + 1))
            x[:, 0], x[:, 1:] = x0, outward * _WIDTHS
            x = np.cumsum(x, axis=1)
            lo[rows], hi[rows] = (x[:, :-1], x[:, 1:]) if outward > 0 else (x[:, 1:], x[:, :-1])
    return lo, hi


def _peaks(pre: prepot.Prepotential, roots: np.ndarray) -> np.ndarray:
    """z of the real zeros of W_N' strictly inside the coordinate image, for
    rows of roots (B, N), nan-padded to shape (B, M): where |phi_N| peaks
    (or dips) away from its nodes.

    W_N' = P/Q - sum_j mu_j/(z - a_j) - y'/y with y = prod_k (z - z_k); times
    Q A y, A = prod_j (z - a_j), it is the polynomial P A y - Q M y - Q A y',
    M = sum_j mu_j A/(z - a_j). Its trailing coefficients at or below 1e-12
    of the sum of their terms' magnitudes are cancellation, so dropped; the
    zeros of all rows come from one bae._roots batch.
    """
    spec, (z_lo, z_hi) = pre.spec_ref, pre.cmap.z_image
    B, n = roots.shape
    A, M = Poly([1.0]), Poly([0.0])
    for s in spec.singularities:
        M = M * Poly([-s.location, 1.0]) + s.exponent * A
        A = A * Poly([-s.location, 1.0])
    y = np.zeros((B, n + 1))
    y[:, 0] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n):  # y (z - z_k)
            y[:, 1:k + 2] = y[:, :k + 1] - roots[:, k:k + 1] * y[:, 1:k + 2]
            y[:, 0] *= -roots[:, k]
        dy = y[:, 1:] * np.arange(1, n + 1) if n else np.zeros((B, 1))
        factors = ((spec.P * A, y), (-(spec.Q * M), y), (-(spec.Q * A), dy))
        terms = np.zeros((3, B, max(len(f.coeffs) + r.shape[1] - 1 for f, r in factors)))
        for t, (f, r) in zip(terms, factors):
            for i, c in enumerate(f.coeffs):
                t[:, i:i + r.shape[1]] += c * r
        num = terms.sum(axis=0)
        live = np.abs(num) > 1e-12 * np.abs(terms).sum(axis=0)
    # a row whose coefficients overflow (roots far out at high N) gets none
    live &= np.isfinite(num).all(axis=1)[:, None]
    degree = np.where(live.any(axis=1), live.shape[1] - 1 - np.argmax(live[:, ::-1], axis=1), 0)
    rows = np.flatnonzero(degree).tolist()
    w = np.full((B, live.shape[1] - 1), np.nan, dtype=complex)
    for i, zeros in zip(rows, bae._roots([num[i, :degree[i] + 1] for i in rows])):
        w[i, :len(zeros)] = zeros
    z = np.where(np.abs(w.imag) <= 1e-9 * (1.0 + np.abs(w.real)), w.real, np.nan)
    return np.where((z > z_lo) & (z < z_hi), z, np.nan)


def _core(a: float, b: float) -> tuple[float, float]:
    """The window a normalizability check starts from in the component (a, b)."""
    if math.isfinite(a) and math.isfinite(b):
        return a + (b - a) / 4, b - (b - a) / 4
    if math.isfinite(a):
        return a + 0.5, a + 1.5
    if math.isfinite(b):
        return b - 1.5, b - 0.5
    return -1.0, 1.0


def normalizability_checks(pre: prepot.Prepotential, roots, components) -> list:
    """Adaptive test that the integral of phi^2 converges over the domain
    component (a, b) the branch's grid certifies, for every branch of the
    built model at once: roots of shape (B, N), a branch per row, and
    components[i] the component of row i. Per branch, in order,
    (normalizable, norm estimate).

    Unbounded sides are covered by geometrically growing windows, finite
    singular endpoints by geometrically shrinking ones; the verdict is True
    when the window contributions decay (tail bounded by a geometric
    series), False as soon as they grow persistently or, on an unbounded
    side, phi overflows in a window. A window toward a wall whose lo rounds
    onto the wall itself gets no weight, as phi's pole there has none. On
    an unbounded side a window that ends inside the state's
    bulk, short of the outermost preimage of a root or of a peak of phi
    (_peaks), is integrated but is no tail: phi still grows there, up to
    its last peak.

    The core windows of all branches take one prepot.phi_log_sign call.
    Then the low sides and after them the high sides (the running total
    carries over from one to the other) are evaluated lazily in chunks of
    8, 16, 32, ... windows, one phi_log_sign call per chunk over the
    branches whose side is not yet decided. Each branch scans its windows
    in sequence; a chunk runs past where its scan stops, where z or W_N
    may overflow, and those values are never used.
    """
    roots = np.asarray(roots, dtype=float)
    B = len(roots)
    if not B:
        return []
    a, b = np.array(components, dtype=float).reshape(B, 2).T
    z_lo, z_hi = pre.cmap.z_image
    # the preimages in (a, b) of the roots strictly inside the image and,
    # toward an infinite end (the only place the bulk is read), of phi's
    # peaks, on either branch
    unbounded = np.isinf(a) | np.isinf(b)
    peaks = _peaks(pre, roots[unbounded])
    zs = np.hstack((np.where((roots > z_lo) & (roots < z_hi), roots, np.nan),
                    np.full((B, peaks.shape[1]), np.nan)))
    zs[unbounded, roots.shape[1]:] = peaks
    xr = pre.cmap.preimages(zs)
    within = (xr > a[:, None]) & (xr < b[:, None])
    bulk = {-1: np.min(xr, axis=(0, 2), where=within, initial=math.inf).tolist(),
            +1: np.max(xr, axis=(0, 2), where=within, initial=-math.inf).tolist()}

    core_lo, core_hi = np.array([_core(*c) for c in zip(a.tolist(), b.tolist())]).reshape(B, 2).T
    total = _log_simpsons(core_lo, core_hi, prepot.phi_log_sign(
        pre, roots, _simpson_points(core_lo, core_hi))[0])
    ok = [True] * B
    for edges, inner, outward in ((a, core_lo, -1), (b, core_hi, +1)):
        lo_w, hi_w = _windows(edges, inner, outward)
        outer_w = hi_w if outward > 0 else lo_w
        edge_l, bulk_l = edges.tolist(), bulk[outward]
        # per row: [patience, growth run, previous window's integral]
        state = [[6 if math.isfinite(e) else 4, 0, -math.inf] for e in edge_l]
        todo = np.arange(B)
        start, size = 0, 8
        while len(todo) and start < MAX_WINDOWS:
            rows = slice(None) if len(todo) == B else todo
            cut = slice(start, start + size)
            lo, hi = lo_w[rows, cut], hi_w[rows, cut]
            xs = _simpson_points(lo, hi)
            with np.errstate(over="ignore", invalid="ignore"):
                logphi, _ = prepot.phi_log_sign(pre, roots[rows], xs.reshape(len(todo), -1))
            segs, k = _log_simpsons(lo, hi, logphi.reshape(xs.shape)), lo.shape[1]
            undecided = []
            for r, (i, outers) in enumerate(zip(todo.tolist(), outer_w[rows, cut].tolist())):
                seg_i = segs[r * k:(r + 1) * k]
                if math.isfinite(edge_l[i]):  # a window whose lo rounds onto
                    # the wall samples phi's pole there: it has no weight
                    seg_i = [-math.inf if s == math.inf else s for s in seg_i]
                totals = np.logaddexp.accumulate([total[i]] + seg_i).tolist()
                verdict = _scan(seg_i, totals, outers, edge_l[i], bulk_l[i], outward, state[i])
                if verdict is None:
                    total[i] = totals[-1]
                    undecided.append(i)
                else:
                    total[i] = totals[verdict[1] + 1]
                    ok[i] &= verdict[0]
            todo = np.array(undecided, dtype=int)
            start, size = start + size, 2 * size
        for i in todo.tolist():
            ok[i] = False
    return [(ok_i, math.exp(t) if t < 700 else math.inf) for ok_i, t in zip(ok, total)]


def _scan(segs: list, totals: list, outers: list, edge: float, bulk: float,
          outward: int, state: list):
    """One branch's scan of consecutive windows of one side: segs their log
    integrals, totals[j + 1] the running log total after window j, outers
    their outer ends. state is [patience, growth run, previous integral],
    updated in place. (verdict, index of the deciding window), or None
    when these windows decide nothing."""
    patience, grow, prev = state
    for j, (seg, outer) in enumerate(zip(segs, outers)):
        if seg == math.inf:
            return False, j  # phi overflows toward an infinite end: divergent
        if not math.isfinite(edge) and outward * (outer - bulk) < 0:
            continue  # inside the bulk
        if seg < totals[j + 1] - 36.0:
            return True, j
        if seg > prev:
            grow += 1
            if grow >= patience:
                return False, j
        else:
            grow = 0
        prev = seg
    state[1:] = grow, prev
    return None


def normalizability_check(pre: prepot.Prepotential, branch,
                          component: tuple[float, float]) -> tuple[bool, float]:
    """normalizability_checks for one branch: (normalizable, norm
    estimate) of its phi over the domain component (a, b), the one
    default_grid certifies."""
    return normalizability_checks(pre, np.asarray(branch.roots, dtype=float)[None],
                                  [component])[0]


def branch_setups(pre: prepot.Prepotential, branches, n_points: int = 4001) -> list:
    """Certification setup of every branch of the built model, in one array
    pass: per branch, in order, its (profile, grid, phi), or the ValueError
    (a GridError, say) that stopped it. profile is the reported potential
    and energy (potential.split_energies), grid the branch's default grid
    of n_points points, and phi = (log|phi_N|, sign) on its points. The branches share
    N, the model's.

    The grids come from default_grids, which marches every branch's
    truncation ladders at once, and phi on all of them from one
    prepot.phi_log_sign call with a row per branch.
    """
    setups = potential.split_energies(pre, branches)
    ok = [i for i, p in enumerate(setups) if not isinstance(p, Exception)]
    roots = np.asarray([branches[i].roots for i in ok], dtype=float).reshape(
        len(ok), pre.spec_ref.N)
    grids = default_grids(pre, roots, n_points)
    rows = [j for j, grid in enumerate(grids) if isinstance(grid, Grid)]
    for i, grid in zip(ok, grids):
        if not isinstance(grid, Grid):
            setups[i] = grid
    if rows:
        logphi, sign = prepot.phi_log_sign(pre, roots[rows],
                                           np.array([grids[j].points for j in rows]))
        for j, lp, sg in zip(rows, logphi, sign):
            setups[ok[j]] = (setups[ok[j]], grids[j], (lp, sg))
    return setups


def verify_branches(pre: prepot.Prepotential, branches, *, n_points: int = 4001,
                    stencil_order: int = 4, residual_tol: float = 1e-6) -> list:
    """Full certification pipeline for the branches of one built model.

    Returns, per branch and in order, its VerificationReport or the
    GridError, DomainError or ValueError that stopped its checks; a failed
    branch stops no other.

    Each branch gets its profile and grid from the built model, then the
    residual, node count and normalizability oracles. The verdict requires
    the residual below tolerance, phi normalizable, and the claimed energy
    matched by the spectrum oracle's level whose index is the branch's
    node count: by Sturm oscillation a state with n nodes is level n. At a
    limit-circle wall the spectrum oracle is skipped, spectrum_note says
    so, and the residual alone carries the verdict.

    The spectrum runs once per potential: branches with the same operator
    (equal potential U, as type-1 and ES models share, and equal walls
    with their exponents) form one group, matched against one spectrum.
    Only the levels whose indices are the group's node counts are
    compared, and a claim cannot choose its level. On a group with no
    wall the levels come from dvr_spectrum, on the box where some
    member's log|phi| is within DVR_BOX_LOG of its maximum (read off the
    phi its setup computed), and the match must be within the level's own
    estimate plus DVR_AGREE max(1, |E|). On a group with a wall they come
    from fd_spectrum, on a grid of n_points points spanning all the
    members' grids (for a branch alone its own grid), each level looked
    for near its branch's claimed energy, and the match must be within
    1e-2 max(1, |E|), FD's accuracy at a wall.

    When the group's component holds the map's turning point x_t
    (coords.CoordinateMap.x_turn), the spectrum is the even sector of the
    component, with a mirror end at x_t: from x_t to the farthest member
    box end for the DVR, and a cell-centred mirror grid at the spacing of
    the full group grid for FD. Every algebraic state is even about x_t
    there, so the verdict also requires an even node count n, matched
    against even-sector level n // 2; a branch with an odd count fails,
    and spectrum_note says why.
    """
    results: list = [None] * len(branches)
    checked = []  # (index, profile, grid, fields)
    boxes = {}  # index -> where log|phi| >= its max - DVR_BOX_LOG, on its grid
    for i, setup in enumerate(branch_setups(pre, branches, n_points)):
        if isinstance(setup, Exception):
            results[i] = setup
            continue
        profile, grid, phi = setup
        try:
            rmax, rrms = schrodinger_residual(profile, pre.cmap, grid, phi,
                                              stencil_order=stencil_order)
        except (GridError, DomainError, ValueError) as exc:
            results[i] = exc
            continue
        checked.append((i, profile, grid, dict(residual_max=rmax, residual_rms=rrms,
                                               node_count=node_count(phi))))
        if grid.wall_lo is None and grid.wall_hi is None:
            logphi = phi[0]
            peak = np.max(logphi, where=np.isfinite(logphi), initial=-math.inf)
            inside = np.flatnonzero(logphi >= peak - DVR_BOX_LOG)
            boxes[i] = float(grid.points[inside[0]]), float(grid.points[inside[-1]])
    roots = np.asarray([branches[i].roots for i, *_ in checked], dtype=float)
    norms = normalizability_checks(pre, roots.reshape(len(checked), pre.spec_ref.N),
                                   [grid.component for _, _, grid, _ in checked])
    groups: dict[tuple, list] = {}  # (U, wall_lo, wall_hi) -> [(index, profile, grid, fields)]
    for (i, profile, grid, fields), (normalizable, norm_estimate) in zip(checked, norms):
        fields.update(normalizable=normalizable, norm_estimate=norm_estimate)
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
                verdict=bool(fields["residual_max"] < residual_tol))
        else:
            groups.setdefault((profile.U, grid.wall_lo, grid.wall_hi), []).append(
                (i, profile, grid, fields))

    x_t = pre.cmap.x_turn
    for members in groups.values():
        grids = [grid for _, _, grid, _ in members]
        c_lo, c_hi = grids[0].component
        mirror = x_t if x_t is not None and c_lo < x_t < c_hi else None
        # each node count with the energy of its first branch; a mirror
        # component has no level for an odd count
        claims = {}
        for _, profile, _, fields in members:
            if mirror is None or fields["node_count"] % 2 == 0:
                claims.setdefault(fields["node_count"], profile.energy)
        try:
            if grids[0].wall_lo is None and grids[0].wall_hi is None:
                lo = min(boxes[i][0] for i, *_ in members)
                hi = max(boxes[i][1] for i, *_ in members)
                if mirror is not None:
                    lo, hi = mirror, mirror + max(mirror - lo, hi - mirror)
                levels = dvr_spectrum(members[0][1], pre.cmap, (lo, hi), claims, mirror)
                floor = DVR_AGREE
            else:
                lo = min(g.points[0] for g in grids)
                hi = max(g.points[-1] for g in grids)
                if mirror is not None:
                    h = float(hi - lo) / (n_points - 1)
                    grid = mirror_grid(mirror, math.ceil(max(mirror - lo, hi - mirror) / h + 0.5),
                                       h, grids[0].wall_hi)
                else:
                    grid = make_grid(lo, hi, n_points, grids[0].wall_lo, grids[0].wall_hi)
                levels = {k: (e, 0.0) for k, e in
                          fd_spectrum(members[0][1], pre.cmap, grid, claims).items()}
                floor = 1e-2  # FD's accuracy at a wall
        except (GridError, DomainError, ValueError) as exc:
            for i, *_ in members:
                results[i] = exc
            continue
        for i, profile, _, fields in members:
            energy = profile.energy
            if fields["node_count"] not in levels:
                results[i] = VerificationReport(
                    **fields, spectrum_matches=[],
                    spectrum_note=f"odd node count: U is even about x = {x_t:g}, "
                                  "where every algebraic state is even",
                    verdict=False)
                continue
            level, est = levels[fields["node_count"]]
            diff = abs(level - energy)
            results[i] = VerificationReport(
                **fields, spectrum_matches=[(energy, float(level), float(diff))],
                spectrum_note="",
                verdict=bool(fields["residual_max"] < residual_tol
                             and fields["normalizable"]
                             and diff < est + floor * max(1.0, abs(energy))))
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
