"""Independent certification of (potential, energy, eigenfunction) triples.

Nothing here reuses the algebra that produced the claims: the Schrodinger
residual checks U - E = Q (g' + g^2) + Q' g / 2, g = d ln phi_N/dz, as the
rational identity in z it is, from the reported U and E and the roots
alone, at z(x) of Chebyshev nodes in x across the branch's certified
interval (its Grid: a wall end is the wall itself, an unbounded end is
cut where |phi| <= e^-W_THRESHOLD), where the state lives: the map only
places the nodes (schrodinger_residual);
the spectrum oracle computes the discretized operator's level whose index
is the node count (a state with n nodes is level n, by Sturm
oscillation); and normalizability is the exact end rule of
prepot.unbound_ends, read off the two polynomials: phi is normalizable on
its certified component unless an end of it is one the rule flags. These
are the arbiters for every sign or convention ambiguity
upstream. The node count itself is exact, not sampled: phi_N =
e^-W0 prod_k (z - z_k) changes sign exactly at the x-preimages of the
Bethe roots inside the certified component (node_count).

The spectrum oracle is one family: a spectral basis whose n-row matrix
takes one np.linalg.eigvalsh, and one driver (_agreed_levels) that checks
the wanted indices, sizes n and makes that call. On a
component with no wall the basis is the sinc discrete variable
representation (dvr_spectrum); at a wall it is a Gauss-Jacobi Lagrange
mesh in z with each box end's power of |z - a| factored out
(wall_spectrum), which converges spectrally at x^-2 endpoints; the mesh's
quadrature and barycentric weights both follow from its nodes
(_gauss_jacobi). Each level comes with its
own error estimate from a second solve on 0.8 times the rows. The claimed
energies enter only through the largest one, which seeds the first
solve's size; the size is then taken again from that solve's own top
level, so a wrong claim costs time and can never change a level, not even
by rounding. No scipy module is loaded. fd_spectrum, the second-order
finite-difference operator with a ghost-point row at a wall,
Richardson-extrapolated on the lattices it builds over a Grid, stays as a
cross-check that only the tests call: one bisection per Richardson
lattice (poly.tridiag_eigenvalues, which imports scipy).

Where the coordinate map has a turning point x_t inside the certified
component (parabolic or cosh maps, with no wall at x_t), z(x), the
potential and every algebraic phi_N are even about x_t. The spectrum
oracle then runs on the half component with a mirror end at x_t: its
levels are the even sector, whose level m is the full line's level 2m. A
branch there needs an even node count n and is matched against even-sector
level n // 2; the odd partners of tunnelling doublets, never algebraic,
are not in that operator at all. Residual, node count and normalizability
stay on each branch's full component (the residual across its interval).

branch_setups is the one chain from the roots (B, N) of a model's branches
to their residuals. It returns a BranchTable, one frozen record of
row-aligned columns, and each column has one producer: x, the roots'
x-preimages on the map's declared branch and its mirror (one
coords.CoordinateMap.preimages call, nan where a root has none); energy
(one bae.branch_energies call); the split into U and E
(potential.split_energies, which reads energy); the grid, the certified
interval (default_grids, which reads x and the end rule, picks one
component per branch and marches its truncation ladders, every branch and
end in one pass); the residual (schrodinger_residual,
one (B, 4N + 8) array pass); and each row's error. qesf solve's E and verified columns and
verify_branches all read the table, and nothing else makes those calls.
verify_branches then takes the node counts from the table's x and the
spectrum boxes, for the branches whose residual ran, from one
prepot.phi_log_sign call with a row per branch, at BOX_SAMPLES points of
each interval (_spectrum_boxes); the spectrum oracle runs per
potential. normalizability_check applies the end rule to every certified
component with one unbound_ends call; its numerical cross-check, a scan
of phi^2 over growing windows, is the tests' (tests/oracles.py).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import bae, potential, prepot
from .errors import DomainError, GridError
from .model import is_turning_point
from .poly import Poly, Tridiag, tridiag_eigenvalues

W_THRESHOLD = 40.0  # |phi| <= e^-40 at box ends for unbounded domains
MIN_GRID_POINTS = 8  # fewest rows of a spectrum solve
RESIDUAL_TOL = 1e-10  # largest relative Schrodinger residual of a verdict and of verified
DVR_BOX_LOG = 18.0  # DVR box: where log|phi| >= its max - DVR_BOX_LOG
BOX_SAMPLES = 401  # evenly spaced values of phi across a branch's interval that place its box
DVR_STEP = 0.8  # largest phase step h sqrt(E_top - u) of a sinc-DVR solve
WALL_STEP = 2.0  # and of a wall-basis solve
DVR_MARGIN = 1.1  # n is sized for DVR_STEP / DVR_MARGIN
DVR_TAIL = 5.0  # a step above the potential counts 1/DVR_TAIL of one below it
DVR_AGREE = 1e-9  # relative agreement of the two solves, and the verdict's floor
DVR_MAX_POINTS = 2000  # largest DVR or wall-basis matrix
_LADDER_STEPS = np.cumprod(np.r_[0.25, np.full(399, 1.25)])  # of _march_thresholds


@dataclass(frozen=True)
class Grid:
    """A branch's certified interval [lo, hi] of x. An end that abuts a
    singular wall is the wall itself and carries it as (x of the wall, nu),
    with phi ~ |x - wall|^nu there, for any nu (phi is not square-integrable
    there when nu <= -1/2); an unbounded end is where the truncation ladder
    stops. A mirror interval (mirror = x_t, as
    fd_spectrum takes it) is the half of a component that is
    reflection-symmetric about x_t, where phi is even."""

    lo: float
    hi: float
    wall_lo: tuple[float, float] | None = None
    wall_hi: tuple[float, float] | None = None
    mirror: float | None = None

    @property
    def component(self) -> tuple[float, float]:
        """The domain component the interval lies in: bounded by its walls
        (or its mirror), unbounded at an end without one."""
        lo = self.mirror if self.mirror is not None else (
            -math.inf if self.wall_lo is None else self.wall_lo[0])
        return lo, math.inf if self.wall_hi is None else self.wall_hi[0]


@dataclass
class VerificationReport:
    residual_max: float
    residual_rms: float
    node_count: int
    normalizable: bool
    spectrum_matches: list  # (E_claimed, E_fd, |diff|), E_fd the spectrum oracle's level
    spectrum_note: str
    verdict: bool

    def as_dict(self) -> dict:
        return dict(vars(self))


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


def default_grids(pre: prepot.Prepotential, roots, x) -> list:
    """Certified intervals, one per branch, for roots of shape (B, N) (a
    branch's roots per row) and their x-preimages x (B, 2, N), a
    BranchTable's x column: per branch, in order, its Grid or the GridError
    that stopped it.

    The map's endpoints and the model's finite walls (pre.walls) cut the
    x-domain into components. Each branch certifies one of them, the first
    in this order: one with no end that prepot.unbound_ends flags (the
    exact end rule, so phi is normalizable there), then the one holding
    every root preimage, then the widest, then the one on the side of the
    spec's branch_sign. An end at a wall is the wall itself and carries
    its (x, nu), whatever nu is; an unbounded end is cut where
    W_N >= W_THRESHOLD, so |phi| <= e^-W_THRESHOLD at the box edge. One
    _march_thresholds pass marches the unbounded ends of every branch's
    component; a branch whose march never gets there gets the GridError.
    """
    walls = pre.walls
    cuts = sorted({*pre.cmap.x_domain, *walls})
    components = [(a, b) for a, b in zip(cuts, cuts[1:]) if b - a > 1e-9]
    if not components:
        return [GridError("empty coordinate domain") for _ in roots]
    bsign = pre.spec_ref.branch_sign
    unbound = {x for end in prepot.unbound_ends(pre) for x in end.x}
    # The root preimages on the declared branch pull the box out far enough
    # to contain the state; a root outside the map's image, or at an
    # exponential map's image end, has none (nan).
    xr = [row[np.isfinite(row)].tolist() for row in x[:, 0]]
    boxes = [min(components, key=lambda c: (
        not unbound.isdisjoint(c), not all(c[0] < v < c[1] for v in xi),
        -(min(c[1], 1e18) - max(c[0], -1e18)),
        -bsign * (max(c[0], -1e18) + min(c[1], 1e18)) / 2.0)) for xi in xr]
    rows, starts, directions = [], [], []
    for i, (a, b) in enumerate(boxes):
        inside = [v for v in xr[i] if a < v < b]
        for d, end, far in ((1, b, a), (-1, a, b)):  # each unbounded end, outward
            if not math.isfinite(end):
                rows.append(i)
                starts.append(((max if d > 0 else min)(inside) if inside else
                               (far + d if math.isfinite(far) else 0.0)) + 0.5 * d)
                directions.append(d)
    ends = [list(box) for box in boxes]
    found = _march_thresholds(pre, roots[rows], starts, directions)
    for i, d, x_end in zip(rows, directions, found.tolist()):
        ends[i][d > 0] = x_end
    return [GridError("no normalizable domain component found")
            if math.isnan(x_lo) or math.isnan(x_hi) else
            Grid(x_lo, x_hi, (a, walls[a]) if math.isfinite(a) else None,
                 (b, walls[b]) if math.isfinite(b) else None)
            for (x_lo, x_hi), (a, b) in zip(ends, boxes)]


def default_grid(pre: prepot.Prepotential, roots) -> Grid:
    """default_grids for the branch with these roots: its grid, or its
    GridError raised."""
    z = np.asarray(roots, dtype=float)[None]
    (grid,) = default_grids(pre, z, pre.cmap.preimages(z).swapaxes(0, 1))
    if isinstance(grid, GridError):
        raise grid
    return grid


# ---------------------------------------------------------------------------
# Certification operations


def schrodinger_residual(pre: prepot.Prepotential, roots, profiles, grids) -> list:
    """The Schrodinger equation as the rational identity it is, for rows of
    roots (B, N), a branch per row, with its profile (reported U and E)
    and its certified interval (its Grid): per row, in order, (max, rms) of the
    relative residual, or the GridError of a row with a non-finite value:
    a point on a pole, or one so close to a root that 1/(z - z_k)^2
    overflows, which names the point and the root.

    With g = d ln phi_N/dz = -P/Q + sum_j mu_j/(z - a_j) + sum_k 1/(z - z_k)
    and (dz/dx)^2 = Q, phi''/phi in x is Q (g' + g^2) + Q' g / 2, so
    U - E must equal it as rational functions of z. g and g' are summed
    from the built model's terms (W0's polynomial, conjugate-pair and pole
    terms, then phi's power table, which holds W0's log terms and the
    declared mu_j), so a wall from W0 and its declared twin give the same
    bits. The residual at a point is
        |Q (g' + g^2) + Q' g / 2 - (U - E)| / (|Q| (|g'| + g^2) + |Q' g| / 2 + |U| + |E|),
    taken at z(x) of the 4N + 8 Chebyshev nodes in x of the row's certified
    interval [grid.lo, grid.hi], so that the nodes lie where the state
    does (Chebyshev nodes in z across morse-es N = 4's z-range, 6.3e-3 to
    9.6e18, all lay past 1e16, its roots in (0.08, 0.82)). All rows are one
    (B, 4N + 8) array pass, with one z_of_x call; U is evaluated once per
    distinct potential (a type-1 model's branches share one). The map only
    places the nodes; phi itself is not read.
    """
    spec, M = pre.spec_ref, 4 * pre.spec_ref.N + 8
    ends = np.array([(g.lo, g.hi) for g in grids]).reshape(-1, 2)
    lo, hi = ends[:, :1], ends[:, 1:]
    x = (lo + hi) / 2.0 + (hi - lo) / 2.0 * np.cos((2 * np.arange(M) + 1) * math.pi / (2 * M))
    z = pre.cmap.z_of_x(x)
    # phi's power table, then the roots, as poles of g with their weights
    poles = np.hstack((np.tile([a for a, _ in pre.powers], (len(roots), 1)), roots))
    weights = np.r_[[p for _, p in pre.powers], np.ones(spec.N)]
    dw = pre.poly_part.derivative()
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        g, dg = -dw(z), -dw.derivative()(z)
        for t in pre.quad_log_terms:
            c, s2 = z - t.center, (z - t.center) ** 2 + t.imag ** 2
            g, dg = g - 2.0 * t.weight * c / s2, dg - 2.0 * t.weight * (s2 - 2.0 * c * c) / s2 ** 2
        for t in pre.pole_terms:
            g, dg = g + t.weight / (z - t.location) ** 2, dg - 2 * t.weight / (z - t.location) ** 3
        d = 1.0 / (z[:, :, None] - poles[:, None, :])
        g, dg = g + (weights * d).sum(axis=2), dg - (weights * d * d).sum(axis=2)
        u = np.empty_like(z)
        for U in {id(p.U): p.U for p in profiles}.values():  # once per distinct potential
            rows = [i for i, p in enumerate(profiles) if p.U is U]
            u[rows] = U(z[rows])
        e = np.array([p.energy for p in profiles])[:, None]
        q, dq = spec.Q(z), spec.Q.derivative()(z)
        r = (np.abs(q * (dg + g * g) + dq * g / 2.0 - (u - e))
             / (np.abs(q) * (np.abs(dg) + g * g) + np.abs(dq * g) / 2.0 + np.abs(u) + np.abs(e)))

    def _overflow(i: int) -> GridError:
        j = int(np.argmin(np.isfinite(r[i])))  # the row's first non-finite point
        if not spec.N or z[i, j] in poles[i] or z[i, j] in [t.location for t in pre.pole_terms]:
            return GridError("a residual point lies on a pole of the potential")
        gap = np.abs(z[i, j] - roots[i])
        k = int(np.argmin(gap))  # 1/(z - z_k)^2 overflows this close to a root
        return GridError(f"the residual overflows at z = {z[i, j]:.6g}, {gap[k]:.3g} from "
                         f"the root z = {roots[i, k]:.6g}")

    return [(float(row.max()), math.sqrt(float(np.mean(row * row)))) if np.isfinite(row).all()
            else _overflow(i) for i, row in enumerate(r)]


def fd_spectrum(profile: potential.PotentialProfile, cmap, grid: Grid,
                levels: dict[int, float], n: int) -> dict[int, float]:
    """Eigenvalues of -d2/dx2 + U discretized on n points of the grid's
    interval, for levels = {index: energy}, indices ascending from the
    ground level at 0. Returns {index: eigenvalue}. An index outside the
    lattice's levels raises ValueError. Only the tests call it, as a
    cross-check of the spectral oracles.

    Each matrix's levels come from one bisection: tridiag_eigenvalues over
    the indices from the smallest wanted to the largest. The energies are
    not read, so a wrong one cannot move a level. scipy is imported on the
    first bisection: without it, ImportError.

    Second-order stencil with Dirichlet truncation on the lattice
    linspace(grid.lo, grid.hi, n), Richardson-extrapolated: the computation
    repeats on the 2n - 1 points of the halved step and the O(h^2) error is
    extrapolated away. At singular walls (x^-2 endpoint behavior) a plain
    Dirichlet node badly perturbs the spectrum, so the boundary row instead
    uses a ghost point carrying the wall's behavior phi ~ |x - wall|^nu; a
    walled end of the grid is then the lattice's end, short of the wall.

    On a mirror grid the lattice is cell-centred, the n points
    x_t + (i + 1/2) h with h = (grid.hi - x_t) / n, and the Richardson one
    has 2n. The ghost point below the first one mirrors it
    (phi(x_t - h/2) = phi(x_t + h/2)), so the operator is the even sector
    of the symmetric component's: its level m is the full component's
    level 2m. Indices still count the full component's levels, so only
    even ones exist there, 0..2(n - 1); an odd one raises ValueError.
    """
    step = _checked_levels(levels, grid.mirror)
    if not levels:
        return {}
    lo, hi = min(levels) // step, max(levels) // step

    def _levels(m: int) -> dict[int, float]:
        if grid.mirror is None:
            x = np.linspace(grid.lo, grid.hi, m)
            h = float(x[1] - x[0])
        else:
            h = (grid.hi - grid.mirror) / m
            x = grid.mirror + (np.arange(m) + 0.5) * h
        u = profile.U(cmap.z_of_x(x))
        if not np.all(np.isfinite(u)):
            raise GridError("grid intersects a pole of the potential")
        diag = 2.0 / h ** 2 + u
        off = np.full(m - 1, -1.0 / h ** 2)
        if grid.mirror is not None:
            diag[0] -= 1.0 / h ** 2
        for wall, end in ((grid.wall_lo, 0), (grid.wall_hi, -1)):
            if wall is not None:
                x_wall, nu = wall
                d = abs(x[end] - x_wall)
                r = (d - h) / d
                if r > 0:
                    diag[end] -= r ** nu / h ** 2
        sector = tridiag_eigenvalues(Tridiag(diag, off), (lo, hi))
        return {k: float(sector[k // step - lo]) for k in levels}

    e1, e2 = _levels(n), _levels(2 * n - 1 if grid.mirror is None else 2 * n)
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
    row = _sinc_t(np.arange(1 - n, 2 * n - 1))  # row[n - 1 + k] = T(k), both parts' offsets
    i = np.arange(n)
    t = row[n - 1 + i[:, None] - i]
    if mirror:
        t += row[n - 1 + i[:, None] + i]
        t[0, :] /= math.sqrt(2.0)
        t[:, 0] /= math.sqrt(2.0)
    return t


def _agreed_levels(levels: dict[int, float], mirror: float | None, box: tuple[float, float],
                   points, matrix, largest_step: float, name: str) -> dict:
    """The one driver of both spectrum oracles: {index: (level, est)} for
    levels = {index: energy}, indices counting the full component's levels
    (step 2 on a mirror, whose sector level m is level 2m), est a level's
    move between the two solves below. The indices are checked, no levels
    give {} and an empty box raises GridError, all before any point or
    matrix is built.

    points(n) gives, at size n, the x step h of each point (or one for
    all) and the potential u the solve sees there; matrix(n, h, u) the
    sector's n-row symmetric matrix, whose ascending levels one
    np.linalg.eigvalsh gives. Both are computed once per size. A point's
    phase step is h times sqrt(E - u) where u < E, and times
    sqrt(u - E) / DVR_TAIL where u > E, so the decay into a truncated box
    end is resolved too. n grows from MIN_GRID_POINTS until the largest
    phase step is at most largest_step / DVR_MARGIN. The largest energy
    only seeds the first solve: n then grows again from MIN_GRID_POINTS by
    the same rule with that solve's own level at the largest index, and a
    solve of a size met before is not redone, so a wrong energy costs time
    and moves no level, not even by rounding. A second solve at
    ceil(0.8 n) must then agree to DVR_AGREE max(1, |E|) on every wanted
    level, or n grows to floor(1.25 n), whose check is the solve just made.
    More than DVR_MAX_POINTS rows raise GridError.
    """
    step = _checked_levels(levels, mirror)
    if not levels:
        return {}
    lo, hi = box
    if not hi > lo:
        raise GridError(f"empty {name} box [{lo}, {hi}]")
    top = max(levels) // step  # the largest wanted row of the sector
    points = functools.cache(points)

    @functools.cache
    def solve(n: int) -> np.ndarray:
        return np.linalg.eigvalsh(matrix(n, *points(n)))

    def _size(n: int, e: float) -> int:
        h, u = points(n)
        phase = float(np.max(h * np.sqrt(np.maximum(e - u, (u - e) / DVR_TAIL ** 2))))
        return max(MIN_GRID_POINTS, 2 * top + 2,
                   math.ceil((n - 1) * phase * DVR_MARGIN / largest_step) + 1)

    e_top, n, seeded = max(levels.values()), MIN_GRID_POINTS, True
    while True:
        if n > DVR_MAX_POINTS:
            raise GridError(f"the {name} on [{lo:.6g}, {hi:.6g}] needs more "
                            f"than {DVR_MAX_POINTS} points")
        size = _size(n, e_top)
        if size > n:
            n = size
            continue
        fine = solve(n)
        if seeded:  # the claim seeded n: the solve's own top level sizes it from the start
            seeded, e_top, n = False, float(fine[top]), MIN_GRID_POINTS
            continue
        coarse = solve((4 * n + 4) // 5)  # ceil(0.8 n)
        out = {k: (float(fine[k // step]), float(abs(fine[k // step] - coarse[k // step])))
               for k in levels}
        if all(est <= DVR_AGREE * max(1.0, abs(e)) for e, est in out.values()):
            return out
        n = 5 * n // 4  # whose ceil(0.8 n) is this n: its levels are the next check


def _checked_levels(levels: dict[int, float], mirror: float | None) -> int:
    """The index step of levels on a component with this mirror (2 with
    one, where only even indices exist), after checking the indices."""
    step = 1 if mirror is None else 2
    odd = [k for k in levels if k % step]
    if odd:
        raise ValueError(f"levels {odd} are odd about the mirror x = {mirror}: "
                         "a mirror component holds only the even levels")
    if levels and min(levels) < 0:
        raise ValueError(f"level indices {sorted(levels)} must be at least 0")
    return step


def dvr_spectrum(profile: potential.PotentialProfile, cmap, box: tuple[float, float],
                 levels: dict[int, float], mirror: float | None = None) -> dict:
    """Eigenvalues of -d2/dx2 + U by the sinc discrete variable
    representation on box = (lo, hi), for levels = {index: energy}, indices
    ascending from the ground level at 0. Returns {index: (eigenvalue, est)},
    est the level's move between the two solves of _agreed_levels, which
    checks the indices and the box, sizes the matrix and solves it: this
    function builds only the points and the matrix.

    The matrix is H = T / h^2 + diag(U(z(x_i))) on the n points
    x_i = lo + i h, h = (hi - lo) / (n - 1), T the Colbert-Miller kinetic
    matrix (J. Chem. Phys. 96 (1992) 1982); its levels converge
    spectrally once h sqrt(E - min U) is below about 1. With a mirror
    (lo = mirror = x_t) H is the even sector of the component symmetric
    about x_t: its level m is the full component's level 2m, so indices
    count the full component's levels and an odd one raises ValueError.
    """
    lo, hi = box

    def _points(n: int) -> tuple[float, np.ndarray]:
        h = (hi - lo) / (n - 1)
        u = profile.U(cmap.z_of_x(lo + h * np.arange(n)))
        if not np.all(np.isfinite(u)):
            raise GridError("a DVR point lies on a pole of the potential")
        return h, u

    def _matrix(n: int, h: float, u: np.ndarray) -> np.ndarray:
        H = _sinc_kinetic(n, mirror is not None)
        H /= h ** 2
        H.flat[::n + 1] += u
        return H

    return _agreed_levels(levels, mirror, box, _points, _matrix, DVR_STEP, "sinc DVR")


def _gauss_jacobi(n: int, alpha: float, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss rule of weight (1 - t)^alpha (1 + t)^beta on
    (-1, 1): its nodes t (ascending), the eigenvalues of its Jacobi matrix
    (Golub and Welsch, Math. Comp. 23 (1969) 221), and log |w_i| of their
    barycentric weights w_i = 1 / prod_(j != i) (t_i - t_j), which follow
    from the nodes alone; w_i has the sign (-1)^(n-1-i). The rule's
    Christoffel numbers are w_i^2 / (1 - t_i^2) up to a common factor
    (Wang, Huybrechs and Vandewalle, Math. Comp. 83 (2014) 2893)."""
    k = np.arange(n, dtype=float)
    s = 2.0 * k + alpha + beta
    a = np.empty(n)
    a[0] = (beta - alpha) / (alpha + beta + 2.0)
    a[1:] = (beta ** 2 - alpha ** 2) / (s[1:] * (s[1:] + 2.0))
    k, s = k[1:], s[1:]
    b = np.sqrt(4.0 * k * (k + alpha) * (k + beta) * (k + alpha + beta)
                / (s ** 2 * (s + 1.0) * (s - 1.0)))
    t = np.linalg.eigvalsh(np.diag(a) + np.diag(b, 1) + np.diag(b, -1))
    return t, -np.log(np.abs(t[:, None] - t) + np.eye(n)).sum(axis=1)


def wall_spectrum(profile: potential.PotentialProfile, cmap, Q: Poly,
                  box: tuple[float, float], walls, levels: dict[int, float],
                  mirror: float | None = None) -> dict:
    """Eigenvalues of -d2/dx2 + U on box = (lo, hi), for
    levels = {index: energy}, indices ascending from the ground level at
    0; z'^2 = Q(z) is the map's polynomial and z is monotone on the box.
    walls = (wall_lo, wall_hi) as a Grid carries them: (x of the wall, nu)
    at a wall end, whose box end is the wall itself, with nu >= 1/2 (the
    Friedrichs extension's states go as |x - wall|^nu there); None at a
    truncated end. Returns {index: (eigenvalue, est)}, est the level's move
    between the two solves of _agreed_levels, which checks the indices and
    the box, sizes the basis and solves it: this function builds the box
    ends' exponents, then per size the nodes (_nodes, which the points and
    the matrix both read) and the matrix.

    One rule takes every box end, described by an exponent nu: a wall's
    own nu, 0 at a mirror, and 1 at a truncated end, where phi = 0 is a
    Dirichlet cut, a nu = 1 wall where Q != 0. The basis is phi = w chi,
    chi a polynomial in z and w = prod_j |z - a_j|^s_j over the ends'
    z = a_j, s_j = nu_j / 2 at a turning point (Q(a_j) = 0, where z - a_j
    goes as (x - a)^2) and nu_j elsewhere, so w goes as |x - a|^nu; an
    end with nu = 0 has no power. With L = sum_j s_j / (z - a_j),
    w''/w = Q L^2 + Q dL/dz + L Q'/2 and chi solves
    -(w^2 chi')' / w^2 + (U - w''/w) chi = E chi. A state is w times a
    function analytic in z, and U - w''/w is analytic at a turning point:
    the map's w cancels U's x^-2 and the pole a bare |x - a|^nu would
    leave. Where Q(a_j) != 0 a simple pole of U - w''/w remains (its
    residue goes with phi's slope past the end). The quadrature is the
    Gauss-Jacobi rule of weight (1 - t)^alpha (1 + t)^beta, t linear in z
    from -1 at lo to 1 at hi, whose exponent at an end is that of the
    measure w^2 dx = w^2 dz / sqrt(Q): nu - 1/2 at a turning point, and
    2 nu - 1 where Q != 0, one power less, to absorb the pole. The n-node
    rule then integrates the kinetic term exactly wherever deg Q <= 1,
    two truncated ends included, so no spurious level enters. chi is the
    Lagrange basis at the n nodes (a Lagrange mesh, Baye, Phys. Rep. 565
    (2015) 1), so the overlap is diagonal and the n-row matrix is
    symmetric. The basis's derivative matrix and the quadrature weights
    both come from the barycentric weights b_i = 1 / prod_(j != i) (t_i - t_j),
    which the nodes alone fix: the rule's Christoffel number is
    b_i^2 / (1 - t_i^2) up to a common factor (Wang, Huybrechs and
    Vandewalle, Math. Comp. 83 (2014) 2893), and log |b_i| is summed
    from the node gaps.

    With a mirror (lo = mirror = x_t) the component is symmetric about
    x_t, a turning point of the map with no wall; a polynomial in z is
    even about x_t, so the basis spans the even sector, whose level m is
    the full component's level 2m: indices count the full component's
    levels and an odd one raises ValueError.
    """
    z_lo, z_hi = float(cmap.z_of_x(box[0])), float(cmap.z_of_x(box[1]))
    exponents, powers = [], {}  # per end (lo, hi) its weight exponent; a -> s
    for end, a, wall in zip(box, (z_lo, z_hi), walls):
        nu = 0.0 if end == mirror else 1.0 if wall is None else wall[1]
        turning = is_turning_point(Q, a)
        if nu:
            powers[a] = nu / 2.0 if turning else nu
        exponents.append(nu - 0.5 if turning else 2.0 * nu - 1.0)
    beta, alpha = exponents
    dz_dt = (z_hi - z_lo) / 2.0
    dQ = Q.derivative()

    @functools.cache
    def _nodes(n: int) -> tuple:
        """Per node of the size-n rule: the x step and the potential
        U - w''/w, all that sizing reads; then t, log |b| of its barycentric
        weights b, z and Q(z)."""
        t, log_bary = _gauss_jacobi(n, alpha, beta)
        z = z_lo + dz_dt * (1.0 + t)
        qz = Q(z)
        L = sum(s / (z - a) for a, s in powers.items())
        dL = sum(-s / (z - a) ** 2 for a, s in powers.items())
        u = profile.U(z) - (qz * L * L + qz * dL + L * dQ(z) / 2.0)
        if not np.all(np.isfinite(u)):
            raise GridError("a wall-basis node lies on a pole of the potential")
        t_gaps = np.diff(np.concatenate(([-1.0], t, [1.0])))
        h = np.maximum(t_gaps[:-1], t_gaps[1:]) * abs(dz_dt) / np.sqrt(qz)
        return h, u, t, log_bary, z, qz

    def _matrix(n: int, _, u: np.ndarray) -> np.ndarray:
        t, log_bary, z, qz = _nodes(n)[2:]
        # derivative of chi's basis in t: (b_j / b_i) / (t_i - t_j) for the
        # barycentric weights b, whose signs alternate
        sign = (-1.0) ** np.arange(n)
        D = (np.outer(sign, sign) * np.exp(log_bary - log_bary[:, None])
             / (t[:, None] - t + np.eye(n)))
        np.fill_diagonal(D, 0.0)
        np.fill_diagonal(D, -D.sum(axis=1))  # each row of a derivative sums to 0
        # the quadrature weight of w^2 dx = w^2 |dz/dt| dt / sqrt(Q) at each
        # node, up to a common factor: the rule's Christoffel number,
        # b^2 / (1 - t^2), over its weight
        log_m = (2.0 * log_bary + np.log(abs(dz_dt)) - 0.5 * np.log(qz)
                 + sum(2.0 * s * np.log(np.abs(z - a)) for a, s in powers.items())
                 - (1.0 + alpha) * np.log1p(-t) - (1.0 + beta) * np.log1p(t))
        m = np.exp(log_m - np.max(log_m))
        H = (D.T * (m * qz / dz_dt ** 2)) @ D  # (dt/dx)^2 = Q / (dz/dt)^2
        H.flat[::n + 1] += m * u
        scale = 1.0 / np.sqrt(m)
        return H * scale[:, None] * scale[None, :]

    return _agreed_levels(levels, mirror, box, lambda n: _nodes(n)[:2], _matrix, WALL_STEP,
                          "wall basis")


def node_count(pre: prepot.Prepotential, roots, x, components) -> list:
    """Number of nodes of phi_N in each row's open domain component
    (a, b): the distinct x there at which z(x) is a root strictly inside
    the open coordinate image. roots (B, N) and x (B, 2, N), the roots'
    preimages (a BranchTable's roots and x columns), hold a branch per row,
    with one component per row.

    phi_N = e^-W0 prod_k (z - z_k), and its other factors keep their sign
    inside a component (a point where they could flip is a wall, a zero
    of Q or outside the image), so phi_N changes sign exactly where z
    crosses a root. A preimage counts where its root lies strictly inside
    the image; the declared and the mirror one count once where they are
    equal (the linear, exponential and sinh maps)."""
    lo, hi = pre.cmap.z_image
    xs = np.where(((roots > lo) & (roots < hi))[:, None], x, np.nan).tolist()
    return [len({v for side in row for v in side if a < v < b})
            for row, (a, b) in zip(xs, components)]


def normalizability_check(pre: prepot.Prepotential, components) -> list:
    """Per domain component (a, b), in order, whether phi_N is normalizable
    on it: True unless an end of it is one that prepot.unbound_ends flags,
    the exact end rule read off P, Q and the walls. One unbound_ends call
    for all components."""
    unbound = {x for end in prepot.unbound_ends(pre) for x in end.x}
    return [unbound.isdisjoint(component) for component in components]


def _spectrum_boxes(pre: prepot.Prepotential, roots: np.ndarray, grids: list) -> list:
    """Per row of roots (B, N) and its grid, the spectrum box, from
    log|phi_N| at BOX_SAMPLES evenly spaced points of the grid's interval,
    the last one exactly its hi end (one prepot.phi_log_sign call, a row
    per branch): each box end is the sample one outward of the first (or
    last) sample within DVR_BOX_LOG of the samples' max, clipped to the
    interval."""
    ends = np.array([(g.lo, g.hi) for g in grids])
    x = ends[:, :1] + (ends[:, 1:] - ends[:, :1]) * np.linspace(0.0, 1.0, BOX_SAMPLES)
    x[:, -1] = ends[:, 1]
    logphi, _ = prepot.phi_log_sign(pre, roots, x)
    peak = np.max(logphi, axis=1, where=np.isfinite(logphi), initial=-math.inf)
    inside = logphi >= (peak - DVR_BOX_LOG)[:, None]
    first = np.maximum(np.argmax(inside, axis=1) - 1, 0)
    last = np.minimum(BOX_SAMPLES - np.argmax(inside[:, ::-1], axis=1), BOX_SAMPLES - 1)
    return [(float(row[i]), float(row[j])) for row, i, j in zip(x, first, last)]


@dataclass(frozen=True)
class BranchTable:
    """The branches of one built model as row-aligned columns, a branch per
    row, in the order of the roots given to branch_setups. Each column has
    one producer: roots (B, N); x (B, 2, N), the roots' x-preimages on the
    map's declared and mirror branch (one CoordinateMap.preimages call);
    energy (B,), bae.branch_energies of every row (one call); and per row
    its profile (potential.split_energies), grid (default_grids) and
    residual (max, rms) (schrodinger_residual), None where an earlier step
    stopped the row, and error: None, or the ValueError (a GridError, say)
    that stopped it. A row has a residual exactly when its error is None."""

    roots: np.ndarray
    x: np.ndarray
    energy: np.ndarray
    profile: tuple
    grid: tuple
    residual: tuple
    error: tuple


def branch_setups(pre: prepot.Prepotential, roots) -> BranchTable:
    """The one chain from the roots (B, N) of every branch of the built
    model to their Schrodinger residuals, each step one array pass over the
    rows still standing: the BranchTable of roots, x, energy, profile,
    grid, residual and error. The first pass reads every row: x, energy
    and the split, whose residue check fails a row that overflows (a root
    of 1e300, say) without a RuntimeWarning. default_grids marches the
    truncation ladders of every split row at once, and
    schrodinger_residual runs on the rows with a grid. qesf solve's E and
    verified columns and verify_branches all read it.
    """
    roots = np.asarray(roots, dtype=float).reshape(len(roots), pre.spec_ref.N)
    with np.errstate(over="ignore", invalid="ignore"):
        x = pre.cmap.preimages(roots).swapaxes(0, 1)
        energy = bae.branch_energies(pre.spec_ref, roots)
        profile, error = potential.split_energies(pre, roots, energy)
    grid, residual = [None] * len(roots), [None] * len(roots)
    rows = [i for i, e in enumerate(error) if e is None]
    for i, g in zip(rows, default_grids(pre, roots[rows], x[rows])):
        grid[i], error[i] = (g, None) if isinstance(g, Grid) else (None, g)
    rows = [i for i, e in enumerate(error) if e is None]
    for i, r in zip(rows, schrodinger_residual(pre, roots[rows], [profile[i] for i in rows],
                                               [grid[i] for i in rows])):
        residual[i], error[i] = (None, r) if isinstance(r, Exception) else (r, None)
    return BranchTable(roots, x, energy, tuple(profile), tuple(grid), tuple(residual),
                       tuple(error))


def verify_branches(pre: prepot.Prepotential, roots) -> list:
    """Full certification pipeline for the branches of one built model,
    roots (B, N) holding a branch's roots per row.

    Returns, per branch and in order, its VerificationReport or the
    GridError, DomainError or ValueError that stopped its checks; a failed
    branch stops no other.

    Each branch's profile, grid and residual are its row of branch_setups'
    table; the rows whose residual ran then get their node counts (from
    the table's x) and spectrum boxes (_spectrum_boxes), each one pass over
    them. The claimed energy is the profile's, the table's energy column:
    bae.branch_energies of the branch's roots, the E solve writes. The node
    count is node_count's:
    the x-preimages of the roots in the grid's component. phi is
    normalizable when no end of the component is one
    that prepot.unbound_ends flags (normalizability_check, one call for
    all branches); the grid exists only where phi falls below
    e^-W_THRESHOLD at each unbounded end. The verdict requires the
    residual below RESIDUAL_TOL, phi normalizable, and the claimed energy matched
    by the spectrum oracle's level whose index is the branch's node count:
    by Sturm oscillation a state with n nodes is level n. At a wall with
    nu < 1/2 the spectrum oracle is skipped, spectrum_note says why (a
    limit-circle wall, or one with nu <= -1/2, where phi is not
    square-integrable), and the verdict is the same rule without the
    spectrum match.

    The spectrum runs once per potential: branches with the same operator
    (equal potential U, as type-1 and ES models share, and equal walls
    with their exponents) form one group, matched against one spectrum.
    Only the levels whose indices are the group's node counts are
    compared, and a claim cannot choose its level. The levels come from
    one oracle family, each level with its own error estimate est, and the
    match must be within est + DVR_AGREE max(1, |E|) on every group: from
    dvr_spectrum on a group with no wall, and from wall_spectrum on a
    group with a wall (nu >= 1/2). Each end of the spectrum's box is a
    wall of the group's component, or where some member's log|phi| is
    within DVR_BOX_LOG of its maximum over its interval's samples (its
    _spectrum_boxes box).

    When the group's component holds the map's turning point x_t
    (coords.CoordinateMap.x_turn), the spectrum is the even sector of the
    component, with a mirror end at x_t, from x_t to the farthest box end
    or to the wall. Every algebraic state is even about x_t there, so the
    verdict also requires an even node count n, matched against
    even-sector level n // 2; a branch with an odd count fails, and
    spectrum_note says why.
    """
    table = branch_setups(pre, roots)
    results = list(table.error)  # a report replaces each None
    ok = [i for i, error in enumerate(results) if error is None]
    grids = [table.grid[i] for i in ok]
    components = [grid.component for grid in grids]
    counts = node_count(pre, table.roots[ok], table.x[ok], components)
    normalizable = normalizability_check(pre, components)
    # index -> its spectrum box, for the rows whose residual ran (none: no call)
    boxes = dict(zip(ok, _spectrum_boxes(pre, table.roots[ok], grids))) if ok else {}
    groups: dict[tuple, list] = {}  # (U, wall_lo, wall_hi) -> [(index, profile, grid, fields)]
    for i, grid, count, bound in zip(ok, grids, counts, normalizable):
        fields = dict(residual_max=table.residual[i][0], residual_rms=table.residual[i][1],
                      node_count=count, normalizable=bound)
        # At a limit-circle wall where the state follows the weaker
        # indicial root (nu < 1/2) both roots are square-integrable and the
        # wall basis, which selects the Friedrichs one, is no oracle for
        # it, so the verdict goes without the spectrum match; at a wall
        # with nu <= -1/2 phi is not square-integrable at all.
        weak = [w for w in (grid.wall_lo, grid.wall_hi) if w is not None and w[1] < 0.5 - 1e-12]
        if weak:
            x_w, nu = min(weak, key=lambda w: w[1])
            results[i] = _report(fields, [], "spectrum oracle skipped: " + (
                "limit-circle wall with endpoint exponent nu < 1/2" if nu > -0.5 else
                f"phi is not square-integrable at the wall x = {x_w:.6g}, where nu = {nu:.6g}"))
        else:
            groups.setdefault((table.profile[i].U, grid.wall_lo, grid.wall_hi), []).append(
                (i, table.profile[i], grid, fields))

    x_t = pre.cmap.x_turn
    for members in groups.values():
        walls = members[0][2].wall_lo, members[0][2].wall_hi
        c_lo, c_hi = members[0][2].component
        mirror = x_t if x_t is not None and c_lo < x_t < c_hi else None
        # each node count with the energy of its first branch; a mirror
        # component has no level for an odd count
        claims = {}
        for _, profile, _, fields in members:
            if mirror is None or fields["node_count"] % 2 == 0:
                claims.setdefault(fields["node_count"], profile.energy)
        # the box: a wall end is the wall; a truncated one the farthest
        # member box end; a mirror component runs from x_t
        lo = c_lo if walls[0] else min(boxes[i][0] for i, *_ in members)
        hi = c_hi if walls[1] else max(boxes[i][1] for i, *_ in members)
        if mirror is not None:
            lo, hi = mirror, mirror + max(mirror - lo, hi - mirror)
        try:
            if walls == (None, None):
                levels = dvr_spectrum(members[0][1], pre.cmap, (lo, hi), claims, mirror)
            else:
                levels = wall_spectrum(members[0][1], pre.cmap, pre.spec_ref.Q, (lo, hi),
                                       walls, claims, mirror)
        except (GridError, DomainError, ValueError) as exc:
            for i, *_ in members:
                results[i] = exc
            continue
        for i, profile, _, fields in members:
            energy = profile.energy
            if fields["node_count"] not in levels:
                results[i] = _report(fields, [], f"odd node count: U is even about x = "
                                     f"{x_t:g}, where every algebraic state is even", False)
                continue
            level, est = levels[fields["node_count"]]
            diff = abs(level - energy)
            results[i] = _report(fields, [(energy, float(level), float(diff))], "",
                                 diff < est + DVR_AGREE * max(1.0, abs(energy)))
    return results


def _report(fields: dict, matches: list, note: str,
            matched: bool = True) -> VerificationReport:
    """A branch's report from its oracle fields, the one verdict rule: the
    residual below RESIDUAL_TOL, phi normalizable, and its spectrum match
    (matched) where the spectrum oracle ran."""
    return VerificationReport(**fields, spectrum_matches=matches, spectrum_note=note,
                              verdict=bool(fields["residual_max"] < RESIDUAL_TOL
                                           and fields["normalizable"] and matched))


def verify_branch(pre: prepot.Prepotential, branch) -> VerificationReport:
    """verify_branches for one branch: its report, or its error raised."""
    (rep,) = verify_branches(pre, [branch.roots])
    if isinstance(rep, Exception):
        raise rep
    return rep
