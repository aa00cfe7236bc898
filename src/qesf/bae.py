"""Bethe ansatz equations: residual, Newton solver, branch enumeration.

The residual is derived from the vanishing-residue requirement on the
root poles of the potential:

    F_k = P(z_k) - Q'(z_k)/4
          - Q(z_k) * [ sum_{l != k} 1/(z_k - z_l) + sum_j mu_j/(z_k - a_j) ]

This residue form is the implementation's ground truth. Commonly quoted
closed forms for specific families disagree with it in two places (the sign
of the mu*q0/z_k term when q0 != 0, and the constant of the two-singularity
trigonometric family); reference_bae_terms exposes those transcriptions so
the derive command can print a term-by-term diff, and the verify module's
Schrodinger residual and spectrum oracle arbitrate.

Enumeration has one finder for every model class (Heine 1878, Stieltjes
1885; B. Shapiro, J. London Math. Soc. 83 (2011) 36). y = prod_k (z - z_k)
solves the BAE exactly when A y'' + B y' + V y = 0 for a polynomial V, with
A and B fixed by the model (_operator). Degree counting fixes the top
coefficient of V, which leaves k = max(deg A - 2, deg B - 1, 1) free
parameters: a k-parameter eigenproblem on polynomials of degree <= N
(_heine_matrix). Exactly solvable and type-1 models, and one wall with
deg P <= 1, have k = 1: one square matrix (Turbiner, CMP 118 (1988) 467).
Type-2 models, two walls, or a wall with deg P >= 2 give k >= 2: a
rectangular multiparameter eigenproblem, solved through Atkinson's
Delta-operators (Hochstenbach, Kosir and Plestenjak) restricted to
Sym^k -> Lambda^k, of order C(N+k, k) (Heine's count) with no
compressions, as the standard eigenproblem of Delta_0^-1 Delta_c. Each
real eigenvector is y (x) ... (x) y, and y is read straight from its
entries, with no rank test (_tensor_factors). A y that fails Newton's
inequalities has complex roots and is dropped from its coefficients
alone (_newton_screen); every other eigen-solution y of exact degree N
that gives a real start (_starts) gets one Newton polish from its roots,
which come from one stacked companion-matrix eigenvalue call. The
polishes run in lock step as the rows of one damped Newton (solve_many):
residuals of shape (B, N), Jacobians (B, N, N) and one batched linear
solve per iteration, with each row's line search, polish phase and error
its own. One helper (_terms) evaluates the residual and the Jacobian's
shared terms of every row, and flags the rows that collide; a row that
collides or overflows stops itself and no other. A row converges when
its largest |F_k| is below BAE_TOL times the moduli of the terms that
cancel in it, so the bound follows the model's units and the roots'
spread. A polish whose roots repeat an earlier polish's is that branch
again and is written once, for every k. Only numpy runs here.

A branch is real: each level's eigenfunction is built from the real zeros
of its polynomial y, so enumeration seeks real roots only, and Newton and
the energy run in real arithmetic throughout.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np
import numpy.polynomial.polynomial as npoly

from .errors import CollisionError, ConvergenceError, ModelError
from .model import ModelSpec, promoted_singularities

COLLISION_TOL = 1e-8
# An eigenvector whose z^N coefficient is below this fraction of its largest
# is of lower degree (exactly 0 for the triangular exactly solvable matrix)
# or belongs to a defective eigenvalue (1e-16..1e-13 on the Morse presets);
# a genuine degree-N one stays above 1e-8 up to N = 40 in the basis of
# _heine_matrix.
DEGREE_TOL = 1e-10
# A k >= 2 eigen-solution with roots real to this (in z/s) is real: on the
# vetted configs real ones stay below 1e-15, complex ones above 0.06.
REAL_TOL = 1e-6
# Cap on (N+1)^k, which bounds the k >= 2 eigenproblem's order C(N+k, k)
# (Sym^k -> Lambda^k, 66 at type-2 N = 10). Past it two-wall models lose
# branches: 80 of 120 at N = 14 with walls at -+0.1, mu = 0.05 and 0.45.
MAX_ORDER = 121
COMPRESSION_SEED = 0  # seeds the fixed combination c of the k >= 2 Delta_j
BAE_TOL = 1e-12  # a Newton row converges below this fraction of its scale (solve_many)
MAX_ITER = 80  # Newton steps to reach the bound
POLISH_ITER = 200  # further steps while the residual keeps improving
ENERGY_TIE_ULPS = 4  # real branch energies this close, in ulps of their largest term, tie


@dataclass(frozen=True)
class BetheBranch:
    """One accepted solution vector of the Bethe ansatz equations."""

    roots: tuple
    residual_norm: float
    newton_iters: int

    @property
    def n(self) -> int:
        return len(self.roots)

    @property
    def is_real(self) -> bool:
        return not any(isinstance(r, complex) and abs(r.imag) > 0 for r in self.roots)


def _polys(spec: ModelSpec) -> tuple:
    """P, Q, P' and Q', built once per batched call."""
    return spec.P, spec.Q, spec.P.derivative(), spec.Q.derivative()


def _collision(roots: np.ndarray, singularities) -> CollisionError:
    """The CollisionError of one colliding vector of roots: of several
    colliding pairs the first in row-major order, else the first
    singularity a root meets."""
    diff = np.subtract.outer(roots, roots)
    np.fill_diagonal(diff, np.inf)
    close = np.argwhere(np.abs(diff) < COLLISION_TOL)
    if len(close):
        i, j = close[0]
        return CollisionError(f"roots {i} and {j} collide: |dz| = {abs(diff[i, j]):.2e}")
    s = next(s for s in singularities
             if np.min(np.abs(roots - s.location)) < COLLISION_TOL)
    return CollisionError(f"a root coincides with the singularity at z = {s.location}")


def _terms(spec: ModelSpec, polys: tuple, roots: np.ndarray) -> tuple[list, np.ndarray]:
    """[F, inv, S, Q(z), Q'(z)] of every row of roots (B, N): the residual,
    the pair inverses 1/(z_k - z_l) with zero diagonal and the other terms
    the Jacobian at the same roots shares with it; and the mask of the rows
    in which two roots, or a root and a singularity, are closer than
    COLLISION_TOL. A colliding row's F is nan, and so is F at a root that
    is not finite (Poly's Horner sum starts from 0 * z); a row that
    overflows gets inf or nan terms, and nothing warns."""
    P, Q, _, dQ = polys
    B, n = roots.shape
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        diff = roots[:, :, None] - roots[:, None, :]
        diff.reshape(B, n * n)[:, ::n + 1] = np.inf
        collide = (np.abs(diff) < COLLISION_TOL).any(axis=(1, 2))
        inv = 1.0 / diff
        S = inv.sum(axis=2)
        for s in spec.singularities:
            d = roots - s.location
            collide |= (np.abs(d) < COLLISION_TOL).any(axis=1)
            S = S + s.exponent / d
        q, dq = Q(roots), dQ(roots)
        F = P(roots) - dq / 4.0 - q * S
    F[collide] = np.nan
    return [F, inv, S, q, dq], collide


def _jacobians(spec: ModelSpec, polys: tuple, roots: np.ndarray, ev: list) -> np.ndarray:
    """dF_k/dz_j of every row of roots (B, N), from their _terms."""
    _, inv, S, q, dq = ev
    inv2 = inv * inv
    S2 = inv2.sum(axis=2)
    for s in spec.singularities:
        S2 = S2 + s.exponent / (roots - s.location) ** 2
    J = -q[:, :, None] * inv2
    B, n = roots.shape
    J.reshape(B, n * n)[:, ::n + 1] = (polys[2](roots) - spec.Q.coeff(2) / 2.0 - dq * S
                                       + q * S2)
    return J


def _rows(roots) -> np.ndarray:
    """roots as an array of floats or complex numbers."""
    roots = np.asarray(roots)
    return roots.astype(np.result_type(roots, 1.0), copy=False)


def residuals(spec: ModelSpec, roots) -> tuple[np.ndarray, list]:
    """Residue-derived Bethe ansatz residual of each row of roots, shape
    (B, N), in one array pass, and per row None or its CollisionError: two
    roots, or a root and a singularity, closer than COLLISION_TOL. A
    colliding row's residuals are nan; a row whose terms overflow gets inf
    or nan residuals, and no error."""
    roots = _rows(roots)
    (F, *_), collide = _terms(spec, _polys(spec), roots)
    return F, [_collision(row, spec.singularities) if c else None
               for row, c in zip(roots, collide.tolist())]


def residual(spec: ModelSpec, roots) -> np.ndarray:
    """Residue-derived Bethe ansatz residual F_k (length N) of one vector
    of roots: residuals' row, bit for bit. Raises its CollisionError."""
    F, (error,) = residuals(spec, np.asarray(roots)[None])
    if error is not None:
        raise error
    return F[0]


def jacobian(spec: ModelSpec, roots) -> np.ndarray:
    """Analytic Jacobian dF_k/dz_j of the residual at one vector of roots,
    the batched Newton's row. Raises CollisionError as residual does."""
    roots, polys = _rows(roots)[None], _polys(spec)
    ev, (collide,) = _terms(spec, polys, roots)
    if collide:
        raise _collision(roots[0], spec.singularities)
    return _jacobians(spec, polys, roots, ev)[0]


def branch_energies(spec: ModelSpec, roots) -> np.ndarray:
    """Energy of each row of roots, shape (B, N), extracted from the
    constant part of its pole-free potential shift, in one array pass:

    E = 2 p3 sum z_k^2 + 2 p2 sum z_k + 2 p1 N - q2 N^2 - 2 q2 N sum_j mu_j
    """
    t = _energy_terms(spec, np.asarray(roots))
    return t[0] + t[1] + t[2] + t[3] + t[4]


def branch_energy(spec: ModelSpec, roots) -> float:
    """branch_energies of one vector of roots, bit for bit."""
    return float(branch_energies(spec, np.asarray(roots)[None])[0])


def _energy_terms(spec: ModelSpec, roots: np.ndarray) -> tuple:
    """The terms of branch_energies' sum, in its order: two row sums over
    roots (B, N) and three constants."""
    N = spec.N
    p1, p2, p3 = spec.P.coeff(1), spec.P.coeff(2), spec.P.coeff(3)
    q2 = spec.Q.coeff(2)
    smu = sum(s.exponent for s in spec.singularities)
    return (2.0 * p3 * np.sum(roots ** 2, axis=1), 2.0 * p2 * np.sum(roots, axis=1),
            2.0 * p1 * N, -q2 * N * N, -2.0 * q2 * N * smu)


def _newton_steps(J: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solutions dz of J dz = rhs for stacks J (B, N, N) and rhs (B, N), in
    one np.linalg.solve call, and the mask of the singular rows (None when
    there is none). LAPACK's singular flag fails the whole call, so only
    then is each row solved alone, to tell which; every row gets the same
    bits either way."""
    try:
        return np.linalg.solve(J, rhs[..., None])[..., 0], None
    except np.linalg.LinAlgError:
        dz, singular = np.zeros_like(rhs), np.zeros(len(J), dtype=bool)
        for i, (Ji, bi) in enumerate(zip(J, rhs)):
            try:
                dz[i] = np.linalg.solve(Ji, bi)
            except np.linalg.LinAlgError:
                singular[i] = True
        return dz, singular


def solve_many(spec: ModelSpec, inits, tol: float = BAE_TOL) -> list:
    """Damped Newton iteration from every row of inits, real starts of
    shape (B, N), in lock step: per row, in order, its BetheBranch (roots
    ascending) or the CollisionError or ConvergenceError that stopped it.
    ValueError for complex starts or another shape.

    The state holds the running rows only. Each iteration stacks their
    Jacobians, (B, N, N), and solves them in one batched np.linalg.solve
    call; each trial step of the line search is one _terms call for all
    rows still searching. Every row does exactly the arithmetic it would do
    alone.

    Per row, steps are halved whenever the residual norm fails to decrease
    or any pair of roots (or a root and a singularity) comes within the
    collision tolerance; a trial that leaves the floats or whose residual
    overflows is a rejected step too. A start that collides gives
    CollisionError; stagnation, iteration exhaustion or a singular Jacobian
    give ConvergenceError.

    A row converges at the first iteration at which its residual norm is
    0 or below tol times its scale, the largest over k of the moduli of
    the terms that cancel in F_k (Higham, Accuracy and Stability of
    Numerical Algorithms, ch. 3):

        sum_i |p_i| |z_k|^i + sum_i |q'_i| |z_k|^i / 4
        + sum_i |q_i| |z_k|^i * (sum_{l != k} 1/|z_k - z_l| + sum_j |mu_j|/|z_k - a_j|),

    not |P(z_k)|, which vanishes at a root of P. It is computed once per
    iteration for the rows not yet converged, and a non-finite scale
    accepts no row. enumerate_branches uses tol = BAE_TOL; at tol = 0 only
    an exact zero converges.

    From then on a row keeps polishing as long as its residual strictly
    improves (up to POLISH_ITER extra steps): for simple roots that is one
    or two steps to the machine floor, while for degenerate root
    configurations (where the bound admits a wide ball) the linear tail of
    Newton contracts the ball so duplicate branches collapse in enumeration.
    """
    z = np.asarray(inits)
    if np.iscomplexobj(z):
        raise ValueError("Newton starts must be real")
    z = z.astype(float)
    if z.ndim != 2 or z.shape[1] != spec.N:
        raise ValueError(f"inits must have shape (B, N = {spec.N})")
    if spec.N == 0:
        return [BetheBranch((), 0.0, 0) for _ in z]
    out: list = [None] * len(z)
    polys = _polys(spec)
    # |coefficients| of P, Q, P' and Q', ascending, one column each
    moduli = np.abs(list(itertools.zip_longest(*(p.coeffs for p in polys), fillvalue=0.0)))
    ev, collide = _terms(spec, polys, z)
    # the running rows: their index in out, roots, _terms, residual norm and
    # the iteration at which it converged (-1 before)
    idx, norm, converged_at = np.arange(len(z)), np.abs(ev[0]).max(axis=1), np.full(len(z), -1)

    def _keep(stop, error=None):
        """Record the rows in stop (a mask) and drop them from the state;
        a row gets its branch when it has converged, else error(row).
        Returns the mask of the rows kept."""
        nonlocal idx, z, ev, norm, converged_at
        keep = ~stop
        if keep.all():
            return keep
        for j in np.flatnonzero(stop):
            out[idx[j]] = (BetheBranch(tuple(np.sort(z[j], kind="stable").tolist()),
                                       float(norm[j]), int(converged_at[j]))
                           if converged_at[j] >= 0 else error(j))
        idx, z, norm, converged_at = idx[keep], z[keep], norm[keep], converged_at[keep]
        ev = [a[keep] for a in ev]
        return keep

    _keep(collide, lambda j: _collision(z[j], spec.singularities))
    for it in range(MAX_ITER + POLISH_ITER):
        # A row polishes from the iteration it converges; its norm only
        # decreases from then on.
        fresh = np.flatnonzero(converged_at < 0)
        with np.errstate(over="ignore", invalid="ignore"):  # a start that overflowed
            t = np.abs(z[fresh])[..., None] ** np.arange(len(moduli)) @ moduli
            S = np.abs(ev[1][fresh]).sum(axis=2) + sum(
                abs(s.exponent / (z[fresh] - s.location)) for s in spec.singularities)
            bound = tol * (t[..., 0] + t[..., 3] / 4.0 + t[..., 1] * S).max(axis=1)
        converged_at[fresh[(norm[fresh] == 0.0) | (norm[fresh] < bound) & np.isfinite(bound)]] = it
        _keep((converged_at >= 0) & ((norm == 0.0) | (it - converged_at >= POLISH_ITER)))
        if not len(idx):
            break
        with np.errstate(over="ignore", invalid="ignore"):  # a start that overflowed
            J = _jacobians(spec, polys, z, ev)
        dz, singular = _newton_steps(J, -ev[0])
        if singular is not None:
            dz = dz[_keep(singular, lambda j: ConvergenceError(
                f"singular Jacobian (cond ~ {np.linalg.cond(J[j]):.2e})"))]
        polishing = converged_at >= 0
        bar = np.where(polishing, 0.5 * norm, norm)
        # Line search, every row at once: alpha = 1, 1/2, 1/4, ... A polishing
        # row demands a strong decrease (below bar, half its norm) at alpha =
        # 1 or 1/2 or stops (which keeps the degenerate-root tail alive and
        # exits simple roots at once); any other row takes any decrease
        # while alpha > 1e-12.
        searching = np.arange(len(idx))
        moved = np.zeros(len(idx), dtype=bool)
        alpha = 1.0
        while alpha > 1e-12 and len(searching):
            trial = z[searching] + alpha * dz[searching]
            ev_t, _ = _terms(spec, polys, trial)
            nt = np.abs(ev_t[0]).max(axis=1)  # nan if it collides or leaves the floats
            took = nt < bar[searching]
            rows = searching[took]
            moved[rows] = True
            z[rows], norm[rows] = trial[took], nt[took]
            for a, b in zip(ev, ev_t):
                a[rows] = b[took]
            searching = searching[~took]
            if alpha == 0.5:
                searching = searching[~polishing[searching]]
            alpha *= 0.5
        _keep(~moved, lambda j: ConvergenceError(
            f"line search stalled at residual {norm[j]:.2e} after {it} iterations"))
    _keep(np.ones(len(idx), dtype=bool), lambda j: ConvergenceError(
        f"no convergence in {MAX_ITER} iterations (residual {norm[j]:.2e})"))
    return out


def solve(spec: ModelSpec, init, tol: float = BAE_TOL) -> BetheBranch:
    """Damped Newton iteration from one starting vector: solve_many's one
    row, whose error it raises. ValueError when init is complex or not a
    vector of length N."""
    z = np.asarray(init)
    if z.ndim != 1 or z.size != spec.N:
        raise ValueError(f"init must have length N = {spec.N}")
    (br,) = solve_many(spec, z[None], tol=tol)
    if isinstance(br, Exception):
        raise br
    return br


def _poly_coeffs(spec: ModelSpec) -> list[float]:
    """Ascending z_k-polynomial coefficients of the residue-derived BAE
    (always at least the constant and linear ones)."""
    P, Q = spec.P, spec.Q
    q1, q2 = Q.coeff(1), Q.coeff(2)
    cz = P.coeff(1) - q2 / 2.0
    c1 = P.coeff(0) - q1 / 4.0
    for s in spec.singularities:
        cz -= s.exponent * q2
        c1 -= s.exponent * (q2 * s.location + q1)
    return [c1, cz] + [P.coeff(i) for i in range(2, P.degree + 1)]


def _root_scale(spec: ModelSpec) -> float:
    """Magnitude estimate for BAE roots: Cauchy bound on the decoupled
    polynomial part of the residual."""
    coeffs = _poly_coeffs(spec)
    m = max((i for i, c in enumerate(coeffs) if c != 0.0), default=0)
    if m == 0:
        return 1.0
    lead = coeffs[m]
    bound = 1.0
    for i, c in enumerate(coeffs[:m]):
        if c != 0.0:
            bound = max(bound, (abs(c) / abs(lead)) ** (1.0 / (m - i)))
    return 1.0 + bound


def _operator(spec: ModelSpec) -> tuple[list[float], list[float]]:
    """Ascending coefficients of A and B in A y'' + B y' + V y = 0.

    At a root z_k of y = prod_l (z - z_l), y''/y' = 2 sum_{l != k} 1/(z_k - z_l),
    so the BAE read Q y'' + (Q'/2 - 2P + 2 Q sum_j mu_j/(z - a_j)) y' = 0
    there. The bracket is -2 _poly_coeffs plus 2 mu_j Q(a_j)/(z - a_j) per
    promoted singularity; times W = prod_promoted (z - a_j), A = Q W and B
    are polynomials.
    """
    a, b = list(spec.Q.coeffs), [-2.0 * c for c in _poly_coeffs(spec)]
    promoted = promoted_singularities(spec)
    walls = [[-s.location, 1.0] for s in promoted]
    if not walls:
        return a, b
    b = npoly.polymul(b, functools.reduce(npoly.polymul, walls))
    for j, s in enumerate(promoted):
        others = walls[:j] + walls[j + 1:]
        b = npoly.polyadd(b, functools.reduce(
            npoly.polymul, others, [2.0 * s.exponent * spec.Q(s.location)]))
    return list(functools.reduce(npoly.polymul, walls, a)), list(b)


def _heine_matrix(spec: ModelSpec) -> tuple[np.ndarray, float]:
    """Matrix M0 of y -> A y'' + B y' + v_d z^d y (_operator) on the basis
    (z/s)^n, n = 0..N, and the scale s.

    V = v_0 + ... + v_d z^d with d = max(deg A - 2, deg B - 1); for d >= 1 the
    z^(N+d) coefficient fixes v_d, which leaves k = max(d, 1) free ones. y
    solves the BAE when (M0 + sum_{j<k} v_j s^j S_j) y = 0, S_j shifting the
    basis by j, so M0 has N + k rows. For k = 1 v_0 = -eigenvalue, and
    without promoted walls v_0 = E (branch_energies). Column n holds
    (n(n-1) a_{j+2} + n b_{j+1}) s^j at row n + j, for j = -2..d.

    s balances the bands. Like _root_scale it is a Cauchy-type bound, here
    on the band maxima against the band with the highest power of s, and
    it is never below _root_scale. It keeps the eigenvectors' roots O(1)
    in z/s. ModelError when (N+1)^k exceeds MAX_ORDER, before any work, and
    when s or a power of it overflows (s past about 1e154: a P many orders
    of magnitude below Q, such as P = 3e-251 over Q = 1, or a subnormal
    coefficient of P, which makes s infinite).
    """
    N = spec.N
    a, b = _operator(spec)
    degree = lambda c: max((i for i, x in enumerate(c) if x != 0.0), default=-1)
    d = max(degree(a) - 2, degree(b) - 1, 0)
    k = max(d, 1)
    if (N + 1) ** k > MAX_ORDER:
        largest = next(n for n in range(MAX_ORDER, 0, -1) if (n + 1) ** k <= MAX_ORDER)
        raise ModelError(f"N = {N} is too large: this model's eigenproblem has {k} "
                         f"free parameter(s), and (N+1)^{k} may not exceed "
                         f"{MAX_ORDER}, so N <= {largest}")
    coef = lambda c, i: c[i] if 0 <= i < len(c) else 0.0
    n = np.arange(N + 1, dtype=float)
    # bands[j + 2] holds the entries j rows below the diagonal (times s^j)
    bands = [n * (n - 1) * coef(a, j + 2) + n * coef(b, j + 1) for j in range(-2, k)]
    if d > 0:
        bands.append((n * (n - 1) - N * (N - 1)) * coef(a, d + 2) + (n - N) * coef(b, d + 1))
    mags = [float(np.max(np.abs(band))) for band in bands]
    top = max((j for j, m in enumerate(mags) if m != 0.0), default=0)
    s = max([_root_scale(spec)] + [(m / mags[top]) ** (1.0 / (top - j))
                                   for j, m in enumerate(mags[:top]) if m != 0.0])
    M0 = np.zeros((N + k, N + 1))
    try:
        if np.isinf(s):  # a bound over a subnormal coefficient
            raise OverflowError
        for j, band in enumerate(bands, start=-2):
            cols = np.arange(max(0, -j), min(N + 1, N + k - j))
            M0[cols + j, cols] = (band / s ** -j if j < 0 else band * s ** j)[cols]
    except OverflowError:
        raise ModelError(f"P and Q span too wide a range of scales: the eigenproblem's "
                         f"basis scale s = {s:.3g} overflows") from None
    # eig's output depends on the sign of zeros: + 0.0 makes every -0.0 a 0.0
    return M0 + 0.0, s


def _delta_operators(M0: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Atkinson's Delta_0 and Delta_1..Delta_k of (M0 + sum_j w_j S_j) y = 0,
    restricted to Sym^k(R^(N+1)) -> Lambda^k(R^(N+k)): square, of order
    C(N+k, k), with no compressions.

    A solution y gives z = y (x) ... (x) y, and Delta_j z = w_j Delta_0 z,
    where Delta_0 is the operator determinant of the S_j and Delta_j has
    column j replaced by -M0. Both map symmetric tensors to antisymmetric
    ones. A row is a k-tuple r_0 < ... < r_(k-1); a column is a multiset t of
    basis indices, the sum of the basis tensors of its distinct orderings c.
    The entry is sum_c det[X_j[r_i, c_i]], each determinant a Leibniz sum of
    products (no LAPACK, so a subnormal entry warns of nothing). On the
    shifts, Delta_0 is multiplication by the Vandermonde prod_{i<j} (t_j - t_i)
    of polynomials in t_0..t_(k-1), so it does not depend on M0.
    """
    n, k = M0.shape[1], M0.shape[0] - M0.shape[1] + 1
    rows = np.array(list(itertools.combinations(range(n + k - 1), k)))
    orders = [sorted(set(itertools.permutations(t)))
              for t in itertools.combinations_with_replacement(range(n), k)]
    cols = np.array([c for order in orders for c in order])
    X = np.array([np.eye(n + k - 1, n, -j) for j in range(k)] + [-M0])  # S_j, then -M0
    # G[a, i] holds X_a[r_i, c_i] for every row r and ordering c
    G = np.moveaxis(X[:, rows[:, None, :], cols[None, :, :]], 3, 1)
    # operator a in column j of Delta_0 (the first) and of each Delta_j
    ops = np.array([[k if i == j else i for i in range(k)] for j in range(-1, k)])
    dets = 0.0
    for p in itertools.permutations(range(k)):
        sign = (-1) ** sum(p[j] > p[i] for i in range(k) for j in range(i))
        dets = dets + sign * np.prod(G[ops[:, p], np.arange(k)], axis=1)
    first = np.cumsum([0] + [len(order) for order in orders[:-1]])
    D = np.add.reduceat(dets, first, axis=2)
    return D[0], list(D[1:])


def _tensor_factors(M0: np.ndarray) -> list[np.ndarray]:
    """The factors y of the real eigenvectors z = y (x) ... (x) y of the
    Delta-problem of M0 + sum_j w_j S_j, k >= 2, that pass Newton's
    inequalities (_newton_screen): ascending coefficients on M0's basis.

    The eigenvectors z of Delta_0^-1 Delta_c (_delta_operators, Sym^k ->
    Lambda^k, order C(N+k, k): Heine's count of solutions, so no eigenvalue
    is spurious), Delta_c a fixed combination of the Delta_j (distinct
    eigenvalues even where solutions share a w_j), give the candidates.
    Delta_0 depends only on (N, k), and its condition number stays below 15
    wherever MAX_ORDER admits (N, k), so the standard eigenproblem stands in
    for the generalized one. A real solution w has the real eigenvalue c . w,
    which LAPACK returns with imaginary part exactly 0 as for k = 1, and a
    real eigenvector; only those are candidates.

    Such a z holds prod_i y_(t_i) at the multiset t, so y_i is read at
    (i, j, ..., j), j the largest |z_(j, ..., j)|: y up to the scale
    y_j^(k-1), which moves no root. A z that is no product gives a y whose
    start _starts, REAL_TOL or the Newton polish rejects.
    """
    n, k = M0.shape[1], M0.shape[0] - M0.shape[1] + 1
    D0, Ds = _delta_operators(M0)
    c = np.random.default_rng(COMPRESSION_SEED).standard_normal(k)
    lam, Z = np.linalg.eig(np.linalg.solve(D0, sum(cj * Dj for cj, Dj in zip(c, Ds))))
    Z = Z[:, lam.imag == 0.0].real
    t = np.sort(np.indices((n,) * k).reshape(k, -1), axis=0)  # every k-tuple, sorted
    # the rank of each tuple's multiset, lexicographic like _delta_operators' columns
    grid = np.unique(np.ravel_multi_index(t, (n,) * k), return_inverse=True)[1].reshape((n,) * k)
    i = np.arange(n)
    j = np.argmax(np.abs(Z[grid[(i,) * k]]), axis=0)
    y = Z[grid[(i[:, None],) + (j,) * (k - 1)], np.arange(Z.shape[1])]
    return list(y[:, _newton_screen(y)].T)


def _newton_screen(y: np.ndarray) -> np.ndarray:
    """Mask of the columns of y (ascending coefficients of polynomials of
    degree <= N = len(y) - 1) that may have only real roots; a dropped
    column is one that _starts would reject.

    Every real-rooted y satisfies Newton's inequalities a_i^2 >= a_(i-1)
    a_(i+1), a_i = y_i / C(N, i) (Hardy, Littlewood and Polya,
    Inequalities, 2.22). A column is dropped when it is of full degree
    (|y_N| above 1e3 DEGREE_TOL max|y|) and misses an inequality by more
    than 1e-8 of its terms: rounding, and a pair real to REAL_TOL, move a
    deficit by about 1e-12. At N <= 2, where at most the discriminant could
    fail, every column is kept: there the screen costs more than the small
    root solves it could spare.
    """
    n = len(y)
    if n < 4:
        return np.ones(y.shape[1], bool)
    a = y / np.array([math.comb(n - 1, m) for m in range(n)])[:, None]
    mid, outer = a[1:-1] ** 2, a[:-2] * a[2:]
    full = np.abs(y[-1]) > 1e3 * DEGREE_TOL * np.max(np.abs(y), axis=0)
    return ~(full & (mid - outer < -1e-8 * (mid + np.abs(outer))).any(axis=0))


def _roots(coeffs: list[np.ndarray]) -> list[np.ndarray]:
    """np.roots(c[::-1]) of each real ascending coefficient vector c, bit
    for bit, for c with a nonzero top coefficient.

    Like np.roots, a zero constant term (and any run of zeros above it) is
    stripped from the companion matrix and its roots come back as exact
    zeros at the end. The companion matrices of one size are stacked into
    one np.linalg.eigvals call, which runs the same LAPACK routine on each
    as np.roots would; c's roots are real when all of its own imaginary
    parts are 0.
    """
    out: list = [None] * len(coeffs)
    groups: dict[int, list[int]] = {}
    for i, c in enumerate(coeffs):
        size = len(c) - 1 - int(np.flatnonzero(c)[0])  # degree without the zero roots
        groups.setdefault(size, []).append(i)
    for size, members in groups.items():
        w = np.zeros((len(members), 0))
        if size:
            p = np.array([coeffs[i][::-1][:size + 1] for i in members])
            A = np.zeros((len(members), size, size))
            A[:, np.arange(1, size), np.arange(size - 1)] = 1
            A[:, 0, :] = -p[:, 1:] / p[:, :1]
            w = np.linalg.eigvals(A)
        for i, wi in zip(members, w):
            if not wi.imag.any():
                wi = wi.real
            out[i] = np.hstack((wi, np.zeros(len(coeffs[i]) - 1 - size, wi.dtype)))
    return out


def _starts(M0: np.ndarray, s: float) -> list[np.ndarray]:
    """Real Newton starts, ascending: the roots (times s) of every real
    eigen-solution y of exact degree N, taken from one batch (_roots).

    k = 1: the eigenvectors of the square M0's real eigenvalues. Each such
    y is real and gets a real start: np.roots may return a close real pair
    as a +- ib (b = 0.014 in z/s at trig-interval N = 15), and a +- b is
    the better start. k >= 2 (_tensor_factors): y, read straight from
    its Delta-eigenvector with no rank test and no SVD, starts only when
    its roots are real to REAL_TOL.
    """
    square = M0.shape[0] == M0.shape[1]
    if square:
        lam, vec = np.linalg.eig(M0)
        cands = [vec[:, i].real for i in range(len(lam)) if lam[i].imag == 0.0]
    else:
        cands = _tensor_factors(M0)
    cands = [c for c in cands if abs(c[-1]) > DEGREE_TOL * np.max(np.abs(c))]
    return [s * np.sort(w.real + w.imag) for w in _roots(cands)
            if square or np.max(np.abs(w.imag)) <= REAL_TOL]


def _energy_order(spec: ModelSpec, found: list[BetheBranch]) -> list[BetheBranch]:
    """found, each branch once, by extracted energy. A branch is kept at
    its first polish in found: a later one whose sorted roots all lie
    within COLLISION_TOL of an earlier one's is the same branch. A run of
    branches whose energies agree within ENERGY_TIE_ULPS ulps of the
    largest term of branch_energies' sum (mirror branches, whose E differ
    only by rounding) is ordered by its roots, so that no branch moves when
    E moves by an ulp. The duplicates, every energy and every tie come from
    one array of roots."""
    z = np.array([br.roots for br in found], dtype=float).reshape(len(found), spec.N)
    first = ~np.tril((np.abs(z[:, None] - z) < COLLISION_TOL).all(axis=2), -1).any(axis=1)
    z, found = z[first], [br for br, f in zip(found, first.tolist()) if f]
    terms = np.broadcast_arrays(*_energy_terms(spec, z))
    ties = ENERGY_TIE_ULPS * np.spacing(np.max(np.abs(terms), axis=0))
    keyed = sorted(zip(branch_energies(spec, z).tolist(), (br.roots for br in found),
                       ties, found), key=lambda k: k[:2])
    out, run = [], []
    for e, roots, tie, br in keyed:
        if run and not e - run[-1][0] <= max(tie, run[-1][2]):
            out += sorted(run, key=lambda k: k[1])
            run = []
        run.append((e, roots, tie, br))
    out += sorted(run, key=lambda k: k[1])
    return [br for *_, br in out]


def enumerate_branches(spec: ModelSpec) -> list[BetheBranch]:
    """Every real branch of the model's eigenproblem, once each, sorted by
    extracted energy (energies equal but for rounding by roots, see
    _energy_order).

    Each real eigen-solution of _heine_matrix of exact degree N that gives
    a real start gets one Newton polish from its roots (_starts): the
    starts are the rows of one solve_many call, and polishes that collide
    or do not converge are dropped. For every k, a polish whose sorted
    roots all lie within COLLISION_TOL of an earlier one's is that branch
    again (a multiple eigen-solution, such as sextic-type2 at b = 0, N = 1:
    z^3 = 0, or two starts that converge to one branch) and is dropped. A
    model with k free parameters has at most C(N+k, k) solutions (N + 1
    for k = 1), complex ones included. Raises ModelError when (N + 1)^k
    exceeds MAX_ORDER, or when the eigenproblem's scale overflows
    (_heine_matrix).

    The result is deterministic: nothing is random, and the combination
    of the k >= 2 Delta-operators is fixed.
    """
    if spec.N == 0:
        return [BetheBranch((), 0.0, 0)]
    starts = _starts(*_heine_matrix(spec))
    polished = solve_many(spec, starts) if starts else []
    return _energy_order(spec, [br for br in polished if isinstance(br, BetheBranch)])


def residue_bae_terms(spec: ModelSpec) -> dict:
    """Coefficient table of the residue-derived BAE.

    F_k is organized as polynomial coefficients in z_k, simple-pole
    coefficients at each singularity, and the universal -Q(z_k) multiplying
    the root-interaction sum.
    """
    coeffs = _poly_coeffs(spec)
    terms = {f"z^{i}": c for i, c in enumerate(coeffs[2:], 2)}
    terms["z^1"] = coeffs[1]
    terms["1"] = coeffs[0]
    for s in spec.singularities:
        terms[f"pole@{s.location:g}"] = -s.exponent * spec.Q(s.location)
    return {k: v for k, v in terms.items() if v != 0.0 or k in ("z^1", "1")}


def reference_bae_terms(spec: ModelSpec) -> dict | None:
    """Commonly quoted closed-form BAE for families with a printed version.

    Returns None when no transcription is known for the model's shape. The
    returned table uses the same keys as residue_bae_terms, so the two can
    be diffed term by term.
    """
    P, Q = spec.P, spec.Q
    q0, q1, q2 = Q.coeff(0), Q.coeff(1), Q.coeff(2)
    sings = spec.singularities
    if not sings:
        terms = {f"z^{i}": P.coeff(i) for i in range(2, P.degree + 1)}
        terms["z^1"] = P.coeff(1) - q2 / 2.0
        terms["1"] = P.coeff(0) - q1 / 4.0
        return terms
    if len(sings) == 1 and abs(sings[0].location) < 1e-12:
        mu = sings[0].exponent
        terms = {f"z^{i}": P.coeff(i) for i in range(2, P.degree + 1)}
        terms["z^1"] = P.coeff(1) - (mu + 0.5) * q2
        terms["1"] = P.coeff(0) - (mu + 0.25) * q1
        terms["pole@0"] = mu * q0
        return terms
    if (len(sings) == 2 and abs(q0) < 1e-12 and abs(q2 + q1) < 1e-12
            and {round(s.location, 9) for s in sings} == {0.0, 1.0}
            and abs(P.coeff(0)) < 1e-12 and abs(P.coeff(2) + P.coeff(1)) < 1e-12
            and P.degree == 2):
        # Trigonometric interval family: Q = q1*z*(1-z), P = p2*z*(z-1).
        a = P.coeff(2) / 4.0
        mus = {round(s.location, 9): s.exponent for s in sings}
        p1, p2 = mus[0.0], mus[1.0]
        return {"z^2": 4.0 * a,
                "z^1": -2.0 * (2.0 * (a - p1 - p2) - 1.0),
                "1": -1.0}
    return None


def bae_comparison(spec: ModelSpec) -> dict:
    """Residue-derived vs. quoted-reference BAE, with per-term differences."""
    res = residue_bae_terms(spec)
    ref = reference_bae_terms(spec)
    out = {"residue": res, "reference": ref, "diff": None}
    if ref is not None:
        keys = sorted(set(res) | set(ref))
        diff = {k: ref.get(k, 0.0) - res.get(k, 0.0) for k in keys}
        out["diff"] = {k: v for k, v in diff.items() if abs(v) > 1e-12}
    return out
