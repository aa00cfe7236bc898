"""Bethe ansatz equations: residual, Newton solver, branch enumeration.

The residual is derived from the vanishing-residue requirement on the
root poles of the potential:

    F_k = P(z_k) - Q'(z_k)/4
          - Q(z_k) * [ sum_{l != k} 1/(z_k - z_l) + sum_j mu_j/(z_k - a_j) ]

This residue form is the implementation's ground truth. Commonly quoted
closed forms for specific families disagree with it in two places (the sign
of the mu*q0/z_k term when q0 != 0, and the constant of the two-singularity
trigonometric family); reference_bae_terms exposes those transcriptions so
the derive command can print a term-by-term diff, and the finite-difference
certification in the verify module arbitrates.

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
Delta-operators of k fixed compressions (Hochstenbach, Kosir and
Plestenjak) as the standard eigenproblem of Delta_0^-1 Delta_c. Every
real eigen-solution of exact degree N that gives a real start (_starts)
gets one Newton polish from its roots, which come from one stacked
companion-matrix eigenvalue call. The polishes run in lock step as the rows of one damped
Newton (solve_many): residuals of shape (B, N), Jacobians (B, N, N) and one
batched linear solve per iteration, with each row's line search, polish
phase and error its own. Only numpy runs here.

A branch is real: each level's eigenfunction is built from the real zeros
of its polynomial y, so enumeration seeks real roots only, and Newton and
the energy run in real arithmetic throughout.
"""

from __future__ import annotations

import functools
import itertools
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
# A compressed-problem solution w solves the rectangular one when
# M0 + sum_j w_j S_j has sigma_min below this fraction of sigma_max.
RANK_TOL = 1e-7
# Cap on (N+1)^k. Past type-2 N = 10 (order 121) the k = 2 rank test loses
# solutions: 201 of 231 at N = 20 (a = 1, b = -3), the real one among them.
MAX_ORDER = 121
COMPRESSION_SEED = 0  # fixed compressions keep the k >= 2 results deterministic
MAX_ITER = 80  # Newton steps to reach tol
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


def _pair_inverses(roots: np.ndarray, singularities) -> tuple:
    """For rows of roots, shape (B, N): (inv, bad). bad is None when no row
    collides, else the mask of the rows in which two roots, or a root and
    a singularity, are closer than COLLISION_TOL. inv holds the matrices
    1/(z_k - z_l) with zero diagonal of the other rows, shape (B', N, N);
    a colliding row's matrix is not computed."""
    B, n = roots.shape
    diff = roots[:, :, None] - roots[:, None, :]
    diff.reshape(B, n * n)[:, ::n + 1] = np.inf
    close = np.abs(diff) < COLLISION_TOL
    near = [s for s in singularities if (np.abs(roots - s.location) < COLLISION_TOL).any()]
    if not (near or close.any()):
        return 1.0 / diff, None
    bad = close.any(axis=(1, 2))
    for s in near:
        bad |= np.min(np.abs(roots - s.location), axis=1) < COLLISION_TOL
    return 1.0 / diff[~bad], bad


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


def _evaluate(spec: ModelSpec, polys: tuple, roots: np.ndarray, inv: np.ndarray) -> list:
    """[F, inv, S, Q(z), Q'(z)] of every row of roots (B, N), given their
    pair inverses inv: the residual and the terms the Jacobian at the same
    roots shares with it."""
    P, Q, _, dQ = polys
    S = inv.sum(axis=2)
    for s in spec.singularities:
        S = S + s.exponent / (roots - s.location)
    q, dq = Q(roots), dQ(roots)
    return [P(roots) - dq / 4.0 - q * S, inv, S, q, dq]


def _jacobians(spec: ModelSpec, polys: tuple, roots: np.ndarray, ev: list) -> np.ndarray:
    """dF_k/dz_j of every row of roots (B, N), from their _evaluate terms."""
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


def _checked(spec: ModelSpec, roots) -> tuple:
    """Rows of roots, as floats or complex numbers, their _polys and their
    _evaluate terms; raises the CollisionError of the first row that
    collides."""
    roots = np.asarray(roots)
    roots = roots.astype(np.result_type(roots, 1.0), copy=False)
    inv, bad = _pair_inverses(roots, spec.singularities)
    if bad is not None:
        raise _collision(roots[np.argmax(bad)], spec.singularities)
    polys = _polys(spec)
    return roots, polys, _evaluate(spec, polys, roots, inv)


def residuals(spec: ModelSpec, roots) -> np.ndarray:
    """Residue-derived Bethe ansatz residual of each row of roots, shape
    (B, N), in one array pass. Raises the CollisionError of the first row
    in which two roots, or a root and a singularity, are closer than
    COLLISION_TOL."""
    return _checked(spec, roots)[2][0]


def residual(spec: ModelSpec, roots) -> np.ndarray:
    """Residue-derived Bethe ansatz residual F_k (length N) of one vector
    of roots: residuals' row, bit for bit."""
    return residuals(spec, np.asarray(roots)[None])[0]


def jacobian(spec: ModelSpec, roots) -> np.ndarray:
    """Analytic Jacobian dF_k/dz_j of the residual at one vector of roots,
    the batched Newton's row. Raises CollisionError as residual does."""
    roots, polys, ev = _checked(spec, np.asarray(roots)[None])
    return _jacobians(spec, polys, roots, ev)[0]


def branch_energy(spec: ModelSpec, roots) -> float:
    """Energy extracted from the constant part of the pole-free potential shift.

    E = 2 p3 sum z_k^2 + 2 p2 sum z_k + 2 p1 N - q2 N^2 - 2 q2 N sum_j mu_j
    """
    t = _energy_terms(spec, np.asarray(roots))
    return float(t[0] + t[1] + t[2] + t[3] + t[4])


def _energy_terms(spec: ModelSpec, roots: np.ndarray) -> tuple:
    """The terms of branch_energy's sum, in its order."""
    N = spec.N
    p1, p2, p3 = spec.P.coeff(1), spec.P.coeff(2), spec.P.coeff(3)
    q2 = spec.Q.coeff(2)
    smu = sum(s.exponent for s in spec.singularities)
    return (2.0 * p3 * np.sum(roots ** 2), 2.0 * p2 * np.sum(roots), 2.0 * p1 * N,
            -q2 * N * N, -2.0 * q2 * N * smu)


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


def solve_many(spec: ModelSpec, inits, tol: float = 1e-12) -> list:
    """Damped Newton iteration from every row of inits, real starts of
    shape (B, N), in lock step: per row, in order, its BetheBranch (roots
    ascending) or the CollisionError or ConvergenceError that stopped it.
    ValueError for complex starts or another shape.

    Each iteration stacks the Jacobians of all running rows, (B, N, N), and
    solves them in one batched np.linalg.solve call; the line-search trials
    of all rows still searching are one residual evaluation. Every row does
    exactly the arithmetic it would do alone.

    Per row, steps are halved whenever the residual norm fails to decrease
    or any pair of roots (or a root and a singularity) comes within the
    collision tolerance. A start that collides gives CollisionError;
    stagnation, iteration exhaustion or a singular Jacobian give
    ConvergenceError.

    Once below tol a row keeps polishing as long as its residual strictly
    improves (up to POLISH_ITER extra steps): for simple roots that is one
    or two steps to the machine floor, while for degenerate root
    configurations (where |F| < tol admits a wide ball) the linear tail of
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
    sings, polys = spec.singularities, _polys(spec)

    def _trial(trial):
        """Max residual norms of the trial rows, and the _evaluate terms of
        the rows ok (a mask, or every row) that are finite and collide with
        nothing; the other rows' norm is inf, a rejected step. A step that
        overshoots far enough for the residual to overflow gets norm inf or
        nan, also a rejected step."""
        ok = slice(None)
        if not np.isfinite(trial).all():
            ok = np.isfinite(trial).all(axis=1)
        with np.errstate(over="ignore", invalid="ignore"):
            inv_t, bad = _pair_inverses(trial[ok], sings)
            if bad is not None:
                ok = np.isfinite(trial).all(axis=1)
                ok[ok] = ~bad
            ev_t = _evaluate(spec, polys, trial[ok], inv_t)
        if isinstance(ok, slice):
            return np.abs(ev_t[0]).max(axis=1), ev_t, ok
        nt = np.full(len(trial), np.inf)
        nt[ok] = np.abs(ev_t[0]).max(axis=1)
        return nt, ev_t, ok

    inv, bad = _pair_inverses(z, sings)
    idx = np.arange(len(z))  # the running rows' index in out
    if bad is not None:
        for i in np.flatnonzero(bad):
            out[i] = _collision(z[i], sings)
        idx, z = idx[~bad], z[~bad]
    ev = _evaluate(spec, polys, z, inv)  # [F, inv, S, Q(z), Q'(z)] of the running rows
    norm = np.abs(ev[0]).max(axis=1)
    converged_at = np.full(len(idx), -1)

    def _finish(stop, error=None):
        """Record the rows in stop (a mask) and drop them from the state;
        a row gets its branch when it has converged, else error(row).
        Returns the mask of the rows kept."""
        nonlocal idx, z, norm, converged_at, ev
        for j in np.flatnonzero(stop):
            if converged_at[j] >= 0:
                out[idx[j]] = BetheBranch(tuple(np.sort(z[j], kind="stable").tolist()),
                                          float(norm[j]), int(converged_at[j]))
            else:
                out[idx[j]] = error(j)
        keep = ~stop
        idx, z, norm, converged_at = idx[keep], z[keep], norm[keep], converged_at[keep]
        ev = [a[keep] for a in ev]
        return keep

    for it in range(MAX_ITER + POLISH_ITER):
        if not len(idx):
            break
        # A row polishes from the iteration its norm first drops below tol;
        # its norm only decreases from then on, so it stays below.
        polishing = norm < tol
        if polishing.any():
            converged_at[polishing & (converged_at < 0)] = it
            stop = polishing & ((norm == 0.0) | (it - converged_at >= POLISH_ITER))
            if stop.any():
                polishing = polishing[_finish(stop)]
                if not len(idx):
                    break
            bar = np.where(polishing, 0.5 * norm, norm)
        else:
            bar = norm
        J = _jacobians(spec, polys, z, ev)
        dz, singular = _newton_steps(J, -ev[0])
        if singular is not None:
            keep = _finish(singular, lambda j: ConvergenceError(
                f"singular Jacobian (cond ~ {np.linalg.cond(J[j]):.2e})"))
            dz, polishing, bar = dz[keep], polishing[keep], bar[keep]
        # Line search, every row at once: alpha = 1, 1/2, 1/4, ... A polishing
        # row demands a strong decrease (below bar, half its norm) at alpha =
        # 1 or 1/2 or stops (which keeps the degenerate-root tail alive and
        # exits simple roots at once); any other row takes any decrease
        # while alpha > 1e-12.
        trial = z + dz  # alpha = 1
        nt, ev_t, ok = _trial(trial)
        took = nt < bar
        if took.all():
            z, norm, ev = trial, nt, ev_t
            continue
        searching = np.arange(len(idx))
        moved = np.zeros(len(idx), dtype=bool)
        alpha = 1.0
        while True:
            rows = searching[took]
            moved[rows] = True
            z[rows], norm[rows] = trial[took], nt[took]
            for a, b in zip(ev, ev_t):
                a[rows] = b[took[ok]]
            searching = searching[~took]
            if alpha == 0.5:
                searching = searching[~polishing[searching]]
            alpha *= 0.5
            if not (alpha > 1e-12 and len(searching)):
                break
            trial = z[searching] + alpha * dz[searching]
            nt, ev_t, ok = _trial(trial)
            took = nt < bar[searching]
        if not moved.all():
            _finish(~moved, lambda j: ConvergenceError(
                f"line search stalled at residual {norm[j]:.2e} after {it} iterations"))
    else:
        _finish(np.ones(len(idx), dtype=bool), lambda j: ConvergenceError(
            f"no convergence in {MAX_ITER} iterations (residual {norm[j]:.2e})"))
    return out


def solve(spec: ModelSpec, init, tol: float = 1e-12) -> BetheBranch:
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
    without promoted walls v_0 = E (branch_energy). Column n holds
    (n(n-1) a_{j+2} + n b_{j+1}) s^j at row n + j, for j = -2..d.

    s balances the bands. Like _root_scale it is a Cauchy-type bound, here
    on the band maxima against the band with the highest power of s, and
    it is never below _root_scale. It keeps the eigenvectors' roots O(1)
    in z/s. ModelError when (N+1)^k exceeds MAX_ORDER, before any work, and
    when a power of s overflows (s past about 1e154: a P many orders of
    magnitude below Q, such as P = 3e-251 over Q = 1).
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
        for j, band in enumerate(bands, start=-2):
            cols = np.arange(max(0, -j), min(N + 1, N + k - j))
            M0[cols + j, cols] = (band / s ** -j if j < 0 else band * s ** j)[cols]
    except OverflowError:
        raise ModelError(f"P and Q span too wide a range of scales: the eigenproblem's "
                         f"basis scale s = {s:.3g} overflows") from None
    # eig's output depends on the sign of zeros: + 0.0 makes every -0.0 a 0.0
    return M0 + 0.0, s


def _delta_operators(M0: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Atkinson's Delta_0 and Delta_1..Delta_k of (M0 + sum_j w_j S_j) y = 0.

    k fixed compressions C_i ((N+1) x (N+k)) give the square problems
    (C_i M0 + sum_j w_j C_i S_j) x_i = 0, where C_i S_j is columns j..j+N of
    C_i. Delta_0 is the Kronecker determinant of the C_i S_j, and Delta_j
    has column j replaced by -C_i M0, so Delta_j z = w_j Delta_0 z for
    z = x_1 (x) ... (x) x_k. Every solution of the rectangular problem
    solves the compressed one with x_i = y; _rank_deficient drops the
    compressed one's further solutions.
    """
    n, k = M0.shape[1], M0.shape[0] - M0.shape[1] + 1
    C = np.random.default_rng(COMPRESSION_SEED).standard_normal((k, n, n + k - 1))
    cols = [[Ci[:, j:j + n] for Ci in C] for j in range(k)]

    def kron_det(cols):
        return sum((-1) ** sum(p[j] > p[i] for i in range(k) for j in range(i))
                   * functools.reduce(np.kron, [cols[p[i]][i] for i in range(k)])
                   for p in itertools.permutations(range(k)))

    minus_a = [-Ci @ M0 for Ci in C]
    return kron_det(cols), [kron_det(cols[:j] + [minus_a] + cols[j + 1:]) for j in range(k)]


def _rank_deficient(M0: np.ndarray) -> list[np.ndarray]:
    """Null vectors y of M0 + sum_j w_j S_j over the real solutions w, k >= 2.

    The eigenvectors z of Delta_0^-1 Delta_c, Delta_c a fixed combination
    of the Delta_j (distinct eigenvalues even where solutions share a w_j),
    give the candidates, and w_j follows from each z by least squares on
    Delta_j z = w_j Delta_0 z. Delta_0 depends only on (N, k) and the fixed
    compressions, and its condition number stays below 5e4 wherever
    MAX_ORDER admits (N, k), so the standard eigenproblem stands in for the
    generalized one. A real solution w has the real eigenvalue c . w, which
    LAPACK returns with imaginary part exactly 0 as for k = 1, so only those
    eigenvectors are candidates. A candidate is kept when its rectangular
    matrix has sigma_min <= RANK_TOL sigma_max; y is that singular vector.
    """
    N1, k = M0.shape[1], M0.shape[0] - M0.shape[1] + 1
    D0, Ds = _delta_operators(M0)
    c = np.random.default_rng(COMPRESSION_SEED).standard_normal(k)
    lam, Z = np.linalg.eig(np.linalg.solve(D0, sum(cj * Dj for cj, Dj in zip(c, Ds))))
    Z = Z[:, lam.imag == 0.0]
    d0 = D0 @ Z
    norm = np.einsum("ij,ij->j", d0.conj(), d0).real
    w = np.array([np.einsum("ij,ij->j", d0.conj(), Dj @ Z) for Dj in Ds]).T / norm[:, None]
    M = np.repeat(M0[None].astype(complex), len(w), axis=0)
    cols = np.arange(N1)
    for j in range(k):
        M[:, cols + j, cols] += w[:, j, None]
    _, sv, Vh = np.linalg.svd(M)
    return list(Vh[sv[:, -1] <= RANK_TOL * sv[:, 0], -1].conj())


def _roots(coeffs: list[np.ndarray]) -> list[np.ndarray]:
    """np.roots(c[::-1]) of each ascending coefficient vector c, bit for
    bit, for c with a nonzero top coefficient.

    Like np.roots, a zero constant term (and any run of zeros above it) is
    stripped from the companion matrix and its roots come back as exact
    zeros at the end. The companion matrices of one dtype and size are
    stacked into one np.linalg.eigvals call, which runs the same LAPACK
    routine on each as np.roots would; a real c's roots are real when all
    of its own imaginary parts are 0.
    """
    out: list = [None] * len(coeffs)
    groups: dict[tuple, list[int]] = {}
    for i, c in enumerate(coeffs):
        size = len(c) - 1 - int(np.flatnonzero(c)[0])  # degree without the zero roots
        groups.setdefault((c.dtype, size), []).append(i)
    for (dtype, size), members in groups.items():
        w = np.zeros((len(members), 0))
        if size:
            p = np.array([coeffs[i][::-1][:size + 1] for i in members])
            A = np.zeros((len(members), size, size), dtype)
            A[:, np.arange(1, size), np.arange(size - 1)] = 1
            A[:, 0, :] = -p[:, 1:] / p[:, :1]
            w = np.linalg.eigvals(A)
        for i, wi in zip(members, w):
            if not np.iscomplexobj(coeffs[i]) and not wi.imag.any():
                wi = wi.real
            out[i] = np.hstack((wi, np.zeros(len(coeffs[i]) - 1 - size, wi.dtype)))
    return out


def _starts(M0: np.ndarray, s: float) -> list[np.ndarray]:
    """Real Newton starts, ascending: the roots (times s) of every real
    eigen-solution y of exact degree N, taken from one batch (_roots).

    k = 1: the eigenvectors of the square M0's real eigenvalues. Each such
    y is real and gets a real start: np.roots may return a close real pair
    as a +- ib (b = 0.014 in z/s at trig-interval N = 15), and a +- b is
    the better start. k >= 2 (_rank_deficient): y starts only when its
    roots are real to REAL_TOL.
    """
    square = M0.shape[0] == M0.shape[1]
    if square:
        lam, vec = np.linalg.eig(M0)
        cands = [vec[:, i].real for i in range(len(lam)) if lam[i].imag == 0.0]
    else:
        cands = _rank_deficient(M0)
    cands = [c for c in cands if abs(c[-1]) > DEGREE_TOL * np.max(np.abs(c))]
    return [s * np.sort(w.real + w.imag) for w in _roots(cands)
            if square or np.max(np.abs(w.imag)) <= REAL_TOL]


def _energy_order(spec: ModelSpec, found: list[BetheBranch]) -> list[BetheBranch]:
    """found by extracted energy. A run of branches whose energies agree
    within ENERGY_TIE_ULPS ulps of the largest term of branch_energy's sum
    (mirror branches, whose E differ only by rounding) is ordered by its
    roots, so that no branch moves when E moves by an ulp."""
    keyed = []
    for br in found:
        roots = np.asarray(br.roots)
        tie = ENERGY_TIE_ULPS * np.spacing(max(map(abs, _energy_terms(spec, roots))))
        keyed.append((branch_energy(spec, roots), br.roots, tie, br))
    keyed.sort(key=lambda k: k[:2])
    out, run = [], []
    for e, roots, tie, br in keyed:
        if run and not e - run[-1][0] <= max(tie, run[-1][2]):
            out += sorted(run, key=lambda k: k[1])
            run = []
        run.append((e, roots, tie, br))
    out += sorted(run, key=lambda k: k[1])
    return [br for *_, br in out]


def enumerate_branches(spec: ModelSpec, tol: float = 1e-12) -> list[BetheBranch]:
    """Every real branch of the model's eigenproblem, sorted by extracted
    energy (energies equal but for rounding by roots, see _energy_order).

    Each real eigen-solution of _heine_matrix of exact degree N that gives
    a real start gets one Newton polish from its roots (_starts): the
    starts are the rows of one solve_many call, and polishes that collide or do not
    converge are dropped. For k >= 2, polishes within COLLISION_TOL of an
    earlier one (a multiple eigen-solution) are one branch. A model with k
    free parameters has at most C(N+k, k) solutions (N + 1 for k = 1),
    complex ones included. Raises ModelError when (N + 1)^k exceeds
    MAX_ORDER, or when the eigenproblem's scale overflows (_heine_matrix).

    The result is deterministic: nothing is random, and the compressions
    of the k >= 2 problem are fixed.
    """
    if spec.N == 0:
        return [BetheBranch((), 0.0, 0)]
    M0, s = _heine_matrix(spec)
    starts = _starts(M0, s)
    found: list[BetheBranch] = []
    for br in solve_many(spec, starts, tol=tol) if starts else []:
        if isinstance(br, (CollisionError, ConvergenceError)):
            continue
        # k >= 2: a multiple eigen-solution (sextic-type2 at b = 0, N = 1:
        # z^3 = 0) polishes to its branch once per multiplicity.
        roots = np.asarray(br.roots)
        if M0.shape[0] == M0.shape[1] or not any(
                np.max(np.min(np.abs(roots[:, None] - np.asarray(old.roots)), axis=1))
                < COLLISION_TOL for old in found):
            found.append(br)
    return _energy_order(spec, found)


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
