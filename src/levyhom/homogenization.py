"""Resolvent discrepancy across the dual cell and convergence-rate fits.

The homogenization error at scale eps equals, after the exact scaling
identity, eps^alpha times the sup over quasimomenta of the fiber resolvent
difference at spectral shift eps^alpha.  The sup is approximated by a finite
grid with logarithmic refinement near xi = 0, where the threshold behavior
lives, and every study re-runs at doubled truncation to certify that the
Galerkin error is subdominant.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from ._util import UNIT_ROUNDOFF, hermitian_norm, parallel_map
from .coefficient import (RATE_TABLE, ModelParams, PeriodicCoefficient,
                          effective_mu, rate_function, rate_profile)
from .config import _validate_epsilons
from .errors import DegenerateFit, TruncationUnstable
from .fiber import (FiberMatrix, ModeSet, assemble_effective_fiber,
                    assemble_fiber_matrix, group_blocks)
from .spectral import eig_hermitian

log = logging.getLogger(__name__)

# near these exponents the theory's constants blow up; slope verdicts widen
SINGULAR_ALPHA_BANDS = ((0.95, 1.05), (1.90, 2.00))


def slope_widening(alpha: float) -> float:
    """Extra slope tolerance near the singular exponents (0.05 or 0)."""
    for lo, hi in SINGULAR_ALPHA_BANDS:
        if lo < alpha < hi:
            return 0.05
    return 0.0


# ----------------------------------------------------------------------
# Resolvent differences
# ----------------------------------------------------------------------

def _eig_route_norms(stack, sigma, shifts, floors) -> np.ndarray:
    """Per-shift ||(A + s)^-1 - diag(1 / (sigma + s))|| on a block stack.

    `stack` is (count, n, n), `sigma` (count, n).  One eigendecomposition
    serves every shift; each norm is ``hermitian_norm(res, floor)``.
    """
    spectral = eig_hermitian(stack)
    lam, vec = spectral.eigenvalues[:, None, :], spectral.eigenvectors
    vec_h = vec.conj().swapaxes(-1, -2)
    diag = np.arange(stack.shape[-1])
    out = np.zeros(len(shifts))
    for i, s in enumerate(shifts):
        res = (vec * (1.0 / (lam + s))) @ vec_h
        res[:, diag, diag] -= 1.0 / (sigma + s)
        out[i] = hermitian_norm(res, floors[i])
    return out


def _below_floors(stack, sigma, shifts, floors) -> bool:
    """True when two Cholesky factorizations show, for every shift s, that
    ||R|| = ||(A + s)^-1 - (D + s)^-1|| lies so far below its floor that the
    eig route (:func:`_eig_route_norms`) would also have read it below.

    `stack` is (count, n, n) with A positive semidefinite, `sigma` (count, n)
    the finite, nonnegative diagonal of D, and every floor positive.

    The test.  With e = sigma + s and K = A - D, inversion reverses the
    Loewner order (Bhatia, Matrix Analysis, ch. V), so R < t holds exactly
    when A + s > diag(e / (1 + t e)), that is when
    K + diag(t e^2 / (1 + t e)) > 0.  Likewise R > -t holds when
    A + s < diag(e / (1 - t e)), that is -K + diag(t e^2 / (1 - t e)) > 0,
    provided every t e < 1.  A mode with t e >= 1 has 1/e - t <= 0 on the
    diagonal of (D + s)^-1 - t, so it is dropped: its row and column of -K
    become the identity's, and the rest is the principal block on the kept
    modes J.  That still suffices, since (A + s)^-1 dominates the inverse of
    its J block padded with zeros (the block inverse formula).  Both
    diagonals grow with t and with e, so their elementwise min over the
    shifts certifies every shift at once: one pair of factorizations.

    The allowance on t.  Let nu = (n + 1)(n + 2) u, u the unit roundoff.
    * Cholesky.  A factorization that completes on S is exact for S + E with
      |E_ij| <= gamma_{n+1} |R|^T |R| <= gamma_{n+1} sqrt(S_ii S_jj)
      (Higham, Accuracy and Stability, Thm 10.5), and such an E is at least
      -n gamma_{n+1} diag(S_ii).  With the rounding of K and of the
      diagonals, each factorization that succeeds certifies its matrix up to
      a relief of nu (|K_jj| + m_j) on the diagonal, m the added diagonal.
      On the first matrix that leaves A + s >= diag(z) with
      z = e - m1 - nu (|K_jj| + m1), so lambda_1(A) + s >= l = min z (Weyl),
      and R <= t + nu max (|K_jj| + m1) / z^2 after the inversion.  On the
      second it leaves R >= -t - nu (|K_jj| / e^2 + 1 / e), and e >= z.
    * The eig route.  eigh is exact for a matrix within p u ||A|| of A, p a
      modest function of n (LAPACK Users' Guide, sec. 4.7) taken here as at
      most nu / u; mapped through the inversion that is nu ||A|| / l^2.  The
      eigenvectors' departure from orthonormality, the GEMMs, the diagonal
      subtraction and eigvalsh add at most 4 nu / l.
    So with delta = nu [max (|K_jj| + m1) / z^2 + ||A||_inf / l^2 + 5 / l
    + floor], where the last term covers the rounding of t and of m, and
    t = floor - 2 delta, a certified norm is below t + delta and the eig
    route reads it below floor: the max and the first argmax of the sweep
    keep their bits.  delta is taken at t = floor, where m1 is largest and
    z smallest, so it bounds the allowance at the smaller t.  It is
    amplified by 1 / l^2, with l about min e / (1 + t min e), never by
    1 / s^2.
    """
    n = stack.shape[-1]
    nu = (n + 1) * (n + 2) * UNIT_ROUNDOFF
    diag = np.arange(n)
    e = sigma + np.asarray(shifts)[:, None, None]   # (shift, block, mode)
    k = stack.copy()
    k[:, diag, diag] -= sigma
    k_diag = k[:, diag, diag].real
    a_norm = np.max(np.sum(np.abs(stack), axis=-1))

    def upper(t):
        t = t[:, None, None]
        return np.min(t * e * e / (1.0 + t * e), axis=0)

    m1 = upper(floors)
    z = e - m1 - nu * (np.abs(k_diag) + m1)
    if np.any(z <= 0.0):
        return False
    ell = np.min(z, axis=(1, 2))
    delta = nu * (np.max((np.abs(k_diag) + m1) / z ** 2, axis=(1, 2))
                  + a_norm / ell ** 2 + 5.0 / ell + floors)
    t = floors - 2.0 * delta
    if np.any(t <= 0.0):
        return False
    te = t[:, None, None] * e
    with np.errstate(divide="ignore"):
        m2 = np.min(np.where(te < 1.0, te * e / (1.0 - te), np.inf), axis=0)
    kept = np.isfinite(m2)
    k[:, diag, diag] += upper(t)
    try:
        np.linalg.cholesky(k)
        second = -stack * (kept[:, :, None] & kept[:, None, :])
        second[:, diag, diag] = np.where(kept, m2 - k_diag, 1.0)
        np.linalg.cholesky(second)
    except np.linalg.LinAlgError:
        return False
    return True


def _resolvent_diffs(coeff, params, modes, xi, symbol, shifts, floors=None):
    """||(A(xi) + s)^-1 - diag(1 / (symbol + s))|| for each shift s.

    Returns (norms, skipped): skipped is True when no eigensolve ran.

    `symbol` is the comparator's diagonal; an entry of inf removes that mode
    from the comparator, since 1 / (inf + s) is exactly 0.  Both operators
    are block-diagonal on the fiber's coupling blocks, so the difference is
    too and its norm is the max over the blocks.  One eigendecomposition per
    block group serves every shift.

    At xi = 0 the zero mode's row and column of A vanish exactly, and with a
    zero symbol the mode's exact contribution is 1/s - 1/s = 0.  It is
    dropped from its block before the eigensolve, which would otherwise
    leave a rounding error of about u ||A|| / s^2 on it (u the unit
    roundoff).

    With positive per-shift `floors` (which need a finite `symbol`), each
    block group first tries :func:`_below_floors`; a group it certifies gives
    zeros and skips the eigensolve.  Otherwise each norm is taken by
    ``hermitian_norm(res, floor)``.  Either way a norm is a lower bound that
    is exact whenever it reaches its shift's floor, so values below the
    floor may read less.
    """
    floors = np.zeros(len(shifts)) if floors is None else np.asarray(floors)
    try_pair = np.all(floors > 0.0)
    fiber = assemble_fiber_matrix(coeff, params, modes, xi)
    entries, z = fiber.entries, modes.zero_index
    if symbol[z] == 0.0 and not entries[z].any() and not entries[:, z].any():
        blocks = group_blocks(b[b != z] for idx in fiber.blocks for b in idx)
        fiber = FiberMatrix(entries, blocks)
    out = np.zeros(len(shifts))
    skipped = True
    for idx, stack in zip(fiber.blocks, fiber.stacks):
        sigma = symbol[idx]
        if try_pair and _below_floors(stack, sigma, shifts, floors):
            continue
        skipped = False
        out = np.maximum(out, _eig_route_norms(stack, sigma, shifts, floors))
    return out, skipped


def threshold_resolvent_diff(
    coeff: PeriodicCoefficient,
    params: ModelParams,
    modes: ModeSet,
    xi,
    epsilon: float,
) -> float:
    """||(A(xi) + eps^a I)^-1 - (mu0 V(xi) + eps^a)^-1 P|| (rank-1 comparator)."""
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    effective = assemble_effective_fiber(params, effective_mu(coeff), modes, xi)
    symbol = np.full(modes.size, np.inf)
    symbol[modes.zero_index] = effective[modes.zero_index]
    norms, _ = _resolvent_diffs(coeff, params, modes, xi, symbol,
                                [epsilon ** params.alpha])
    return float(norms[0])


# ----------------------------------------------------------------------
# Rate study
# ----------------------------------------------------------------------

def loglog_slope(x, values) -> tuple[float, float]:
    """OLS slope and r^2 of log(values) against log(x); needs 8+ positive points."""
    x = np.asarray(x, dtype=float)
    val = np.asarray(values, dtype=float)
    pos = (val > 0.0) & (x > 0.0)
    if int(pos.sum()) < 8:
        raise DegenerateFit(f"need >= 8 positive points, got {int(pos.sum())}")
    y = np.log(val[pos])
    if float(np.max(y) - np.min(y)) == 0.0:
        raise DegenerateFit("all values equal; slope undefined")
    coef = np.polyfit(np.log(x[pos]), y, 1)
    fitted = np.polyval(coef, np.log(x[pos]))
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(coef[0]), r2


def slope_check(x, values, alpha: float, quantity: str,
                margin: float) -> tuple[float, float]:
    """Log-log slope of `values` against the rate of `quantity`, and its floor.

    The margin widens by `slope_widening(alpha)` near the singular exponents.
    A pure power x^p is fitted against x and must reach p less the margin
    and the quantity's extra; a log-corrected profile is fitted against the
    profile itself and must reach 1 less the margin.
    """
    margin = margin + slope_widening(alpha)
    p, q = rate_profile(alpha, quantity)
    if q:
        slope, _ = loglog_slope(rate_function(alpha, quantity, x), values)
        return slope, 1.0 - margin
    *_, extra = RATE_TABLE[quantity]
    slope, _ = loglog_slope(x, values)
    return slope, p - (margin + extra)


@dataclass(frozen=True, eq=False)
class RateStudyResult:
    """Per-epsilon discrepancies, slope fits, and stability certificates."""

    alpha: float
    epsilons: np.ndarray            # descending
    discrepancies: np.ndarray
    argmax_xi_norm: np.ndarray
    bound_ratios: np.ndarray
    fitted_slope: float | None
    r_squared: float | None
    log_corrected_slope: float | None
    truncation_stability: float
    exact: bool                     # discrepancy identically zero
    solved_points: int              # grid points solved per pass
    certified: tuple                # per pass: (below floor, non-seed
                                    # pairs, points with no eigensolve)
    warnings: tuple


def _mirror_representatives(grid) -> np.ndarray:
    """For each grid point, the index of the first point in grid order that
    is it or its mirror -xi (bit for bit; -0.0 == 0.0 pairs axis points).

    A certified coefficient is real, so A(-xi) is the reflection n -> -n of
    conj A(xi), and the effective fiber reflects the same way: the resolvent
    difference has the same norm at xi and -xi.
    """
    first: dict = {}
    rep = np.empty(len(grid), dtype=int)
    for i, xi in enumerate(grid):
        key = tuple(float(v) for v in xi)
        rep[i] = first.get(tuple(-v for v in key), i)
        first[key] = i
    return rep


def _sup_over_grid(coeff, params, modes, grid, shifts, workers, seeds=()):
    """Per-shift max of the fiber resolvent difference over the grid.

    Returns (values[n_shift], argmax_index[n_shift],
    (certified, pairs, skipped)).  One point per mirror pair is solved (see
    `_mirror_representatives`) and its values are given to the mirror; the
    eigendecomposition at each solved xi is shared across shifts.

    The representatives of the `seeds` (grid indices) are solved first and
    exactly.  The other representatives follow in grid order, in waves of
    2, 4, 8, ... points, and each wave's norms are taken against floors
    equal to the running max of everything solved before it (see
    `_resolvent_diffs`).  A norm below its floor may read less than exact,
    but the floor is at most the column max, so the max and the first
    argmax over the grid-ordered table are the exhaustive sweep's, bit for
    bit.  The waves depend only on grid indices, so the result is
    scheduling-independent.  `certified` counts the `pairs` non-seed
    (point, shift) norms that came out below their floor, and `skipped` the
    solved points that needed no eigensolve.
    """
    mu0 = effective_mu(coeff)
    nshift = len(shifts)

    def solve(indices, floors=None):
        def per_xi(i):
            symbol = assemble_effective_fiber(params, mu0, modes, grid[i])
            return _resolvent_diffs(coeff, params, modes, grid[i], symbol,
                                    shifts, floors)
        results = parallel_map(per_xi, indices, workers)
        values = np.reshape([norms for norms, _ in results], (-1, nshift))
        return values, sum(skipped for _, skipped in results)

    rep = _mirror_representatives(grid)
    solved, where = np.unique(rep, return_inverse=True)
    seeded = np.isin(solved, rep[np.asarray(seeds, dtype=int)])
    values = np.empty((len(solved), nshift))
    values[seeded], _ = solve(solved[seeded])
    floors = values[seeded].max(axis=0, initial=0.0)
    rest = np.flatnonzero(~seeded)
    certified = skipped = 0
    start, size = 0, 2
    while start < len(rest):
        wave = rest[start:start + size]
        values[wave], wave_skipped = solve(solved[wave], floors)
        certified += int(np.count_nonzero(values[wave] < floors))
        skipped += wave_skipped
        floors = np.maximum(floors, values[wave].max(axis=0))
        start, size = start + size, 2 * size
    table = values[where]                                 # (nxi, nshift)
    return (table.max(axis=0), table.argmax(axis=0),
            (certified, len(rest) * nshift, skipped))


def discrepancy_study(
    coeff: PeriodicCoefficient,
    params: ModelParams,
    modes: ModeSet,
    grid: tuple,
    epsilons,
    workers: int | None = 1,
) -> RateStudyResult:
    """Measure the scaled resolvent discrepancy and fit its decay rate.

    For each eps the discrepancy is eps^alpha times the max of the fiber
    resolvent difference at shift eps^alpha over the quasimomenta `grid`, a
    sequence of points such as ``XiGridSpec().points(dimension)``.  The study
    re-runs at doubled truncation and raises TruncationUnstable (result
    attached) when any discrepancy moves by more than 5%.  The coefficient
    must be certified (see :func:`certify`): its checked realness lets the
    study solve one point of each mirror pair xi, -xi.

    Each pass first solves seed points exactly, and the running max floors
    the other norms (see `_sup_over_grid`): the seeds are the origin at N,
    and at 2N the origin and the N pass's argmax points.
    """
    if not coeff.certified:
        raise ValueError("coefficient must be certified before a rate study")
    eps = _validate_epsilons(epsilons)
    alpha = params.alpha
    shifts = eps ** alpha

    warnings: list[str] = []
    if slope_widening(alpha) > 0.0:
        msg = (f"alpha={alpha} is near a singular exponent; theoretical "
               f"constants degrade and slope tolerances widen by 0.05")
        warnings.append(msg)
        log.warning(msg)

    sup_vals, arg_idx, certified = _sup_over_grid(coeff, params, modes, grid,
                                                  shifts, workers, seeds=(0,))
    disc = shifts * sup_vals
    argmax_norm = np.array([float(np.linalg.norm(grid[i])) for i in arg_idx])

    exact = bool(np.all(disc == 0.0))
    if exact:
        fitted = r2 = corrected = None
        ratios = np.zeros_like(disc)
    else:
        fitted, r2 = loglog_slope(eps, disc)
        bound = rate_function(alpha, "discrepancy", eps)
        log_corrected = rate_profile(alpha, "discrepancy")[1] > 0
        corrected = loglog_slope(bound, disc)[0] if log_corrected else None
        ratios = disc / bound

    double = ModeSet(params.dimension, 2 * modes.truncation)
    sup_d, _, certified_d = _sup_over_grid(coeff, params, double, grid, shifts,
                                           workers, seeds=(0, *arg_idx))
    disc_d = shifts * sup_d
    stability = _relative_change(disc, disc_d)

    result = RateStudyResult(
        alpha=alpha,
        epsilons=eps,
        discrepancies=disc,
        argmax_xi_norm=argmax_norm,
        bound_ratios=ratios,
        fitted_slope=fitted,
        r_squared=r2,
        log_corrected_slope=corrected,
        truncation_stability=stability,
        exact=exact,
        solved_points=len(np.unique(_mirror_representatives(grid))),
        certified=(certified, certified_d),
        warnings=tuple(warnings),
    )
    if stability > 0.05:
        raise TruncationUnstable(
            f"doubling the truncation moved discrepancies by {stability:.2%}",
            result=result,
        )
    return result


def _relative_change(base: np.ndarray, other: np.ndarray) -> float:
    change = 0.0
    for x, y in zip(base, other):
        if x == 0.0 and y == 0.0:
            continue
        change = max(change, abs(y - x) / max(abs(x), 1e-300))
    return change
