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

from ._util import hermitian_norm, parallel_map
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

def _resolvent_diffs(coeff, params, modes, xi, symbol, shifts,
                     floors=None) -> np.ndarray:
    """||(A(xi) + s)^-1 - diag(1 / (symbol + s))|| for each shift s.

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

    With per-shift `floors`, each norm is taken by
    ``hermitian_norm(res, floor)``: a lower bound that is exact whenever the
    norm reaches its shift's floor, so values below the floor may read less.
    """
    floors = np.zeros(len(shifts)) if floors is None else floors
    fiber = assemble_fiber_matrix(coeff, params, modes, xi)
    entries, z = fiber.entries, modes.zero_index
    if symbol[z] == 0.0 and not entries[z].any() and not entries[:, z].any():
        blocks = group_blocks(b[b != z] for idx in fiber.blocks for b in idx)
        fiber = FiberMatrix(entries, blocks)
    out = np.zeros(len(shifts))
    for idx, stack in zip(fiber.blocks, fiber.stacks):
        spectral = eig_hermitian(stack)
        lam, vec = spectral.eigenvalues[:, None, :], spectral.eigenvectors
        vec_h = vec.conj().swapaxes(-1, -2)
        diag = np.arange(idx.shape[1])
        for i, s in enumerate(shifts):
            res = (vec * (1.0 / (lam + s))) @ vec_h
            res[:, diag, diag] -= 1.0 / (symbol[idx] + s)
            out[i] = max(out[i], hermitian_norm(res, floors[i]))
    return out


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
    return float(_resolvent_diffs(coeff, params, modes, xi, symbol,
                                  [epsilon ** params.alpha])[0])


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
    certified: tuple                # (below floor, non-seed pairs) per pass
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

    Returns (values[n_shift], argmax_index[n_shift], (certified, pairs)).
    One point per mirror pair is solved (see `_mirror_representatives`) and
    its values are given to the mirror; the eigendecomposition at each
    solved xi is shared across shifts.

    The representatives of the `seeds` (grid indices) are solved first and
    exactly; each shift's floor is then their max, and every other point's
    norms are taken against those floors (see `hermitian_norm`).  A norm
    below its floor may read less than exact, but the floor is at most the
    column max, so the max and the first argmax over the grid-ordered table
    are the exhaustive sweep's, bit for bit.  The floors depend only on the
    seeds, so the result is scheduling-independent.  `certified` counts the
    `pairs` non-seed (point, shift) norms that came out below their floor.
    """
    mu0 = effective_mu(coeff)
    nshift = len(shifts)

    def solve(indices, floors=None):
        def per_xi(i):
            symbol = assemble_effective_fiber(params, mu0, modes, grid[i])
            return _resolvent_diffs(coeff, params, modes, grid[i], symbol,
                                    shifts, floors)
        return np.reshape(parallel_map(per_xi, indices, workers), (-1, nshift))

    rep = _mirror_representatives(grid)
    solved, where = np.unique(rep, return_inverse=True)
    seeded = np.isin(solved, rep[np.asarray(seeds, dtype=int)])
    values = np.empty((len(solved), nshift))
    values[seeded] = solve(solved[seeded])
    floors = values[seeded].max(axis=0, initial=0.0)
    values[~seeded] = solve(solved[~seeded], floors)
    certified = int(np.count_nonzero(values[~seeded] < floors))
    table = values[where]                                 # (nxi, nshift)
    return (table.max(axis=0), table.argmax(axis=0),
            (certified, values[~seeded].size))


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

    Each pass first solves seed points exactly, and their max floors the
    other norms (see `_sup_over_grid`): the origin at N, and at 2N the
    origin and the N pass's argmax points.
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
