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
import math
from dataclasses import dataclass, field, replace

import numpy as np

from ._util import hermitian_norm, parallel_map
from .coefficient import (RATE_TABLE, ModelParams, PeriodicCoefficient,
                          effective_mu, rate_function, rate_profile)
from .config import XiGridSpec, _validate_epsilons
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


def rate_bound(alpha: float, eps: np.ndarray) -> np.ndarray:
    """Theoretical decay profile of the scaled discrepancy."""
    return rate_function(alpha, "discrepancy", eps)


# ----------------------------------------------------------------------
# Quasimomentum grid
# ----------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class XiGrid:
    """Deterministic cell covering: uniform lattice plus radial refinement.

    The points are built from the validated spec.  They always contain
    xi = 0 and are ordered deterministically: origin, uniform points in
    lexicographic order, then radial points by (radius, direction).
    """

    dimension: int
    spec: XiGridSpec
    points: tuple = field(init=False)

    def __post_init__(self):
        spec = self.spec
        spec.validate()
        dimension = self.dimension
        pts: list[np.ndarray] = [np.zeros(dimension)]
        seen = {tuple(pts[0])}

        n = spec.points_per_dim
        axis = -math.pi + 2.0 * math.pi * np.arange(n) / n
        mesh = np.stack(np.meshgrid(*([axis] * dimension), indexing="ij"), axis=-1)
        for row in mesh.reshape(-1, dimension):
            key = tuple(float(v) for v in row)
            if key not in seen:
                seen.add(key)
                pts.append(np.asarray(row, dtype=float))

        dirs = _grid_directions(dimension, spec.directions)
        for r in spec.radii():
            for v in dirs:
                xi = r * v
                if np.max(np.abs(xi)) >= math.pi:
                    continue
                key = tuple(float(x) for x in xi)
                if key not in seen:
                    seen.add(key)
                    pts.append(xi)
        object.__setattr__(self, "points", tuple(pts))

    def __len__(self) -> int:
        return len(self.points)

    def doubled(self) -> "XiGrid":
        spec = replace(self.spec, points_per_dim=2 * self.spec.points_per_dim,
                       radial_per_decade=2 * self.spec.radial_per_decade)
        return replace(self, spec=spec)


def _grid_directions(dimension: int, directions: str) -> list[np.ndarray]:
    dirs = [np.eye(dimension)[j] for j in range(dimension)]
    if directions == "axes+diagonals" and dimension > 1:
        dirs.append(np.ones(dimension) / math.sqrt(dimension))
    return [w for v in dirs for w in (v, -v)]


def build_xi_grid(dimension: int, **spec_fields) -> XiGrid:
    """Grid of ``XiGridSpec(**spec_fields)``; ValueError if the spec is invalid."""
    return XiGrid(dimension, XiGridSpec(**spec_fields))


# ----------------------------------------------------------------------
# Resolvent differences
# ----------------------------------------------------------------------

def _resolvent_diffs(coeff, params, modes, xi, symbol, shifts) -> np.ndarray:
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
    """
    fiber = assemble_fiber_matrix(coeff, params, modes, xi)
    entries, z = fiber.entries, modes.zero_index
    if symbol[z] == 0.0 and not entries[z].any() and not entries[:, z].any():
        blocks = group_blocks(b[b != z] for idx in fiber.blocks for b in idx)
        fiber = FiberMatrix.from_blocks(entries, blocks)
    out = np.zeros(len(shifts))
    for idx, stack in zip(fiber.blocks, fiber.stacks):
        spectral = eig_hermitian(stack)
        lam, vec = spectral.eigenvalues[:, None, :], spectral.eigenvectors
        vec_h = vec.conj().swapaxes(-1, -2)
        diag = np.arange(idx.shape[1])
        for i, s in enumerate(shifts):
            res = (vec * (1.0 / (lam + s))) @ vec_h
            res[:, diag, diag] -= 1.0 / (symbol[idx] + s)
            out[i] = max(out[i], hermitian_norm(res))
    return out


def _effective_symbol(coeff, params, modes, xi, epsilon):
    """Checked input of the public differences: the effective fiber's symbol."""
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    return assemble_effective_fiber(params, effective_mu(coeff), modes, xi)


def fiber_resolvent_diff(
    coeff: PeriodicCoefficient,
    params: ModelParams,
    modes: ModeSet,
    xi,
    epsilon: float,
) -> float:
    """Fiber resolvent difference against the effective fiber at shift eps^alpha.

    The full-operator inverse comes from the eigendecomposition, the
    effective one from the diagonal reciprocal.
    """
    symbol = _effective_symbol(coeff, params, modes, xi, epsilon)
    return float(_resolvent_diffs(coeff, params, modes, xi, symbol,
                                  [epsilon ** params.alpha])[0])


def threshold_resolvent_diff(
    coeff: PeriodicCoefficient,
    params: ModelParams,
    modes: ModeSet,
    xi,
    epsilon: float,
) -> float:
    """||(A(xi) + eps^a I)^-1 - (mu0 V(xi) + eps^a)^-1 P|| (rank-1 comparator)."""
    effective = _effective_symbol(coeff, params, modes, xi, epsilon)
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

    A pure power x^p is fitted against x and must reach p less the margin
    and the quantity's extra; a log-corrected profile is fitted against the
    profile itself and must reach 1 less the margin.
    """
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
    argmax_xi: tuple
    argmax_xi_norm: np.ndarray
    bound_ratios: np.ndarray
    fitted_slope: float | None
    r_squared: float | None
    log_corrected_slope: float | None
    truncation_stability: float
    grid_stability: float | None
    exact: bool                     # discrepancy identically zero
    warnings: tuple


def _sup_over_grid(coeff, params, modes, grid, shifts, workers):
    """Per-shift max of the fiber resolvent difference over the grid.

    Returns (values[n_shift], argmax_index[n_shift]); the eigendecomposition
    at each xi is shared across shifts, and the max over the grid-ordered
    array is scheduling-independent.
    """
    mu0 = effective_mu(coeff)

    def per_xi(xi):
        symbol = assemble_effective_fiber(params, mu0, modes, xi)
        return _resolvent_diffs(coeff, params, modes, xi, symbol, shifts)

    table = np.array(parallel_map(per_xi, grid.points, workers))  # (nxi, nshift)
    return table.max(axis=0), table.argmax(axis=0)


def discrepancy_study(
    coeff: PeriodicCoefficient,
    params: ModelParams,
    modes: ModeSet,
    grid: XiGrid,
    epsilons,
    workers: int | None = 1,
    check_grid: bool = False,
) -> RateStudyResult:
    """Measure the scaled resolvent discrepancy and fit its decay rate.

    For each eps the discrepancy is eps^alpha times the grid max of the fiber
    resolvent difference at shift eps^alpha.  The study re-runs at doubled
    truncation and raises TruncationUnstable (result attached) when any
    discrepancy moves by more than 5%.
    """
    eps = _validate_epsilons(epsilons)
    alpha = params.alpha
    shifts = eps ** alpha

    warnings: list[str] = []
    if slope_widening(alpha) > 0.0:
        msg = (f"alpha={alpha} is near a singular exponent; theoretical "
               f"constants degrade and slope tolerances widen by 0.05")
        warnings.append(msg)
        log.warning(msg)

    sup_vals, arg_idx = _sup_over_grid(coeff, params, modes, grid, shifts, workers)
    disc = shifts * sup_vals
    argmax_xi = tuple(grid.points[int(i)] for i in arg_idx)
    argmax_norm = np.array([float(np.linalg.norm(x)) for x in argmax_xi])

    exact = bool(np.all(disc == 0.0))
    if exact:
        fitted = r2 = corrected = None
        ratios = np.zeros_like(disc)
    else:
        fitted, r2 = loglog_slope(eps, disc)
        bound = rate_bound(alpha, eps)
        log_corrected = rate_profile(alpha, "discrepancy")[1] > 0
        corrected = loglog_slope(bound, disc)[0] if log_corrected else None
        ratios = disc / bound

    grid_stability = None
    if check_grid:
        sup2, _ = _sup_over_grid(coeff, params, modes, grid.doubled(), shifts,
                                 workers)
        disc2 = shifts * sup2
        grid_stability = _relative_change(disc, disc2)

    double = ModeSet(params.dimension, 2 * modes.truncation)
    sup_d, _ = _sup_over_grid(coeff, params, double, grid, shifts, workers)
    disc_d = shifts * sup_d
    stability = _relative_change(disc, disc_d)

    result = RateStudyResult(
        alpha=alpha,
        epsilons=eps,
        discrepancies=disc,
        argmax_xi=argmax_xi,
        argmax_xi_norm=argmax_norm,
        bound_ratios=ratios,
        fitted_slope=fitted,
        r_squared=r2,
        log_corrected_slope=corrected,
        truncation_stability=stability,
        grid_stability=grid_stability,
        exact=exact,
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
