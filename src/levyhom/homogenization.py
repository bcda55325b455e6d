"""Resolvent discrepancy across the dual cell.

The homogenization error at scale eps equals, after the exact scaling
identity, eps^alpha times the sup over quasimomenta of the fiber resolvent
difference at spectral shift eps^alpha.  The sup is approximated by a finite
grid with logarithmic refinement near xi = 0, where the threshold behavior
lives, and every study re-runs at doubled truncation to certify that the
Galerkin error is subdominant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._util import UNIT_ROUNDOFF, hermitian_norm, parallel_map
from .coefficient import ModelParams, PeriodicCoefficient, effective_mu
from .config import _validate_epsilons
from .fiber import (ModeSet, _assembly_plan, assemble_effective_fiber,
                    assemble_fiber_matrix)
from .spectral import eig_hermitian

# ----------------------------------------------------------------------
# Resolvent differences
# ----------------------------------------------------------------------

def _eig_route_norms(stack, sigma, shifts) -> np.ndarray:
    """Per-shift ||(A + s)^-1 - diag(1 / (sigma + s))|| on a block stack.

    `stack` is (count, n, n), `sigma` (count, n).  One eigendecomposition
    serves every shift; each norm is ``hermitian_norm(res)``.
    """
    lam, vec = eig_hermitian(stack)
    lam = lam[:, None, :]
    vec_h = vec.conj().swapaxes(-1, -2)
    diag = np.arange(stack.shape[-1])
    out = np.zeros(len(shifts))
    for i, s in enumerate(shifts):
        res = (vec * (1.0 / (lam + s))) @ vec_h
        res[:, diag, diag] -= 1.0 / (sigma + s)
        out[i] = hermitian_norm(res)
    return out


def _below_floors(stack, sigma, shifts, floors) -> np.ndarray:
    """Per-shift mask: True where two Cholesky factorizations show that
    ||R|| = ||(A + s)^-1 - (D + s)^-1|| lies so far below the shift's floor
    that the eig route (:func:`_eig_route_norms`) would also have read it
    below.

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
    its J block padded with zeros (the block inverse formula).  A dropped
    mode acts as an infinite diagonal entry, since a matrix with one is
    positive definite exactly when the block on the other modes is.  Both
    diagonals grow with t and with e, so their elementwise min over a set
    of shifts certifies every shift of the set at once: one pair of
    factorizations.  So a mode stays in the second matrix when some shift
    of the set has t e < 1, and is dropped only when every shift has
    t e >= 1.  The min can fail where each shift alone would pass, so a
    failing set is halved and each half tried on its own, down to single
    shifts.

    The allowance on t, for one set of shifts.  Let nu = (n + 1)(n + 2) u,
    u the unit roundoff.
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
    1 / s^2.  Each set takes its own m1 and delta, so the argument holds for
    every shift the halving certifies.
    """
    n = stack.shape[-1]
    nu = (n + 1) * (n + 2) * UNIT_ROUNDOFF
    diag = np.arange(n)
    floors = np.asarray(floors)
    e_all = sigma + np.asarray(shifts)[:, None, None]   # (shift, block, mode)
    k_diag = (stack[:, diag, diag] - sigma).real
    k_abs = np.abs(k_diag)
    a_norm = np.abs(stack).sum(axis=-1).max()

    def added(t, e):
        te = t[:, None, None] * e
        return te * e / (1.0 + te)

    m1_all = added(floors, e_all)

    def pair(subset) -> bool:
        e, floor = e_all[subset], floors[subset]
        m1 = m1_all[subset].min(axis=0)
        z = e - m1 - nu * (k_abs + m1)
        if (z <= 0.0).any():
            return False
        ell = z.min(axis=(1, 2))
        delta = nu * (((k_abs + m1) / z ** 2).max(axis=(1, 2))
                      + a_norm / ell ** 2 + 5.0 / ell + floor)
        t = floor - 2.0 * delta
        if (t <= 0.0).any():
            return False
        te = t[:, None, None] * e
        with np.errstate(divide="ignore"):
            m2 = np.where(te < 1.0, te * e / (1.0 - te), np.inf).min(axis=0)
        kept = np.isfinite(m2)
        first = stack.copy()
        first[:, diag, diag] = k_diag + added(t, e).min(axis=0)
        try:
            np.linalg.cholesky(first)
            second = -stack * (kept[:, :, None] & kept[:, None, :])
            second[:, diag, diag] = np.where(kept, m2 - k_diag, 1.0)
            np.linalg.cholesky(second)
        except np.linalg.LinAlgError:
            return False
        return True

    mask = np.zeros(len(floors), dtype=bool)
    todo = [np.arange(len(floors))]
    while todo:
        subset = todo.pop()
        if pair(subset):
            mask[subset] = True
        elif len(subset) > 1:
            half = len(subset) // 2
            todo += [subset[half:], subset[:half]]
    return mask


def _resolvent_diffs(coeff, params, modes, xi, symbol, shifts, floors=None):
    """||(A(xi) + s)^-1 - diag(1 / (symbol + s))|| for each shift s.

    Returns (norms, certified), the mask of shifts that every block group
    certified below its floor; when it is all True no eigensolve ran.

    `symbol` is the comparator's diagonal; an entry of inf removes that mode
    from the comparator, since 1 / (inf + s) is exactly 0.  Both operators
    are block-diagonal on the fiber's coupling blocks, so the difference is
    too and its norm is the max over the blocks.  One eigendecomposition per
    block group serves every shift.

    At xi = 0 the zero mode's row and column of A vanish exactly, and with a
    zero symbol the mode's exact contribution is 1/s - 1/s = 0.  Its
    diagonal is set to 1 on both A and D before the eigensolve: the exact
    contribution is then 1/(1+s) - 1/(1+s) = 0 and its rounding about
    u ||A||, where the zero diagonal leaves u ||A|| / s^2 (u the unit
    roundoff).

    With positive per-shift `floors` (which need a finite `symbol`), each
    block group first tries :func:`_below_floors`, gives zeros for the
    shifts it certifies and takes the eig route for the rest only.  So a
    norm is a lower bound that is exact whenever it reaches its shift's
    floor, and values below the floor may read less.
    """
    shifts = np.asarray(shifts)
    try_pair = floors is not None and bool(np.all(np.asarray(floors) > 0.0))
    fiber = assemble_fiber_matrix(coeff, params, modes, xi)
    z = modes.zero_index
    unit = symbol[z] == 0.0 and fiber.decoupled(z)
    out = np.zeros(len(shifts))
    certified = np.full(len(shifts), try_pair)
    for idx, stack in zip(fiber.blocks, fiber.stacks):
        sigma = symbol[idx]
        if unit:    # the fiber is this call's own: its stacks may change
            at = idx == z
            stack[at[:, :, None] & at[:, None, :]] = sigma[at] = 1.0
        rest = (~_below_floors(stack, sigma, shifts, floors) if try_pair
                else np.ones(len(shifts), dtype=bool))
        certified &= ~rest
        if rest.any():
            out[rest] = np.maximum(out[rest],
                                   _eig_route_norms(stack, sigma, shifts[rest]))
    return out, certified


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

@dataclass(frozen=True, eq=False)
class RateStudyResult:
    """Per-epsilon discrepancies and the sweep's certificates; fitting and
    judging them against the rate envelope is the caller's."""

    epsilons: np.ndarray            # descending
    discrepancies: np.ndarray
    argmax_xi_norm: np.ndarray
    truncation_stability: float
    solved_points: int              # grid points solved per pass
    certified: tuple                # per pass: (certified norms, non-seed
                                    # pairs, points with no eigensolve)


def _mirror_reduced(grid) -> list:
    """The grid with each mirror pair xi, -xi reduced to its first point in
    grid order (bit for bit; -0.0 == 0.0 pairs axis points).

    A certified coefficient is real, so A(-xi) is the reflection n -> -n of
    conj A(xi), and the effective fiber reflects the same way: the resolvent
    difference has the same norm at xi and -xi.
    """
    points, seen = [], set()
    for xi in grid:
        key = tuple(float(v) for v in xi)
        if key not in seen:
            points.append(xi)
            seen.update((key, tuple(-v for v in key)))
    return points


def _sup_over_points(coeff, params, modes, points, shifts, workers, seeds=()):
    """Per-shift max of the fiber resolvent difference over `points`.

    Returns (values[n_shift], argmax_index[n_shift],
    (certified, pairs, skipped)); the eigendecomposition at each point is
    shared across shifts.

    The `seeds` (indices into `points`, repeats allowed) are the first wave,
    solved against zero floors and so exactly; `discrepancy_study` passes
    the origin at N and the N pass's argmax points at 2N.  Any seeds give
    the same max and argmax.  The other points follow in list order, in
    waves of 2, 4, 8, ... points, and each wave's norms are taken against
    floors equal to the running max of everything solved before it (see
    `_resolvent_diffs`).  A norm below its floor may read less than exact,
    but the floor is at most the column max, so the max and the first
    argmax over the list are the exhaustive sweep's, bit for bit.  The
    waves depend only on list indices, so the result is
    scheduling-independent.  `certified` counts the `pairs` non-seed
    (point, shift) norms certified below their floor, and `skipped` the
    points with every norm certified, which needed no eigensolve.  A wave
    runs on `workers` threads only if the pass's largest fiber block is
    large enough (see `parallel_map`).
    """
    mu0 = effective_mu(coeff)
    order = max(idx.shape[1] for idx in _assembly_plan(coeff, modes).blocks)
    seeds = sorted({int(i) for i in seeds})
    rest = sorted(set(range(len(points))) - set(seeds))
    # after the seeds, waves of 2, 4, 8, ... points: rest[:2], rest[2:6], ...
    cuts = 2 ** np.arange(2, len(rest).bit_length() + 1) - 2
    waves = [seeds, *np.split(rest, cuts)]
    values = np.zeros((len(points), len(shifts)))
    masks = np.zeros(values.shape, dtype=bool)

    def per_point(i):
        symbol = assemble_effective_fiber(params, mu0, modes, points[i])
        return _resolvent_diffs(coeff, params, modes, points[i], symbol,
                                shifts, floors)

    for wave in waves:
        floors = values.max(axis=0)     # unsolved rows are 0, norms are >= 0
        results = parallel_map(per_point, wave, workers, order=order)
        for i, (norms, mask) in zip(wave, results):
            values[i], masks[i] = norms, mask
    return (values.max(axis=0), values.argmax(axis=0),
            (int(masks.sum()), len(rest) * len(shifts),
             int(masks.all(axis=1).sum())))


def discrepancy_study(
    coeff: PeriodicCoefficient,
    params: ModelParams,
    modes: ModeSet,
    grid: tuple,
    epsilons,
    workers: int | None = 1,
) -> RateStudyResult:
    """Measure the scaled resolvent discrepancy.

    For each eps the discrepancy is eps^alpha times the max of the fiber
    resolvent difference at shift eps^alpha over the quasimomenta `grid`, a
    sequence of points such as ``XiGridSpec().points(dimension)``.  The study
    re-runs at doubled truncation and reports the largest relative move of a
    discrepancy as `truncation_stability`.  Fitting the decay rate and
    judging both are the caller's (the CLI's `slope`, `bound_ratio` and
    `truncation_stability` verdicts).  The coefficient must be
    certified (see :func:`certify`): its checked realness lets the study
    reduce the grid once to one point of each mirror pair xi, -xi (see
    `_mirror_reduced`), and both passes sweep that point list.

    Each pass first solves seed points exactly, and the running max floors
    the other norms (see `_sup_over_points`): the seed is the origin at N,
    and at 2N the seeds are the N pass's argmax points.  Each shift's 2N
    floor then starts from its own N argmax point, solved exactly; the
    origin joins the sweep like any other point unless it is one of them.
    """
    if not coeff.certified:
        raise ValueError("coefficient must be certified before a rate study")
    eps = _validate_epsilons(epsilons)
    shifts = eps ** params.alpha

    points = _mirror_reduced(grid)
    sup_vals, arg_idx, certified = _sup_over_points(
        coeff, params, modes, points, shifts, workers, seeds=(0,))
    disc = shifts * sup_vals
    argmax_norm = np.array([float(np.linalg.norm(points[i])) for i in arg_idx])

    double = ModeSet(params.dimension, 2 * modes.truncation)
    sup_d, _, certified_d = _sup_over_points(
        coeff, params, double, points, shifts, workers, seeds=arg_idx)
    stability = _relative_change(disc, shifts * sup_d)

    return RateStudyResult(
        epsilons=eps,
        discrepancies=disc,
        argmax_xi_norm=argmax_norm,
        truncation_stability=stability,
        solved_points=len(points),
        certified=(certified, certified_d),
    )


def _relative_change(base: np.ndarray, other: np.ndarray) -> float:
    change = 0.0
    for x, y in zip(base, other):
        if x == 0.0 and y == 0.0:
            continue
        change = max(change, abs(y - x) / max(abs(x), 1e-300))
    return change
