"""Galerkin assembly of the quasimomentum fiber operators on the torus.

The fiber operator at quasimomentum xi acts on periodic functions; in the
Fourier basis of modes |n|_inf <= N its matrix is banded in the mode
difference, with entries in closed form for a band-limited coefficient:

    A[m, n] = (c0/2) * sum over (k, l) with k + l = m - n of
              mu_hat[k, l] * ( |2 pi (m - l) + xi|^a + |2 pi (n + l) + xi|^a
                               - |2 pi l|^a - |2 pi k|^a )

The closed form is not taken on faith: :func:`oracle_form_element` integrates
the defining singular integral numerically (d = 1), and `oracle-check` ties
the two together.  The module also carries :func:`c1_constant`, the constant
of the alpha < 1 bound ||A(xi) - A(0)|| <= mu_plus c1 |xi|^alpha.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .coefficient import (ModelParams, PeriodicCoefficient, _form_line_integral,
                          _gamma, _sym_pow, effective_mu, v_alpha)
from .errors import TruncationTooSmall


class ModeSet:
    """Lexicographically ordered lattice modes with |n|_inf <= N."""

    def __init__(self, dimension: int, truncation: int):
        if truncation < 1:
            raise ValueError("truncation must be >= 1")
        self.dimension = dimension
        self.truncation = truncation
        rng = range(-truncation, truncation + 1)
        self.modes = np.array(list(itertools.product(rng, repeat=dimension)), dtype=int)
        self.size = self.modes.shape[0]
        self.zero_index = self.index_of(np.zeros(dimension, dtype=int))
        self._plans: dict = {}      # assembly plans, keyed by sorted support

    def index_of(self, mode) -> int:
        """Position of a single mode vector in the ordering."""
        mode = np.atleast_1d(np.asarray(mode, dtype=int))
        return int(self._ravel(mode[None, :])[0])

    def _ravel(self, arr: np.ndarray) -> np.ndarray:
        n, width = self.truncation, 2 * self.truncation + 1
        idx = np.zeros(arr.shape[0], dtype=int)
        for j in range(self.dimension):
            idx = idx * width + (arr[:, j] + n)
        return idx


def group_blocks(blocks) -> tuple:
    """Stack 1-D index arrays by size: one (count, size) array per size.

    Sizes ascend; within a size the blocks keep their given order.  Empty
    arrays are dropped.
    """
    by_size: dict = {}
    for block in blocks:
        if block.size:
            by_size.setdefault(block.size, []).append(block)
    return tuple(np.array(by_size[n]) for n in sorted(by_size))


@dataclass(frozen=True, eq=False)
class FiberMatrix:
    """Hermitian Galerkin matrix of the fiber operator at one quasimomentum.

    `blocks` are the index arrays of its diagonal blocks grouped by size
    (:func:`group_blocks`), partitioning the modes; `stacks` the blocks'
    entries, one (count, size, size) array per group, float64 or complex128.
    Dense work runs on the stacks, one batched numpy call per group.  The
    dense matrix `entries` is built from the stacks on first read, in their
    dtype, for the callers that need it (the `fiber` CSV, the threshold
    report, the d = 1 form-element oracle); the rate study never reads it.
    """

    stacks: tuple
    blocks: tuple

    @cached_property
    def entries(self) -> np.ndarray:
        return self.embed(self.stacks)

    def decoupled(self, mode: int) -> bool:
        """Whether `mode`'s row and column are exactly zero, as the zero
        mode's are at xi = 0: then (0, e_mode) is an exact eigenpair."""
        return not any(stack[idx == mode].any()
                       or stack.swapaxes(-1, -2)[idx == mode].any()
                       for idx, stack in zip(self.blocks, self.stacks))

    def embed(self, stacks) -> np.ndarray:
        """Dense matrix holding `stacks` (shaped like `self.stacks`), zero elsewhere."""
        size = sum(idx.size for idx in self.blocks)
        out = np.zeros((size, size), dtype=np.result_type(*stacks))
        for idx, stack in zip(self.blocks, stacks):
            out[idx[:, :, None], idx[:, None, :]] = stack
        return out


@dataclass(frozen=True, eq=False)
class _AssemblyPlan:
    """Where each support pair writes, for one mode set and support.

    `pairs` is the support in sorted order; `lk` its l vectors, then its k
    vectors; `box` the lattice vectors |v|_inf <= N + max |l|_inf.  Per
    entry written, in pair order: `pair` its pair's place in `pairs`, `pos`
    its flat position in the concatenated block stacks (`size` entries in
    all), `head` and `tail` the box indices of m - l and n + l.  No position
    repeats within a pair.
    """

    pairs: tuple
    lk: np.ndarray
    box: np.ndarray
    pair: np.ndarray
    pos: np.ndarray
    head: np.ndarray
    tail: np.ndarray
    blocks: tuple
    size: int

    def stacks(self, flat: np.ndarray) -> tuple:
        """The block stacks as views of `flat`, laid out as `pos` indexes them."""
        out, start = [], 0
        for idx in self.blocks:
            count, n = idx.shape
            out.append(flat[start:start + count * n * n].reshape(count, n, n))
            start += count * n * n
        return tuple(out)


def _assembly_plan(coeff: PeriodicCoefficient, modes: ModeSet) -> _AssemblyPlan:
    """The assembly plan of the coefficient's support on `modes`, cached on
    the mode set."""
    pairs = tuple(sorted(coeff.modes))
    cached = modes._plans.get(pairs)
    if cached is None:
        # worker threads racing here build and store equal plans
        cached = modes._plans[pairs] = _build_plan(pairs, modes)
    return cached


def _build_plan(pairs, modes: ModeSet) -> _AssemblyPlan:
    """Plan of `pairs` on `modes`, its blocks found from the couplings.

    A(xi)[m, n] sums over the pairs with k + l = m - n, so A(xi) is
    block-diagonal for every xi: the blocks are the connected components of
    the couplings m <-> m - (k + l) inside the box.  Clipping to the box can
    split a coset of the lattice the shifts generate, so the components come
    from the coupling graph, not from coset arithmetic.  Blocks are ordered
    by their smallest mode, list their modes ascending and are grouped by
    :func:`group_blocks`.
    """
    lk = np.array([l for _, l in pairs] + [k for k, _ in pairs], dtype=int)
    lvec = lk[:len(pairs)]
    shift = lvec + lk[len(pairs):]
    mvec = modes.modes
    # each pair's couplings (rows, cols), rows ascending, pairs in order
    rows = [np.nonzero(np.all(np.abs(mvec - s) <= modes.truncation, axis=1))[0]
            for s in shift]
    pair = np.repeat(np.arange(len(pairs)), [r.size for r in rows])
    rows = np.concatenate(rows)
    cols = modes._ravel(mvec[rows] - shift[pair])

    label = _smallest_in_component(modes.size, rows, cols)
    order = np.argsort(label, kind="stable")
    counts = np.unique(label, return_counts=True)[1]
    blocks = group_blocks(np.split(order, np.cumsum(counts)[:-1]))

    # each mode's block, named by the flat position of the block's first
    # entry, and the mode's place in the block
    start = np.zeros(modes.size, dtype=int)
    local = np.zeros(modes.size, dtype=int)
    width = np.zeros(modes.size, dtype=int)
    offset = 0
    for idx in blocks:
        count, n = idx.shape
        start[idx] = offset + n * n * np.arange(count)[:, None]
        local[idx] = np.arange(n)
        width[idx] = n
        offset += count * n * n

    reach = modes.truncation + int(np.abs(lvec).max())
    box = ModeSet(modes.dimension, reach)
    lv = lvec[pair]
    return _AssemblyPlan(pairs, lk, box.modes, pair,
                         start[rows] + local[rows] * width[rows] + local[cols],
                         box._ravel(mvec[rows] - lv), box._ravel(mvec[cols] + lv),
                         blocks, offset)


def _smallest_in_component(size: int, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Smallest node of each node's connected component in the graph with
    edges rows <-> cols, by min-label propagation with pointer jumping.

    Each label stays a node of its node's component and never grows; at the
    fixed point labels agree across every edge and every label labels
    itself, so a component carries its smallest node.
    """
    label = np.arange(size)
    while True:
        low = label.copy()
        np.minimum.at(low, rows, label[cols])
        np.minimum.at(low, cols, label[rows])
        while not np.array_equal(low[low], low):
            low = low[low]
        if np.array_equal(low, label):
            return label
        label = low


def assemble_fiber_matrix(
    coeff: PeriodicCoefficient,
    params: ModelParams,
    modes: ModeSet,
    xi,
) -> FiberMatrix:
    """Assemble the closed-form Galerkin matrix of the fiber operator.

    The entries go straight into the stacks of the coupling blocks, through
    the support's assembly plan, which is built once per mode set and finds
    the blocks from the couplings (:func:`_build_plan`).  Per xi one table of |2 pi v + xi|^alpha over the
    plan's box serves every pair, and each entry sums its pairs' terms in
    sorted pair order.  With every amplitude real each entry is a real sum,
    so the matrix is real symmetric and is assembled in float64; otherwise
    in complex128.  The real parts agree bit for bit between the two.
    """
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    if xi.shape != (params.dimension,) or not np.all(np.isfinite(xi)):
        raise ValueError(f"xi must have {params.dimension} finite components, "
                         f"got {xi.tolist()}")
    span = coeff.coupling_span
    if modes.truncation < span:
        raise TruncationTooSmall(
            f"truncation N={modes.truncation} cannot hold couplings with "
            f"|k+l|_inf={span}; increase N to at least {span}"
        )

    plan = _assembly_plan(coeff, modes)
    alpha, c0 = params.alpha, params.c0
    amps = [coeff.modes[key] for key in plan.pairs]
    real = all(amp.imag == 0.0 for amp in amps)
    scale = np.array([0.5 * c0 * (amp.real if real else amp) for amp in amps],
                     dtype=float if real else complex)
    table = _sym_pow(plan.box, xi, alpha)
    const = _sym_pow(plan.lk, np.zeros_like(xi), alpha)
    c3, c4 = const[:len(amps)], const[len(amps):]
    p = plan.pair
    # grouping (|m - l|^a - c4) + (|n + l|^a - c3) makes the zero-mode
    # column at xi = 0 cancel exactly instead of to rounding
    values = scale[p] * ((table[plan.head] - c4[p]) + (table[plan.tail] - c3[p]))
    # bincount adds in input order from zero: each entry is the sum of its
    # pairs' terms in sorted pair order
    if real:
        flat = np.bincount(plan.pos, values, plan.size)
    else:
        flat = np.empty(plan.size, dtype=complex)
        flat.real = np.bincount(plan.pos, values.real, plan.size)
        flat.imag = np.bincount(plan.pos, values.imag, plan.size)
    return FiberMatrix(plan.stacks(flat), plan.blocks)


def assemble_effective_fiber(
    params: ModelParams, mu_eff: float, modes: ModeSet, xi
) -> np.ndarray:
    """Diagonal of the effective operator's fiber: mu0 c0 |2 pi n + xi|^alpha."""
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    return mu_eff * params.c0 * _sym_pow(modes.modes, xi, params.alpha)


def rho_and_rho_star(
    coeff: PeriodicCoefficient, params: ModelParams, xi
) -> tuple[float, float]:
    """Value of the fiber form on the constant function, and its remainder.

    Recomputed independently of the assembled matrix:
        rho = (c0/2) sum_l mu_hat[-l, l] (|2 pi l - xi|^a + |2 pi l + xi|^a
                                          - 2 |2 pi l|^a)
    and rho_star = rho - mu0 v_alpha(xi).  Defined for any xi (outside the
    dual cell the expression is evaluated formally).
    """
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    alpha = params.alpha
    zero_xi = np.zeros_like(xi)
    rho = 0.0
    for (k, l), amp in sorted(coeff.modes.items()):
        if k != tuple(-v for v in l):
            continue
        lv = np.asarray(l, dtype=int)[None, :]
        vp = _sym_pow(lv, xi, alpha)[0]
        vm = _sym_pow(lv, -xi, alpha)[0]
        v0 = _sym_pow(lv, zero_xi, alpha)[0]
        rho += amp.real * ((vm - v0) + (vp - v0))
    rho *= 0.5 * params.c0
    return rho, rho - effective_mu(coeff) * v_alpha(params, xi)


# ----------------------------------------------------------------------
# Quadrature oracle (d = 1)
# ----------------------------------------------------------------------

def oracle_form_element(
    coeff: PeriodicCoefficient,
    params: ModelParams,
    m: int,
    n: int,
    xi: float,
) -> complex:
    """Numerically integrate the defining singular integral of entry (m, n).

    Per supported pair (k, l) with k + l = m - n the integrand is

        e^{2 pi i l z} (1 - e^{i (2 pi n + xi) z}) (1 - e^{-i (2 pi m + xi) z})
            / (2 |z|^(1 + alpha)),

    which is O(|z|^(1-alpha)) at the origin (absolutely integrable) and
    O(|z|^(-1-alpha)) at infinity.  Its frequencies are real, so its
    imaginary part is odd in z and integrates to zero.  Each pair's real
    part is :func:`coefficient._form_line_integral`, which
    :func:`coefficient.oracle_c0` shares; it raises QuadratureNotConverged.
    """
    if params.dimension != 1:
        raise ValueError("the form-element oracle is defined for d = 1 only")
    total = 0.0 + 0.0j
    for (k, l), amp in sorted(coeff.modes.items()):
        if k[0] + l[0] != m - n:
            continue
        total += amp * _form_line_integral(params.alpha, k[0], l[0], m, n, float(xi))

    return total


# ----------------------------------------------------------------------
# Form-difference constant (A(xi) vs A(0))
# ----------------------------------------------------------------------

def c1_constant(params: ModelParams) -> float:
    """Upper bound of the kernel constant controlling ||A(xi) - A(0)||.

    c1(d, a) = int 2 |sin(z_1 / 2)| / |z|^(d + a) dz for a < 1.  The integral
    over the transverse coordinates is an elementary Beta factor.  On the
    line, |sin t| = (4/pi) sum_k (1 - cos 2kt) / (4k^2 - 1) and
    int_0^inf (1 - cos bt) t^(-1-a) dt = pi b^a / (2 Gamma(1+a) sin(pi a/2))
    give c1(1, a) = 8 S / (Gamma(1+a) sin(pi a/2)) with
    S = sum_{k>=1} k^a / (4k^2 - 1), summed to K = 1024 and its tail bounded
    above; the result is rounded up.
    """
    d, a = params.dimension, params.alpha
    if not a < 1.0:
        raise ValueError("c1 is defined for alpha < 1 only")
    terms = 1024
    k = np.arange(1.0, terms + 1.0)
    head = math.fsum(k ** a / (4.0 * k * k - 1.0))
    # the terms are convex in k, so the tail is below the integral from
    # K + 1/2, where x^a / (4x^2 - 1) <= x^(a-2) / (4 - (K + 1/2)^-2)
    top = terms + 0.5
    tail = top ** (a - 1.0) / ((1.0 - a) * (4.0 - top ** -2.0))
    core = 8.0 * (head + tail) / (_gamma(1.0 + a) * math.sin(math.pi * a / 2.0))
    core *= 1.0 + 1e-13          # covers the rounding of the few steps above
    if d == 1:
        return core
    cross = math.pi ** ((d - 1) / 2.0) * _gamma((1 + a) / 2.0) / _gamma((d + a) / 2.0)
    return cross * core
