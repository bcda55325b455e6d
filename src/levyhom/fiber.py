"""Galerkin assembly of the quasimomentum fiber operators on the torus.

The fiber operator at quasimomentum xi acts on periodic functions; in the
Fourier basis of modes |n|_inf <= N its matrix is banded in the mode
difference, with entries in closed form for a band-limited coefficient:

    A[m, n] = (c0/2) * sum over (k, l) with k + l = m - n of
              mu_hat[k, l] * ( |2 pi (m - l) + xi|^a + |2 pi (n + l) + xi|^a
                               - |2 pi l|^a - |2 pi k|^a )

The closed form is not taken on faith: :func:`oracle_form_element` integrates
the defining singular integral numerically (d = 1) and the test suite ties
the two together.  The module also carries the form-difference verifiers
comparing A(xi) - A(0) against its theoretical envelopes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gamma as _gamma, zeta as _zeta

from ._util import hermitian_norm
from .coefficient import ModelParams, PeriodicCoefficient, theta_modulus
from .errors import (BlockLeak, BoundViolated, QuadratureNotConverged,
                     TruncationTooSmall)


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
        self._blocks: dict = {}     # coupling_blocks cache, keyed by shift set

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

    def __len__(self) -> int:
        return self.size


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


def coupling_blocks(coeff: PeriodicCoefficient, modes: ModeSet) -> tuple:
    """The fiber's diagonal blocks as index arrays grouped by size.

    A(xi)[m, n] sums over support pairs with k + l = m - n, so A(xi) is
    block-diagonal for every xi: the blocks are the connected components of
    the graph m <-> m - (k + l) on the box |m|_inf <= N.  Clipping to the box
    can split a coset of the lattice the shifts generate, so the components
    come from a graph search, not from coset arithmetic.  Each block lists
    its mode indices ascending; see :func:`group_blocks` for the grouping.
    Computed once per mode set and set of shifts.
    """
    shifts = frozenset(tuple(a + b for a, b in zip(k, l)) for k, l in coeff.modes)
    cached = modes._blocks.get(shifts)
    if cached is None:
        # worker threads racing here compute and store the same partition
        cached = modes._blocks[shifts] = group_blocks(_components(modes, shifts))
    return cached


def _components(modes: ModeSet, shifts) -> list:
    """Connected components of m <-> m - s over the box, by union-find."""
    parent = list(range(modes.size))

    def root(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for shift in sorted(shifts):
        nvec = modes.modes - np.asarray(shift, dtype=int)
        rows = np.nonzero(np.all(np.abs(nvec) <= modes.truncation, axis=1))[0]
        for i, j in zip(rows.tolist(), modes._ravel(nvec[rows]).tolist()):
            ri, rj = root(i), root(j)
            if ri != rj:
                parent[max(ri, rj)] = min(ri, rj)
    members: dict = {}
    for i in range(modes.size):
        members.setdefault(root(i), []).append(i)
    return [np.array(m) for m in members.values()]


@dataclass(frozen=True, eq=False)
class FiberMatrix:
    """Hermitian Galerkin matrix of the fiber operator at one quasimomentum.

    `entries` is the dense matrix, float64 or complex128 as assembled;
    `blocks` the index arrays of its diagonal blocks grouped by size
    (:func:`group_blocks`), and `stacks` the blocks' entries, one
    (count, size, size) array of the same dtype per group.  Dense work runs
    on the stacks, one batched numpy call per group.  A wrapper rather than
    a bare array also because ``bench/traced.py`` counts the assembled bytes
    as ``entries.nbytes`` of the returned object.
    """

    entries: np.ndarray
    blocks: tuple
    stacks: tuple

    @classmethod
    def from_blocks(cls, entries: np.ndarray, blocks=None) -> "FiberMatrix":
        """Wrap `entries` with the given blocks (default: one block of all)."""
        if blocks is None:
            blocks = (np.arange(len(entries))[None, :],)
        stacks = tuple(entries[idx[:, :, None], idx[:, None, :]] for idx in blocks)
        return cls(entries=entries, blocks=blocks, stacks=stacks)

    def embed(self, stacks) -> np.ndarray:
        """Dense matrix holding `stacks` (shaped like `self.stacks`), zero elsewhere."""
        out = np.zeros(self.entries.shape, dtype=complex)
        for idx, stack in zip(self.blocks, stacks):
            out[idx[:, :, None], idx[:, None, :]] = stack
        return out


def _sym_pow(vecs: np.ndarray, xi: np.ndarray, alpha: float) -> np.ndarray:
    """|2 pi v + xi|^alpha for integer rows v; the single code path shared by
    all four closed-form terms so that algebraic cancellations (zero-mode
    column at xi = 0, constant coefficient off-diagonals) are exact in floats.
    """
    y = 2.0 * np.pi * vecs.astype(float) + xi
    r = np.sqrt(np.einsum("ij,ij->i", y, y))
    return r ** alpha


def _nonzero_parts(a: np.ndarray) -> int:
    return int(np.count_nonzero(a.view(np.float64)))


def assemble_fiber_matrix(
    coeff: PeriodicCoefficient,
    params: ModelParams,
    modes: ModeSet,
    xi,
) -> FiberMatrix:
    """Assemble the closed-form Galerkin matrix of the fiber operator.

    The result carries the coupling blocks (:func:`coupling_blocks`);
    BlockLeak if any entry outside them is nonzero.  With every amplitude
    real each entry is a real sum, so the matrix is real symmetric and is
    assembled in float64; otherwise in complex128.  The real parts agree
    bit for bit between the two.
    """
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    if xi.shape != (params.dimension,):
        raise ValueError(f"xi must have {params.dimension} components")
    span = coeff.coupling_span
    if modes.truncation < span:
        raise TruncationTooSmall(
            f"truncation N={modes.truncation} cannot hold couplings with "
            f"|k+l|_inf={span}; increase N to at least {span}"
        )

    alpha, c0 = params.alpha, params.c0
    n_trunc = modes.truncation
    mvec = modes.modes
    size = modes.size
    real = all(amp.imag == 0.0 for amp in coeff.modes.values())
    entries = np.zeros((size, size), dtype=float if real else complex)
    zero_xi = np.zeros_like(xi)

    for (k, l), amp in sorted(coeff.modes.items()):
        if real:
            amp = amp.real
        kv = np.asarray(k, dtype=int)
        lv = np.asarray(l, dtype=int)
        shift = kv + lv
        nvec = mvec - shift
        ok = np.all(np.abs(nvec) <= n_trunc, axis=1)
        rows = np.nonzero(ok)[0]
        if rows.size == 0:
            continue
        cols = modes._ravel(nvec[rows])
        a = _sym_pow(mvec[rows] - lv, xi, alpha)
        b = _sym_pow(nvec[rows] + lv, xi, alpha)
        c3 = _sym_pow(lv[None, :], zero_xi, alpha)[0]
        c4 = _sym_pow(kv[None, :], zero_xi, alpha)[0]
        # grouping (a - c4) + (b - c3) makes the zero-mode column at xi = 0
        # cancel exactly instead of to rounding
        entries[rows, cols] += (0.5 * c0 * amp) * ((a - c4) + (b - c3))

    fiber = FiberMatrix.from_blocks(entries, coupling_blocks(coeff, modes))
    # each in-block position sits in exactly one stack, so the counts of
    # nonzero real and imaginary parts agree exactly when every entry outside
    # the blocks is exactly zero
    leaked = _nonzero_parts(entries) - sum(_nonzero_parts(s) for s in fiber.stacks)
    if leaked:
        raise BlockLeak(f"{leaked} nonzero fiber entry parts lie outside the "
                        f"{sum(len(idx) for idx in fiber.blocks)} coupling blocks")
    return fiber


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
    and rho_star = rho - mu0 c0 |xi|^alpha.  Defined for any xi (outside the
    dual cell the expression is evaluated formally).
    """
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    alpha = params.alpha
    zero_xi = np.zeros_like(xi)
    rho = 0.0
    mu0 = 0.0
    for (k, l), amp in sorted(coeff.modes.items()):
        if k != tuple(-v for v in l):
            continue
        lv = np.asarray(l, dtype=int)[None, :]
        vp = _sym_pow(lv, xi, alpha)[0]
        vm = _sym_pow(lv, -xi, alpha)[0]
        v0 = _sym_pow(lv, zero_xi, alpha)[0]
        rho += amp.real * ((vm - v0) + (vp - v0))
        if all(v == 0 for v in l):
            mu0 = amp.real
    c0 = params.c0
    rho *= 0.5 * c0
    r = float(np.linalg.norm(xi))
    rho_star = rho - mu0 * c0 * r ** alpha
    return rho, rho_star


# ----------------------------------------------------------------------
# Quadrature oracle (d = 1)
# ----------------------------------------------------------------------

# The oracle integrates the core [-ORACLE_Z_CUTOFF, ORACLE_Z_CUTOFF] with QUADPACK
# at these tolerances and subinterval limit; the tails are semi-analytic.
ORACLE_Z_CUTOFF = 40.0
ORACLE_REL_TOL = 1e-8
ORACLE_ABS_TOL = 1e-10
ORACLE_LIMIT = 400


@dataclass(frozen=True)
class OracleValue:
    value: complex
    error: float


def _tail_cos(omega: float, z_cut: float, alpha: float) -> tuple[float, float]:
    """Two-sided tail integral of e^{i omega z} |z|^(-1-alpha) beyond z_cut.

    The odd (sine) part cancels over the symmetric tail; the zero-frequency
    case is an elementary power integral.
    """
    if omega == 0.0:
        return 2.0 * z_cut ** (-alpha) / alpha, 0.0
    from scipy.integrate import quad
    val, err = quad(
        lambda z: z ** (-1.0 - alpha), z_cut, np.inf, weight="cos", wvar=abs(omega)
    )
    return 2.0 * val, 2.0 * err


def oracle_form_element(
    coeff: PeriodicCoefficient,
    params: ModelParams,
    m: int,
    n: int,
    xi: float,
) -> OracleValue:
    """Numerically integrate the defining singular integral of entry (m, n).

    Per supported pair (k, l) with k + l = m - n the integrand is

        e^{2 pi i l z} (1 - e^{i (2 pi n + xi) z}) (1 - e^{-i (2 pi m + xi) z})
            / (2 |z|^(1 + alpha)),

    which is O(|z|^(1-alpha)) at the origin (absolutely integrable) and
    O(|z|^(-1-alpha)) at infinity.  The core [-Z, Z] is integrated directly;
    beyond Z the integrand splits into four pure exponentials whose tails are
    either elementary (zero frequency) or oscillatory integrals evaluated by
    the QUADPACK Fourier rule.  Raises QuadratureNotConverged when a refined
    core pass disagrees beyond tolerance.
    """
    if params.dimension != 1:
        raise ValueError("the form-element oracle is defined for d = 1 only")
    from scipy.integrate import quad
    alpha = params.alpha
    xi = float(xi)
    z_cut = ORACLE_Z_CUTOFF

    a_freq = 2.0 * math.pi * n + xi
    b_freq = 2.0 * math.pi * m + xi

    total = 0.0 + 0.0j
    total_err = 0.0
    for (k, l), amp in sorted(coeff.modes.items()):
        if k[0] + l[0] != m - n:
            continue
        w_l = 2.0 * math.pi * l[0]

        def integrand(z):
            return (
                np.exp(1j * w_l * z)
                * (1.0 - np.exp(1j * a_freq * z))
                * (1.0 - np.exp(-1j * b_freq * z))
                / (2.0 * np.abs(z) ** (1.0 + alpha))
            )

        def core(eps_scale):
            re, re_err = quad(
                lambda z: integrand(z).real, -z_cut, z_cut, points=[0.0],
                limit=ORACLE_LIMIT, epsabs=ORACLE_ABS_TOL * eps_scale,
                epsrel=ORACLE_REL_TOL * eps_scale,
            )
            im, im_err = quad(
                lambda z: integrand(z).imag, -z_cut, z_cut, points=[0.0],
                limit=ORACLE_LIMIT, epsabs=ORACLE_ABS_TOL * eps_scale,
                epsrel=ORACLE_REL_TOL * eps_scale,
            )
            return re + 1j * im, re_err + im_err

        coarse, _ = core(1.0)
        fine, fine_err = core(1.0 / 16.0)
        drift = abs(fine - coarse)
        tol = ORACLE_ABS_TOL + ORACLE_REL_TOL * max(abs(fine), 1.0)
        if drift > tol or fine_err > tol:
            raise QuadratureNotConverged(
                f"core quadrature for entry ({m},{n}) unstable: refinement "
                f"drift {drift:.3e}, reported error {fine_err:.3e}, tol {tol:.3e}"
            )

        freqs = (w_l, 2.0 * math.pi * (l[0] + n) + xi,
                 2.0 * math.pi * (l[0] - m) - xi, -2.0 * math.pi * k[0])
        signs = (1.0, -1.0, -1.0, 1.0)
        tail = 0.0
        tail_err = 0.0
        for w, s in zip(freqs, signs):
            t, te = _tail_cos(w, z_cut, alpha)
            tail += s * t
            tail_err += te
        total += amp * (fine + 0.5 * tail)
        total_err += abs(amp) * (fine_err + drift + 0.5 * tail_err)

    return OracleValue(value=total, error=total_err)


# ----------------------------------------------------------------------
# Form-difference verification (A(xi) vs A(0))
# ----------------------------------------------------------------------

def c1_constant(params: ModelParams) -> float:
    """Upper bound of the kernel constant controlling ||A(xi) - A(0)||.

    c1(d, a) = int 2 |sin(z_1 / 2)| / |z|^(d + a) dz for a < 1.  The integral
    over the transverse coordinates is an elementary Beta factor, leaving a
    1D integral summed over the kink periods of |sin|.  The first 60 periods
    are integrated numerically, their error estimates added; the rest are
    bounded in closed form.
    """
    d, a = params.dimension, params.alpha
    if not a < 1.0:
        raise ValueError("c1 is defined for alpha < 1 only")
    from scipy.integrate import quad
    total = 0.0
    for j in range(60):
        # the j = 0 panel has an integrable z^(-a) endpoint singularity;
        # QAGS never evaluates at the endpoints, so starting at 0 is safe
        lo = 2.0 * math.pi * j
        hi = 2.0 * math.pi * (j + 1)
        v, err = quad(lambda z: abs(math.sin(z / 2.0)) / z ** (1 + a), lo, hi,
                      limit=200)
        total += v + err
    # z^(-1-a) decreases on each period [2 pi j, 2 pi (j + 1)] and |sin(z/2)|
    # integrates to 4 over it, so period j contributes at most
    # 4 (2 pi j)^(-1-a); summed over j >= 60 that is a Hurwitz zeta value
    total += 4.0 * (2.0 * math.pi) ** (-1.0 - a) * _zeta(1.0 + a, 60)
    core = 4.0 * total
    if d == 1:
        return core
    cross = math.pi ** ((d - 1) / 2.0) * _gamma((1 + a) / 2.0) / _gamma((d + a) / 2.0)
    return cross * core


@dataclass(frozen=True)
class FormDifferenceEntry:
    xi_norm: float
    lhs: float
    reference: float


@dataclass(frozen=True)
class FormDifferenceReport:
    alpha: float
    branch: str            # "norm-bound" (a < 1) or "relative-ratio" (a >= 1)
    c1: float | None
    entries: tuple[FormDifferenceEntry, ...]
    ratio_spread: float | None
    passed: bool


def form_difference_checks(
    coeff: PeriodicCoefficient,
    params: ModelParams,
    modes: ModeSet,
    xi_list,
    trials: int = 16,
    seed: int = 0,
) -> FormDifferenceReport:
    """Verify the theoretical envelopes of A(xi) - A(0) on the truncation.

    For alpha < 1 the spectral norm of the difference is checked against
    mu_plus c1 |xi|^alpha.  For alpha >= 1 the relative form ratio
    |<(A(xi)-A(0))u, u>| / (<A(0)u, u> + mu_plus |u|^2) is probed with seeded
    random vectors and its quotient by the threshold modulus must stay within
    a factor 10 across the xi list.
    """
    if not coeff.certified:
        raise ValueError("coefficient must be certified")
    alpha = params.alpha
    zero = np.zeros(params.dimension)
    a_zero = assemble_fiber_matrix(coeff, params, modes, zero).entries

    entries = []
    if alpha < 1.0:
        c1 = c1_constant(params)
        for xi in xi_list:
            xi = np.atleast_1d(np.asarray(xi, dtype=float))
            r = float(np.linalg.norm(xi))
            diff = assemble_fiber_matrix(coeff, params, modes, xi).entries - a_zero
            lhs = hermitian_norm(diff)
            bound = coeff.mu_plus * c1 * r ** alpha
            entries.append(FormDifferenceEntry(xi_norm=r, lhs=lhs, reference=bound))
            if lhs > bound * (1.0 + 1e-9):
                raise BoundViolated(
                    f"||A(xi)-A(0)|| = {lhs:.6g} exceeds mu+ c1 |xi|^a = {bound:.6g}",
                    xi=xi, margin=lhs - bound,
                )
        return FormDifferenceReport(alpha=alpha, branch="norm-bound", c1=c1,
                                    entries=tuple(entries), ratio_spread=None,
                                    passed=True)

    rng = np.random.default_rng(seed)
    size = modes.size
    probes = rng.normal(size=(trials, size)) + 1j * rng.normal(size=(trials, size))
    ratios = []
    for xi in xi_list:
        xi = np.atleast_1d(np.asarray(xi, dtype=float))
        r = float(np.linalg.norm(xi))
        if r == 0.0:
            continue
        diff = assemble_fiber_matrix(coeff, params, modes, xi).entries - a_zero
        best = 0.0
        for u in probes:
            num = abs(np.vdot(u, diff @ u))
            den = np.vdot(u, a_zero @ u).real + coeff.mu_plus * np.vdot(u, u).real
            best = max(best, num / den)
        ratio = best / theta_modulus(alpha, r)
        ratios.append(ratio)
        entries.append(FormDifferenceEntry(xi_norm=r, lhs=best, reference=ratio))
    spread = max(ratios) / min(ratios) if ratios else 1.0
    if spread > 10.0:
        raise BoundViolated(
            f"form-difference ratio spread {spread:.3g} exceeds 10 across xi list",
            margin=spread - 10.0,
        )
    return FormDifferenceReport(alpha=alpha, branch="relative-ratio", c1=None,
                                entries=tuple(entries), ratio_spread=spread,
                                passed=True)
