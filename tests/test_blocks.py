"""Block-diagonal fibers: the coupling partition and the blockwise kernels."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

import levyhom
import levyhom.fiber as fiber_mod
from levyhom import (BlockLeak, CircleContour, FiberMatrix, ModeSet, ModelParams,
                     PeriodicCoefficient, assemble_effective_fiber,
                     assemble_fiber_matrix, certify, coupling_blocks,
                     eig_hermitian, projector_by_riesz, theory_constants)
from levyhom._util import hermitian_norm
from levyhom.homogenization import (_below_floors, _eig_route_norms,
                                    _resolvent_diffs)
from conftest import make_t2, random_band_limited

PROPERTY = settings(max_examples=40, deadline=None, database=None,
                    derandomize=True)
UNIT_ROUNDOFF = np.finfo(float).eps


@st.composite
def fibers(draw):
    """A random coefficient at d = 1 or 2, a truncation and a xi."""
    dimension = draw(st.sampled_from([1, 2]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    coeff = random_band_limited(rng, dimension)
    alpha = draw(st.floats(0.2, 1.8))
    top = 6 if dimension == 1 else 3
    truncation = max(coeff.coupling_span, draw(st.integers(2, top)))
    xi = draw(st.lists(st.floats(-math.pi, math.pi), min_size=dimension,
                       max_size=dimension))
    return (coeff, ModelParams(dimension, alpha),
            ModeSet(dimension, truncation), np.array(xi))


@st.composite
def real_fibers(draw):
    """As :func:`fibers`, with the coefficient's amplitudes cut to their real
    parts: mu stays real and exchange symmetric."""
    coeff, params, modes, xi = draw(fibers())
    real = {key: amp.real for key, amp in coeff.modes.items()}
    return PeriodicCoefficient(coeff.dimension, real), params, modes, xi


def _labels(blocks, size):
    """Block number of every mode; -1 for a mode in no block."""
    label = np.full(size, -1)
    start = 0
    for idx in blocks:
        label[idx] = start + np.arange(len(idx))[:, None]
        start += len(idx)
    return label


def _structural_components(coeff, modes):
    """Components of m <-> m - (k + l) on the box, by scipy's graph search."""
    rows, cols = [], []
    for k, l in coeff.modes:
        shift = np.add(k, l)
        nvec = modes.modes - shift
        ok = np.nonzero(np.all(np.abs(nvec) <= modes.truncation, axis=1))[0]
        rows.extend(ok)
        cols.extend(modes._ravel(nvec[ok]))
    graph = coo_matrix((np.ones(len(rows)), (rows, cols)),
                       shape=(modes.size, modes.size))
    return connected_components(graph, directed=False)[1]


class TestPartitionProperties:
    @PROPERTY
    @given(fibers())
    def test_partition_is_exact(self, case):
        coeff, params, modes, xi = case
        fiber = assemble_fiber_matrix(coeff, params, modes, xi)
        label = _labels(fiber.blocks, modes.size)
        assert np.all(label >= 0)
        assert sum(idx.size for idx in fiber.blocks) == modes.size
        off = label[:, None] != label[None, :]
        assert not fiber.entries[off].any()
        # the blocks are the components of the structural graph, no coarser
        other = _structural_components(coeff, modes)
        same = label[:, None] == label[None, :]
        assert np.array_equal(same, other[:, None] == other[None, :])

    @PROPERTY
    @given(fibers())
    def test_fiber_is_hermitian(self, case):
        coeff, params, modes, xi = case
        fiber = assemble_fiber_matrix(coeff, params, modes, xi)
        a = fiber.entries
        scale = max(1.0, float(np.max(np.abs(a))))
        assert float(np.max(np.abs(a - a.conj().T))) <= 1e-12 * scale
        for stack in fiber.stacks:
            defect = np.abs(stack - stack.conj().swapaxes(-1, -2)).max()
            assert defect <= 1e-12 * scale

    @PROPERTY
    @given(fibers())
    def test_xi_reflection(self, case):
        # A(-xi)[m, n] = conj(A(xi)[-m, -n]); -m sits at the mirrored index
        coeff, params, modes, xi = case
        a = assemble_fiber_matrix(coeff, params, modes, xi).entries
        a_neg = assemble_fiber_matrix(coeff, params, modes, -xi).entries
        scale = max(1.0, float(np.max(np.abs(a))))
        assert np.max(np.abs(a_neg - a[::-1, ::-1].conj())) <= 1e-13 * scale

    @PROPERTY
    @given(fibers())
    def test_blockwise_eigenvalues_equal_dense(self, case):
        coeff, params, modes, xi = case
        fiber = assemble_fiber_matrix(coeff, params, modes, xi)
        blockwise = np.sort(np.concatenate(
            [eig_hermitian(s).eigenvalues.ravel() for s in fiber.stacks]))
        dense = np.linalg.eigvalsh(fiber.entries)
        norm = max(1.0, float(np.max(np.abs(dense))))
        assert np.max(np.abs(blockwise - dense)) <= 1e-13 * norm

    @PROPERTY
    @given(fibers())
    def test_blockwise_resolvent_diffs_equal_dense(self, case):
        # 1e-13 relative, plus the rounding floor u ||A|| / (lambda1 + s)^2
        # that any eigensolve-based resolvent carries; near xi = 0 at
        # alpha > 1 that floor dominates, for the dense route as much as for
        # the blockwise one
        coeff, params, modes, xi = case
        assume(np.any(xi != 0.0))
        symbol = assemble_effective_fiber(params, 1.0, modes, xi)
        shifts = np.geomspace(1e-1, 1e-3, 8) ** params.alpha
        got, _ = _resolvent_diffs(coeff, params, modes, xi, symbol, shifts)

        a = assemble_fiber_matrix(coeff, params, modes, xi).entries
        lam, vec = np.linalg.eigh(a)
        for value, s in zip(got, shifts):
            res = (vec * (1.0 / (lam + s))) @ vec.conj().T - np.diag(1.0 / (symbol + s))
            dense = float(np.max(np.abs(np.linalg.eigvalsh(res))))
            floor = UNIT_ROUNDOFF * float(np.max(np.abs(lam))) / (lam[0] + s) ** 2
            assert abs(value - dense) <= 1e-13 * dense + 16.0 * floor


class TestRealFibers:
    def test_dtype_follows_the_amplitudes(self, t2):
        cplx = random_band_limited(np.random.default_rng(0))
        assert any(amp.imag for amp in cplx.modes.values())
        cases = ((t2, np.float64), (make_t2(2), np.float64),
                 (_d2_blocks_support(), np.float64), (cplx, np.complex128))
        for coeff, dtype in cases:
            d = coeff.dimension
            modes = ModeSet(d, max(3, coeff.coupling_span))
            fiber = assemble_fiber_matrix(coeff, ModelParams(d, 0.5), modes,
                                          np.full(d, 0.3))
            assert fiber.entries.dtype == dtype
            assert all(stack.dtype == dtype for stack in fiber.stacks)

    @PROPERTY
    @given(real_fibers())
    def test_real_resolvent_diffs_match_complex_inverse(self, case):
        # the float64 route against a complex128 LU inverse, with the
        # allowance of test_blockwise_resolvent_diffs_equal_dense
        coeff, params, modes, xi = case
        assume(np.any(xi != 0.0))
        symbol = assemble_effective_fiber(params, 1.0, modes, xi)
        shifts = np.geomspace(1e-1, 1e-3, 8) ** params.alpha
        got, _ = _resolvent_diffs(coeff, params, modes, xi, symbol, shifts)

        a = assemble_fiber_matrix(coeff, params, modes, xi).entries
        assert a.dtype == np.float64
        a = a.astype(complex)
        lam = np.linalg.eigvalsh(a)
        eye = np.eye(modes.size)
        for value, s in zip(got, shifts):
            res = np.linalg.inv(a + s * eye) - np.diag(1.0 / (symbol + s))
            ref = float(np.linalg.norm(res, 2))
            floor = UNIT_ROUNDOFF * float(np.max(np.abs(lam))) / (lam[0] + s) ** 2
            assert abs(value - ref) <= 1e-13 * ref + 16.0 * floor


# the norm sits at floor (1 + k): inside the rounding allowance, at its edge
# and well away from it, on both sides
FLOOR_OFFSETS = (0.0, 1e-12, -1e-12, 1e-9, -1e-9, 1e-6, -1e-6, 1e-2, -1e-2)


@st.composite
def floored_hermitians(draw):
    """(mat, floor, k): a real or complex Hermitian matrix or block stack
    scaled so its norm is floor (1 + k); in some stacks only the first block
    reaches the norm."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 24))
    count = draw(st.sampled_from([None, 1, 3]))
    shape = (n, n) if count is None else (count, n, n)
    mat = rng.normal(size=shape)
    if draw(st.booleans()):
        mat = mat + 1j * rng.normal(size=shape)
    mat = mat + mat.conj().swapaxes(-1, -2)
    if count == 3 and draw(st.booleans()):
        mat[1:] *= 0.5 * hermitian_norm(mat[0]) / hermitian_norm(mat[1:])
    floor = 10.0 ** draw(st.integers(-6, 6))
    k = draw(st.sampled_from(FLOOR_OFFSETS))
    return mat * (floor * (1.0 + k) / hermitian_norm(mat)), floor, k


class TestFlooredNorm:
    @PROPERTY
    @given(floored_hermitians())
    def test_exact_at_or_above_the_floor(self, case):
        mat, floor, k = case
        exact = hermitian_norm(mat)
        got = hermitian_norm(mat, floor)
        assert got <= exact
        if exact >= floor:
            assert got == exact
        # the sharpest case: the floor is the computed norm itself
        assert hermitian_norm(mat, exact) == exact
        # well below the floor the two Cholesky factorizations certify it
        if k <= -1e-6:
            assert got == 0.0


@st.composite
def certificate_cases(draw):
    """(stack, sigma, shifts, norms, ks, well): a real or complex positive
    semidefinite block stack, a nonnegative diagonal with some modes at
    t e >= 1, one, two or eight shifts, the eig route's norm at each shift,
    and per-shift offsets k drawn from FLOOR_OFFSETS.

    In a `well` draw the spectrum of the stack and the diagonal lie in
    [1, 2], so t e < 1 on every mode but those scaled by 1e8, and dropping
    those loses only terms of order 1e-8 (their coupling squared over their
    diagonal)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 24))
    shape = (draw(st.sampled_from([1, 3])), n, n)
    g = rng.normal(size=shape)
    if draw(st.booleans()):
        g = g + 1j * rng.normal(size=shape)
    well = draw(st.booleans())
    lo, hi, big = (1.0, 2.0, 1e8) if well else (0.0, 10.0, 1e4)
    q = np.linalg.qr(g)[0]
    lam = rng.uniform(lo, hi, shape[:2])
    stack = (q * lam[:, None, :]) @ q.conj().swapaxes(-1, -2)
    stack = 0.5 * (stack + stack.conj().swapaxes(-1, -2))
    sigma = rng.uniform(lo, hi, shape[:2])
    sigma[rng.random(shape[:2]) < 0.3] *= big
    shifts = 10.0 ** rng.uniform(-2.0, 0.0, draw(st.sampled_from([1, 2, 8])))
    ks = np.array([draw(st.sampled_from(FLOOR_OFFSETS)) for _ in shifts])
    norms = _eig_route_norms(stack, sigma, shifts, np.zeros(len(shifts)))
    return stack, sigma, shifts, norms, ks, well


class TestNormCertificate:
    @PROPERTY
    @given(certificate_cases())
    def test_certifies_only_below_every_floor(self, case):
        # each norm sits at floor (1 + k): one k for every shift, then the
        # drawn per-shift mix
        stack, sigma, shifts, norms, ks, well = case
        for k in [*FLOOR_OFFSETS, ks]:
            k = np.broadcast_to(k, shifts.shape)
            got = _below_floors(stack, sigma, shifts, norms / (1.0 + k))
            # one norm at or above its floor, even by rounding, blocks it
            if np.any(k >= 0.0):
                assert not got
            # with one shift and no coupled mode dropped, the pair is exact
            # up to its allowance, far below 1e-2 here, so it certifies;
            # several shifts share the min of their diagonals, which only
            # suffices
            if well and len(shifts) == 1 and k[0] == -1e-2:
                assert got


def _d2_blocks_support():
    """Support with k + l in {0, +-2 e1}: one block per (m2, parity of m1)."""
    e1, e2, o = (1, 0), (0, 1), (0, 0)
    neg = lambda v: tuple(-x for x in v)
    pairs = [(e1, neg(e1)), (neg(e1), e1), (e2, neg(e2)), (neg(e2), e2),
             (e1, e1), (neg(e1), neg(e1))]
    modes = {(o, o): 1.0}
    modes.update({pair: 0.08 for pair in pairs})
    return certify(PeriodicCoefficient(2, modes))


class TestPartition:
    @pytest.mark.parametrize("truncation,count,sizes",
                             [(3, 14, {4: 7, 3: 7}), (6, 26, {7: 13, 6: 13})])
    def test_d2_blocks_counts(self, truncation, count, sizes):
        blocks = coupling_blocks(_d2_blocks_support(), ModeSet(2, truncation))
        assert sum(len(idx) for idx in blocks) == count
        assert {idx.shape[1]: idx.shape[0] for idx in blocks} == sizes

    def test_cached_per_mode_set(self, t2):
        modes = ModeSet(1, 8)
        assert coupling_blocks(t2, modes) is coupling_blocks(t2, modes)
        assert [idx.shape for idx in coupling_blocks(t2, modes)] == [(1, 8), (1, 9)]

    def test_clipping_splits_a_coset(self):
        # shifts +-(1, 2), +-(2, 1) generate a lattice of index 3, so the
        # 5 x 5 box meets 3 cosets; but (2, -2) and (-2, 2) have no
        # neighbour inside the box and form blocks of their own
        zero = (0, 0)
        modes = {(zero, zero): 1.0}
        for v in ((1, 2), (2, 1), (-1, -2), (-2, -1)):
            modes[(v, zero)] = modes[(zero, v)] = 0.05
        coeff = certify(PeriodicCoefficient(2, modes))
        ms = ModeSet(2, 2)
        blocks = [[tuple(ms.modes[i]) for i in row]
                  for idx in coupling_blocks(coeff, ms) for row in idx]
        assert sorted(len(b) for b in blocks) == [1, 1, 7, 8, 8]
        assert [b for b in blocks if len(b) == 1] == [[(-2, 2)], [(2, -2)]]
        assemble_fiber_matrix(coeff, ModelParams(2, 0.5), ms, [0.1, 0.2])

    def test_leak_outside_blocks_raises(self, t2, params_half, monkeypatch):
        modes = ModeSet(1, 4)
        singletons = (np.arange(modes.size)[:, None],)
        monkeypatch.setattr(fiber_mod, "coupling_blocks",
                            lambda coeff, ms: singletons)
        with pytest.raises(BlockLeak):
            assemble_fiber_matrix(t2, params_half, modes, [0.3])

    @pytest.mark.parametrize("xi", [0.0, 0.3])
    def test_partition_missing_a_mode_raises(self, t2, params_half, monkeypatch, xi):
        # at xi = 0 every entry of the zero mode's row and column is exactly
        # zero, yet the support pairs still write them, so leaving the mode
        # out of its block is a leak there too
        modes = ModeSet(1, 4)
        blocks = coupling_blocks(t2, modes)
        short = fiber_mod.group_blocks(b[b != modes.zero_index]
                                       for idx in blocks for b in idx)
        monkeypatch.setattr(fiber_mod, "coupling_blocks", lambda coeff, ms: short)
        with pytest.raises(BlockLeak):
            assemble_fiber_matrix(t2, params_half, modes, [xi])

    def test_one_block_wrap_is_the_dense_matrix(self, t2, params_half):
        a = assemble_fiber_matrix(t2, params_half, ModeSet(1, 4), [0.3]).entries
        whole = FiberMatrix(a)
        assert len(whole.stacks) == 1
        assert np.array_equal(whole.stacks[0][0], a)
        assert np.array_equal(whole.embed(whole.stacks), a)


class TestBlockwiseSpectral:
    def test_each_block_checked_at_its_own_scale(self):
        # a defect of 1e-10 passes against the full matrix's scale 1e3, but
        # not against the small block's scale 1
        big = np.array([[1e3, 0.0], [0.0, 2e3]], dtype=complex)
        small = np.array([[1.0, 0.5], [0.5 + 1e-10, 2.0]], dtype=complex)
        dense = np.zeros((4, 4), dtype=complex)
        dense[:2, :2], dense[2:, 2:] = big, small
        eig_hermitian(dense)
        with pytest.raises(ValueError):
            eig_hermitian(np.stack([big, small]))

    def test_riesz_blockwise_matches_one_block(self, t2, params_half):
        const = theory_constants(params_half, t2)
        fiber = assemble_fiber_matrix(t2, params_half, ModeSet(1, 16), [0.02])
        assert len(fiber.blocks) == 2
        contour = CircleContour(const.d0)
        blockwise = projector_by_riesz(fiber, contour)
        dense = projector_by_riesz(fiber.entries, contour)
        assert blockwise.nodes == dense.nodes
        assert np.max(np.abs(blockwise.projector - dense.projector)) <= 1e-12

    def test_riesz_sees_an_eigenvalue_in_any_block(self):
        # an eigenvalue of a second block inside the contour doubles the rank
        d0 = 1.0
        entries = np.diag([0.1, 5.0, 0.2, 6.0]).astype(complex)
        blocks = (np.array([[0, 1], [2, 3]]),)
        proj = projector_by_riesz(FiberMatrix(entries, blocks),
                                  CircleContour(d0))
        assert np.trace(proj.projector).real == pytest.approx(2.0, abs=1e-9)


def _scipy_modules_after(code):
    """scipy modules loaded in a fresh interpreter once `code` has run."""
    src = os.path.dirname(os.path.dirname(levyhom.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys; " + code + "; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return out.strip().splitlines()[-1]


def test_cli_import_leaves_scipy_unloaded():
    assert _scipy_modules_after("import levyhom.cli") == "[]"


def test_commands_but_oracle_check_leave_scipy_unloaded(tmp_path):
    # only oracle-check integrates anything; the other commands need numpy
    # alone, at alpha = 1 and at alpha < 1, where c1 would need scipy
    runs = []
    for name in ("t1_alpha1", "t2_alpha05"):
        config = os.path.join(os.path.dirname(__file__), os.pardir, "configs",
                              f"{name}.json")
        common = ["--config", config, "--workers", "1", "--truncation", "8"]
        out = tmp_path / name
        runs += [[command, *common, "--out", str(out / command)]
                 for command in ("validate", "constants", "thresholds", "rate-study")]
        runs.append(["fiber", *common, "--out", str(out / "fiber"), "--xi", "0.3"])
    code = ("from levyhom.cli import main; "
            f"assert all(main(argv) == 0 for argv in {runs!r})")
    assert _scipy_modules_after(code) == "[]"
