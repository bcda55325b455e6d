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
from levyhom import (CircleContour, FiberMatrix, ModeSet, ModelParams,
                     PeriodicCoefficient, assemble_effective_fiber,
                     assemble_fiber_matrix, certify, eig_hermitian,
                     projector_by_riesz, theory_constants)
from levyhom._util import parallel_map
from levyhom.homogenization import (_below_floors, _eig_route_norms,
                                    _resolvent_diffs, discrepancy_study)
from conftest import make_t2, random_band_limited
from test_homogenization import _random_complex_inputs, _study_inputs

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
    def test_decoupled_modes_are_the_dense_zero_lines(self, case):
        # at xi = 0 the zero mode's row and column vanish for every
        # coefficient; elsewhere the blockwise test reads the dense matrix's
        coeff, params, modes, xi = case
        for point in (xi, np.zeros_like(xi)):
            fiber = assemble_fiber_matrix(coeff, params, modes, point)
            a = fiber.entries
            zero_lines = ~(a.any(axis=0) | a.any(axis=1))
            assert [fiber.decoupled(m) for m in range(modes.size)] == zero_lines.tolist()
        assert zero_lines[modes.zero_index]

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
    norms = _eig_route_norms(stack, sigma, shifts)
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
            args = (stack, sigma, shifts, norms / (1.0 + k))
            before = [x.copy() for x in args]
            got = _below_floors(*args)
            # the factorizations work on copies; the inputs stay as they
            # were
            assert all(np.array_equal(x, y) for x, y in zip(before, args))
            # a norm at or above its floor, even by rounding, is never
            # certified
            assert not np.any(got[k >= 0.0])
            # with no coupled mode dropped, the pair on a single shift is
            # exact up to its allowance, far below 1e-2 here; halving
            # reaches single shifts, so each such shift is certified
            if well:
                assert np.all(got[k == -1e-2])

    @pytest.mark.parametrize("coupling", [0.5, 0.5j])
    def test_a_mode_one_shift_keeps_stays_in_the_set(self, coupling):
        # mode 1 is coupled to mode 0; at floor 0.3 the second shift has
        # t e = 1.5 on it and drops it, while the first shift, with its
        # floor at its own norm, has t e = 0.9 there and keeps it.  The set
        # must keep the mode: without it the pair on both shifts would
        # certify the first norm even 1% above its floor
        stack = np.array([[[1.0, coupling], [np.conj(coupling), 40.0]]])
        sigma = np.array([[1.0, 4.0]])
        shifts = np.array([1e-2, 1.0])
        norms = _eig_route_norms(stack, sigma, shifts)
        for k in FLOOR_OFFSETS:
            floors = np.array([norms[0] / (1.0 + k), 0.3])
            te = floors[:, None] * (sigma[0] + shifts[:, None])
            assert te[0, 1] < 1.0 <= te[1, 1] and te[1, 0] < 1.0
            got = _below_floors(stack, sigma, shifts, floors)
            assert got[0] == (k < 0.0)
            assert got[1]


def _d2_blocks_support():
    """Support with k + l in {0, +-2 e1}: one block per (m2, parity of m1)."""
    e1, e2, o = (1, 0), (0, 1), (0, 0)
    neg = lambda v: tuple(-x for x in v)
    pairs = [(e1, neg(e1)), (neg(e1), e1), (e2, neg(e2)), (neg(e2), e2),
             (e1, e1), (neg(e1), neg(e1))]
    modes = {(o, o): 1.0}
    modes.update({pair: 0.08 for pair in pairs})
    return certify(PeriodicCoefficient(2, modes))


def _blocks(coeff, modes):
    """The fiber's blocks, as the assembly plan finds them."""
    return assemble_fiber_matrix(coeff, ModelParams(coeff.dimension, 0.5), modes,
                                 np.full(coeff.dimension, 0.3)).blocks


def _clipped_coset_support():
    """Shifts +-(1, 2), +-(2, 1): a lattice of index 3 that the 5 x 5 box
    clips, leaving (2, -2) and (-2, 2) with no neighbour inside it."""
    zero = (0, 0)
    modes = {(zero, zero): 1.0}
    for v in ((1, 2), (2, 1), (-1, -2), (-2, -1)):
        modes[(v, zero)] = modes[(zero, v)] = 0.05
    return certify(PeriodicCoefficient(2, modes))


class TestPartition:
    @pytest.mark.parametrize("truncation,count,sizes",
                             [(3, 14, {4: 7, 3: 7}), (6, 26, {7: 13, 6: 13})])
    def test_d2_blocks_counts(self, truncation, count, sizes):
        blocks = _blocks(_d2_blocks_support(), ModeSet(2, truncation))
        assert sum(len(idx) for idx in blocks) == count
        assert {idx.shape[1]: idx.shape[0] for idx in blocks} == sizes

    def test_cached_per_mode_set(self, t2):
        modes = ModeSet(1, 8)
        assert _blocks(t2, modes) is _blocks(t2, modes)
        assert [idx.shape for idx in _blocks(t2, modes)] == [(1, 8), (1, 9)]

    def test_clipping_splits_a_coset(self):
        # the shifts' lattice meets the box in 3 cosets, but the two corner
        # modes form blocks of their own
        ms = ModeSet(2, 2)
        blocks = [[tuple(ms.modes[i]) for i in row]
                  for idx in _blocks(_clipped_coset_support(), ms) for row in idx]
        assert sorted(len(b) for b in blocks) == [1, 1, 7, 8, 8]
        assert [b for b in blocks if len(b) == 1] == [[(-2, 2)], [(2, -2)]]

    @pytest.mark.parametrize("case", ["clipped-coset", "d2-blocks", "d2-blocks-2N",
                                      "dense-d2"])
    def test_block_order(self, case):
        # sizes ascend; within a size blocks follow their smallest mode, and
        # each block lists its modes ascending: the order every stored CSV
        # was written in
        if case == "clipped-coset":
            coeff, modes = _clipped_coset_support(), ModeSet(2, 2)
        elif case == "dense-d2":
            coeff, _, modes, _, _ = _study_inputs("dense-d2")
        else:
            coeff = _d2_blocks_support()
            modes = ModeSet(2, 6 if case.endswith("2N") else 3)
        blocks = _blocks(coeff, modes)
        sizes = [idx.shape[1] for idx in blocks]
        assert sizes == sorted(set(sizes))
        for idx in blocks:
            assert np.all(np.diff(idx, axis=1) > 0)
            assert np.all(np.diff(idx[:, 0]) > 0)
        assert np.array_equal(np.sort(np.concatenate([idx.ravel() for idx in blocks])),
                              np.arange(modes.size))

    def test_one_block_wrap_is_the_dense_matrix(self, t2, params_half):
        a = assemble_fiber_matrix(t2, params_half, ModeSet(1, 4), [0.3]).entries
        whole = FiberMatrix((a[None],), (np.arange(len(a))[None],))
        assert len(whole.stacks) == 1
        assert np.array_equal(whole.stacks[0][0], a)
        assert np.array_equal(whole.embed(whole.stacks), a)
        assert whole.entries.dtype == a.dtype


def _per_pair_dense(coeff, params, modes, xi):
    """Reference assembly, one support pair at a time into a dense matrix,
    and the block stacks gathered from it."""
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    real = all(amp.imag == 0.0 for amp in coeff.modes.values())
    entries = np.zeros((modes.size,) * 2, dtype=float if real else complex)
    zero_xi = np.zeros_like(xi)
    for (k, l), amp in sorted(coeff.modes.items()):
        if real:
            amp = amp.real
        kv, lv = np.asarray(k, dtype=int), np.asarray(l, dtype=int)
        nvec = modes.modes - (kv + lv)
        rows = np.nonzero(np.all(np.abs(nvec) <= modes.truncation, axis=1))[0]
        cols = modes._ravel(nvec[rows])
        a = fiber_mod._sym_pow(modes.modes[rows] - lv, xi, params.alpha)
        b = fiber_mod._sym_pow(nvec[rows] + lv, xi, params.alpha)
        c3 = fiber_mod._sym_pow(lv[None, :], zero_xi, params.alpha)[0]
        c4 = fiber_mod._sym_pow(kv[None, :], zero_xi, params.alpha)[0]
        entries[rows, cols] += (0.5 * params.c0 * amp) * ((a - c4) + (b - c3))
    # the blocks are gathered from the structural graph, apart from the plan
    label = _structural_components(coeff, modes)
    roots = np.unique(label, return_index=True)[1]
    blocks = fiber_mod.group_blocks(np.nonzero(label == label[r])[0]
                                    for r in np.sort(roots))
    stacks = tuple(entries[idx[:, :, None], idx[:, None, :]] for idx in blocks)
    return entries, stacks


def _assert_same_bits(fiber, reference):
    entries, stacks = reference
    assert len(fiber.stacks) == len(stacks)
    for got, want in zip(fiber.stacks, stacks):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
    assert fiber.entries.dtype == entries.dtype
    assert np.array_equal(fiber.entries, entries)


def _d3_inputs():
    """t2 lifted to d = 3 at N = 2, with a few points off the axes."""
    pts = [np.zeros(3), np.array([0.3, -0.2, 0.1]), np.array([1e-3, 0.0, 0.0]),
           np.array([-math.pi, 0.5, -1.0])]
    return make_t2(3), ModelParams(3, 0.5), ModeSet(3, 2), pts


class TestAssemblyPlan:
    @pytest.mark.parametrize("name", ["t1_alpha1", "t2_alpha05", "t2_d2",
                                      "dense-d2", "random-complex", "t2-d3"])
    def test_bits_equal_the_per_pair_dense_loop(self, name):
        # xi = 0, points of the study's grid and their mirrors, at N and 2N
        if name == "t2-d3":
            coeff, params, modes, grid = _d3_inputs()
        elif name == "random-complex":
            coeff, params, modes, grid, _ = _random_complex_inputs()
        else:
            coeff, params, modes, grid, _ = _study_inputs(name)
        picks = [grid[i] for i in (1, len(grid) // 3, len(grid) // 2, -1)]
        points = [np.zeros(params.dimension), *picks, *(-p for p in picks)]
        for pass_modes in (modes, ModeSet(params.dimension, 2 * modes.truncation)):
            for xi in points:
                fiber = assemble_fiber_matrix(coeff, params, pass_modes, xi)
                _assert_same_bits(fiber, _per_pair_dense(coeff, params,
                                                         pass_modes, xi))
            assert len(pass_modes._plans) == 1

    @pytest.mark.parametrize("workers", [2, 4])
    def test_threads_racing_to_build_the_plan(self, workers,
                                              threads_at_any_order):
        # every thread finds no plan on a fresh mode set and builds one
        coeff, params, modes, grid, _ = _study_inputs("dense-d2")
        points = grid[:16]
        serial = [assemble_fiber_matrix(coeff, params, modes, xi).stacks
                  for xi in points]
        fresh = ModeSet(modes.dimension, modes.truncation)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            racing = parallel_map(
                lambda xi: assemble_fiber_matrix(coeff, params, fresh, xi).stacks,
                points, workers=workers, order=modes.size)
        finally:
            sys.setswitchinterval(interval)
        for got, want in zip(racing, serial):
            assert all(np.array_equal(a, b) for a, b in zip(got, want))
        assert len(fresh._plans) == 1

    def test_one_plan_serves_other_amplitudes(self, t2, params_half):
        # the plan holds no amplitude: a second coefficient on the same
        # support and mode set gets its own entries
        other = certify(PeriodicCoefficient(1, {
            key: amp * (0.5 if key[0] != key[1] else 1.0)
            for key, amp in t2.modes.items()}))
        modes = ModeSet(1, 6)
        for xi in ([0.0], [0.3]):
            fibers = [assemble_fiber_matrix(c, params_half, modes, xi)
                      for c in (t2, other)]
            for coeff, fiber in zip((t2, other), fibers):
                _assert_same_bits(fiber, _per_pair_dense(coeff, params_half,
                                                         modes, xi))
            assert not np.array_equal(fibers[0].entries, fibers[1].entries)
        assert len(modes._plans) == 1

    @pytest.mark.parametrize("name", ["t2_alpha05", "dense-d2"])
    def test_rate_study_builds_no_dense_matrix(self, name, monkeypatch):
        # the study, its xi = 0 unit diagonal included, runs on the block stacks
        coeff, params, modes, grid, _ = _study_inputs(name)
        built = []
        embed = FiberMatrix.embed

        def counting_embed(self, stacks):
            built.append(1)
            return embed(self, stacks)

        monkeypatch.setattr(FiberMatrix, "embed", counting_embed)
        epsilons = np.geomspace(1e-1, 1e-3, 8)
        discrepancy_study(coeff, params, modes, grid, epsilons)
        assert built == []
        assemble_fiber_matrix(coeff, params, modes, grid[0]).entries
        assert built == [1]


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
        stacks = (np.array([np.diag([0.1, 5.0]), np.diag([0.2, 6.0])], dtype=complex),)
        blocks = (np.array([[0, 1], [2, 3]]),)
        proj = projector_by_riesz(FiberMatrix(stacks, blocks),
                                  CircleContour(d0))
        assert np.trace(proj.projector).real == pytest.approx(2.0, abs=1e-9)


def _scipy_modules_after(code, roots=("scipy",)):
    """Modules under `roots` (scipy's by default) loaded in a fresh
    interpreter once `code` has run."""
    src = os.path.dirname(os.path.dirname(levyhom.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys; " + code + "; "
            f"print(sorted(m for m in sys.modules if m.split('.')[0] in {roots!r}))")
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


def test_oracle_check_loads_neither_scipy_integrate_nor_special(tmp_path):
    # QUADPACK's extension is loaded by file, without scipy.integrate's
    # package, and c0's oracle is the same line integral at every d, so no
    # dimension needs scipy.special (nor, through it, OpenSSL's _hashlib)
    runs = []
    for name, truncation in (("t1_alpha1", "8"), ("t2_alpha05", "8"), ("t2_d2", "8"),
                             ("t2_d3", "2")):
        config = os.path.join(os.path.dirname(__file__), os.pardir, "configs",
                              f"{name}.json")
        runs.append(["oracle-check", "--config", config, "--workers", "1",
                     "--truncation", truncation, "--out", str(tmp_path / name)])
    code = ("from levyhom.cli import main; "
            f"assert all(main(argv) == 0 for argv in {runs!r})")
    loaded = _scipy_modules_after(code, roots=("scipy", "_hashlib"))
    assert "scipy.integrate" not in loaded and "scipy.special" not in loaded
    assert "_hashlib" not in loaded
