"""Small shared helpers: matrix norms, deterministic parallel maps, CSV."""

from __future__ import annotations

import os

import numpy as np

UNIT_ROUNDOFF = np.finfo(float).eps / 2


def hermitian_norm(mat) -> float:
    """Spectral norm of a Hermitian matrix as max |eigenvalue|.

    A stack (..., n, n) of diagonal blocks gives the norm of the
    block-diagonal matrix: the max over the blocks.  eigvalsh reads only the
    lower triangle, so tiny Hermiticity defects from rounding are harmless.
    """
    return float(np.max(np.abs(np.linalg.eigvalsh(mat))))


def max_abs(x, axes=(-2, -1)) -> np.ndarray:
    """max |x_ij| of a matrix, or of each matrix of a stack (..., n, n)."""
    return np.max(np.abs(x), axis=axes, initial=0.0)


def hermitian_defect(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """max |A - A^H| of a matrix or of each matrix of a stack, and its slack
    1e-12 max(1, max |A_ij|) - defect: a matrix passes where slack >= 0."""
    defect = max_abs(a - a.conj().swapaxes(-1, -2))
    return defect, 1e-12 * np.maximum(1.0, max_abs(a)) - defect


def available_cpus() -> int:
    """CPUs this process may run on: its affinity mask, else the core count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# Threads pay only where an item's work is a few LAPACK calls on matrices of
# at least this order, which release the GIL.  Smaller matrices mean many
# short GIL-holding numpy calls, where a second thread adds contention and a
# second item's matrices to peak RSS.  Dense d = 2 rate studies at
# --workers 1 -> 2 (2-core Xeon, one BLAS thread, medians of 3-5 runs), by
# largest block: 169 modes 0.23 -> 0.62 s, 289 modes 0.58 -> 0.66 s,
# 441 modes 1.06 -> 0.80 s, 625 modes 3.15 -> 2.14 s.
PARALLEL_MIN_ORDER = 256


def parallel_map(fn, items, workers=None, *, order):
    """Map preserving input order; results are independent of worker count.

    Each item's computation must be self-contained (pure numpy); the only
    effect of `workers` is wall time.  `workers` is an upper bound: helper
    threads start only when `order`, the order of each item's largest
    dense matrix, is at least PARALLEL_MIN_ORDER; below it the map runs on
    the calling thread.  Two threads lose to one at 169 modes, tie at 289
    and win from 441 on (see PARALLEL_MIN_ORDER for the measurement).  The
    width, by default and at most, is the number of CPUs this process may
    run on (its affinity mask, where the platform has one): a thread beyond
    it adds only its item's matrices to peak RSS.
    """
    items = list(items)
    cpus = available_cpus()
    workers = cpus if workers is None else min(workers, cpus)
    if workers <= 1 or len(items) <= 1 or order < PARALLEL_MIN_ORDER:
        return [fn(x) for x in items]
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=workers) as ex:
        return list(ex.map(fn, items))


def fmt(value) -> str:
    """Text of a CSV cell or report value: shortest round-trip repr for floats."""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(path, header, rows, digest, footer_rows=()):
    """Write an RFC-4180-style CSV with a leading '#' config-digest comment.

    All formatting is locale-free and deterministic so identical runs give
    byte-identical files.
    """
    ncol = len(header)
    lines = [f"# config={digest}", ",".join(header)]
    for row in rows:
        lines.append(",".join(fmt(v) for v in row))
    for row in footer_rows:
        cells = [fmt(v) for v in row]
        cells += [""] * (ncol - len(cells))
        lines.append(",".join(cells))
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
    return path
