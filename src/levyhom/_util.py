"""Small shared helpers: matrix norms, deterministic parallel maps, CSV."""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np


def hermitian_norm(mat) -> float:
    """Spectral norm of a Hermitian matrix as max |eigenvalue|.

    A stack (..., n, n) of diagonal blocks gives the norm of the
    block-diagonal matrix: the max over the blocks.  eigvalsh reads only the
    lower triangle, so tiny Hermiticity defects from rounding are harmless.
    """
    mat = np.asarray(mat)
    if mat.size == 0:
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvalsh(mat))))


def spectral_norm(mat) -> float:
    """2-norm of a general matrix (largest singular value).

    A stack (..., n, n) of diagonal blocks gives the max over the blocks.
    """
    return float(np.max(np.linalg.norm(np.asarray(mat), 2, axis=(-2, -1))))


def parallel_map(fn, items, workers=None):
    """Map preserving input order; results are independent of worker count.

    Each item's computation must be self-contained (pure numpy); the only
    effect of `workers` is wall time.
    """
    items = list(items)
    if workers is None:
        workers = os.cpu_count() or 1
    if workers <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=workers) as ex:
        return list(ex.map(fn, items))


def fmt(value) -> str:
    """Canonical text for CSV cells: shortest round-trip repr for floats."""
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value)).lower()
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(path, header, rows, digest=None, footer_rows=()):
    """Write an RFC-4180-style CSV with a leading '#' config-digest comment.

    All formatting is locale-free and deterministic so identical runs give
    byte-identical files.
    """
    ncol = len(header)
    lines = []
    if digest is not None:
        lines.append(f"# config={digest}")
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(fmt(v) for v in row))
    for row in footer_rows:
        cells = [fmt(v) for v in row]
        cells += [""] * (ncol - len(cells))
        lines.append(",".join(cells))
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
    return path
