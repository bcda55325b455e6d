"""Small shared helpers: matrix norms, deterministic parallel maps, CSV."""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

UNIT_ROUNDOFF = np.finfo(float).eps / 2


def hermitian_norm(mat, floor=0.0) -> float:
    """Spectral norm of a Hermitian matrix as max |eigenvalue|, or a lower
    bound on it when it lies below `floor`.

    A stack (..., n, n) of diagonal blocks gives the norm of the
    block-diagonal matrix: the max over the blocks.  eigvalsh reads only the
    lower triangle, so tiny Hermiticity defects from rounding are harmless.

    With floor > 0 the result is a lower bound on the norm, and exact (the
    same eigvalsh bits as with floor = 0) whenever the norm is at least
    `floor`.  ||M|| < t holds exactly when t I - M and t I + M are both
    positive definite, so two Cholesky factorizations at
    t = floor (1 - 4 (n + 1)^2 u), u the unit roundoff, replace the
    eigensolve: if both succeed the result is 0.0.  One failing block of a
    stack sends the whole stack to eigvalsh.  Cholesky reads the lower
    triangle too, so both routes see the same matrix.

    The allowance: a Cholesky factorization that runs to completion on
    S = t I -+ M is exact for S + E with ||E|| <= n (n + 1) u ||S|| to first
    order (Higham, Accuracy and Stability, Thm 10.5), and S + E is positive
    semidefinite, so ||M|| <= t + n (n + 1) u (t + ||M||), i.e.
    ||M|| <= t (1 + 2 n (n + 1) u).  With the t above that is
    floor (1 - 2 (n + 1)(n + 2) u), which leaves 2 (n + 1)(n + 2) u floor
    for the backward error of eigvalsh (Householder tridiagonalization,
    O(n) u ||M||): whenever both factorizations succeed, eigvalsh would
    have returned less than `floor`.
    """
    mat = np.asarray(mat)
    if mat.size == 0:
        return 0.0
    if floor > 0.0:
        n = mat.shape[-1]
        shift = floor * (1.0 - 4.0 * (n + 1) ** 2 * UNIT_ROUNDOFF) * np.eye(n)
        try:
            np.linalg.cholesky(shift - mat)
            np.linalg.cholesky(shift + mat)
            return 0.0
        except np.linalg.LinAlgError:
            pass
    return float(np.max(np.abs(np.linalg.eigvalsh(mat))))


def spectral_norm(mat) -> float:
    """2-norm of a general matrix (largest singular value).

    A stack (..., n, n) of diagonal blocks gives the max over the blocks.
    """
    return float(np.max(np.linalg.norm(np.asarray(mat), 2, axis=(-2, -1))))


def available_cpus() -> int:
    """CPUs this process may run on: its affinity mask, else the core count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def parallel_map(fn, items, workers=None):
    """Map preserving input order; results are independent of worker count.

    Each item's computation must be self-contained (pure numpy); the only
    effect of `workers` is wall time.  The default width is the number of
    CPUs this process may run on (its affinity mask, where the platform has
    one), not the machine's core count.
    """
    items = list(items)
    if workers is None:
        workers = available_cpus()
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
