"""Eigen-analysis of fiber matrices and threshold spectral projectors.

The rank-1 projector onto the lowest eigenvalue is built by two independent
routes: directly from the eigendecomposition, and by the Riesz contour
integral of the resolvent over a circle that the certified constants place
between [0, d0/3] and [d0, inf), with no eigensolve.  The two routes are
cross-checked wherever thresholds are reported.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from ._util import hermitian_defect, hermitian_norm, max_abs
from .coefficient import (ModelParams, PeriodicCoefficient, theory_constants,
                          v_alpha)
from .errors import ConvergenceFailure
from .fiber import (FiberMatrix, ModeSet, assemble_fiber_matrix,
                    rho_and_rho_star)


def eig_hermitian(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Full eigendecomposition of a Hermitian matrix or stack, validated.

    Returns (eigenvalues, eigenvectors) as np.linalg.eigh does.  Each
    matrix of a stack (..., n, n) is checked against its own scale:
    Hermiticity by :func:`hermitian_defect`, residual <= 1e-9
    max(1, ||A||) and orthonormality defect <= 1e-10.  A diagonal block's
    scale is at most the full matrix's, so blockwise checks are no looser.
    LAPACK failures surface as ConvergenceFailure.
    """
    a = np.asarray(matrix)
    herm_defect, slack = hermitian_defect(a)
    if not np.all(slack >= 0.0):
        raise ValueError(f"matrix is not Hermitian: defect {np.max(herm_defect):.3e}")
    try:
        lam, vec = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"eigendecomposition failed: {exc}") from exc

    norm_a = max_abs(lam, -1)
    residual = max_abs(a @ vec - vec * lam[..., None, :])
    if np.any(residual > 1e-9 * np.maximum(norm_a, 1.0)):
        raise ConvergenceFailure(f"eigen residual {np.max(residual):.3e} too large")
    ortho = max_abs(vec.conj().swapaxes(-1, -2) @ vec - np.eye(lam.shape[-1]))
    if np.any(ortho > 1e-10):
        raise ConvergenceFailure(f"orthonormality defect {np.max(ortho):.3e} too large")
    return lam, vec


def projector_by_eig(eig: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Rank-1 projector onto the lowest eigenvector of an eig_hermitian pair.

    Whether that eigenvalue is simple and separated is measured elsewhere
    (the CLI's `lambda1_bounds`, `lambda2_gap` and `projector_routes`).
    """
    v = eig[1][:, 0]
    return np.outer(v, v.conj())


# ----------------------------------------------------------------------
# Circular contour and the Riesz integral
# ----------------------------------------------------------------------

RIESZ_TOL = 1e-12
RIESZ_Q = 1.0 / math.sqrt(5.0)   # see CircleContour


def least_riesz_nodes(q: float) -> int:
    """Least n whose error bound q^n / (1 - q^n) is within RIESZ_TOL.

    q < 1 is the worst ratio of an eigenvalue's distance from the centre to
    the radius (inside) or of the radius to that distance (outside).  The
    bound itself is compared, not a rounded logarithm.
    """
    return next(n for n in itertools.count(1) if q ** n / (1.0 - q ** n) <= RIESZ_TOL)


RIESZ_NODES = least_riesz_nodes(RIESZ_Q)   # 35


class CircleContour:
    """Circle of centre d0/6 and radius sqrt(5) d0/6 about the segment [0, d0/3].

    Traversed counterclockwise from the rightmost point.  For a Hermitian
    matrix the n-node trapezoid sum of the Riesz integral over this circle
    is exactly f_n(A), f_n(lambda) = 1 / (1 - x^n) with
    x = (lambda - centre) / radius (Trefethen & Weideman, SIAM Rev. 2014),
    so no grading or weight renormalization is needed.  The certified
    constants put every eigenvalue at |xi| <= delta0 in [0, d0/3] or
    [d0, inf), where |x| <= RIESZ_Q or |x| >= 1 / RIESZ_Q: the default
    RIESZ_NODES nodes put f_n within RIESZ_TOL of the indicator there.
    """

    def __init__(self, d0: float, num_nodes: int = RIESZ_NODES):
        if d0 <= 0.0:
            raise ValueError("d0 must be positive")
        if num_nodes < 8:
            raise ValueError("need at least 8 contour nodes")
        self.d0 = float(d0)
        self.num_nodes = int(num_nodes)
        self.center = self.d0 / 6.0
        self.radius = math.sqrt(5.0) * self.d0 / 6.0
        rim = self.radius * np.exp(2j * math.pi * np.arange(self.num_nodes)
                                   / self.num_nodes)
        self.points = self.center + rim
        self.weights = 2j * math.pi * rim / self.num_nodes


@dataclass(frozen=True, eq=False)
class RieszProjection:
    """Contour-integral projector and the node count it was summed at."""

    projector: np.ndarray
    nodes: int


def _riesz_sum(a: np.ndarray, contour: CircleContour) -> np.ndarray:
    """Trapezoid sum of the Riesz integral for a Hermitian stack (count, n, n).

    The sum runs over the contour nodes on the closed upper half-circle
    (k <= num_nodes / 2) and their conjugates.  For Hermitian `a` and a real
    centre, R(z-bar) = R(z)^H and w(z-bar) = -conj(w(z)), so a conjugate pair
    adds X - X^H with X = w R(z), and a real node, its own conjugate, adds
    X = (X - X^H) / 2: only the upper half-circle is inverted.
    """
    count, size = a.shape[0], a.shape[-1]
    eye = np.eye(size)
    acc = np.zeros(a.shape, dtype=complex)
    chunk = max(1, int(2**21 // (count * size * size)))
    num = contour.num_nodes
    k = np.arange(num // 2 + 1)
    pts = contour.points[k]
    wts = contour.weights[k] * np.where((k == 0) | (2 * k == num), 0.5, 1.0)
    for start in range(0, pts.size, chunk):
        z = pts[start : start + chunk]
        w = wts[start : start + chunk]
        resolvents = np.linalg.inv(a[None] - z[:, None, None, None] * eye)
        acc += np.einsum("k,kbij->bij", w, resolvents)
    return (acc - acc.conj().swapaxes(-1, -2)) / (-2j * math.pi)


def projector_by_riesz(matrix, contour: CircleContour) -> RieszProjection:
    """Riesz projector by one trapezoidal sum over `contour`'s nodes.

    `matrix` is a :class:`FiberMatrix`, integrated block by block, or a
    Hermitian array, taken as one block.  Every block is integrated, so an
    eigenvalue of any block inside the contour shows in the projector.  No
    eigenvalue is computed: on the default contour the certified spectral
    picture bounds the error by RIESZ_TOL (see :class:`CircleContour`);
    elsewhere it is what the caller measures against the eig route.  Only
    the closed upper half-circle is inverted: n // 2 + 1 inversions per
    block, 18 at RIESZ_NODES.
    """
    fiber = matrix
    if not isinstance(fiber, FiberMatrix):
        a = np.asarray(matrix)
        fiber = FiberMatrix((a[None],), (np.arange(len(a))[None],))
    projector = fiber.embed([_riesz_sum(s, contour) for s in fiber.stacks])
    return RieszProjection(projector=projector, nodes=contour.num_nodes)


# ----------------------------------------------------------------------
# Threshold report
# ----------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ThresholdReport:
    """Per-quasimomentum threshold quantities near the spectral edge."""

    xi: np.ndarray
    xi_norm: float
    lambda1: float
    lambda2: float
    f_minus_p_norm: float
    phi_norm: float
    af_minus_effective_norm: float
    rho: float
    rho_star: float
    projector_mismatch: float   # ||F_riesz - F_eig||


def threshold_report(
    coeff: PeriodicCoefficient,
    params: ModelParams,
    modes: ModeSet,
    xi,
) -> ThresholdReport:
    """Assemble, diagonalize, and measure all threshold quantities at xi.

    The coefficient must be certified (see :func:`certify`): the contour
    comes from its certified constants.  The projector is built by both
    routes and their distance, within RIESZ_TOL plus rounding for
    |xi| <= delta0, reported as `projector_mismatch`; judging it is the
    caller's (the CLI's `projector_routes` verdict).

    Where the zero mode's row and column are exactly zero (xi = 0), its
    exact eigenpair (0, e_z) is taken as it is and only the other modes are
    eigensolved, so lambda1 is exactly 0 rather than a rounding of u ||A||.
    """
    constants = theory_constants(params, coeff)
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    r = float(np.linalg.norm(xi))

    fiber = assemble_fiber_matrix(coeff, params, modes, xi)
    # complex eigensolve for real fibers too: the CSV norms carry its u||A|| rounding
    a = fiber.entries.astype(complex)
    z = modes.zero_index
    if fiber.decoupled(z):
        keep = np.arange(modes.size) != z
        lam_rest, vec_rest = eig_hermitian(a[np.ix_(keep, keep)])
        lam = np.concatenate([[0.0], lam_rest])
        vec = np.zeros_like(a)
        vec[z, 0] = 1.0
        vec[keep, 1:] = vec_rest
    else:
        lam, vec = eig_hermitian(a)
    f_eig = projector_by_eig((lam, vec))

    contour = CircleContour(constants.d0)
    riesz = projector_by_riesz(fiber, contour)
    mismatch = hermitian_norm(riesz.projector - f_eig)

    # the zero mode's projector P0 is one diagonal entry: subtract it there
    rho, rho_star = rho_and_rho_star(coeff, params, xi)
    af = lam[0] * f_eig
    corner = af[z, z]
    f_eig[z, z] -= 1.0
    f_minus_p = hermitian_norm(f_eig)
    af[z, z] = corner - rho
    phi_norm = hermitian_norm(af)
    af[z, z] = corner - constants.mu_eff * v_alpha(params, xi)
    af_eff = hermitian_norm(af)

    return ThresholdReport(
        xi=xi,
        xi_norm=r,
        lambda1=float(lam[0]),
        lambda2=float(lam[1]),
        f_minus_p_norm=f_minus_p,
        phi_norm=phi_norm,
        af_minus_effective_norm=af_eff,
        rho=rho,
        rho_star=rho_star,
        projector_mismatch=mismatch,
    )
