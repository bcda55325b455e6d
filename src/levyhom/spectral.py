"""Eigen-analysis of fiber matrices and threshold spectral projectors.

The rank-1 projector onto the lowest eigenvalue is built by two independent
routes: directly from the eigendecomposition, and by the Riesz contour
integral of the resolvent over a circle around the gap interval.  The two
routes are cross-checked wherever thresholds are reported.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from ._util import hermitian_norm, spectral_norm
from .coefficient import (ModelParams, PeriodicCoefficient, theory_constants,
                          v_alpha)
from .errors import (ContourTooClose, ConvergenceFailure, GapViolation,
                     QuadratureNotConverged)
from .fiber import (FiberMatrix, ModeSet, assemble_fiber_matrix,
                    rho_and_rho_star)

log = logging.getLogger(__name__)

# abort threshold for near-degenerate lowest pairs; proposition-level theory
# guarantees a simple eigenvalue inside the certified ball
DEGENERACY_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class SpectralData:
    """Ascending eigenvalues with orthonormal eigenvector columns.

    For a stack of matrices both carry the stack's leading axes.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _block_max(x: np.ndarray, axes) -> np.ndarray:
    return np.max(np.abs(x), axis=axes, initial=0.0)


def eig_hermitian(matrix: np.ndarray) -> SpectralData:
    """Full eigendecomposition of a Hermitian matrix or stack, validated.

    Each matrix of a stack (..., n, n) is checked against its own scale:
    Hermiticity defect <= 1e-12 max(1, max |A_ij|), residual <= 1e-9
    max(1, ||A||) and orthonormality defect <= 1e-10.  A diagonal block's
    scale is at most the full matrix's, so blockwise checks are no looser.
    LAPACK failures surface as ConvergenceFailure.
    """
    a = np.asarray(matrix)
    mats = (-2, -1)
    scale = np.maximum(1.0, _block_max(a, mats))
    herm_defect = _block_max(a - a.conj().swapaxes(-1, -2), mats)
    if np.any(herm_defect > 1e-12 * scale):
        raise ValueError(f"matrix is not Hermitian: defect {np.max(herm_defect):.3e}")
    try:
        lam, vec = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"eigendecomposition failed: {exc}") from exc

    norm_a = _block_max(lam, -1)
    residual = _block_max(a @ vec - vec * lam[..., None, :], mats)
    if np.any(residual > 1e-9 * np.maximum(norm_a, 1.0)):
        raise ConvergenceFailure(f"eigen residual {np.max(residual):.3e} too large")
    ortho = _block_max(vec.conj().swapaxes(-1, -2) @ vec - np.eye(lam.shape[-1]), mats)
    if np.any(ortho > 1e-10):
        raise ConvergenceFailure(f"orthonormality defect {np.max(ortho):.3e} too large")
    return SpectralData(eigenvalues=lam, eigenvectors=vec)


def projector_by_eig(spectral: SpectralData, cutoff: float) -> np.ndarray:
    """Rank-1 projector onto the eigenspace below `cutoff`.

    Exactly one eigenvalue must lie at or below the cutoff; anything else
    signals a quasimomentum outside the certified ball or a truncation
    pathology.
    """
    lam = spectral.eigenvalues
    below = int(np.sum(lam <= cutoff))
    if below != 1:
        raise GapViolation(
            f"{below} eigenvalues lie below cutoff {cutoff:.6g}; expected exactly 1"
        )
    if lam.size > 1 and lam[1] - lam[0] < DEGENERACY_TOL:
        raise GapViolation(
            f"near-degenerate bottom pair: gap {lam[1] - lam[0]:.3e} < {DEGENERACY_TOL}"
        )
    v = spectral.eigenvectors[:, 0]
    return np.outer(v, v.conj())


# ----------------------------------------------------------------------
# Circular contour and the Riesz integral
# ----------------------------------------------------------------------

# Riesz node doubling stops once a doubling moves the projector by less than
# RIESZ_TOL in the 2-norm, and fails past RIESZ_MAX_NODES nodes.
RIESZ_TOL = 1e-9
RIESZ_MAX_NODES = 1 << 16


class CircleContour:
    """Circle through -d0/3 and 2 d0/3, enclosing the segment [0, d0/3].

    Centre d0/6, radius d0/2, traversed counterclockwise from the rightmost
    point.  Equispaced trapezoid nodes on a circle converge geometrically for
    a resolvent analytic in an annulus around it (Trefethen & Weideman, SIAM
    Rev. 2014), so no grading or weight renormalization is needed.
    """

    def __init__(self, d0: float, num_nodes: int = 128):
        if d0 <= 0.0:
            raise ValueError("d0 must be positive")
        if num_nodes < 8:
            raise ValueError("need at least 8 contour nodes")
        self.d0 = float(d0)
        self.num_nodes = int(num_nodes)
        self.center = self.d0 / 6.0
        self.radius = self.d0 / 2.0
        rim = self.radius * np.exp(2j * math.pi * np.arange(self.num_nodes)
                                   / self.num_nodes)
        self.points = self.center + rim
        self.weights = 2j * math.pi * rim / self.num_nodes

    def distance_to_real(self, value: float) -> float:
        """Distance from a real spectral point to the contour curve."""
        return abs(abs(value - self.center) - self.radius)


@dataclass(frozen=True, eq=False)
class RieszProjection:
    """Converged contour-integral projector."""

    projector: np.ndarray
    nodes: int


def _riesz_sum(a: np.ndarray, contour: CircleContour, first: int = 0,
               stride: int = 1) -> np.ndarray:
    """Trapezoid sum of the Riesz integral for a Hermitian stack (count, n, n).

    The sum runs over the contour nodes k = first, first + stride, ... on the
    closed upper half-circle (k <= num_nodes / 2) and their conjugates.  For
    Hermitian `a` and a real centre, R(z-bar) = R(z)^H and w(z-bar) =
    -conj(w(z)), so a conjugate pair adds X - X^H with X = w R(z), and a real
    node, its own conjugate, adds X = (X - X^H) / 2: only the upper
    half-circle is inverted.
    """
    count, size = a.shape[0], a.shape[-1]
    eye = np.eye(size)
    acc = np.zeros(a.shape, dtype=complex)
    chunk = max(1, int(2**21 // (count * size * size)))
    num = contour.num_nodes
    k = np.arange(first, num // 2 + 1, stride)
    pts = contour.points[k]
    wts = contour.weights[k] * np.where((k == 0) | (2 * k == num), 0.5, 1.0)
    for start in range(0, pts.size, chunk):
        z = pts[start : start + chunk]
        w = wts[start : start + chunk]
        resolvents = np.linalg.inv(a[None] - z[:, None, None, None] * eye)
        acc += np.einsum("k,kbij->bij", w, resolvents)
    return (acc - acc.conj().swapaxes(-1, -2)) / (-2j * math.pi)


def projector_by_riesz(matrix, contour: CircleContour) -> RieszProjection:
    """Riesz projector by trapezoidal contour quadrature with node doubling.

    `matrix` is a :class:`FiberMatrix`, integrated block by block, or a
    Hermitian array, taken as one block.  Every block is integrated, so an
    eigenvalue of any block inside the contour shows in the projector.
    Starts from the contour's node count (minimum 128) and stops once a
    doubling changes the projector by less than RIESZ_TOL in the 2-norm
    (the max over the blocks).  Only the closed upper half-circle is
    inverted, and a doubling inverts only at its new nodes: a converged
    256-node call makes 65 + 64 inversions per block.  Raises ContourTooClose if any eigenvalue
    sits within d0/30 of the curve, QuadratureNotConverged if no
    doubling up to RIESZ_MAX_NODES nodes converges.
    """
    fiber = (matrix if isinstance(matrix, FiberMatrix)
             else FiberMatrix(np.asarray(matrix)))
    d0 = contour.d0
    lam = np.concatenate([np.linalg.eigvalsh(s).ravel() for s in fiber.stacks])
    min_dist = min(contour.distance_to_real(float(v)) for v in lam)
    if min_dist < d0 / 30.0:
        raise ContourTooClose(
            f"eigenvalue within {min_dist:.3e} of contour (< d0/30 = {d0/30:.3e})"
        )

    # the 128-node floor stays: bench/traced.py derives its inversion count
    # from it.  The 2n nodes hold the n nodes at even places with half the
    # weight, so each doubling inverts only at the new, odd nodes.
    n = max(128, contour.num_nodes)
    current = contour if contour.num_nodes == n else CircleContour(d0, n)
    f_prev = [_riesz_sum(s, current) for s in fiber.stacks]
    while 2 * n <= RIESZ_MAX_NODES:
        n *= 2
        odd = CircleContour(d0, n)
        f_next = [f / 2 + _riesz_sum(s, odd, first=1, stride=2)
                  for f, s in zip(f_prev, fiber.stacks)]
        change = max(spectral_norm(b - a) for a, b in zip(f_prev, f_next))
        if change < RIESZ_TOL:
            return RieszProjection(projector=fiber.embed(f_next), nodes=n)
        f_prev = f_next
    raise QuadratureNotConverged(
        f"contour quadrature did not stabilize below {RIESZ_TOL} within "
        f"{RIESZ_MAX_NODES} nodes"
    )


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


def threshold_report(
    coeff: PeriodicCoefficient,
    params: ModelParams,
    modes: ModeSet,
    xi,
    projector_tol: float = 1e-8,
) -> ThresholdReport:
    """Assemble, diagonalize, and measure all threshold quantities at xi.

    The coefficient must be certified (see :func:`certify`): the contour and
    the gap cutoff come from its certified constants.  The projector is built
    by both routes and the report fails with QuadratureNotConverged if they
    disagree beyond `projector_tol`.
    """
    constants = theory_constants(params, coeff)
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    r = float(np.linalg.norm(xi))
    if r > constants.delta0 * (1.0 + 1e-12):
        # the certified ball is sufficient, not necessary: proceed and let the
        # projector's eigenvalue count decide whether separation still holds
        log.warning("|xi| = %.6g outside certified ball delta0 = %.6g; "
                    "relying on the explicit spectrum check", r, constants.delta0)

    fiber = assemble_fiber_matrix(coeff, params, modes, xi)
    # complex eigensolve for real fibers too: the CSV norms carry its u||A|| rounding
    spectral = eig_hermitian(fiber.entries.astype(complex))
    lam = spectral.eigenvalues
    cutoff = constants.d0 / 3.0
    f_eig = projector_by_eig(spectral, cutoff)

    contour = CircleContour(constants.d0)
    riesz = projector_by_riesz(fiber, contour)
    mismatch = spectral_norm(riesz.projector - f_eig)
    if mismatch > projector_tol:
        raise QuadratureNotConverged(
            f"projector routes disagree: ||F_riesz - F_eig|| = {mismatch:.3e} "
            f"> {projector_tol:.1e}"
        )

    size = modes.size
    proj_const = np.zeros((size, size), dtype=complex)
    proj_const[modes.zero_index, modes.zero_index] = 1.0

    rho, rho_star = rho_and_rho_star(coeff, params, xi)
    af = lam[0] * f_eig
    f_minus_p = spectral_norm(f_eig - proj_const)
    phi_norm = hermitian_norm(af - rho * proj_const)
    af_eff = hermitian_norm(af - constants.mu_eff * v_alpha(params, xi) * proj_const)

    return ThresholdReport(
        xi=xi,
        xi_norm=r,
        lambda1=float(lam[0]),
        lambda2=float(lam[1]) if lam.size > 1 else math.inf,
        f_minus_p_norm=f_minus_p,
        phi_norm=phi_norm,
        af_minus_effective_norm=af_eff,
        rho=rho,
        rho_star=rho_star,
    )
