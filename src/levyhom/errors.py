"""Exception types shared across the workbench.

Every failure that a verification run can report as "exit 2" derives from
:class:`LevyhomError`, so the CLI can distinguish verification failures from
I/O and usage problems.
"""

from __future__ import annotations


class LevyhomError(Exception):
    """Base class for all verification-level failures."""


class SymmetryViolation(LevyhomError):
    """A coefficient mode map breaks conjugate or exchange symmetry."""


class PositivityUncertified(LevyhomError):
    """The certified lower bound of the coefficient is not positive."""


class TruncationTooSmall(LevyhomError):
    """The Fourier truncation cannot hold the coefficient's couplings."""


class QuadratureNotConverged(LevyhomError):
    """Successive quadrature refinements disagree beyond tolerance."""


class ConvergenceFailure(LevyhomError):
    """The underlying eigensolver failed or returned invalid output."""


class GapViolation(LevyhomError):
    """The spectral-gap picture (one eigenvalue under the cutoff) broke down."""


class ContourTooClose(LevyhomError):
    """An eigenvalue sits too close to the integration contour."""


class BoundViolated(LevyhomError):
    """A quantitative bound check failed; carries the offending point."""

    def __init__(self, message, xi=None, margin=None):
        super().__init__(message)
        self.xi = xi
        self.margin = margin


class TruncationUnstable(LevyhomError):
    """Doubling the truncation moved study results by more than 5%."""

    def __init__(self, message, result=None):
        super().__init__(message)
        self.result = result


class DegenerateFit(LevyhomError):
    """Not enough positive, distinct points for a log-log slope fit."""


class BlockLeak(LevyhomError):
    """A fiber entry outside the coupling blocks is nonzero."""
