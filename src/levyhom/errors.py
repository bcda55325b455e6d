"""Exception types shared across the workbench.

Every quantity that cannot be measured raises a :class:`LevyhomError`, which
the CLI reports as a failed `measurement` verdict (exit 2), apart from I/O
and usage problems (exit 1).
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
    """QUADPACK flagged or refused an integral."""


class ConvergenceFailure(LevyhomError):
    """The underlying eigensolver failed or returned invalid output."""


class DegenerateFit(LevyhomError):
    """Not enough positive, distinct points for a log-log slope fit."""
