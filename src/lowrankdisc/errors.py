"""Exception hierarchy shared by all modules.

The CLI maps these to process exit codes; see the EXIT_* constants in cli.
"""


class LowRankDiscError(Exception):
    """Base class for all package errors."""


class MatrixParseError(LowRankDiscError):
    """Matrix text input is malformed (bad header, ragged rows, bad chars)."""


class CapacityError(LowRankDiscError):
    """Requested computation exceeds a configured size budget."""


class RegimeError(LowRankDiscError):
    """Input violates a density/degree regime precondition (e.g. d > n/2)."""


class EigenError(LowRankDiscError):
    """Eigendecomposition failed to meet the requested tolerance."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class CertificateError(LowRankDiscError):
    """A certificate failed its own validity checks (e.g. diagonal > 1)."""


class DecrementStalled(LowRankDiscError):
    """No strictly density-decreasing half-rectangle found within budget.

    Carries the best candidate rectangle found so far and, when raised from
    the full pipeline, the trace accumulated up to the stall.
    """

    def __init__(self, message, best=None, trace=None):
        super().__init__(message)
        self.best = best
        self.trace = trace


class RankWitnessError(LowRankDiscError):
    """A permutation submatrix certifies that a rank precondition was false."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness
