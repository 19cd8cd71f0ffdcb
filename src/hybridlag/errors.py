"""Exception types raised across the package.

Every error carries a human-readable message; some carry the partially
computed object (e.g. a truncated flow) so callers can inspect how far a
run got before it stopped.
"""


class HybridLagError(Exception):
    """Base class for all package errors."""


class SingularHessian(HybridLagError):
    """Velocity Hessian is numerically singular; the system is not
    hyperregular at the queried state."""


class NoConvergence(HybridLagError):
    """An iterative solve (Newton) failed to reach tolerance."""


class InvalidStart(HybridLagError):
    """Initial state of a hybrid run violates the admissibility
    precondition (outside the guard, or on it while entering)."""


class InvalidReset(HybridLagError):
    """A reset map produced an inadmissible post-impact state
    (non-finite, or immediately re-triggering the guard)."""


class BracketInvalid(HybridLagError):
    """Event bracket contains no guard crossing."""


class DirectionRejected(HybridLagError):
    """A guard crossing exists but its admissibility function is
    negative there; the crossing is not an impact."""


class ZenoSuspected(HybridLagError):
    """Impact accumulation detected (dwell below threshold or the impact
    cap reached). Raised only in strict mode; carries the partial flow."""

    def __init__(self, message, flow=None):
        super().__init__(message)
        self.flow = flow


class IntegrationFailure(HybridLagError):
    """Step-size collapse inside the continuous integrator. Raised only
    in strict mode; carries the partial flow."""

    def __init__(self, message, flow=None):
        super().__init__(message)
        self.flow = flow


class NotInvariant(HybridLagError):
    """Sampled symmetry checks failed: the system is not invariant under
    the cyclic shift, so reduction is not defined."""


class NegativeDiscriminant(HybridLagError):
    """Radial reset formula produced a negative square argument beyond
    round-off, signalling an inconsistent impact state."""


class ChartSingularity(HybridLagError):
    """Trajectory approached the polar chart singularity r = 0."""


class ParseError(HybridLagError):
    """Run configuration could not be parsed or validated."""

    def __init__(self, message, key=None):
        super().__init__(message)
        self.key = key
