"""Exception types raised across the package.

Every error carries a human-readable message; `ParseError` also names
the configuration key it rejects.
"""


class HybridLagError(Exception):
    """Base class for all package errors."""


class SingularHessian(HybridLagError):
    """Velocity Hessian is numerically singular; the system is not
    hyperregular at the queried state."""


class NoConvergence(HybridLagError):
    """An iterative solve (Newton) failed to reach tolerance."""


class InvalidStart(HybridLagError):
    """A run cannot start where it was asked to: t_end is not finite or
    precedes the start time, the start time or t_end is an int beyond
    the float range, the start's q or v does not have the
    system's shape (n,) (`LagrangianSystem.pack`), the start state fails
    the arc-start rule (`hybrid._check_arc_start`: not finite, outside
    the guard, on it and not leaving, or a guard whose arithmetic leaves
    the float range there), the momentum passed to
    `reduce` is not finite, or the start angle passed to `reconstruct`
    is not finite."""


class InvalidReset(HybridLagError):
    """A post-impact state fails the arc-start rule that every arc start
    is held to (`hybrid._check_arc_start`: not finite, outside the guard,
    on it and not leaving, or a guard whose arithmetic leaves the float
    range there), or the billiard's reset was asked for on a
    closed wall (f(t) <= 0)."""


class IntegrationFailure(HybridLagError):
    """The continuous integration of an arc cannot go on: the right-hand
    side is not finite at an arc start, the arc runner's arithmetic
    leaves the float range (an `ArithmeticError`, such as an overflowing
    field, a division by a zero initial step size or numpy's overflow,
    which the runner meets as a `FloatingPointError`; it is chained from
    the original), the guard or its rate is NaN where the executor reads
    it (an arc start's rate, a scan sample, a refinement point), or a
    located impact misses the guard by more than its tolerance."""


class NotInvariant(HybridLagError):
    """Sampled symmetry checks failed: the system is not invariant under
    the cyclic shift, so reduction is not defined."""


class ChartSingularity(HybridLagError):
    """Trajectory approached the polar chart singularity r = 0."""


class WeightOverflow(HybridLagError):
    """The billiard's Lagrangian weight exp(c t / m), or an inverse
    weight exp(-c t / m) or exp(-2 c t / m) of the reduced system, passes
    the float range at the time it is asked for, as it does once its
    exponent exceeds about 709."""


class ParseError(HybridLagError):
    """Run configuration could not be parsed or validated."""

    def __init__(self, message, key=None):
        super().__init__(message)
        self.key = key
