"""Time-dependent Lagrangian systems and their two evolution fields.

A system is described by a scalar function L(t, q, v) together with its
first partial derivatives in q and v. From these the module computes

* the second-order evolution field (velocity and acceleration) obtained
  by isolating the accelerations from the Euler-Lagrange equations,
* the energy  E(t, q, v) = <dL/dv, v> - L,
* the fiber derivative (t, q, v) -> (t, q, p = dL/dv) and its inverse,
* the first-order field on momentum variables whose integral curves
  satisfy Hamilton's equations, derived from the same L.

Accelerations are taken from `acceleration` when the model supplies a
closed form; otherwise the velocity Hessian W = d2L/dv2 and the mixed
second derivatives are assembled by central finite differences of dL/dv
and the linear system W * a = dL/dq - (d2L/dvdq) v - d2L/dvdt is solved
with numpy.linalg.solve after a check of W's condition number. The same
solve serves the Newton inverse of the fiber derivative. One kernel,
`_central_differences`, holds the difference rule for every derivative
taken here and in the reduction layer. The module needs only numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from .errors import NoConvergence, SingularHessian

FD_STEP = 1e-6
NEWTON_TOL = 1e-12
NEWTON_MAXITER = 50
CONDITION_BOUND = 1e8  # on the velocity-Hessian condition number


def _central_differences(f, x) -> np.ndarray:
    """Central-difference derivatives of f at the point x (a sequence of
    n floats), at the step h = max(1, |x|inf) * FD_STEP.

    Entry [..., j] is (f(x + h e_j) - f(x - h e_j)) / 2h: an (m, n)
    Jacobian for an f with (m,) values, an (n,) gradient for a scalar f.
    """
    x = np.asarray(x, float)
    h = FD_STEP * max(1.0, float(np.max(np.abs(x))))
    cols = []
    for j in range(x.size):
        xp = x.copy(); xp[j] += h
        xm = x.copy(); xm[j] -= h
        cols.append((f(xp) - f(xm)) / (2*h))
    return np.stack(cols, axis=-1)


@dataclass(frozen=True)
class State:
    """A point (t, q, v) of the extended velocity phase space."""

    t: float
    q: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "q", np.atleast_1d(np.asarray(self.q, float)))
        object.__setattr__(self, "v", np.atleast_1d(np.asarray(self.v, float)))

    def is_finite(self):
        return (np.isfinite(self.t) and np.all(np.isfinite(self.q))
                and np.all(np.isfinite(self.v)))


@dataclass(frozen=True)
class CoState:
    """A point (t, q, p) of the extended momentum phase space."""

    t: float
    q: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "q", np.atleast_1d(np.asarray(self.q, float)))
        object.__setattr__(self, "p", np.atleast_1d(np.asarray(self.p, float)))


@dataclass(frozen=True)
class LagrangianSystem:
    """A time-dependent Lagrangian with its first derivatives.

    Attributes:
        dim: configuration dimension n.
        lagrangian: L(t, q, v) -> float.
        dL_dq: (t, q, v) -> array of n partials in q.
        dL_dv: (t, q, v) -> array of n partials in v (the momenta).
        acceleration: optional closed form of the accelerations. It gets
            q and v as lists of n Python floats and returns a list of n
            floats, which spares the stepping loop numpy's per-call
            overhead; it must not modify its arguments. When absent the
            accelerations are solved numerically from the Euler-Lagrange
            equations.

    Where the velocity Hessian is solved (accelerations without a
    closed form, and the inverse fiber derivative), states where it is
    not finite or its condition number exceeds CONDITION_BOUND are
    rejected with SingularHessian.

    Instances are immutable and safe to share between concurrent runs.
    """

    dim: int
    lagrangian: Callable[[float, np.ndarray, np.ndarray], float]
    dL_dq: Callable[[float, np.ndarray, np.ndarray], np.ndarray]
    dL_dv: Callable[[float, np.ndarray, np.ndarray], np.ndarray]
    acceleration: Optional[Callable[[float, List[float], List[float]],
                                    List[float]]] = None

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be a positive integer")

    # -- second derivatives by finite differences ----------------------

    def velocity_hessian(self, t, q, v) -> np.ndarray:
        """W[i, j] = d(dL/dv_i)/dv_j by central differences."""
        return _central_differences(lambda x: self.dL_dv(t, q, x), v)

    def _solve_hessian(self, t, q, v, rhs):
        """W^-1 rhs for the velocity Hessian W at (t, q, v). Raises
        SingularHessian when W is not finite or its condition number
        exceeds CONDITION_BOUND (hyperregularity is lost)."""
        W = self.velocity_hessian(t, q, v)
        if not (np.all(np.isfinite(W))
                and np.linalg.cond(W) <= CONDITION_BOUND):
            raise SingularHessian(
                f"velocity Hessian not finite or its condition number "
                f"exceeds {CONDITION_BOUND:.1e} at t={t:.6g}")
        return np.linalg.solve(W, rhs)

    def _accelerations(self, t, q, v) -> np.ndarray:
        """Accelerations solving the Euler-Lagrange equations at (t, q, v).

        Raises SingularHessian when hyperregularity is lost.
        """
        if self.acceleration is not None:
            return np.array(self.acceleration(t, q.tolist(), v.tolist()),
                            float)
        rhs = (self.dL_dq(t, q, v)
               - _central_differences(lambda x: self.dL_dv(t, x, v), q) @ v
               - _central_differences(lambda x: self.dL_dv(x[0], q, v),
                                      [t])[:, 0])
        return self._solve_hessian(t, q, v, rhs)

    # -- operations -----------------------------------------------------

    def evolution_field(self, s: State):
        """Velocity and acceleration (dq, dv) of the evolution field.

        dq = v; dv solves the Euler-Lagrange equations at (t, q, v).
        Raises SingularHessian when hyperregularity is lost.
        """
        return s.v.copy(), self._accelerations(s.t, s.q, s.v)

    def energy(self, s: State) -> float:
        """E = <dL/dv, v> - L at the state."""
        return float(np.dot(self.dL_dv(s.t, s.q, s.v), s.v)
                     - self.lagrangian(s.t, s.q, s.v))

    def legendre(self, s: State) -> CoState:
        """Fiber derivative: (t, q, v) -> (t, q, p = dL/dv)."""
        return CoState(s.t, s.q.copy(), np.asarray(self.dL_dv(s.t, s.q, s.v),
                                                   float).copy())

    def inverse_legendre(self, cs: CoState, v0=None) -> State:
        """Solve dL/dv(t, q, v) = p for v by damped-free Newton iteration.

        `v0` seeds the iteration (warm start); defaults to zero. The
        residual is driven below NEWTON_TOL * max(1, |p|). Raises
        NoConvergence after NEWTON_MAXITER iterations.
        """
        return State(cs.t, cs.q.copy(), self._velocity(cs.t, cs.q, cs.p, v0))

    def _velocity(self, t, q, p, v0=None) -> np.ndarray:
        """The Newton solve of `inverse_legendre`, on (t, q, p)."""
        v = np.zeros(self.dim) if v0 is None else np.asarray(v0, float).copy()
        tol = NEWTON_TOL * max(1.0, float(np.max(np.abs(p))))
        for _ in range(NEWTON_MAXITER):
            r = self.dL_dv(t, q, v) - p
            if np.max(np.abs(r)) <= tol:
                return v
            v = v - self._solve_hessian(t, q, v, r)
        raise NoConvergence(
            f"inverse fiber derivative did not converge at t={t:.6g}")

    def hamiltonian_field(self, t, q, p, v0=None):
        """(dq, dp) of the momentum-side evolution field at (t, q, p).

        Uses the exact identities dq = v(t, q, p) and dp = dL/dq
        evaluated at the recovered velocity; no differencing of any
        Hamiltonian. `v0` warm-starts the velocity recovery.
        """
        v = self._velocity(t, q, p, v0)
        return v, np.asarray(self.dL_dq(t, q, v), float).copy()

    # -- self-checks ------------------------------------------------------

    def derivative_consistency(self, states):
        """Compare dL_dq/dL_dv against central differences of L.

        Returns the maximal relative deviation over `states`; raises
        nothing. Intended for model validation and tests.
        """
        worst = 0.0
        for s in states:
            t, q, v = s.t, s.q, s.v
            scale = max(1.0, abs(self.lagrangian(t, q, v)))
            fd_q = _central_differences(lambda x: self.lagrangian(t, x, v), q)
            fd_v = _central_differences(lambda x: self.lagrangian(t, q, x), v)
            worst = max(worst, *(np.abs(fd_q - self.dL_dq(t, q, v)) / scale),
                        *(np.abs(fd_v - self.dL_dv(t, q, v)) / scale))
        return worst

    # -- packing helpers used by the integrators --------------------------

    def pack(self, s: State) -> np.ndarray:
        return np.concatenate([s.q, s.v])

    def rhs(self, t, y):
        """Packed evolution field y' = (v, a) for the ODE integrator.

        y is the packed state (q, v) as a list of 2n Python floats, as
        the step loop passes it, or as an array, as scipy's solvers do.
        A closed-form `acceleration` is called directly on the halves of
        y as lists and the field is returned as a list of Python floats;
        without one, the accelerations are solved on arrays and the
        field is an array.
        """
        acc = self.acceleration
        if acc is None:
            y = np.asarray(y, float)
            q, v = y[:self.dim], y[self.dim:]
            return np.concatenate([v, self._accelerations(t, q, v)])
        if not isinstance(y, list):
            y = y.tolist()
        dy = y[self.dim:]
        dy.extend(acc(t, y[:self.dim], dy))
        return dy
