"""Time-dependent Lagrangian systems and their two evolution fields.

A system is described by a scalar function L(t, q, v) together with its
first partial derivatives in q and v. From these the module computes

* the packed second-order evolution field `rhs`, y' = (v, a) on
  y = (q, v), that the step loop integrates, with the accelerations
  isolated from the Euler-Lagrange equations,
* the energy  E(t, q, v) = <dL/dv, v> - L,
* the fiber derivative (t, q, v) -> (t, q, p = dL/dv) and its inverse,
* the first-order field on momentum variables whose integral curves
  satisfy Hamilton's equations, derived from the same L.

The evolution field is the model's `field` when it supplies that
closed form; otherwise the velocity Hessian W = d2L/dv2 and the mixed
second derivatives are assembled by central finite differences of dL/dv
and the linear system W * a = dL/dq - (d2L/dvdq) v - d2L/dvdt is solved
for the accelerations with numpy.linalg.solve after a check of W's
condition number. The same solve serves the Newton inverse of the
fiber derivative. One kernel, `_central_differences`, holds the
difference rule for every derivative taken here and in the reduction
layer. The module needs only numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from .errors import InvalidStart, NoConvergence, SingularHessian

FD_STEP = 1e-6
NEWTON_TOL = 1e-12
NEWTON_MAXITER = 50
CONDITION_BOUND = 1e8  # on the velocity-Hessian condition number
_FLOAT64 = np.dtype(float)


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
    """A point (t, q, v) of the extended velocity phase space. q and v
    are kept as float64 arrays of at least one dimension; 1-D float64
    ndarrays, such as the executor's views, are kept as they are."""

    t: float
    q: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        q, v = self.q, self.v
        if (type(q) is np.ndarray and type(v) is np.ndarray
                and q.dtype is _FLOAT64 and v.dtype is _FLOAT64
                and q.ndim == 1 and v.ndim == 1):
            # what asarray and atleast_1d would return unchanged
            return
        object.__setattr__(self, "q", np.atleast_1d(np.asarray(q, float)))
        object.__setattr__(self, "v", np.atleast_1d(np.asarray(v, float)))


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
        field: optional closed form of the packed evolution field,
            field(t, y) -> y' = (v, a). It gets the packed state (q, v)
            as a list of 2n Python floats, which it must not modify, and
            returns a list of 2n floats; the step loop calls it as its
            right-hand side (`rhs`), one Python call per stage. When
            absent the accelerations are solved numerically from the
            Euler-Lagrange equations.

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
    field: Optional[Callable[[float, List[float]], List[float]]] = None

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

    # -- operations -----------------------------------------------------

    def energy(self, s: State) -> float:
        """E = <dL/dv, v> - L at the state, which must have the system's
        shape (`pack`)."""
        self._check_shape(s)
        return float(np.dot(self.dL_dv(s.t, s.q, s.v), s.v)
                     - self.lagrangian(s.t, s.q, s.v))

    def legendre(self, s: State) -> CoState:
        """Fiber derivative: (t, q, v) -> (t, q, p = dL/dv), at a state
        of the system's shape (`pack`)."""
        self._check_shape(s)
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

    def _check_shape(self, s: State):
        """Raises InvalidStart unless q and v of s both have shape (n,),
        n = dim."""
        if s.q.shape != (self.dim,) or s.v.shape != (self.dim,):
            raise InvalidStart(
                f"state has q of shape {s.q.shape} and v of shape "
                f"{s.v.shape}; a system of dim {self.dim} takes both of "
                f"shape ({self.dim},)")

    def pack(self, s: State) -> np.ndarray:
        """The packed state (q, v) of s, shape (2n,). Raises InvalidStart
        unless q and v both have shape (n,), n = dim: every run packs its
        start here."""
        self._check_shape(s)
        return np.concatenate([s.q, s.v])

    @property
    def rhs(self):
        """The packed evolution field y' = (v, a), rhs(t, y), with a
        solving the Euler-Lagrange equations at (t, q, v): the step
        loop's right-hand side, a list of 2n floats in, a list of 2n
        floats out. It is the closed-form `field` itself when the model
        has one, so each stage is one call into the model's arithmetic;
        otherwise a field that solves the accelerations on arrays
        (`_solved_field`), which raises SingularHessian where
        hyperregularity is lost."""
        return self._solved_field if self.field is None else self.field

    def _solved_field(self, t, y):
        """(v, a) as a list, for y a list or array of 2n floats, with a
        solving W a = dL/dq - (d2L/dvdq) v - d2L/dvdt for the velocity
        Hessian W. Raises SingularHessian when hyperregularity is
        lost."""
        y = np.asarray(y, float)
        q, v = y[:self.dim], y[self.dim:]
        rhs = (self.dL_dq(t, q, v)
               - _central_differences(lambda x: self.dL_dv(t, x, v), q) @ v
               - _central_differences(lambda x: self.dL_dv(x[0], q, v),
                                      [t])[:, 0])
        return np.concatenate([v, self._solve_hessian(t, q, v, rhs)]).tolist()
