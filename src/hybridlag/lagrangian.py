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
with a pivoted LU factorization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from .errors import NoConvergence, SingularHessian

FD_STEP = 1e-6
NEWTON_TOL = 1e-12
NEWTON_MAXITER = 50
CONDITION_BOUND = 1e8  # on the velocity-Hessian condition estimate


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
        acceleration: optional closed-form (t, q, v) -> array of n
            accelerations. When absent the accelerations are solved
            numerically from the Euler-Lagrange equations.

    States where a cheap estimate of the velocity-Hessian condition
    number exceeds CONDITION_BOUND are rejected with SingularHessian.

    Instances are immutable and safe to share between concurrent runs.
    """

    dim: int
    lagrangian: Callable[[float, np.ndarray, np.ndarray], float]
    dL_dq: Callable[[float, np.ndarray, np.ndarray], np.ndarray]
    dL_dv: Callable[[float, np.ndarray, np.ndarray], np.ndarray]
    acceleration: Optional[Callable[[float, np.ndarray, np.ndarray],
                                    np.ndarray]] = None

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be a positive integer")

    # -- second derivatives by finite differences ----------------------

    def velocity_hessian(self, t, q, v) -> np.ndarray:
        """W[i, j] = d(dL/dv_i)/dv_j by central differences."""
        h = FD_STEP * max(1.0, float(np.max(np.abs(v))))
        W = np.empty((self.dim, self.dim))
        for j in range(self.dim):
            vp = v.copy(); vp[j] += h
            vm = v.copy(); vm[j] -= h
            W[:, j] = (self.dL_dv(t, q, vp) - self.dL_dv(t, q, vm)) / (2*h)
        return W

    def _mixed_qv(self, t, q, v) -> np.ndarray:
        """M[i, j] = d(dL/dv_i)/dq_j by central differences."""
        h = FD_STEP * max(1.0, float(np.max(np.abs(q))))
        M = np.empty((self.dim, self.dim))
        for j in range(self.dim):
            qp = q.copy(); qp[j] += h
            qm = q.copy(); qm[j] -= h
            M[:, j] = (self.dL_dv(t, qp, v) - self.dL_dv(t, qm, v)) / (2*h)
        return M

    def _mixed_tv(self, t, q, v) -> np.ndarray:
        """d(dL/dv)/dt by central differences."""
        h = FD_STEP * max(1.0, abs(t))
        return (self.dL_dv(t + h, q, v) - self.dL_dv(t - h, q, v)) / (2*h)

    def _factor_hessian(self, t, q, v):
        W = self.velocity_hessian(t, q, v)
        try:
            lu, piv = lu_factor(W)
        except Exception as exc:
            raise SingularHessian(f"velocity Hessian not factorizable at "
                                  f"t={t:.6g}") from exc
        diag = np.abs(np.diag(lu))
        if diag.min() == 0.0 or diag.max() / diag.min() > CONDITION_BOUND:
            raise SingularHessian(
                f"velocity Hessian condition estimate exceeds "
                f"{CONDITION_BOUND:.1e} at t={t:.6g}")
        return lu, piv

    def _accelerations(self, t, q, v) -> np.ndarray:
        """Accelerations solving the Euler-Lagrange equations at (t, q, v).

        Raises SingularHessian when hyperregularity is lost.
        """
        if self.acceleration is not None:
            return np.atleast_1d(np.asarray(self.acceleration(t, q, v),
                                            float))
        lu_piv = self._factor_hessian(t, q, v)
        rhs = (self.dL_dq(t, q, v) - self._mixed_qv(t, q, v) @ v
               - self._mixed_tv(t, q, v))
        return lu_solve(lu_piv, rhs)

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
            v = v - lu_solve(self._factor_hessian(t, q, v), r)
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
            scale = max(1.0, abs(self.lagrangian(s.t, s.q, s.v)))
            hq = FD_STEP * max(1.0, float(np.max(np.abs(s.q))))
            hv = FD_STEP * max(1.0, float(np.max(np.abs(s.v))))
            for j in range(self.dim):
                qp = s.q.copy(); qp[j] += hq
                qm = s.q.copy(); qm[j] -= hq
                fd = (self.lagrangian(s.t, qp, s.v)
                      - self.lagrangian(s.t, qm, s.v)) / (2*hq)
                worst = max(worst, abs(fd - self.dL_dq(s.t, s.q, s.v)[j]) / scale)
                vp = s.v.copy(); vp[j] += hv
                vm = s.v.copy(); vm[j] -= hv
                fd = (self.lagrangian(s.t, s.q, vp)
                      - self.lagrangian(s.t, s.q, vm)) / (2*hv)
                worst = max(worst, abs(fd - self.dL_dv(s.t, s.q, s.v)[j]) / scale)
        return worst

    # -- packing helpers used by the integrators --------------------------

    def pack(self, s: State) -> np.ndarray:
        return np.concatenate([s.q, s.v])

    def rhs(self, t, y):
        """Packed evolution field y' = (v, a) for the ODE integrator.

        A closed-form `acceleration` is called directly; it must return
        an array of n floats.
        """
        q, v = y[:self.dim], y[self.dim:]
        acc = self.acceleration
        if acc is None:
            return np.concatenate([v, self._accelerations(t, q, v)])
        return np.concatenate([v, acc(t, q, v)])
