"""Cyclic-coordinate reduction of hybrid Lagrangian systems.

A cyclic coordinate is one the Lagrangian (and the guard and reset) does
not depend on; its conjugate momentum is conserved along continuous arcs.
Fixing the momentum value mu turns the n-dimensional system into an
(n-1)-dimensional one driven by the classical Routhian

    L_mu(t, x, xdot) = [L(t, theta_dot, x, xdot) - mu * theta_dot]
                       evaluated at theta_dot = theta_dot(t, x, xdot, mu),

with the cyclic velocity recovered from the momentum relation
dL/dtheta_dot = mu (this requires the relation to be solvable in
theta_dot: regularity in the group velocity). The reduced guard takes
(t, x, xdot) like the Routhian: it evaluates the full guard at the lift
of (x, xdot) to the momentum level set at cyclic angle 0, and the reduced
reset applies the full reset there and projects; it refuses an impact
that changes the momentum. Angle 0 stands for every angle because of the
invariance/equivariance conditions that `CyclicStructure.validate`
samples. A structure may carry a closed form of the reduced guard, which
then replaces the evaluation on the lift; `validate` checks it against
the full guard.

Only the product-of-shape-space-and-circle (or line) setting with the
flat connection is implemented; several cyclic coordinates are handled
by applying the reduction once per coordinate, rebuilding a
CyclicStructure on each intermediate shape system.

Because the Routhian derivatives are evaluated on the constraint surface
dL/dtheta_dot = mu, the derivative of the eliminated velocity drops out
(stationarity of the bracket in theta_dot), so the reduced first
derivatives are the full ones restricted to the embedded state with the
cyclic components removed; no differencing through the solver is needed.

Impacts that change the momentum are handled by the resequencing run, a
single executor run whose reset switches mode (the hybrid Routhian
reduction of Ames & Sastry, ACC 2006): at each impact the full reset is
applied at the lift, as in the reduced reset, and the next arc runs in
the reduced system rebuilt at the post-impact momentum. The cyclic angle
is reconstructed once the run ends, over all arcs, each at its own
momentum. Each arc is read as
columns: its interpolant and the cyclic-velocity solver are called once
on the whole quadrature grid, and composite Simpson quadrature sums the
result; no `State` is built per grid point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from .errors import InvalidStart, NoConvergence, NotInvariant
from .hybrid import (Arc, Event, Guard, HybridFlow, HybridSystem, ResetMap,
                     _check_arc_start, _execute)
# perfbench/tracing.py wraps reduction.simulate, so the name stays here
from .hybrid import simulate  # noqa: F401
from .lagrangian import (NEWTON_MAXITER, NEWTON_TOL, LagrangianSystem,
                         State, _central_differences)

DEFAULT_SHIFTS = (0.5, -1.3, 2.0 * math.pi, 17.0)  # cyclic shifts in validate
INVARIANCE_TOL = 1e-10  # relative tolerance of the checks in validate
PANELS_PER_STEP = 16  # Simpson panels per integrator step in reconstruction


@dataclass(frozen=True)
class CyclicStructure:
    """Designation of one cyclic coordinate of a hybrid system.

    Attributes:
        full: the hybrid system being reduced (dimension n).
        cyclic_index: index of the cyclic coordinate in [0, n); the
            conserved momentum is the cyclic component of dL/dv.
        cyclic_velocity_solver: optional closed form
            (t, x, xdot, mu) -> theta_dot with the array contract of
            `Arc.interpolant`: a scalar t with (m,) vectors gives a
            float, (k,) times with (m, k) columns give (k,). A Newton
            solve on the momentum relation, per column, is used when
            absent.
        routhian_factory: optional closed-form reduced system builder
            mu -> LagrangianSystem of dimension n-1.
        reduced_guard_factory: optional closed-form reduced guard builder
            mu -> Guard on shape-space (t, x, xdot); `reduce` uses it in
            place of the full guard on the lifted state. `validate` checks
            it against the full guard on every sample state, at the
            sample's own momentum.
        sample_states: states used by `validate` for the invariance
            checks of the Lagrangian and guard.
        guard_sample_states: on-guard states used by `validate` for the
            reset equivariance check (the reset formula need only be
            evaluable there).
    """

    full: HybridSystem
    cyclic_index: int
    cyclic_velocity_solver: Optional[Callable[[float, np.ndarray, np.ndarray,
                                               float], float]] = None
    routhian_factory: Optional[Callable[[float], LagrangianSystem]] = None
    reduced_guard_factory: Optional[Callable[[float], Guard]] = None
    sample_states: Sequence[State] = ()
    guard_sample_states: Sequence[State] = ()

    def __post_init__(self):
        n = self.full.system.dim
        if not 0 <= self.cyclic_index < n:
            raise ValueError(f"cyclic_index must lie in [0, {n})")
        if n < 2:
            raise ValueError("reduction needs at least two coordinates")

    # -- basic geometry ---------------------------------------------------

    @property
    def dim_reduced(self) -> int:
        return self.full.system.dim - 1

    def drop(self, vec: np.ndarray) -> np.ndarray:
        vec = np.asarray(vec, float)
        ci = self.cyclic_index
        return np.concatenate([vec[:ci], vec[ci + 1:]])

    def insert(self, vec: np.ndarray, value: float) -> np.ndarray:
        vec = np.asarray(vec, float)
        ci = self.cyclic_index
        return np.concatenate([vec[:ci], [float(value)], vec[ci:]])

    def shift(self, q: np.ndarray, amount: float) -> np.ndarray:
        """A copy of q with the cyclic angle moved by amount."""
        q = np.array(q, float)
        q[self.cyclic_index] += amount
        return q

    def project_state(self, s: State) -> State:
        """The shape-space state of a full state s, which must have the
        full system's shape (`LagrangianSystem.pack`)."""
        self.full.system._check_shape(s)
        return State(s.t, self.drop(s.q), self.drop(s.v))

    def embed(self, t: float, x: np.ndarray, xdot: np.ndarray, mu: float):
        """Lift a shape-space point to the momentum-mu level set at cyclic
        angle 0; returns the full (q, v)."""
        theta_dot = self.solve_cyclic_velocity(t, x, xdot, mu)
        return self.insert(x, 0.0), self.insert(xdot, theta_dot)

    # -- momentum and cyclic velocity --------------------------------------

    def momentum_value(self, t: float, q: np.ndarray, v: np.ndarray) -> float:
        """The cyclic component of dL/dv at (t, q, v)."""
        return float(self.full.system.dL_dv(t, q, v)[self.cyclic_index])

    def solve_cyclic_velocity(self, t, x, xdot, mu):
        """Recover theta_dot from the momentum relation at (t, x, xdot):
        a float at a scalar t, (k,) values at (k,) times and (m, k)
        columns (one call of the closed form, or Newton per column).
        Newton follows the rule of `LagrangianSystem.inverse_legendre`:
        residual below NEWTON_TOL * max(1, |mu|) within NEWTON_MAXITER
        iterations, or NoConvergence."""
        if self.cyclic_velocity_solver is not None:
            theta_dot = self.cyclic_velocity_solver(t, x, xdot, mu)
            return (float(theta_dot) if np.ndim(t) == 0
                    else np.asarray(theta_dot, float))
        if np.ndim(t) > 0:
            return np.array([self.solve_cyclic_velocity(tt, x[:, i],
                                                        xdot[:, i], mu)
                             for i, tt in enumerate(t)])
        sys = self.full.system
        ci = self.cyclic_index
        q = self.insert(x, 0.0)
        tol = NEWTON_TOL * max(1.0, abs(mu))
        theta_dot = 0.0
        for _ in range(NEWTON_MAXITER):
            v = self.insert(xdot, theta_dot)
            r = float(sys.dL_dv(t, q, v)[ci]) - mu
            if abs(r) <= tol:
                return theta_dot
            slope = float(_central_differences(
                lambda x: sys.dL_dv(t, q, self.insert(xdot, x[0]))[ci],
                [theta_dot])[0])
            if slope == 0.0:
                break
            theta_dot -= r / slope
        raise NoConvergence(
            f"cyclic velocity solve stalled at t={t:.6g} (momentum relation "
            f"not regular here)")

    # -- sampled symmetry checks -------------------------------------------

    def validate(self):
        """Check cyclic invariance of L, the guard and the reset on the
        attached sample states under the DEFAULT_SHIFTS, and the
        closed-form reduced guard, when there is one, against the full
        guard, each to INVARIANCE_TOL. Raises NotInvariant on failure."""
        tol = INVARIANCE_TOL
        sys = self.full.system
        guard = self.full.guard

        def off(x, base):
            """x differs from base by more than tol, relative."""
            return abs(x - base) > tol * max(1.0, abs(base))

        # the guard and the reset take lists of floats (`Guard`)
        for s in self.sample_states:
            q, v = s.q.tolist(), s.v.tolist()
            base_l = sys.lagrangian(s.t, s.q, s.v)
            base_g = guard.surface(s.t, q, v)
            base_d = guard.direction(s.t, q, v)
            if self.reduced_guard_factory is not None:
                red = self.reduced_guard_factory(momentum_map(self, s))
                x, xdot = self.drop(s.q).tolist(), self.drop(s.v).tolist()
                if (off(red.surface(s.t, x, xdot), base_g)
                        or off(red.direction(s.t, x, xdot), base_d)):
                    raise NotInvariant(
                        f"closed-form reduced guard disagrees with the full "
                        f"guard at t={s.t:.6g}")
            for a in DEFAULT_SHIFTS:
                shifted = self.shift(s.q, a)
                if off(sys.lagrangian(s.t, shifted, s.v), base_l):
                    raise NotInvariant(
                        f"Lagrangian varies along the cyclic shift by more "
                        f"than {tol:g} at t={s.t:.6g}")
                q = shifted.tolist()
                if off(guard.surface(s.t, q, v), base_g):
                    raise NotInvariant("guard surface is not cyclic-invariant")
                if off(guard.direction(s.t, q, v), base_d):
                    raise NotInvariant("guard direction is not cyclic-invariant")
        reset = self.full.reset
        for s in self.guard_sample_states:
            v = s.v.tolist()
            q_post, v_post = reset.apply(s.t, s.q.tolist(), v)
            for a in DEFAULT_SHIFTS:
                q_sh, v_sh = reset.apply(s.t, self.shift(s.q, a).tolist(), v)
                dq = np.subtract(q_sh, self.shift(q_post, a))
                err = max(float(np.max(np.abs(dq))),
                          float(np.max(np.abs(np.subtract(v_sh, v_post)))))
                if err > tol * max(1.0, float(np.max(np.abs(v_post)))):
                    raise NotInvariant(
                        f"reset map is not equivariant under the cyclic "
                        f"shift (deviation {err:.3e})")


@dataclass(frozen=True)
class ReducedHybridSystem:
    """Hybrid system on the shape space at one momentum value."""

    shape: HybridSystem


@dataclass
class ReconstructedFlow:
    """A reduced flow together with the rebuilt cyclic coordinate.

    theta/theta_dot are aligned with each arc's step grid; mu_sequence[k]
    is the momentum value active on arc k.
    """

    reduced: HybridFlow
    theta: List[np.ndarray]
    theta_dot: List[np.ndarray]
    mu_sequence: List[float]
    max_momentum_residual: float


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def momentum_map(cs: CyclicStructure, s: State) -> float:
    """Conserved quantity of the cyclic symmetry at a full state, which
    must have the full system's shape (`LagrangianSystem.pack`)."""
    cs.full.system._check_shape(s)
    return cs.momentum_value(s.t, s.q, s.v)


def routhian(cs: CyclicStructure, mu: float) -> LagrangianSystem:
    """Reduced Lagrangian system at momentum mu.

    Uses the registered closed-form factory when available; otherwise
    composes the full Lagrangian with the cyclic-velocity solve. The
    composed first derivatives are the full ones restricted to the
    embedding, which is exact on the momentum level set.
    """
    if cs.routhian_factory is not None:
        return cs.routhian_factory(mu)
    sys = cs.full.system
    ci = cs.cyclic_index

    def lag(t, x, xdot):
        q, v = cs.embed(t, x, xdot, mu)
        return sys.lagrangian(t, q, v) - mu * v[ci]

    def dq(t, x, xdot):
        return cs.drop(sys.dL_dq(t, *cs.embed(t, x, xdot, mu)))

    def dv(t, x, xdot):
        return cs.drop(sys.dL_dv(t, *cs.embed(t, x, xdot, mu)))

    return LagrangianSystem(dim=cs.dim_reduced, lagrangian=lag, dL_dq=dq,
                            dL_dv=dv)


def reduce(cs: CyclicStructure, mu: float,
           validate: bool = True) -> ReducedHybridSystem:
    """Build the reduced hybrid system at momentum mu.

    The reduced guard is the structure's closed form when it has one;
    otherwise it evaluates the full guard's surface and direction on the
    lifted state (at cyclic angle 0, which the validated invariance makes
    immaterial). The reduced reset is `_lifted_reset`, which must keep mu
    (to INVARIANCE_TOL, relative). Raises InvalidStart when mu is not
    finite (the momentum of a non-finite state) and NotInvariant when
    the sampled checks fail or an impact changes the momentum.
    """
    if not math.isfinite(mu):
        raise InvalidStart(f"momentum {mu!r} is not finite")
    if validate:
        cs.validate()

    if cs.reduced_guard_factory is not None:
        guard = cs.reduced_guard_factory(mu)
    else:
        def lifted(fun):
            """A full guard function fun(t, q, v) on the lifted state."""
            def f(t, x, xdot):
                q, v = cs.embed(t, x, xdot, mu)
                return fun(t, q.tolist(), v.tolist())
            return f

        guard = Guard(surface=lifted(cs.full.guard.surface),
                      direction=lifted(cs.full.guard.direction))

    def reset_red(t, x, xdot):
        x_post, xdot_post, mu_post, _ = _lifted_reset(cs, mu, t, x, xdot)
        if abs(mu_post - mu) > INVARIANCE_TOL * max(1.0, abs(mu)):
            raise NotInvariant(
                f"reset changed the momentum at t={t!r}: mu={mu!r}, "
                f"mu_post={mu_post!r}; use simulate_resequenced")
        return x_post, xdot_post

    shape = HybridSystem(system=routhian(cs, mu), guard=guard,
                         reset=ResetMap(apply=reset_red))
    return ReducedHybridSystem(shape=shape)


def _lifted_reset(cs: CyclicStructure, mu: float, t, x, xdot):
    """The full reset at the lift of (x, xdot) to momentum mu and cyclic
    angle 0: (x_post, xdot_post, mu_post, theta_post), the projected post
    state as two lists of floats, its momentum and its cyclic angle. The
    reset gets and gives lists (`ResetMap`); the lift and the momentum
    take arrays."""
    q, v = cs.embed(t, x, xdot, mu)
    q_post, v_post = (np.asarray(y, float) for y in cs.full.reset.apply(
        t, q.tolist(), v.tolist()))
    return (cs.drop(q_post).tolist(), cs.drop(v_post).tolist(),
            cs.momentum_value(t, q_post, v_post),
            float(q_post[cs.cyclic_index]))


def project(cs: CyclicStructure, flow: HybridFlow) -> HybridFlow:
    """Drop the cyclic coordinate and velocity from a full flow."""
    n = cs.full.system.dim
    ci = cs.cyclic_index
    cols = np.array([ci, n + ci])
    arcs = []
    for arc in flow.arcs:
        arcs.append(Arc(arc.t_start, arc.t_end, arc.times.copy(),
                        np.delete(arc.states, cols, axis=1),
                        _projected(arc.interpolant, cols)))
    events = [Event(e.tau, cs.project_state(e.pre), cs.project_state(e.post),
                    e.guard_residual) for e in flow.events]
    return HybridFlow(arcs, events, flow.termination)


def _projected(parent, cols):
    """`parent` with the rows `cols` removed, for scalar and array t."""
    return lambda t: np.delete(parent(t), cols, axis=0)


def reconstruct(cs: CyclicStructure, red: HybridFlow, mu0: float,
                theta0: float) -> ReconstructedFlow:
    """Rebuild the cyclic coordinate along a reduced flow at constant
    momentum (the momentum-preserving case).

    theta is obtained per arc by composite Simpson quadrature of the
    solved cyclic velocity on a refinement of the integrator grid, and is
    continuous across impacts (impacts leave the configuration alone).
    Raises InvalidStart when theta0 is not finite.
    """
    if not math.isfinite(theta0):
        raise InvalidStart(f"start angle {theta0!r} is not finite")
    n_arcs = len(red.arcs)
    theta, theta_dot, resid = _reconstruct_arcs(
        cs, red.arcs, [mu0] * n_arcs, [theta0] + [0.0] * (n_arcs - 1))
    return ReconstructedFlow(red, theta, theta_dot, [mu0] * n_arcs, resid)


def _reconstruct_arcs(cs: CyclicStructure, arcs: Sequence[Arc],
                      mus: Sequence[float], jumps: Sequence[float]):
    """Cyclic angle and velocity on each arc's step grid.

    Arc k is integrated at momentum mus[k], starting from the angle the
    previous arc ended at plus jumps[k] (jumps[0] is the start angle).
    Each arc is evaluated once on its quadrature grid and the cyclic
    velocity is solved there in one call. Returns (theta per arc,
    theta_dot per arc, worst momentum residual).
    """
    m = cs.dim_reduced
    stride = 2 * PANELS_PER_STEP
    panel_points = np.arange(stride + 1, dtype=float)
    theta_arcs, theta_dot_arcs = [], []
    acc = 0.0
    worst = 0.0
    for arc, mu, jump in zip(arcs, mus, jumps):
        # each step [a, b] split as np.linspace(a, b, stride + 1) does
        a, b = arc.times[:-1, None], arc.times[1:, None]
        grid = panel_points * ((b - a) / stride) + a
        grid[:, -1] = b[:, 0]
        fine = np.concatenate([arc.times[:1], grid[:, 1:].ravel()])
        ys = arc(fine)
        thd = cs.solve_cyclic_velocity(fine, ys[:m], ys[m:], mu)
        # th[j] is the angle at fine[2 j], after j Simpson panels; every
        # PANELS_PER_STEP-th one lies on the step grid
        h = fine[2::2] - fine[:-2:2]
        seg = h / 6.0 * (thd[:-2:2] + 4.0 * thd[1:-1:2] + thd[2::2])
        th = np.cumsum(np.concatenate([[acc + jump], seg]))
        acc = th[-1]
        # verify the rebuilt full states sit on the momentum level set
        for k in (0, len(fine) // 2, len(fine) - 1):
            q = cs.insert(ys[:m, k], th[k // 2])
            v = cs.insert(ys[m:, k], thd[k])
            worst = max(worst, abs(cs.momentum_value(fine[k], q, v) - mu))
        theta_arcs.append(th[::PANELS_PER_STEP].copy())
        theta_dot_arcs.append(thd[::stride].copy())
    return theta_arcs, theta_dot_arcs, worst


def simulate_resequenced(cs: CyclicStructure, s0: State,
                         t_end: float) -> ReconstructedFlow:
    """Run the reduced dynamics with the momentum rebuilt after every
    impact.

    The full start s0 must have the full system's shape
    (`LagrangianSystem.pack`) and pass `_check_arc_start` under the full
    guard, or InvalidStart is raised before any reduced system is built
    or validated. Then one executor run on the reduced system at the start
    momentum, validated once. Its reset applies the full reset at the
    lift (`_lifted_reset`), reads the new momentum off the post state,
    and continues in the reduced system rebuilt at the new momentum,
    whose guard checks the post state as the next arc's start. The
    cyclic angle is then reconstructed over all arcs, carrying any angle
    jump the resets make. For momentum-preserving resets the momentum
    sequence is constant, and the run agrees with reducing once, to
    round-off only (`test_resequenced_elastic_constant_momentum`, 1e-12
    relative; `test_resequenced_elastic_matches_reduce_once`, 1e-9).
    """
    guard, n = cs.full.guard, cs.full.system.dim
    y0 = cs.full.system.pack(s0).tolist()
    _check_arc_start(guard.surface, guard.direction, s0.t, y0[:n], y0[n:],
                     t_end, InvalidStart)
    m = cs.dim_reduced
    mus = [momentum_map(cs, s0)]
    jumps = [float(s0.q[cs.cyclic_index])]

    def mode_at(mu, validate=False):
        shape = reduce(cs, mu, validate=validate).shape

        def reset(tau, ypre):
            x, xdot, mu_next, theta = _lifted_reset(cs, mu, tau, ypre[:m],
                                                    ypre[m:])
            mus.append(mu_next)
            jumps.append(theta)
            return x, xdot, mode_at(mu_next)

        return (shape.system.rhs, shape.guard.surface, shape.guard.direction,
                reset)

    mode = mode_at(mus[0], validate=True)
    start = cs.project_state(s0)
    reduced = _execute(mode, s0.t, np.concatenate([start.q, start.v]), t_end)
    mus = mus[:len(reduced.arcs)]
    theta, theta_dot, resid = _reconstruct_arcs(cs, reduced.arcs, mus, jumps)
    return ReconstructedFlow(reduced, theta, theta_dot, mus, resid)
