"""Cyclic-coordinate reduction of hybrid Lagrangian systems.

A cyclic coordinate is one the Lagrangian (and the guard and reset) does
not depend on; its conjugate momentum is conserved along continuous arcs.
Fixing the momentum value mu turns the n-dimensional system into an
(n-1)-dimensional one driven by the classical Routhian

    L_mu(t, x, xdot) = [L(t, theta_dot, x, xdot) - mu * theta_dot]
                       evaluated at theta_dot = theta_dot(t, x, xdot, mu),

with the cyclic velocity recovered from the momentum relation
dL/dtheta_dot = mu (this requires the relation to be solvable in
theta_dot: regularity in the group velocity). The reduced guard and
reset are the full ones evaluated at an arbitrary cyclic angle, which is
well defined exactly because of the invariance/equivariance conditions
that `CyclicStructure.validate` samples.

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
reduction of Ames & Sastry, ACC 2006): at each impact the pre-impact
shape state is lifted at cyclic angle 0, the full reset is applied
there, and the next arc runs in the reduced system rebuilt at the
post-impact momentum. The cyclic angle is reconstructed once the run
ends, over all arcs, each at its own momentum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .errors import NoConvergence, NotInvariant
from .hybrid import (Arc, Event, Guard, HybridFlow, HybridSystem, ResetMap,
                     SimOptions, _check_start, _events, _execute,
                     _maybe_raise, _packed_guard, _validate_reset)
# perfbench/tracing.py wraps reduction.simulate, so the name stays here
from .hybrid import simulate  # noqa: F401
from .lagrangian import FD_STEP, LagrangianSystem, State

CYCLIC_SOLVE_TOL = 1e-12
CYCLIC_SOLVE_MAXITER = 50
DEFAULT_SHIFTS = (0.5, -1.3, 2.0 * math.pi, 17.0)
PANELS_PER_STEP = 8  # Simpson panels per integrator step in reconstruction


@dataclass(frozen=True)
class CyclicStructure:
    """Designation of one cyclic coordinate of a hybrid system.

    Attributes:
        full: the hybrid system being reduced (dimension n).
        cyclic_index: index of the cyclic coordinate in [0, n).
        momentum: optional override for the conserved quantity; defaults
            to the cyclic component of dL/dv.
        cyclic_velocity_solver: optional closed form
            (t, x, xdot, mu) -> theta_dot; a scalar Newton solve on the
            momentum relation is used when absent.
        routhian_factory: optional closed-form reduced system builder
            mu -> LagrangianSystem of dimension n-1.
        sample_states: states used by `validate` for the invariance
            checks of the Lagrangian and guard.
        guard_sample_states: on-guard states used by `validate` for the
            reset equivariance check (the reset formula need only be
            evaluable there).
        shift_amounts: cyclic shifts applied during sampling.
    """

    full: HybridSystem
    cyclic_index: int
    momentum: Optional[Callable[[State], float]] = None
    cyclic_velocity_solver: Optional[Callable[[float, np.ndarray, np.ndarray,
                                               float], float]] = None
    routhian_factory: Optional[Callable[[float], LagrangianSystem]] = None
    sample_states: Sequence[State] = ()
    guard_sample_states: Sequence[State] = ()
    shift_amounts: Sequence[float] = DEFAULT_SHIFTS

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
        return np.delete(np.asarray(vec, float), self.cyclic_index)

    def insert(self, vec: np.ndarray, value: float) -> np.ndarray:
        return np.insert(np.asarray(vec, float), self.cyclic_index, value)

    def shift(self, s: State, amount: float) -> State:
        q = s.q.copy()
        q[self.cyclic_index] += amount
        return State(s.t, q, s.v.copy())

    def project_state(self, s: State) -> State:
        return State(s.t, self.drop(s.q), self.drop(s.v))

    def embed(self, t: float, x: np.ndarray, xdot: np.ndarray, mu: float,
              theta: float = 0.0) -> State:
        """Lift a shape-space point to the momentum-mu level set."""
        theta_dot = self.solve_cyclic_velocity(t, x, xdot, mu)
        return State(t, self.insert(x, theta), self.insert(xdot, theta_dot))

    # -- momentum and cyclic velocity --------------------------------------

    def momentum_value(self, s: State) -> float:
        if self.momentum is not None:
            return float(self.momentum(s))
        sys = self.full.system
        return float(sys.dL_dv(s.t, s.q, s.v)[self.cyclic_index])

    def solve_cyclic_velocity(self, t: float, x: np.ndarray,
                              xdot: np.ndarray, mu: float) -> float:
        """Recover theta_dot from the momentum relation at (t, x, xdot)."""
        if self.cyclic_velocity_solver is not None:
            return float(self.cyclic_velocity_solver(t, x, xdot, mu))
        sys = self.full.system
        ci = self.cyclic_index
        q = self.insert(x, 0.0)
        tol = CYCLIC_SOLVE_TOL * max(1.0, abs(mu))
        theta_dot = 0.0
        for _ in range(CYCLIC_SOLVE_MAXITER):
            v = self.insert(xdot, theta_dot)
            r = float(sys.dL_dv(t, q, v)[ci]) - mu
            if abs(r) <= tol:
                return theta_dot
            h = FD_STEP * max(1.0, abs(theta_dot))
            vp = self.insert(xdot, theta_dot + h)
            vm = self.insert(xdot, theta_dot - h)
            slope = (float(sys.dL_dv(t, q, vp)[ci])
                     - float(sys.dL_dv(t, q, vm)[ci])) / (2.0 * h)
            if slope == 0.0:
                break
            theta_dot -= r / slope
        raise NoConvergence(
            f"cyclic velocity solve stalled at t={t:.6g} (momentum relation "
            f"not regular here)")

    # -- sampled symmetry checks -------------------------------------------

    def validate(self, tol: float = 1e-10):
        """Check cyclic invariance of L, the guard and the reset on the
        attached sample states. Raises NotInvariant on failure."""
        sys = self.full.system
        guard = self.full.guard
        for s in self.sample_states:
            base_l = sys.lagrangian(s.t, s.q, s.v)
            base_g = guard.surface(s)
            base_d = guard.direction(s)
            scale = max(1.0, abs(base_l))
            for a in self.shift_amounts:
                sh = self.shift(s, a)
                if abs(sys.lagrangian(sh.t, sh.q, sh.v) - base_l) > tol * scale:
                    raise NotInvariant(
                        f"Lagrangian varies along the cyclic shift by more "
                        f"than {tol:g} at t={s.t:.6g}")
                if abs(guard.surface(sh) - base_g) > tol * max(1.0, abs(base_g)):
                    raise NotInvariant("guard surface is not cyclic-invariant")
                if abs(guard.direction(sh) - base_d) > tol * max(1.0, abs(base_d)):
                    raise NotInvariant("guard direction is not cyclic-invariant")
        reset = self.full.reset
        for s in self.guard_sample_states:
            base = reset.apply(s)
            for a in self.shift_amounts:
                mapped = reset.apply(self.shift(s, a))
                expected = self.shift(base, a)
                err = max(float(np.max(np.abs(mapped.q - expected.q))),
                          float(np.max(np.abs(mapped.v - expected.v))))
                if err > tol * max(1.0, float(np.max(np.abs(base.v)))):
                    raise NotInvariant(
                        f"reset map is not equivariant under the cyclic "
                        f"shift (deviation {err:.3e})")


@dataclass(frozen=True)
class ReducedHybridSystem:
    """Hybrid system on the shape space at one momentum value."""

    shape: HybridSystem
    mu: float
    parent: CyclicStructure


@dataclass
class ReconstructedFlow:
    """A reduced flow together with the rebuilt cyclic coordinate.

    theta/theta_dot are aligned with each arc's step grid; mu_sequence
    lists the momentum value active on each arc.
    """

    reduced: HybridFlow
    theta: List[np.ndarray]
    theta_dot: List[np.ndarray]
    mu_sequence: List[Tuple[int, float]] = field(default_factory=list)
    theta_start: float = 0.0
    max_momentum_residual: float = 0.0


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def momentum_map(cs: CyclicStructure, s: State) -> float:
    """Conserved quantity of the cyclic symmetry at a full state."""
    return cs.momentum_value(s)


def solve_cyclic_velocity(cs: CyclicStructure, t, x, xdot, mu) -> float:
    return cs.solve_cyclic_velocity(t, np.asarray(x, float),
                                    np.asarray(xdot, float), mu)


def routhian(cs: CyclicStructure, mu: float,
             closed_form: bool = True) -> LagrangianSystem:
    """Reduced Lagrangian system at momentum mu.

    Uses the registered closed-form factory when available (and
    closed_form is not disabled); otherwise composes the full Lagrangian
    with the cyclic-velocity solve. The composed first derivatives are
    the full ones restricted to the embedding, which is exact on the
    momentum level set.
    """
    if closed_form and cs.routhian_factory is not None:
        return cs.routhian_factory(mu)
    sys = cs.full.system
    ci = cs.cyclic_index

    def lag(t, x, xdot):
        s = cs.embed(t, x, xdot, mu)
        return (sys.lagrangian(s.t, s.q, s.v)
                - mu * s.v[ci])

    def dq(t, x, xdot):
        s = cs.embed(t, x, xdot, mu)
        return cs.drop(sys.dL_dq(s.t, s.q, s.v))

    def dv(t, x, xdot):
        s = cs.embed(t, x, xdot, mu)
        return cs.drop(sys.dL_dv(s.t, s.q, s.v))

    names = tuple(nm for i, nm in enumerate(sys.coordinate_names) if i != ci)
    return LagrangianSystem(dim=cs.dim_reduced, lagrangian=lag, dL_dq=dq,
                            dL_dv=dv, coordinate_names=names,
                            condition_bound=sys.condition_bound)


def reduce(cs: CyclicStructure, mu: float,
           validate: bool = True) -> ReducedHybridSystem:
    """Build the reduced hybrid system at momentum mu.

    The reduced guard evaluates the full guard on the embedded state (at
    cyclic angle 0, which the validated invariance makes immaterial); the
    reduced reset applies the full reset there and projects. Raises
    NotInvariant when the sampled symmetry checks fail.
    """
    if validate:
        cs.validate()

    def g_red(s: State) -> float:
        return cs.full.guard.surface(cs.embed(s.t, s.q, s.v, mu))

    def d_red(s: State) -> float:
        return cs.full.guard.direction(cs.embed(s.t, s.q, s.v, mu))

    def reset_red(s: State) -> State:
        post = cs.full.reset.apply(cs.embed(s.t, s.q, s.v, mu))
        return cs.project_state(post)

    shape = HybridSystem(system=routhian(cs, mu),
                         guard=Guard(surface=g_red, direction=d_red),
                         reset=ResetMap(apply=reset_red))
    return ReducedHybridSystem(shape=shape, mu=mu, parent=cs)


def project(cs: CyclicStructure, flow: HybridFlow) -> HybridFlow:
    """Drop the cyclic coordinate and velocity from a full flow."""
    n = cs.full.system.dim
    ci = cs.cyclic_index
    cols = np.array([ci, n + ci])
    arcs = []
    for arc in flow.arcs:
        parent = arc.interpolant
        arcs.append(Arc(arc.t_start, arc.t_end, arc.times.copy(),
                        np.delete(arc.states, cols, axis=1),
                        _ProjectedInterpolant(parent, cols)))
    events = [Event(e.tau, cs.project_state(e.pre), cs.project_state(e.post),
                    e.guard_residual) for e in flow.events]
    return HybridFlow(arcs, events, flow.termination, flow.options)


class _ProjectedInterpolant:
    def __init__(self, parent, cols):
        self._parent = parent
        self._cols = cols

    def __call__(self, t):
        return np.delete(self._parent(t), self._cols)


def reconstruct(cs: CyclicStructure, red: HybridFlow, mu0: float,
                theta0: float) -> ReconstructedFlow:
    """Rebuild the cyclic coordinate along a reduced flow at constant
    momentum (the momentum-preserving case).

    theta is obtained per arc by composite Simpson quadrature of the
    solved cyclic velocity on a refinement of the integrator grid, and is
    continuous across impacts (impacts leave the configuration alone).
    """
    n_arcs = len(red.arcs)
    theta, theta_dot, resid = _reconstruct_arcs(
        cs, red.arcs, [mu0] * n_arcs, [theta0] + [0.0] * (n_arcs - 1))
    return ReconstructedFlow(red, theta, theta_dot,
                             [(k, mu0) for k in range(n_arcs)], theta0, resid)


def _reconstruct_arcs(cs: CyclicStructure, arcs: Sequence[Arc],
                      mus: Sequence[float], jumps: Sequence[float]):
    """Cyclic angle and velocity on each arc's step grid.

    Arc k is integrated at momentum mus[k], starting from the angle the
    previous arc ended at plus jumps[k] (jumps[0] is the start angle).
    Returns (theta per arc, theta_dot per arc, worst momentum residual).
    """
    m = cs.dim_reduced
    stride = 2 * PANELS_PER_STEP
    theta_arcs, theta_dot_arcs = [], []
    acc = 0.0
    worst = 0.0
    for arc, mu, jump in zip(arcs, mus, jumps):
        times = arc.times
        fine = np.concatenate(
            [times[:1]] + [np.linspace(a, b, stride + 1)[1:]
                           for a, b in zip(times[:-1], times[1:])])
        thd = np.empty_like(fine)
        for k, t in enumerate(fine):
            y = arc(t)
            thd[k] = cs.solve_cyclic_velocity(t, y[:m], y[m:], mu)
        # Simpson pairs advance on the even indices, so every stride-th
        # point (a step-grid time) carries the angle
        th = np.empty_like(fine)
        th[0] = acc + jump
        for k in range(0, len(fine) - 2, 2):
            h = fine[k + 2] - fine[k]
            seg = h / 6.0 * (thd[k] + 4.0 * thd[k + 1] + thd[k + 2])
            th[k + 2] = th[k] + seg
        acc = th[-1]
        # verify the rebuilt full states sit on the momentum level set
        for k in (0, len(fine) // 2, len(fine) - 1):
            y = arc(fine[k])
            s_full = State(fine[k], cs.insert(y[:m], th[k]),
                           cs.insert(y[m:], thd[k]))
            worst = max(worst, abs(cs.momentum_value(s_full) - mu))
        theta_arcs.append(th[::stride].copy())
        theta_dot_arcs.append(thd[::stride].copy())
    return theta_arcs, theta_dot_arcs, worst


def simulate_resequenced(cs: CyclicStructure, s0: State, t_end: float,
                         opts: Optional[SimOptions] = None
                         ) -> ReconstructedFlow:
    """Run the reduced dynamics with the momentum rebuilt after every
    impact.

    One executor run on the reduced system at the start momentum. Its
    reset lifts the pre-impact shape state at cyclic angle 0, applies the
    full reset there, reads the new momentum off the post state, validates
    that state against the reduced system rebuilt at the new momentum, and
    continues in that system. The cyclic angle is then reconstructed over
    all arcs, carrying any angle jump the resets make. For
    momentum-preserving resets the momentum sequence is constant and the
    run coincides with reducing once and simulating.
    """
    opts = opts or SimOptions()
    ci = cs.cyclic_index
    m = cs.dim_reduced
    mus = [cs.momentum_value(s0)]
    jumps = [float(s0.q[ci])]

    def mode_at(mu, validate=False):
        shape = reduce(cs, mu, validate=validate).shape
        gfun, dfun = _packed_guard(shape)

        def reset(tau, ypre):
            pre = State(tau, ypre[:m], ypre[m:])
            post_full = cs.full.reset.apply(cs.embed(tau, pre.q, pre.v, mu))
            mu_next = cs.momentum_value(post_full)
            post = cs.project_state(post_full)
            nxt = mode_at(mu_next)
            _validate_reset(pre, post, nxt[1], nxt[2])
            mus.append(mu_next)
            jumps.append(float(post_full.q[ci]))
            return np.concatenate([post.q, post.v]), nxt

        return shape.system.rhs, gfun, dfun, reset

    mode = mode_at(mus[0], validate=True)
    start = cs.project_state(s0)
    y0 = np.concatenate([start.q, start.v])
    _check_start(mode[1], mode[2], s0.t, y0, opts)
    arcs, raw, termination = _execute(mode, s0.t, y0, t_end, opts)
    reduced = HybridFlow(arcs, _events(raw, m), termination, opts)
    _maybe_raise(reduced, opts)
    mus = mus[:len(arcs)]
    theta, theta_dot, resid = _reconstruct_arcs(cs, arcs, mus, jumps)
    return ReconstructedFlow(reduced, theta, theta_dot, list(enumerate(mus)),
                             float(s0.q[ci]), resid)
