"""Execution of hybrid flows: continuous arcs separated by guard-triggered
resets.

Every run in the package goes through one loop, `_execute`: full and
reduced runs, resequenced runs, the momentum-side runs of the
equivalence checks, and `locate_event`. Each arc is integrated with the
adaptive Dormand-Prince stepper. After every accepted step the guard
function is sampled on the step's dense output (endpoints plus
SCAN_POINTS interior points); a sign change from non-positive to
positive brackets a candidate crossing, which is refined in time with
Brent's method on the interpolant. A crossing counts as an impact only
where the admissibility (direction) function is >= 0; crossings with
negative direction are skipped and integration continues.

The loop runs in a mode (rhs, guard, direction, reset). The reset
returns the post-impact state together with the mode of the next arc,
so a run can change its dynamics at an impact; resequenced runs use this
to rebuild the reduced system at the post-impact momentum.

Two safeguards shape the behaviour in impact-accumulation regimes:

* the step ceiling of the arc following an impact is limited to the
  previous dwell time, so geometrically accumulating impacts stay
  resolvable by the fixed-resolution scan;
* a run terminates with ``zeno_suspected`` when two impacts fall within
  ``min_dwell`` of each other, or with ``max_impacts`` at the impact cap.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, List, Optional, Union

import numpy as np
from scipy.integrate import RK45, OdeSolution
from scipy.optimize import brentq

from .errors import (BracketInvalid, DirectionRejected, IntegrationFailure,
                     InvalidReset, InvalidStart, ZenoSuspected)
from .lagrangian import CoState, LagrangianSystem, State

TERM_HORIZON = "horizon_reached"
TERM_MAX_IMPACTS = "max_impacts"
TERM_ZENO = "zeno_suspected"
TERM_FAILURE = "integration_failure"

BRENT_RTOL = 1e-15   # relative time tolerance floor for root refinement
REFINE_XTOL = 1e-13  # refine events well past event_tol: dwell comparisons
                     # against min_dwell must not hinge on localization noise
ARM_TOL = 1e-12      # guard value below which an arc counts as interior
SCAN_POINTS = 8      # interior dense-output guard samples per accepted step


@dataclass(frozen=True)
class Guard:
    """Switching surface: zero set of `surface` filtered by `direction`.

    surface: signed scalar g(state); the admissible region is g < 0 and
        impacts occur on upward crossings of g = 0.
    direction: admissibility d(state); a crossing is an impact iff
        d >= 0 there (closed inequality: grazing counts).
    """

    surface: Callable[[State], float]
    direction: Callable[[State], float]


@dataclass(frozen=True)
class ResetMap:
    """Impact map applied to pre-impact states on the guard."""

    apply: Callable[[State], State]


@dataclass(frozen=True)
class HybridSystem:
    """Continuous dynamics plus switching surface and reset map."""

    system: LagrangianSystem
    guard: Guard
    reset: ResetMap


@dataclass
class SimOptions:
    """Knobs for hybrid execution.

    Every post-impact state is validated: it must keep t, be finite and
    not immediately re-trigger the guard (InvalidReset otherwise).

    Attributes:
        rtol, atol, max_step: integrator step control.
        event_tol: time localization of impacts (root refinement xtol).
        guard_tol: bound on |g| at an accepted impact, scaled by the
            local guard slope max(1, |d|).
        min_dwell: two impacts closer than this terminate the run with
            ``zeno_suspected``.
        max_impacts: impact cap; reaching it terminates with
            ``max_impacts``.
        post_impact_step_factor: ceiling on the step size of the arc
            following an impact, as a multiple of the previous dwell
            (None disables the ceiling).
        guard_jump_bound: when finite, |dg| > bound * h across one step
            raises IntegrationFailure (guard continuity check).
        strict: raise ZenoSuspected / IntegrationFailure instead of
            returning a flow with the corresponding termination.
    """

    rtol: float = 1e-10
    atol: float = 1e-10
    max_step: float = np.inf
    event_tol: float = 1e-10
    guard_tol: float = 1e-8
    min_dwell: float = 1e-9
    max_impacts: int = 10000
    post_impact_step_factor: Optional[float] = 1.0
    guard_jump_bound: float = np.inf
    strict: bool = False


@dataclass
class Arc:
    """One continuous piece of a hybrid flow."""

    t_start: float
    t_end: float
    times: np.ndarray                  # accepted step grid incl. endpoints
    states: np.ndarray                 # packed states on `times`
    interpolant: Callable[[float], np.ndarray] = field(repr=False)

    def __call__(self, t):
        return self.interpolant(t)

    def contains(self, t, slack=1e-12):
        return self.t_start - slack <= t <= self.t_end + slack


@dataclass
class Event:
    """Record of one impact."""

    tau: float
    pre: Union[State, CoState]
    post: Union[State, CoState]
    guard_residual: float


@dataclass
class HybridFlow:
    """Executed hybrid trajectory: ordered arcs and the impacts between
    them, plus the reason the run stopped."""

    arcs: List[Arc]
    events: List[Event]
    termination: str
    options: SimOptions

    @property
    def t_final(self):
        return self.arcs[-1].t_end if self.arcs else None

    def arc_at(self, t):
        for k, arc in enumerate(self.arcs):
            if arc.contains(t):
                return k
        raise ValueError(f"t={t} outside the executed flow")

    def eval(self, t):
        """Packed state at time t (first arc containing t)."""
        return self.arcs[self.arc_at(t)](t)

    def event_times(self):
        return np.array([e.tau for e in self.events])


# ---------------------------------------------------------------------------
# generic packed-coordinates execution loop
# ---------------------------------------------------------------------------

def _execute(mode, t0, y0, t_end, opts: SimOptions):
    """Drive the hybrid loop in packed coordinates.

    mode: (rhs, gfun, dfun, reset) with gfun/dfun: (t, y) -> float and
    reset: (tau, y_pre) -> (y_post, next_mode), performing its own
    validation; the arc after the impact runs in next_mode. Returns
    (arcs, raw_events, termination) where raw events are
    (tau, y_pre, y_post, residual).
    """
    t = float(t0)
    y = np.asarray(y0, float).copy()
    arcs: List[Arc] = []
    raw_events = []
    termination = None
    prev_dwell = None

    while True:
        rhs, gfun, dfun, reset = mode
        max_step = opts.max_step
        if prev_dwell is not None and opts.post_impact_step_factor is not None:
            ceiling = max(opts.post_impact_step_factor * prev_dwell,
                          4.0 * opts.min_dwell)
            max_step = min(max_step, ceiling)
        solver = RK45(rhs, t, y, t_bound=t_end, rtol=opts.rtol,
                      atol=opts.atol, max_step=max_step)
        armed = gfun(t, y) < -ARM_TOL
        arc_times = [t]
        arc_states = [y.copy()]
        segments = []
        hit = None
        failed = False
        while solver.status == "running":
            solver.step()
            if solver.status == "failed":
                failed = True
                break
            dense = solver.dense_output()
            segments.append(dense)
            if np.isfinite(opts.guard_jump_bound):
                step_h = solver.t - solver.t_old
                dg = abs(gfun(solver.t, solver.y)
                         - gfun(solver.t_old, dense(solver.t_old)))
                if dg > opts.guard_jump_bound * max(step_h, 1e-300):
                    raise IntegrationFailure(
                        f"guard jump {dg:.3e} over step {step_h:.3e} "
                        f"exceeds continuity bound")
            ts = np.linspace(solver.t_old, solver.t, SCAN_POINTS + 2)
            gs = np.array([gfun(tt, dense(tt)) for tt in ts])
            for i in range(len(ts) - 1):
                if not armed and gs[i] < -ARM_TOL:
                    armed = True
                if armed and gs[i] <= 0.0 and gs[i + 1] > 0.0:
                    tau = _refine_crossing(gfun, dense, ts[i], ts[i + 1],
                                           opts.event_tol)
                    ypre = dense(tau)
                    if dfun(tau, ypre) >= 0.0:
                        hit = (tau, ypre)
                        break
                    # inadmissible crossing: trajectory exits; rescan later
                    # pairs for a subsequent re-entry crossing
            if hit is not None:
                break
            if arc_times[-1] != solver.t:
                arc_times.append(solver.t)
                arc_states.append(solver.y.copy())

        if failed:
            arcs.append(_close_arc(arc_times, arc_states, segments,
                                   arc_times[-1]))
            termination = TERM_FAILURE
            break

        if hit is None:
            if arc_times[-1] != solver.t:
                arc_times.append(solver.t)
                arc_states.append(solver.y.copy())
            arcs.append(_close_arc(arc_times, arc_states, segments, t_end))
            termination = TERM_HORIZON
            break

        tau, ypre = hit
        arc_times.append(tau)
        arc_states.append(ypre.copy())
        arcs.append(_close_arc(arc_times, arc_states, segments, tau))

        if raw_events and tau - raw_events[-1][0] < opts.min_dwell:
            termination = TERM_ZENO
            break

        residual = abs(gfun(tau, ypre))
        slope = max(1.0, abs(dfun(tau, ypre)))
        if residual > opts.guard_tol * slope:
            raise IntegrationFailure(
                f"guard residual {residual:.3e} at located impact exceeds "
                f"tolerance; event refinement failed")
        ypost, mode = reset(tau, ypre)
        raw_events.append((tau, ypre.copy(), ypost.copy(), residual))
        prev_dwell = tau - (raw_events[-2][0] if len(raw_events) > 1 else t0)

        if len(raw_events) >= opts.max_impacts:
            termination = TERM_MAX_IMPACTS
            break
        t, y = tau, ypost

    return arcs, raw_events, termination


def _refine_crossing(gfun, dense, ta, tb, event_tol):
    """Locate the sign change of g(dense(t)) in [ta, tb]."""
    ga = gfun(ta, dense(ta))
    if ga == 0.0:
        return ta
    return float(brentq(lambda tt: gfun(tt, dense(tt)), ta, tb,
                        xtol=min(event_tol, REFINE_XTOL), rtol=BRENT_RTOL))


def _close_arc(times, states, segments, t_end):
    times = np.asarray(times)
    states = np.asarray(states)
    if segments:
        sol = OdeSolution(np.concatenate([[times[0]],
                                          [s.t_max for s in segments]]),
                          segments)
        # an event truncates the last segment; clamp queries to the arc
        interp = _ClampedSolution(sol, times[0], t_end)
    else:
        y0 = states[0]
        interp = lambda t: y0.copy()
    return Arc(times[0], t_end, times, states, interp)


class _ClampedSolution:
    """OdeSolution restricted to the arc interval."""

    def __init__(self, sol, t0, t1):
        self._sol = sol
        self.t0 = t0
        self.t1 = t1

    def __call__(self, t):
        return self._sol(np.clip(t, self.t0, self.t1))


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def simulate(hs: HybridSystem, s0: State, t_end: float,
             opts: Optional[SimOptions] = None) -> HybridFlow:
    """Execute the hybrid flow of `hs` from s0 up to t_end.

    The start state must be admissible: strictly inside the guard, or on
    it with negative direction (leaving). Returns a HybridFlow whose
    termination is one of horizon_reached, max_impacts, zeno_suspected or
    integration_failure; in strict mode the last three raise instead.
    """
    opts = opts or SimOptions()
    n = hs.system.dim
    gfun, dfun = _packed_guard(hs)
    y0 = hs.system.pack(s0)
    _check_start(gfun, dfun, s0.t, y0, opts)

    def reset(tau, ypre):
        pre = State(tau, ypre[:n], ypre[n:])
        post = hs.reset.apply(pre)
        _validate_reset(pre, post, gfun, dfun)
        return hs.system.pack(post), mode

    mode = (hs.system.rhs, gfun, dfun, reset)
    arcs, raw, termination = _execute(mode, s0.t, y0, t_end, opts)
    flow = HybridFlow(arcs, _events(raw, n), termination, opts)
    _maybe_raise(flow, opts)
    return flow


def _packed_guard(hs: HybridSystem):
    """Guard surface and direction of `hs` on packed (t, y) states."""
    n = hs.system.dim

    def gfun(t, y):
        return hs.guard.surface(State(t, y[:n], y[n:]))

    def dfun(t, y):
        return hs.guard.direction(State(t, y[:n], y[n:]))

    return gfun, dfun


def _check_start(gfun, dfun, t, y, opts: SimOptions):
    """Raise InvalidStart unless (t, y) is strictly inside the guard or on
    it and leaving."""
    g0 = gfun(t, y)
    d0 = dfun(t, y)
    slope0 = max(1.0, abs(d0))
    if g0 > opts.guard_tol * slope0 or (abs(g0) <= opts.guard_tol * slope0
                                        and g0 > -ARM_TOL and d0 >= 0.0):
        raise InvalidStart(
            f"initial state has g={g0:.3e}, d={d0:.3e}; start strictly "
            f"inside the admissible region or leaving the guard")


def _events(raw, n):
    """Event records of raw executor events on n-dimensional states."""
    return [Event(tau, State(tau, ypre[:n], ypre[n:]),
                  State(tau, ypost[:n], ypost[n:]), res)
            for tau, ypre, ypost, res in raw]


def _validate_reset(pre: State, post: State, gfun, dfun):
    """Check a post-impact state against the guard it continues under."""
    if post.t != pre.t:
        raise InvalidReset(
            f"reset changed time {pre.t!r} -> {post.t!r}; resets must "
            f"preserve t")
    if not post.is_finite():
        raise InvalidReset("reset produced a non-finite state")
    n = post.q.size
    ypost = np.concatenate([post.q, post.v])
    d_post = dfun(post.t, ypost)
    if d_post <= 0.0:
        return
    # direction still non-negative: accept only if the state moves off
    # the guard inward over an infinitesimal free step
    eps = 1e-7 * max(1.0, abs(post.t))
    probe = ypost.copy()
    probe[:n] = probe[:n] + eps * probe[n:]
    g_now = gfun(post.t, ypost)
    g_probe = gfun(post.t + eps, probe)
    if g_probe >= g_now - 1e-14:
        raise InvalidReset(
            f"post-impact state re-triggers the guard (d={d_post:.3e}, "
            f"g drift {g_probe - g_now:+.3e})")


def _maybe_raise(flow: HybridFlow, opts: SimOptions):
    if not opts.strict:
        return
    if flow.termination in (TERM_ZENO, TERM_MAX_IMPACTS):
        raise ZenoSuspected(
            f"terminated with {flow.termination} after "
            f"{len(flow.events)} impacts", flow=flow)
    if flow.termination == TERM_FAILURE:
        raise IntegrationFailure(
            f"integrator step collapse at t={flow.t_final:.6g}", flow=flow)


def locate_event(hs: HybridSystem, bracket,
                 opts: Optional[SimOptions] = None) -> State:
    """Locate the first guard crossing between two states on one arc.

    The arc is executed from the left state up to the right state's time,
    stopping at the first upward crossing of the guard whatever its
    direction. A left state exactly on the guard is its own crossing.
    Raises BracketInvalid when no crossing exists, DirectionRejected when
    the crossing has negative direction.
    """
    opts = opts or SimOptions()
    sa, sb = bracket
    if sb.t < sa.t:
        raise BracketInvalid("bracket must satisfy sa.t <= sb.t")
    n = hs.system.dim
    gfun, dfun = _packed_guard(hs)
    ya = hs.system.pack(sa)
    ga = gfun(sa.t, ya)
    if ga == 0.0:
        # the scan arms only once the guard drops below -ARM_TOL
        tau, y = sa.t, ya
    else:
        def stop(tau, y):
            return y, mode

        # |d| admits every crossing and keeps the residual check's slope
        mode = (hs.system.rhs, gfun, lambda t, y: abs(dfun(t, y)), stop)
        arcs, raw, termination = _execute(mode, sa.t, ya, sb.t,
                                          replace(opts, max_impacts=1))
        if termination == TERM_FAILURE:
            raise IntegrationFailure(
                f"integrator step collapse at t={arcs[-1].t_end:.6g}")
        if not raw:
            raise BracketInvalid(
                f"no sign change of the guard in [{sa.t:.6g}, {sb.t:.6g}] "
                f"(g: {ga:.3e} -> "
                f"{gfun(sb.t, arcs[-1].states[-1]):.3e})")
        tau, y = raw[0][0], raw[0][1]
    pre = State(tau, y[:n], y[n:])
    if hs.guard.direction(pre) < 0.0:
        raise DirectionRejected(
            f"crossing at t={tau:.9g} has direction "
            f"{hs.guard.direction(pre):.3e} < 0")
    return pre


# ---------------------------------------------------------------------------
# hybrid correspondence between the two phase-space pictures
# ---------------------------------------------------------------------------

@dataclass
class HybridEquivalenceReport:
    """Outcome of the velocity-side vs momentum-side hybrid comparison."""

    passed: bool
    max_state_discrepancy: float
    max_event_time_delta: float
    events_velocity_side: int
    events_momentum_side: int
    terminations: tuple
    tol: float
    event_time_tol: float

    def __str__(self):
        status = "pass" if self.passed else "FAIL"
        return (f"hybrid equivalence: {status} (state {self.max_state_discrepancy:.3e}"
                f"/{self.tol:.1e}, events {self.events_velocity_side}"
                f"=={self.events_momentum_side}, event dt "
                f"{self.max_event_time_delta:.3e}/{self.event_time_tol:.1e})")


def check_hybrid_equivalence(hs: HybridSystem, s0: State, t_end: float,
                             tol: float = 1e-6,
                             event_time_tol: float = 1e-8,
                             opts: Optional[SimOptions] = None,
                             grid_per_arc: int = 33) -> HybridEquivalenceReport:
    """Run the hybrid flow on both sides of the fiber derivative and
    compare them.

    The momentum-side system is constructed by conjugation: its guard is
    the pullback of the velocity-side guard through the inverse fiber
    derivative, and its reset is the conjugated reset. The report holds
    the largest componentwise difference between the mapped velocity-side
    flow and the momentum-side flow over matched arcs, and the largest
    difference between matched impact times.
    """
    opts = opts or SimOptions()
    n = hs.system.dim
    sys = hs.system

    flow_l = simulate(hs, s0, t_end, opts)

    warm = {"v": s0.v.copy()}

    def to_state(t, y):
        s = sys.inverse_legendre(CoState(t, y[:n], y[n:]), v0=warm["v"])
        warm["v"] = s.v
        return s

    def rhs_h(t, y):
        dq, dp = sys.hamiltonian_field(CoState(t, y[:n], y[n:]),
                                       v0=warm["v"])
        warm["v"] = dq
        return np.concatenate([dq, dp])

    def gfun_h(t, y):
        return hs.guard.surface(to_state(t, y))

    def dfun_h(t, y):
        return hs.guard.direction(to_state(t, y))

    def reset_h(tau, ypre):
        pre = to_state(tau, ypre)
        post = hs.reset.apply(pre)
        if post.t != pre.t:
            raise InvalidReset("conjugated reset must preserve t")
        cs = sys.legendre(post)
        return np.concatenate([cs.q, cs.p]), mode_h

    mode_h = (rhs_h, gfun_h, dfun_h, reset_h)
    cs0 = sys.legendre(s0)
    arcs_h, raw_h, term_h = _execute(mode_h, cs0.t,
                                     np.concatenate([cs0.q, cs0.p]), t_end,
                                     opts)

    worst = 0.0
    for arc_l, arc_h in zip(flow_l.arcs, arcs_h):
        lo = max(arc_l.t_start, arc_h.t_start)
        hi = min(arc_l.t_end, arc_h.t_end)
        if hi < lo:
            continue
        grid = np.union1d(
            np.union1d(arc_l.times[(arc_l.times >= lo) & (arc_l.times <= hi)],
                       arc_h.times[(arc_h.times >= lo) & (arc_h.times <= hi)]),
            np.linspace(lo, hi, grid_per_arc))
        for t in grid:
            yl = arc_l(t)
            yh = arc_h(t)
            mapped = sys.legendre(State(t, yl[:n], yl[n:]))
            worst = max(worst,
                        float(np.max(np.abs(mapped.q - yh[:n]))),
                        float(np.max(np.abs(mapped.p - yh[n:]))))

    n_l = len(flow_l.events)
    n_h = len(raw_h)
    if n_l and n_h:
        m = min(n_l, n_h)
        ev_delta = float(np.max(np.abs(flow_l.event_times()[:m]
                                       - np.array([e[0] for e in raw_h[:m]]))))
    else:
        ev_delta = 0.0
    passed = (worst <= tol and n_l == n_h and ev_delta <= event_time_tol)
    return HybridEquivalenceReport(passed, worst, ev_delta, n_l, n_h,
                                   (flow_l.termination, term_h), tol,
                                   event_time_tol)


@dataclass
class FlowEquivalenceReport:
    """Outcome of the velocity-side vs momentum-side flow comparison."""

    passed: bool
    max_discrepancy: float
    tol: float
    t_span: tuple

    def __str__(self):
        status = "pass" if self.passed else "FAIL"
        return (f"flow equivalence: {status} "
                f"(max discrepancy {self.max_discrepancy:.3e}, tol {self.tol:.1e}, "
                f"t in [{self.t_span[0]:.3g}, {self.t_span[1]:.3g}])")


def check_flow_equivalence(sys: LagrangianSystem, s0: State, t_end: float,
                           tol: float = 1e-6) -> FlowEquivalenceReport:
    """Integrate both evolution fields and compare them under the fiber
    derivative.

    This is `check_hybrid_equivalence` on `sys` under a guard that never
    triggers, with default step control on both sides. The report holds
    the maximum over the union of both step grids of the componentwise
    difference between the mapped velocity-side state and the
    momentum-side state.
    """
    if t_end < s0.t:
        raise ValueError("t_end must be >= s0.t")
    rep = check_hybrid_equivalence(_inert_hybrid(sys), s0, t_end, tol=tol,
                                   grid_per_arc=0)
    return FlowEquivalenceReport(rep.passed, rep.max_state_discrepancy, tol,
                                 (s0.t, t_end))


def _inert_hybrid(system: LagrangianSystem) -> HybridSystem:
    """`system` under a guard that never triggers and an identity reset."""
    return HybridSystem(system=system,
                        guard=Guard(surface=lambda s: -1.0,
                                    direction=lambda s: -1.0),
                        reset=ResetMap(apply=lambda s: s))
