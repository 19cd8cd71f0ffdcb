"""Execution of hybrid flows: continuous arcs separated by guard-triggered
resets.

Every run in the package goes through one loop, `_execute`: full and
reduced runs, resequenced runs, the momentum-side runs of the
equivalence checks, and `locate_event`. Each arc is integrated with the
adaptive Dormand-Prince 8(5,3) pair DOP853, whose 7th-order dense output
costs 3 extra right-hand-side calls per accepted step (Hairer, Norsett &
Wanner, Solving ODEs I, II.5-II.6). The step loop is the module's own:
it takes its tableau from scipy's `DOP853` and repeats scipy's
arithmetic operation for operation, so it reproduces scipy's steps and
dense output bit for bit, but it calls the right-hand side directly,
without the solver's wrapper layers. After every
accepted step the step's dense output is evaluated once, as one array
call at the endpoints plus SCAN_POINTS interior times, and the guard is
sampled on those states; a sign change from non-positive to positive
brackets a candidate crossing, which is refined in time with Brent's
method on the interpolant. A crossing counts as an impact only where the
admissibility (direction) function is >= 0; crossings with negative
direction are skipped and integration continues.

The loop runs in a mode (rhs, guard, direction, reset) on packed arrays;
`State` appears only at the API edge. The mode's reset returns the
post-impact state together with the mode of the next arc, so a run can
change its dynamics at an impact; resequenced runs use this to rebuild
the reduced system at the post-impact momentum.

Three rules shape the behaviour in impact-accumulation regimes:

* an arc that starts on the guard and leaves it is armed at once; a dip
  below the guard within its first scan interval goes to `_next_crossing`;
* the step size of the arc following an impact is capped at the
  previous dwell time, so geometrically accumulating impacts stay
  resolvable by the fixed-resolution scan;
* a run terminates with ``zeno_suspected`` when two impacts fall within
  ``min_dwell`` of each other, or the step size collapses within
  ``min_dwell`` of the last impact, and with ``max_impacts`` at the
  impact cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, List, Optional, Tuple

import numpy as np
from scipy.integrate import DOP853, OdeSolution
from scipy.optimize import brentq

from .errors import (BracketInvalid, DirectionRejected, IntegrationFailure,
                     InvalidReset, InvalidStart, ZenoSuspected)
from .lagrangian import LagrangianSystem, State

TERM_HORIZON = "horizon_reached"
TERM_MAX_IMPACTS = "max_impacts"
TERM_ZENO = "zeno_suspected"
TERM_FAILURE = "integration_failure"

BRENT_RTOL = 1e-15   # relative time tolerance floor for root refinement
REFINE_XTOL = 1e-13  # refine events well past event_tol: dwell comparisons
                     # against min_dwell must not hinge on localization noise
ARM_TOL = 1e-12      # guard value below which an arc counts as interior
SCAN_POINTS = 8      # interior dense-output guard samples per accepted step
EQUIVALENCE_TOL = 1e-6  # state bound of the velocity/momentum-side checks
EVENT_TIME_TOL = 1e-8   # impact-time bound of check_hybrid_equivalence
# scan sample i of a step [a, b] is i * ((b - a) / (SCAN_POINTS + 1)) + a,
# the arithmetic of np.linspace(a, b, SCAN_POINTS + 2)
_SCAN_INDEX = np.arange(SCAN_POINTS + 2, dtype=float)


@dataclass(frozen=True)
class Guard:
    """Switching surface: zero set of `surface` filtered by `direction`.

    Both functions are defined on the extended space R x TQ and take
    (t, q, v) -> float, like the Lagrangian. The executor calls them on
    views of its packed state, which they must not modify.

    surface: signed scalar g(t, q, v); the admissible region is g < 0
        and impacts occur on upward crossings of g = 0.
    direction: admissibility d(t, q, v); a crossing is an impact iff
        d >= 0 there (closed inequality: grazing counts). On arcs that
        start on the guard, d is also read as the rate dg/dt.
    """

    surface: Callable[[float, np.ndarray, np.ndarray], float]
    direction: Callable[[float, np.ndarray, np.ndarray], float]


@dataclass(frozen=True)
class ResetMap:
    """Impact map on the guard: apply(t, q, v) -> (q_post, v_post) at
    the same t. Like the guard, it gets views of the executor's packed
    state, which it must not modify."""

    apply: Callable[[float, np.ndarray, np.ndarray],
                    Tuple[np.ndarray, np.ndarray]]


@dataclass(frozen=True)
class HybridSystem:
    """Continuous dynamics plus switching surface and reset map."""

    system: LagrangianSystem
    guard: Guard
    reset: ResetMap


@dataclass
class SimOptions:
    """Knobs for hybrid execution.

    Every post-impact state is validated: it must be finite and not
    immediately re-trigger the guard (InvalidReset otherwise).

    Attributes:
        rtol, atol, max_step: integrator step control.
        event_tol: time localization of impacts (root refinement xtol).
        guard_tol: bound on |g| at an accepted impact, scaled by the
            local guard slope max(1, |d|).
        min_dwell: two impacts closer than this terminate the run with
            ``zeno_suspected``.
        max_impacts: impact cap; reaching it terminates with
            ``max_impacts``.
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
    guard_jump_bound: float = np.inf
    strict: bool = False


@dataclass
class Arc:
    """One continuous piece of a hybrid flow.

    A simulated arc's interpolant is scipy's OdeSolution over the step
    loop's DOP853 segments, clamped to the arc. Every interpolant
    follows the contract of scipy's OdeSolution: a
    scalar time gives the packed state, shape (2n,); a 1-D array of k
    times gives the states as columns, shape (2n, k). Column i agrees
    with the scalar call at the i-th time, up to rounding in the last
    bit for dense-output arcs.
    """

    t_start: float
    t_end: float
    times: np.ndarray                  # accepted step grid incl. endpoints
    states: np.ndarray                 # packed states on `times`
    interpolant: Callable[..., np.ndarray] = field(repr=False)

    def __call__(self, t):
        return self.interpolant(t)


@dataclass
class Event:
    """Record of one impact."""

    tau: float
    pre: State
    post: State
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

    def event_times(self):
        return np.array([e.tau for e in self.events])


# ---------------------------------------------------------------------------
# the DOP853 step loop
# ---------------------------------------------------------------------------

# scipy's step-size control (scipy.integrate._ivp.rk) and its rtol floor
_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10
_ERROR_EXPONENT = -1 / (DOP853.error_estimator_order + 1)
_RTOL_FLOOR = 100 * np.finfo(float).eps
# stage s of a step or of its dense output: (s, coefficients, node). The
# coefficients are views of scipy's own tables, as scipy's solver slices
# them
_STAGES = [(s, DOP853.A[s, :s], float(DOP853.C[s]))
           for s in range(1, DOP853.n_stages)]
_EXTRA_STAGES = [(s, a[:s], float(c)) for s, (a, c) in enumerate(
    zip(DOP853.A_EXTRA, DOP853.C_EXTRA), start=DOP853.n_stages + 1)]


def _rms(x):
    """scipy's RMS norm, np.linalg.norm(x) / sqrt(x.size), as numpy
    computes it for a vector."""
    return math.sqrt(x.dot(x)) / x.size ** 0.5


# the name RK45 is the benchmark tracer's seam: it subclasses hybrid.RK45
class RK45:
    """DOP853 on one arc, forward in time.

    The step loop of scipy's `DOP853` without its wrapper layers: its
    initial-step choice, Runge-Kutta step, step-size control, 5/3 error
    norm and 7th-order dense output, operation for operation on scipy's
    tableau, so steps, states and interpolants agree with scipy's bit
    for bit. `fun` is called directly, and `nfev` counts its calls: two
    at construction (one on an empty interval), n_stages per attempt in
    `step`, three in `dense_output`. As in scipy, rtol is raised to
    100 eps, a non-finite y0 or a max_step <= 0 raises ValueError, a
    step on a solver at t_bound is a degenerate one, and a step size
    below 10 ulp(t) ends the arc with status "failed".
    (`ndarray.dot` is `np.dot` without its dispatch layer.)
    """

    n_stages = DOP853.n_stages

    def __init__(self, fun, t0, y0, t_bound, rtol, atol, max_step):
        if max_step <= 0:
            raise ValueError("`max_step` must be positive.")
        if not np.isfinite(y0).all():
            # its step sizes would be NaN, and every attempt rejected
            raise ValueError(
                "All components of the initial state `y0` must be finite.")
        self.fun = fun
        self.t_old = None
        self.t = t0
        self.y = y0
        self.t_bound = t_bound
        self.rtol = max(rtol, _RTOL_FLOOR)
        self.atol = atol
        self.max_step = max_step
        self.status = "running"
        self.f = fun(t0, y0)
        self.nfev = 1
        self.h_abs = self._initial_step()
        self.K_extended = np.empty((DOP853.n_stages + 1 + len(_EXTRA_STAGES),
                                    y0.size))
        self.K = self.K_extended[:DOP853.n_stages + 1]

    def _initial_step(self):
        """scipy's select_initial_step (Hairer, Norsett & Wanner, II.4)."""
        t0, y0, f0 = self.t, self.y, self.f
        interval_length = abs(self.t_bound - t0)
        if interval_length == 0.0:
            return 0.0
        scale = self.atol + np.abs(y0) * self.rtol
        d0 = _rms(y0 / scale)
        d1 = _rms(f0 / scale)
        if d0 < 1e-5 or d1 < 1e-5:
            h0 = 1e-6
        else:
            h0 = 0.01 * d0 / d1
        h0 = min(h0, interval_length)
        f1 = self.fun(t0 + h0, y0 + h0 * f0)
        self.nfev += 1
        d2 = _rms((f1 - f0) / scale) / h0
        if d1 <= 1e-15 and d2 <= 1e-15:
            h1 = max(1e-6, h0 * 1e-3)
        else:
            h1 = (0.01 / max(d1, d2)) ** -_ERROR_EXPONENT
        return min(100 * h0, h1, interval_length, self.max_step)

    def step(self):
        """Advance by one accepted step; set status to "finished" at
        t_bound, or to "failed" when the step size falls below 10 ulp."""
        t, y, K, fun = self.t, self.y, self.K, self.fun
        t_bound = self.t_bound
        if t == t_bound:
            self.t_old = t
            self.status = "finished"
            return
        min_step = 10 * abs(math.nextafter(t, math.inf) - t)
        h_abs = self.h_abs
        if h_abs > self.max_step:
            h_abs = self.max_step
        elif h_abs < min_step:
            h_abs = min_step
        step_rejected = False
        while True:
            if h_abs < min_step:
                self.status = "failed"
                return
            t_new = t + h_abs
            if t_new - t_bound > 0:
                t_new = t_bound
            h = t_new - t
            h_abs = abs(h)
            K[0] = self.f
            for s, a, c in _STAGES:
                K[s] = fun(t + c * h, y + K[:s].T.dot(a) * h)
            y_new = y + h * K[:-1].T.dot(DOP853.B)
            f_new = fun(t + h, y_new)
            K[-1] = f_new
            self.nfev += self.n_stages
            scale = self.atol + np.maximum(np.abs(y), np.abs(y_new)) * self.rtol
            err5 = K.T.dot(DOP853.E5) / scale
            err3 = K.T.dot(DOP853.E3) / scale
            err5_norm_2 = math.sqrt(err5.dot(err5)) ** 2
            err3_norm_2 = math.sqrt(err3.dot(err3)) ** 2
            if err5_norm_2 == 0 and err3_norm_2 == 0:
                error_norm = 0.0
            else:
                denom = err5_norm_2 + 0.01 * err3_norm_2
                error_norm = h_abs * err5_norm_2 / math.sqrt(denom * y.size)
            if error_norm < 1:
                if error_norm == 0:
                    factor = _MAX_FACTOR
                else:
                    factor = min(_MAX_FACTOR,
                                 _SAFETY * error_norm ** _ERROR_EXPONENT)
                if step_rejected:
                    factor = min(1, factor)
                h_abs *= factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
            step_rejected = True
        self.h_previous = h
        self.t_old, self.y_old = t, y
        self.t, self.y, self.f = t_new, y_new, f_new
        self.h_abs = h_abs
        if t_new - t_bound >= 0:
            self.status = "finished"

    def dense_output(self):
        """Interpolant of the last step: scipy's DOP853 dense output."""
        if self.t == self.t_old:
            return _ConstantInterpolant(self.y, self.t)
        K, h = self.K_extended, self.h_previous
        t_old, y_old = self.t_old, self.y_old
        for s, a, c in _EXTRA_STAGES:
            K[s] = self.fun(t_old + c * h, y_old + K[:s].T.dot(a) * h)
        self.nfev += len(_EXTRA_STAGES)
        f_old = K[0]
        delta_y = self.y - y_old
        F = np.empty((3 + len(DOP853.D), y_old.size))
        F[0] = delta_y
        F[1] = h * f_old - delta_y
        F[2] = 2 * delta_y - h * (self.f + f_old)
        F[3:] = h * DOP853.D.dot(K)
        return _StepInterpolant(t_old, self.t, y_old, F)


class _StepInterpolant:
    """DOP853's dense output on one step [t_old, t]: scipy's
    Dop853DenseOutput, operation for operation. Callers read t_old, t,
    t_min and t_max and call it; the tracer's proxy passes on nothing
    else."""

    def __init__(self, t_old, t, y_old, F):
        self.t_old = self.t_min = t_old
        self.t = self.t_max = t
        self.h = t - t_old
        self.F = F
        self.y_old = y_old

    def __call__(self, t):
        if isinstance(t, float):
            # one time, as refinement asks: the same operations on the
            # 7 rows of F, on Python floats one component at a time,
            # without numpy's per-call overhead
            x = (t - self.t_old) / self.h
            xm = 1 - x
            return np.array([
                ((((((((0.0 + f6) * x + f5) * xm + f4) * x + f3) * xm + f2)
                    * x + f1) * xm + f0) * x + y0)
                for f0, f1, f2, f3, f4, f5, f6, y0
                in zip(*self.F.tolist(), self.y_old.tolist())])
        t = np.asarray(t)
        x = (t - self.t_old) / self.h
        if t.ndim == 0:
            y = np.zeros_like(self.y_old)
        else:
            x = x[:, None]
            y = np.zeros((len(x), len(self.y_old)))
        for i, f in enumerate(reversed(self.F)):
            y += f
            if i % 2 == 0:
                y *= x
            else:
                y *= 1 - x
        y += self.y_old
        return y.T


# ---------------------------------------------------------------------------
# generic packed-coordinates execution loop
# ---------------------------------------------------------------------------

def _execute(mode, t0, y0, t_end, opts: SimOptions):
    """Drive the hybrid loop in packed coordinates.

    mode: (rhs, gfun, dfun, reset) with rhs: (t, y) -> y',
    gfun/dfun: (t, q, v) -> float on the halves of y, and
    reset: (tau, y_pre) -> (y_post, next_mode), performing its own
    validation; the arc after the impact runs in next_mode. Returns
    (arcs, raw_events, termination) where raw events are
    (tau, y_pre, y_post, residual).
    """
    t = float(t0)
    y = np.asarray(y0, float).copy()
    n = y.size // 2
    arcs: List[Arc] = []
    raw_events = []
    termination = None
    max_step = opts.max_step

    while True:
        rhs, gfun, dfun, reset = mode
        solver = RK45(rhs, t, y, t_bound=t_end, rtol=opts.rtol,
                      atol=opts.atol, max_step=max_step)
        if not np.all(np.isfinite(solver.f)):
            # scipy would reject every step of a NaN step size forever
            raise IntegrationFailure(
                f"right-hand side is not finite at the arc start t={t:.6g}")
        g0 = gfun(t, y[:n], y[n:])
        # leaving the guard: its dip below g = 0 may not reach a scan sample
        on_guard = g0 >= -ARM_TOL and dfun(t, y[:n], y[n:]) < 0.0
        armed = g0 < -ARM_TOL or on_guard
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
            ts = (_SCAN_INDEX * ((solver.t - solver.t_old) / (SCAN_POINTS + 1))
                  + solver.t_old)
            ts[-1] = solver.t
            ys = dense(ts)
            gs = np.array([gfun(tt, yy[:n], yy[n:])
                           for tt, yy in zip(ts, ys.T)])
            if np.isfinite(opts.guard_jump_bound):
                # dense(t_old) is y_old exactly, so gs[0] is the guard there
                step_h = solver.t - solver.t_old
                dg = abs(gfun(solver.t, solver.y[:n], solver.y[n:]) - gs[0])
                if dg > opts.guard_jump_bound * max(step_h, 1e-300):
                    raise IntegrationFailure(
                        f"guard jump {dg:.3e} over step {step_h:.3e} "
                        f"exceeds continuity bound")
            for i in range(len(ts) - 1):
                if not armed and gs[i] < -ARM_TOL:
                    armed = True
                tau = None
                if on_guard and i == 0 and gs[1] > 0.0:
                    # the whole dip below the guard lies in this interval
                    tau = _next_crossing(_along(gfun, dense, n),
                                         _along(dfun, dense, n), ts[0], ts[1],
                                         opts.event_tol)
                elif armed and gs[i] <= 0.0 and gs[i + 1] > 0.0:
                    tau = ts[i] if gs[i] == 0.0 else float(brentq(
                        _along(gfun, dense, n), ts[i], ts[i + 1],
                        xtol=min(opts.event_tol, REFINE_XTOL),
                        rtol=BRENT_RTOL))
                if tau is None:
                    continue
                ypre = dense(tau)
                if dfun(tau, ypre[:n], ypre[n:]) >= 0.0:
                    hit = (tau, ypre)
                    break
                # inadmissible crossing: trajectory exits; rescan later
                # pairs for a subsequent re-entry crossing
            on_guard = False
            if hit is not None:
                break
            if arc_times[-1] != solver.t:
                arc_times.append(solver.t)
                arc_states.append(solver.y.copy())

        if failed:
            arcs.append(_close_arc(arc_times, arc_states, segments,
                                   arc_times[-1]))
            # a step collapse right after an impact is the impacts piling up
            zeno = (raw_events
                    and arc_times[-1] - raw_events[-1][0] < opts.min_dwell)
            termination = TERM_ZENO if zeno else TERM_FAILURE
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

        residual = abs(gfun(tau, ypre[:n], ypre[n:]))
        slope = max(1.0, abs(dfun(tau, ypre[:n], ypre[n:])))
        if residual > opts.guard_tol * slope:
            raise IntegrationFailure(
                f"guard residual {residual:.3e} at located impact exceeds "
                f"tolerance; event refinement failed")
        ypost, mode = reset(tau, ypre)
        raw_events.append((tau, ypre.copy(), ypost.copy(), residual))
        last = raw_events[-2][0] if len(raw_events) > 1 else t0
        max_step = min(opts.max_step, tau - last)

        if len(raw_events) >= opts.max_impacts:
            termination = TERM_MAX_IMPACTS
            break
        t, y = tau, ypost

    return arcs, raw_events, termination


def _along(fun, dense, n):
    """fun(t, q, v) along a dense output of n-dimensional states."""
    def f(tt):
        y = dense(tt)
        return fun(tt, y[:n], y[n:])

    return f


def _next_crossing(phi, dphi, t0, t_end, event_tol):
    """First upward root of a convex phi with phi(t0) <= 0 (to round-off)
    on [t0, t_end], where dphi is its rate."""
    if t_end <= t0:
        return None
    if dphi(t0) >= 0.0:
        # heading out from the start: at most one root ahead
        if phi(t_end) <= 0.0:
            return None
        if phi(t0) >= 0.0:
            # grazing exit at round-off level: the wall recaptures at once
            return t0
        lo = t0
    else:
        # phi decreases first; expand a bracket for the zero of dphi
        left = t0
        h = max(1e-12, 1e-12 * abs(t0))
        right = None
        while t0 + h < t_end:
            if dphi(t0 + h) > 0.0:
                right = t0 + h
                break
            left = t0 + h
            h *= 2.0
        if right is None:
            if dphi(t_end) <= 0.0:
                # still heading inward at the end: phi stays negative
                return None
            right = t_end
        t_min = float(brentq(dphi, left, right, xtol=1e-15, rtol=1e-15))
        if phi(t_min) >= 0.0:
            # dip never measurably re-enters: the wall caught the state
            return t_min
        if phi(t_end) <= 0.0:
            return None
        lo = t_min
    return float(brentq(phi, lo, t_end, xtol=min(event_tol, 1e-14),
                        rtol=1e-15))


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
        interp = _ConstantInterpolant(states[0], times[0])
    return Arc(times[0], t_end, times, states, interp)


class _ConstantInterpolant:
    """Interpolant of an arc that took no step, or of a step on an empty
    interval, at t: its start state at every time."""

    def __init__(self, y0, t):
        self._y0 = y0
        self.t_old = self.t = self.t_min = self.t_max = t

    def __call__(self, t):
        if np.ndim(t) == 0:
            return self._y0.copy()
        return np.repeat(self._y0[:, None], np.size(t), axis=1)


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
    it with negative direction (leaving); t_end must not precede s0.t.
    Returns a HybridFlow whose termination is one of horizon_reached,
    max_impacts, zeno_suspected or integration_failure; in strict mode
    the last three raise instead.
    """
    opts = opts or SimOptions()
    n = hs.system.dim
    gfun, dfun = hs.guard.surface, hs.guard.direction
    _check_start(gfun, dfun, s0, t_end, opts)

    def reset(tau, ypre):
        q, v = hs.reset.apply(tau, ypre[:n], ypre[n:])
        _validate_reset(tau, q, v, gfun, dfun)
        return np.concatenate([q, v]), mode

    mode = (hs.system.rhs, gfun, dfun, reset)
    arcs, raw, termination = _execute(mode, s0.t, hs.system.pack(s0), t_end,
                                      opts)
    flow = HybridFlow(arcs, _events(raw, n), termination, opts)
    _maybe_raise(flow, opts)
    return flow


def _check_finite(s: State):
    """Raise InvalidStart unless every component of s is finite."""
    if not s.is_finite():
        raise InvalidStart(f"initial state is not finite (t={s.t!r}, "
                           f"q={s.q.tolist()}, v={s.v.tolist()})")


def _check_start(gfun, dfun, s: State, t_end: float, opts: SimOptions):
    """Raise InvalidStart unless s is finite, t_end does not precede s.t,
    and s is strictly inside the guard or on it and leaving."""
    _check_finite(s)
    if not t_end >= s.t:
        raise InvalidStart(f"t_end={t_end!r} precedes the start time "
                           f"t={s.t!r}; runs go forward in time")
    g0 = gfun(s.t, s.q, s.v)
    d0 = dfun(s.t, s.q, s.v)
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


def _validate_reset(t, q, v, gfun, dfun):
    """Check a post-impact (t, q, v) against the guard it runs under."""
    if not (np.all(np.isfinite(q)) and np.all(np.isfinite(v))):
        raise InvalidReset("reset produced a non-finite state")
    d_post = dfun(t, q, v)
    if d_post <= 0.0:
        return
    # direction still non-negative: accept only if the state moves off
    # the guard inward over an infinitesimal free step
    eps = 1e-7 * max(1.0, abs(t))
    g_now = gfun(t, q, v)
    g_probe = gfun(t + eps, q + eps * v, v)
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
    gfun, dfun = hs.guard.surface, hs.guard.direction
    ya = hs.system.pack(sa)
    ga = gfun(sa.t, sa.q, sa.v)
    if ga == 0.0:
        # the scan arms only once the guard drops below -ARM_TOL
        tau, y = sa.t, ya
    else:
        def stop(tau, y):
            return y, mode

        # |d| admits every crossing and keeps the residual check's slope
        mode = (hs.system.rhs, gfun, lambda t, q, v: abs(dfun(t, q, v)),
                stop)
        arcs, raw, termination = _execute(mode, sa.t, ya, sb.t,
                                          replace(opts, max_impacts=1))
        if termination == TERM_FAILURE:
            raise IntegrationFailure(
                f"integrator step collapse at t={arcs[-1].t_end:.6g}")
        if not raw:
            y = arcs[-1].states[-1]
            raise BracketInvalid(
                f"no sign change of the guard in [{sa.t:.6g}, {sb.t:.6g}] "
                f"(g: {ga:.3e} -> {gfun(sb.t, y[:n], y[n:]):.3e})")
        tau, y = raw[0][0], raw[0][1]
    d = dfun(tau, y[:n], y[n:])
    if d < 0.0:
        raise DirectionRejected(
            f"crossing at t={tau:.9g} has direction {d:.3e} < 0")
    return State(tau, y[:n], y[n:])


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

    def __str__(self):
        status = "pass" if self.passed else "FAIL"
        return (f"hybrid equivalence: {status} (state {self.max_state_discrepancy:.3e}"
                f"/{EQUIVALENCE_TOL:.1e}, events {self.events_velocity_side}"
                f"=={self.events_momentum_side}, event dt "
                f"{self.max_event_time_delta:.3e}/{EVENT_TIME_TOL:.1e})")


def check_hybrid_equivalence(hs: HybridSystem, s0: State, t_end: float,
                             opts: Optional[SimOptions] = None,
                             grid_per_arc: int = 33) -> HybridEquivalenceReport:
    """Run the hybrid flow on both sides of the fiber derivative and
    compare them.

    The momentum-side system is constructed by conjugation: its guard is
    the pullback of the velocity-side guard through the inverse fiber
    derivative, and its reset is the conjugated reset. The report holds
    the largest componentwise difference between the mapped velocity-side
    flow and the momentum-side flow over matched arcs, and the largest
    difference between matched impact times; it passes when they are
    within EQUIVALENCE_TOL and EVENT_TIME_TOL and the impact counts match.
    """
    opts = opts or SimOptions()
    n = hs.system.dim
    sys = hs.system

    flow_l = simulate(hs, s0, t_end, opts)

    warm = {"v": s0.v.copy()}

    def velocity(t, q, p):
        warm["v"] = sys._velocity(t, q, p, v0=warm["v"])
        return warm["v"]

    def rhs_h(t, y):
        dq, dp = sys.hamiltonian_field(t, y[:n], y[n:], v0=warm["v"])
        warm["v"] = dq
        return np.concatenate([dq, dp])

    def gfun_h(t, q, p):
        return hs.guard.surface(t, q, velocity(t, q, p))

    def dfun_h(t, q, p):
        return hs.guard.direction(t, q, velocity(t, q, p))

    def reset_h(tau, ypre):
        q = ypre[:n]
        q_post, v_post = hs.reset.apply(tau, q, velocity(tau, q, ypre[n:]))
        p_post = sys.dL_dv(tau, q_post, v_post)
        return np.concatenate([q_post, p_post]), mode_h

    mode_h = (rhs_h, gfun_h, dfun_h, reset_h)
    cs0 = sys.legendre(s0)
    arcs_h, raw_h, _ = _execute(mode_h, cs0.t,
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
        yl, yh = arc_l(grid), arc_h(grid)
        p = np.column_stack([sys.dL_dv(t, yl[:n, i], yl[n:, i])
                             for i, t in enumerate(grid)])
        worst = max(worst, float(np.max(np.abs(yl[:n] - yh[:n]))),
                    float(np.max(np.abs(p - yh[n:]))))

    n_l = len(flow_l.events)
    n_h = len(raw_h)
    if n_l and n_h:
        m = min(n_l, n_h)
        ev_delta = float(np.max(np.abs(flow_l.event_times()[:m]
                                       - np.array([e[0] for e in raw_h[:m]]))))
    else:
        ev_delta = 0.0
    passed = (worst <= EQUIVALENCE_TOL and n_l == n_h
              and ev_delta <= EVENT_TIME_TOL)
    return HybridEquivalenceReport(passed, worst, ev_delta, n_l, n_h)


@dataclass
class FlowEquivalenceReport:
    """Outcome of the velocity-side vs momentum-side flow comparison."""

    passed: bool
    max_discrepancy: float
    t_span: tuple

    def __str__(self):
        status = "pass" if self.passed else "FAIL"
        return (f"flow equivalence: {status} (max discrepancy "
                f"{self.max_discrepancy:.3e}, tol {EQUIVALENCE_TOL:.1e}, "
                f"t in [{self.t_span[0]:.3g}, {self.t_span[1]:.3g}])")


def check_flow_equivalence(sys: LagrangianSystem, s0: State,
                           t_end: float) -> FlowEquivalenceReport:
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
    rep = check_hybrid_equivalence(_inert_hybrid(sys), s0, t_end,
                                   grid_per_arc=0)
    return FlowEquivalenceReport(rep.passed, rep.max_state_discrepancy,
                                 (s0.t, t_end))


def _inert_hybrid(system: LagrangianSystem) -> HybridSystem:
    """`system` under a guard that never triggers and an identity reset."""
    return HybridSystem(system=system,
                        guard=Guard(surface=lambda t, q, v: -1.0,
                                    direction=lambda t, q, v: -1.0),
                        reset=ResetMap(apply=lambda t, q, v: (q, v)))
