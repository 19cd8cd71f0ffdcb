"""Execution of hybrid flows: continuous arcs separated by guard-triggered
resets.

Every run in the package goes through one loop, `_execute`: full and
reduced runs, resequenced runs and the momentum-side runs of the
equivalence checks. Each arc is integrated under the fixed step control
RTOL = ATOL with the adaptive Dormand-Prince 8(5,3) pair DOP853, whose
7th-order dense output costs 3 extra right-hand-side calls per accepted
step (Hairer, Norsett & Wanner, Solving ODEs I, II.5-II.6). The step
loop is the module's own: it reads its tableau from `_dop853`, a copy of
scipy's table, and repeats the arithmetic of scipy's `DOP853` operation
for operation, so it reproduces scipy's steps and dense output bit for
bit, but it calls the right-hand side directly, without the solver's
wrapper layers, on a list of Python floats. Its elementwise arithmetic
runs on Python floats, whose IEEE +, -, * and / give numpy's bits
without numpy's per-call overhead on 2- and 4-element arrays; its
tableau sums stay the numpy products scipy takes, since a BLAS sum need
not add in a Python loop's order (see `RK45`).
After every accepted step the scan samples it: its first sample is the
last one before it (the previous step's end, or the arc start), then
come SCAN_POINTS interior times, each read with one scalar call of the
step's dense output, and last the step loop's own end state. The guard
surface g and then its rate d are called at each new sample, in time
order; an arc start's are those of `_check_arc_start`, which every arc
start must pass. One rule on these (g, d) samples brackets the
crossings, including those between two samples (`_scan`), which are
refined in time to REFINE_XTOL with Brent's method on the interpolant
(`brentq`, scipy's C routine run operation for operation). A crossing
counts as an impact only where d >= 0, and never at the arc's start;
crossings with negative d are skipped and integration continues. No
point of an arc is evaluated twice: each scan sample once, Brent's
bracket ends from the scan samples or the refinement before it, and the
impact's state, residual and slope from the evaluations that located
it.
An arc keeps its dense output as one table of its steps' coefficient
blocks, which the step loop hands over, and evaluates an array of times
in one gathered numpy pass with the same bits (`_ArcInterpolant`).
The module imports nothing from scipy.

The loop runs in a mode (rhs, guard, direction, reset) on packed arrays;
`State` appears only at the API edge. The mode's reset returns the
post-impact state together with the mode of the next arc, so a run can
change its dynamics at an impact; resequenced runs use this to rebuild
the reduced system at the post-impact momentum.

Two rules shape the behaviour in impact-accumulation regimes:

* the step size of the arc following an impact is capped at the
  previous dwell time; without the cap, the first step of each such arc
  spans its whole flight, and its extrema and crossings cost about twice
  the refinement work. The first arc's step size has no cap;
* a run terminates with ``zeno_suspected`` when two impacts fall within
  MIN_DWELL of each other, or the step size collapses within MIN_DWELL
  of the last impact, and with ``max_impacts`` at the fixed impact cap
  MAX_IMPACTS.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Callable, List, Tuple

import numpy as np

from . import _dop853
from .errors import IntegrationFailure, InvalidReset, InvalidStart
from .lagrangian import LagrangianSystem, State

TERM_HORIZON = "horizon_reached"
TERM_MAX_IMPACTS = "max_impacts"
TERM_ZENO = "zeno_suspected"
TERM_FAILURE = "integration_failure"

BRENT_RTOL = 1e-15   # relative time tolerance floor for root refinement
REFINE_XTOL = 1e-13  # time localization of impacts: dwell comparisons
                     # against MIN_DWELL must not hinge on localization noise
GUARD_TOL = 1e-8     # bound on |g| at an impact or an on-guard arc start,
                     # scaled by the local guard slope max(1, |d|)
MIN_DWELL = 1e-9     # two impacts closer than this end a run as Zeno
RTOL = ATOL = 1e-10  # the integrator's step control on every arc
MAX_IMPACTS = 10000  # impact cap; reaching it ends a run as max_impacts
SCAN_POINTS = 1      # interior dense-output guard samples per accepted step
EQUIVALENCE_TOL = 1e-6  # state bound of the velocity/momentum-side checks
EVENT_TIME_TOL = 1e-8   # impact-time bound of check_hybrid_equivalence


@dataclass(frozen=True)
class Guard:
    """Switching surface: zero set of `surface` filtered by `direction`.

    Both functions are defined on the extended space R x TQ and take
    (t, q, v), like the Lagrangian: a float t and (n,) arrays q and v,
    and they return a float. The executor calls them on views of its
    packed state, which they must not modify.

    surface: signed g(t, q, v); the admissible region is g < 0 and
        impacts occur on upward crossings of g = 0.
    direction: the rate d = dg/dt of the surface along the flow; the
        scan reads the extrema of g off its sign changes. A crossing is
        an impact iff d >= 0 there (closed inequality: grazing counts).

    The scan calls surface and then direction at each of its samples,
    in time order.
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
class Arc:
    """One continuous piece of a hybrid flow.

    A simulated arc's interpolant is an `_ArcInterpolant`: one table of
    the step loop's DOP853 coefficient blocks, with scipy's OdeSolution
    segment rule, clamped to the arc; an array call is one gathered
    evaluation. An arc that took no step has a constant interpolant.
    Every interpolant follows the contract of scipy's OdeSolution: a
    scalar time gives the packed state, shape (2n,); a 1-D array of k
    times gives the states as columns, shape (2n, k). Column i equals
    the scalar call at the i-th time bit for bit.
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
    them, plus the reason the run stopped.

    Each arc runs from its first grid time to its last; arc k ends at the
    time of event k, where arc k+1 starts. A run has one arc more than
    events, except at the impact cap (``max_impacts``), where its last
    arc ends at its last event.
    """

    arcs: List[Arc]
    events: List[Event]
    termination: str

    @property
    def t_final(self):
        return self.arcs[-1].t_end if self.arcs else None

    def event_times(self):
        return np.array([e.tau for e in self.events])

    def event_time_delta(self, other: "HybridFlow") -> float:
        """Largest |difference| between the impact times of this flow and
        `other`, over the impacts both have (0.0 when either has none)."""
        m = min(len(self.events), len(other.events))
        if not m:
            return 0.0
        return float(np.max(np.abs(self.event_times()[:m]
                                   - other.event_times()[:m])))


# ---------------------------------------------------------------------------
# the DOP853 step loop
# ---------------------------------------------------------------------------

# the tableau, sliced as scipy's DOP853 class slices it
_N_STAGES = _dop853.N_STAGES
_A = _dop853.A[:_N_STAGES, :_N_STAGES]
_B = _dop853.B
_C = _dop853.C[:_N_STAGES]
_E3 = _dop853.E3
_E5 = _dop853.E5
_D = _dop853.D
_A_EXTRA = _dop853.A[_N_STAGES + 1:]
_C_EXTRA = _dop853.C[_N_STAGES + 1:]
_ERROR_ESTIMATOR_ORDER = 7
# scipy's step-size control (scipy.integrate._ivp.rk) and its rtol floor
_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10
_ERROR_EXPONENT = -1 / (_ERROR_ESTIMATOR_ORDER + 1)
_RTOL_FLOOR = 100 * np.finfo(float).eps
# stage s of a step or of its dense output: (s, coefficients, node), the
# coefficients as views of the sliced tables
_STAGES = [(s, _A[s, :s], float(_C[s])) for s in range(1, _N_STAGES)]
_EXTRA_STAGES = [(s, a[:s], float(c)) for s, (a, c) in enumerate(
    zip(_A_EXTRA, _C_EXTRA), start=_N_STAGES + 1)]


def _rms(x):
    """scipy's RMS norm, np.linalg.norm(x) / sqrt(x.size), as numpy
    computes it for a vector."""
    return math.sqrt(x.dot(x)) / x.size ** 0.5


def _floats(f):
    """A right-hand side's value as a list of Python floats."""
    return f if isinstance(f, list) else np.asarray(f, float).tolist()


class _StageMatrix:
    """The DOP853 stage matrix of a solver on 2n-vectors and the
    transposed views its tableau sums are taken on.

    A solver writes every row of the matrix before it reads it, in each
    step attempt and in each dense output, so one matrix serves the
    solvers of consecutive arcs; `_execute` builds one per run."""

    def __init__(self, size):
        K = self.K_extended = np.empty(
            (_N_STAGES + 1 + len(_EXTRA_STAGES), size))
        self.K = K[:_N_STAGES + 1]
        self.stage_sums = [(s, K[:s].T, a, c) for s, a, c in _STAGES]
        self.extra_sums = [(s, K[:s].T, a, c) for s, a, c in _EXTRA_STAGES]
        self.solution_sum = K[:_N_STAGES].T
        self.error_sum = self.K.T


# the name RK45 is the benchmark tracer's seam: it subclasses hybrid.RK45
class RK45:
    """DOP853 on one arc, forward in time.

    The step loop of scipy's `DOP853` without its wrapper layers: its
    initial-step choice, Runge-Kutta step, step-size control, 5/3 error
    norm and 7th-order dense output, operation for operation on the same
    tableau, so steps, states and interpolants agree with scipy's bit
    for bit. `fun` is called directly, on a list of 2n Python floats
    that it must not modify, and may return any sequence of 2n floats;
    `nfev` counts its calls: two at construction (one on an empty
    interval), n_stages per attempt in `step`, three in `dense_output`.
    `y` is kept as a list of floats, `f` as `fun` returned it. As in
    scipy, rtol is raised to 100 eps, a non-finite y0 or a
    max_step <= 0 raises ValueError, a step on a solver at t_bound is a
    degenerate one, and a step size below 10 ulp(t) ends the arc with
    status "failed".

    Each tableau sum (a stage's K[:s]^T a, the solution's K^T B, the
    error estimates K^T E5 and K^T E3 with their norms, the dense
    output's D K) is the numpy product scipy takes, on views of the
    stage matrix `stages` (a `_StageMatrix`, built once per run and
    handed to each arc's solver by `_execute`; a solver given none
    builds its own): a BLAS sum need not add in a
    Python loop's order (a sequential Python sum differed from `dot` in
    45,411 of the 132,000 stage sums of 3,000 standard-normal 4-column
    stage matrices), so only numpy reproduces scipy's bits there. The
    vector arithmetic between the sums (stage arguments, solution
    update, error scale, the first three dense-output rows) runs on
    Python floats, where IEEE +, -, * and / give numpy's bits without
    its per-call overhead on 2- and 4-element arrays. The (4, 2n) block
    h (D K) is scaled in one numpy call. The initial-step choice, once
    per arc, also runs on Python floats but for its three norms, whose
    sums are `ndarray.dot` as in scipy. A zero error scale there (atol =
    0 at a zero component), which scipy divides into a NaN step size,
    raises ZeroDivisionError.
    (`ndarray.dot` is `np.dot` without its dispatch layer.)
    """

    n_stages = _N_STAGES

    def __init__(self, fun, t0, y0, t_bound, rtol, atol, max_step,
                 stages=None):
        if max_step <= 0:
            raise ValueError("`max_step` must be positive.")
        y = np.asarray(y0, float).tolist()
        if not all(map(math.isfinite, y)):
            # its step sizes would be NaN, and every attempt rejected
            raise ValueError(
                "All components of the initial state `y0` must be finite.")
        self.fun = fun
        self.t_old = None
        self.t = t0
        self.y = y
        self.t_bound = t_bound
        self.rtol = max(rtol, _RTOL_FLOOR)
        self.atol = atol
        self.max_step = max_step
        self.status = "running"
        self.f = fun(t0, y)
        self.nfev = 1
        self.h_abs = self._initial_step()
        if stages is None:
            stages = _StageMatrix(len(y))
        self.K_extended, self.K = stages.K_extended, stages.K
        self._stage_sums = stages.stage_sums
        self._extra_sums = stages.extra_sums
        self._solution_sum = stages.solution_sum
        self._error_sum = stages.error_sum

    def _initial_step(self):
        """scipy's select_initial_step (Hairer, Norsett & Wanner, II.4),
        on Python floats but for the three norms' dot products."""
        t0, y0 = self.t, self.y
        f0 = _floats(self.f)
        interval_length = abs(self.t_bound - t0)
        if interval_length == 0.0:
            return 0.0
        atol, rtol = self.atol, self.rtol
        scale = [atol + abs(v) * rtol for v in y0]
        d0 = _rms(np.array([v / s for v, s in zip(y0, scale)]))
        d1 = _rms(np.array([f / s for f, s in zip(f0, scale)]))
        if d0 < 1e-5 or d1 < 1e-5:
            h0 = 1e-6
        else:
            h0 = 0.01 * d0 / d1
        h0 = min(h0, interval_length)
        f1 = self.fun(t0 + h0, [v + h0 * f for v, f in zip(y0, f0)])
        self.nfev += 1
        f1 = _floats(f1)
        d2 = _rms(np.array([(a - b) / s
                            for a, b, s in zip(f1, f0, scale)])) / h0
        if d1 <= 1e-15 and d2 <= 1e-15:
            h1 = max(1e-6, h0 * 1e-3)
        else:
            h1 = (0.01 / max(d1, d2)) ** -_ERROR_EXPONENT
        return min(100 * h0, h1, interval_length, self.max_step)

    def step(self):
        """Advance by one accepted step; set status to "finished" at
        t_bound, or to "failed" when the step size falls below 10 ulp."""
        t, y, K, fun = self.t, self.y, self.K, self.fun
        t_bound, rtol, atol = self.t_bound, self.rtol, self.atol
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
        abs_y = [abs(v) for v in y]
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
            for s, KT, a, c in self._stage_sums:
                K[s] = fun(t + c * h, [v + d * h for v, d
                                       in zip(y, KT.dot(a).tolist())])
            y_new = [v + h * d for v, d
                     in zip(y, self._solution_sum.dot(_B).tolist())]
            f_new = fun(t + h, y_new)
            K[-1] = f_new
            self.nfev += self.n_stages
            # np.maximum's rule: a NaN on either side is the maximum
            scale = np.array([atol + (a if a > b or a != a else b) * rtol
                              for a, b in zip(abs_y, map(abs, y_new))])
            err5 = self._error_sum.dot(_E5) / scale
            err3 = self._error_sum.dot(_E3) / scale
            err5_norm_2 = math.sqrt(err5.dot(err5)) ** 2
            err3_norm_2 = math.sqrt(err3.dot(err3)) ** 2
            if err5_norm_2 == 0 and err3_norm_2 == 0:
                error_norm = 0.0
            else:
                denom = err5_norm_2 + 0.01 * err3_norm_2
                error_norm = h_abs * err5_norm_2 / math.sqrt(denom * len(y))
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
        """Interpolant of the last step: scipy's DOP853 dense output. Its
        (8, 2n) coefficient block is also left in `_coeffs` (None for a
        step on an empty interval), where the executor reads it for the
        arc's table: a traced solver's dense output passes on no more
        than a `_StepInterpolant`'s times and calls."""
        if self.t == self.t_old:
            self._coeffs = None
            return _ConstantInterpolant(np.array(self.y), self.t)
        K, h = self.K_extended, self.h_previous
        t_old, y_old = self.t_old, self.y_old
        for s, KT, a, c in self._extra_sums:
            K[s] = self.fun(t_old + c * h, [v + d * h for v, d
                                            in zip(y_old, KT.dot(a).tolist())])
        self.nfev += len(_EXTRA_STAGES)
        # f at both ends as scipy reads them: rows of the stage matrix
        f_old, f = K[0].tolist(), K[_N_STAGES].tolist()
        delta_y = [a - b for a, b in zip(self.y, y_old)]
        # rows F[0], F[1], F[2], the 4 rows h (D K), then y_old
        coeffs = np.empty((len(_D) + 4, len(y_old)))
        coeffs[0] = delta_y
        coeffs[1] = [h * fo - d for fo, d in zip(f_old, delta_y)]
        coeffs[2] = [2 * d - h * (fn + fo)
                     for d, fn, fo in zip(delta_y, f, f_old)]
        coeffs[3:-1] = h * _D.dot(K)
        coeffs[-1] = y_old
        self._coeffs = coeffs
        return _StepInterpolant(t_old, self.t, coeffs)


def _horner(cols, x):
    """scipy's Dop853DenseOutput sum on Python floats: for each column
    (a component's 7 coefficients, then its y_old), the polynomial at
    the scaled time x."""
    xm = 1 - x
    return [(((((((0.0 + f6) * x + f5) * xm + f4) * x + f3) * xm + f2) * x
              + f1) * xm + f0) * x + y0
            for f0, f1, f2, f3, f4, f5, f6, y0 in cols]


class _StepInterpolant:
    """DOP853's dense output on one step [t_old, t] at one float time:
    scipy's Dop853DenseOutput, operation for operation. Its (8, 2n) block
    of coefficient rows F and y_old is turned into Python-float columns
    once, at construction, and a call is `_horner` at the scaled time:
    at the few times of a step's scan and refinement, Python floats beat
    numpy's per-call overhead. An arc keeps the blocks of its steps, not
    these objects (`_ArcInterpolant`).
    Callers read t_old, t, t_min and t_max and call it; the tracer's
    proxy passes on nothing else."""

    def __init__(self, t_old, t, coeffs):
        self.t_old = self.t_min = t_old
        self.t = self.t_max = t
        self.h = t - t_old
        self._cols = coeffs.T.tolist()

    def __call__(self, t):
        x = (t - self.t_old) / self.h
        return np.array(_horner(self._cols, x))


# ---------------------------------------------------------------------------
# generic packed-coordinates execution loop
# ---------------------------------------------------------------------------

def _execute(mode, t0, y0, t_end):
    """Drive the hybrid loop in packed coordinates and return its run.

    mode: (rhs, gfun, dfun, reset) with rhs: (t, y) -> y', called on a
    list of 2n floats and returning a sequence of 2n floats (see `RK45`),
    gfun/dfun: a `Guard`'s surface and direction on the halves of y, and
    reset: (tau, y_pre) -> (y_post, next_mode); the arc after the impact
    runs in next_mode. Returns the `HybridFlow`: its events' states split
    each packed y into its halves, which are (q, v) for a velocity-side
    mode and (q, p) for the momentum-side mode of
    `check_hybrid_equivalence`.

    Every arc start must pass `_check_arc_start` under the arc's guard,
    or the run raises InvalidStart (the first arc) or InvalidReset (an
    arc after an impact); the check's (g, d) are the first scan sample
    of the arc's first step, and each later step's first sample is the
    step before's last. Each arc gets its own solver; the DOP853
    stage matrix and its views (`_StageMatrix`) are built once per run
    and handed to every one.
    """
    t = float(t0)
    y = np.asarray(y0, float).copy()
    n = y.size // 2
    arcs: List[Arc] = []
    events: List[Event] = []
    max_step = math.inf
    stages = _StageMatrix(y.size)

    while True:
        rhs, gfun, dfun, reset = mode
        g0, d0 = _check_arc_start(gfun, dfun, t, y[:n], y[n:], t_end,
                                  InvalidReset if events else InvalidStart)
        # a step's first scan sample is the last one before it: the arc
        # start's is the check's
        ts, ys, gs, ds = [t], [y], [g0], [d0]
        solver = RK45(rhs, t, y, t_bound=t_end, rtol=RTOL, atol=ATOL,
                      max_step=max_step, stages=stages)
        if not all(map(math.isfinite, solver.f)):
            # scipy would reject every step of a NaN step size forever
            raise IntegrationFailure(
                f"right-hand side is not finite at the arc start t={t:.6g}")
        # the arc's dense output: each step's coefficient block and end
        breakpoints = [t]
        blocks = []
        hit = None
        failed = False
        while hit is None and solver.status == "running":
            solver.step()
            if solver.status == "failed":
                failed = True
                break
            dense = solver.dense_output()
            if solver._coeffs is not None:
                blocks.append(solver._coeffs)
                breakpoints.append(solver.t)
            # the scan samples of np.linspace(t_old, t, SCAN_POINTS + 2),
            # in its arithmetic: after the carried t_old,
            # i * ((t - t_old) / (SCAN_POINTS + 1)) + t_old, and t last
            t_old = solver.t_old
            w = (solver.t - t_old) / (SCAN_POINTS + 1)
            for i in range(1, SCAN_POINTS + 1):
                ts.append(i * w + t_old)
                ys.append(dense(ts[-1]))
            ts.append(solver.t)
            ys.append(np.array(solver.y))
            for tt, yy in zip(ts[1:], ys[1:]):
                q, v = yy[:n], yy[n:]
                gs.append(gfun(tt, q, v))
                ds.append(dfun(tt, q, v))
            hit = _scan(dense, n, gfun, dfun, t, ts, ys, gs, ds)
            ts, ys, gs, ds = ts[-1:], ys[-1:], gs[-1:], ds[-1:]

        t_arc, y_arc = hit[:2] if hit is not None else (solver.t, solver.y)
        arcs.append(_close_arc(breakpoints, blocks, t_arc, y_arc))
        # the arc's span since the last impact, or since the start
        dwell = t_arc - (events[-1].tau if events else t0)
        piled_up = bool(events) and dwell < MIN_DWELL

        if failed:
            # a step collapse right after an impact is the impacts piling up
            return HybridFlow(arcs, events,
                              TERM_ZENO if piled_up else TERM_FAILURE)
        if hit is None:
            return HybridFlow(arcs, events, TERM_HORIZON)
        if piled_up:
            return HybridFlow(arcs, events, TERM_ZENO)

        tau, ypre, g_tau, d_tau = hit
        residual = abs(g_tau)
        slope = max(1.0, abs(d_tau))
        if residual > GUARD_TOL * slope:
            raise IntegrationFailure(
                f"guard residual {residual:.3e} at located impact exceeds "
                f"tolerance; event refinement failed")
        ypost, mode = reset(tau, ypre)
        pre, post = ypre.copy(), ypost.copy()
        events.append(Event(tau, State(tau, pre[:n], pre[n:]),
                            State(tau, post[:n], post[n:]), residual))
        max_step = dwell

        if len(events) >= MAX_IMPACTS:
            return HybridFlow(arcs, events, TERM_MAX_IMPACTS)
        t, y = tau, ypost


def _scan(dense, n, gfun, dfun, start, ts, ys, gs, ds):
    """The first impact of an accepted step as (tau, y_pre, g, d), the
    last two the guard and its rate at (tau, y_pre), or None.

    dense is the step's dense output, ts its scan samples, ys the states
    there, gs and ds the guard g and its rate d there, and
    start the time the arc starts. One rule reads each interval [a, b]
    between two samples:

    * an arc's first interval, where d goes from - to + and g(b) > 0:
      the crossing follows the minimum of g. Where g >= 0 there, the arc
      left the guard without measurably getting inside, and the wall
      catches it at the minimum;
    * d from + to - with g(a), g(b) <= 0: where g > 0 at the maximum,
      the crossing precedes it;
    * otherwise, g(a) <= 0 < g(b) brackets the crossing.

    Extrema are located with Brent on d, crossings with Brent on g. A
    crossing is an impact where d >= 0, except at the start itself;
    otherwise the scan goes on. A strike between two samples is missed
    only where g has two maxima between them.

    No point is evaluated twice: every Brent call gets its end values
    from the samples or from the refinement before it, and the impact's
    state, g and d come from the evaluations that located it
    (`_StepPoints`). A step with no bracket builds nothing.
    """
    points = None
    for a, b, ga, gb, da, db in zip(ts, ts[1:], gs, gs[1:], ds, ds[1:]):
        if a == start and da < 0.0 < db and gb > 0.0:
            extremum = "minimum"
        elif da > 0.0 > db and ga <= 0.0 and gb <= 0.0:
            extremum = "maximum"
        elif ga <= 0.0 < gb:
            extremum = None
        else:
            continue
        if points is None:
            points = _StepPoints(dense, n, gfun, dfun, ts, ys, gs, ds)
        if extremum is None:
            tau = _refine(points.g, a, b, ga, gb)
        else:
            t_ext = _refine(points.d, a, b, da, db)
            g_ext = points.g(t_ext)
            if extremum == "minimum":
                tau = (_refine(points.g, t_ext, b, g_ext, gb) if g_ext < 0.0
                       else t_ext)
            elif g_ext <= 0.0:
                continue
            else:
                tau = _refine(points.g, a, t_ext, ga, g_ext)
        if tau == start:
            continue
        d_tau = points.d(tau)
        if d_tau >= 0.0:
            return tau, points.y(tau), points.g(tau), d_tau
        # inadmissible crossing: the trajectory exits; scan on for a
        # re-entry
    return None


class _StepPoints:
    """The dense state, g and d of one step at the times its refinements
    visit, each evaluated at most once; the scan samples' are seeded from
    the scan. Brent's roots are points it evaluated, so the impact is
    read off here too."""

    def __init__(self, dense, n, gfun, dfun, ts, ys, gs, ds):
        self.dense, self.n, self.gfun, self.dfun = dense, n, gfun, dfun
        # time -> state, g, d
        self.states = dict(zip(ts, ys))
        self.gs = dict(zip(ts, gs))
        self.ds = dict(zip(ts, ds))

    def y(self, t):
        state = self.states.get(t)
        if state is None:
            state = self.states[t] = self.dense(t)
        return state

    def g(self, t):
        value = self.gs.get(t)
        if value is None:
            y, n = self.y(t), self.n
            value = self.gs[t] = self.gfun(t, y[:n], y[n:])
        return value

    def d(self, t):
        value = self.ds.get(t)
        if value is None:
            y, n = self.y(t), self.n
            value = self.ds[t] = self.dfun(t, y[:n], y[n:])
        return value


def _refine(f, a, b, fa, fb):
    """The root of f in [a, b], to REFINE_XTOL, given f(a) and f(b)."""
    return brentq(f, a, b, xtol=REFINE_XTOL, rtol=BRENT_RTOL, fa=fa, fb=fb)


def _along(fun, dense, n):
    """fun(t, q, v) along a dense output of n-dimensional states."""
    def f(tt):
        y = dense(tt)
        return fun(tt, y[:n], y[n:])

    return f


_BRENT_RTOL_MIN = 4 * np.finfo(float).eps   # scipy's floor and default


# the name brentq is a seam: the benchmark tracer and the tests patch it
def brentq(f, a, b, xtol=2e-12, rtol=_BRENT_RTOL_MIN, maxiter=100,
           fa=None, fb=None):
    """Root of f in [a, b] by Brent's method (Brent, Algorithms for
    Minimization without Derivatives, 1973, ch. 4).

    scipy's `optimize.brentq`: its C routine operation for operation on
    Python floats, so the root is scipy's bit for bit. f is called on
    floats and its values are taken as floats. fa and fb, when given,
    are f(a) and f(b), the two values the C routine computes first; f
    is then not called there, and the root is the same as long as they
    equal those calls. As in scipy, f(a) and f(b) of one sign, a NaN
    value of f (evaluated or given), xtol <= 0 or rtol < 4 eps raise
    ValueError, and no convergence in maxiter iterations raises
    RuntimeError.
    """
    maxiter = operator.index(maxiter)
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    if rtol < _BRENT_RTOL_MIN:
        raise ValueError(f"rtol too small ({rtol:g} < {_BRENT_RTOL_MIN:g})")

    def value(x, fx=None):
        fx = float(f(x) if fx is None else fx)
        if fx != fx:
            raise ValueError(f"The function value at x={x} is NaN; "
                             f"solver cannot continue.")
        return fx

    xpre, xcur = float(a), float(b)
    fpre, fcur = value(xpre, fa), value(xcur, fb)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    # past the zero tests, the C routine's signbit(x) is x < 0
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations, "
                       f"value is {xcur:f}")


def _close_arc(breakpoints, blocks, t_end, y_end):
    """The arc from breakpoints[0] to t_end, whose steps end at
    breakpoints[1:] with coefficient blocks `blocks`, and y_end its state
    at t_end. Its grid is each step's start, with the state at it (the
    block's y_old row), then t_end."""
    k = len(blocks)
    times = np.array(breakpoints[:k] + [t_end])
    t_start, t_end = times[0], times[-1]
    if blocks:
        table = np.array(blocks)
        states = np.vstack([table[:, -1], y_end])
        # an event cuts the last step; clamp queries to the arc
        interp = _ArcInterpolant(table, np.array(breakpoints), t_start, t_end)
    else:
        states = np.array([y_end], float)
        interp = _ConstantInterpolant(states[0], t_start)
    return Arc(t_start, t_end, times, states, interp)


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


class _ArcInterpolant:
    """The dense output of an arc [t0, t1] of k steps as one table, with
    scipy's OdeSolution segment rule on times clamped to the arc.

    `table` is (k, 8, 2n): block j holds step j's DOP853 coefficient rows
    F and its y_old, as a `_StepInterpolant` does, and the step runs from
    breakpoints[j] to breakpoints[j + 1]. Time t goes to step
    searchsorted(breakpoints, t) - 1 (side "left"), clamped to the first
    and last step, so a breakpoint belongs to the step that ends there.
    A scalar call is `_horner` on that step's block. An array call is one
    gathered evaluation: one searchsorted for all times, then `_horner`'s
    sum in numpy on the coefficients gathered one row at a time, whose
    elementwise IEEE arithmetic gives the scalar calls' bits; as on
    Python floats, non-finite values raise no warning.
    """

    def __init__(self, table, breakpoints, t0, t1):
        self.table = table
        self.breakpoints = breakpoints
        self.t0 = t0
        self.t1 = t1

    def __call__(self, t):
        t = np.clip(t, self.t0, self.t1)
        bp = self.breakpoints
        last = len(bp) - 2
        if t.ndim == 0:
            t = float(t)
            j = min(max(int(np.searchsorted(bp, t)) - 1, 0), last)
            t_old = float(bp[j])
            x = (t - t_old) / (float(bp[j + 1]) - t_old)
            return np.array(_horner(self.table[j].T.tolist(), x))
        j = np.searchsorted(bp, t) - 1
        np.clip(j, 0, last, out=j)
        t_old = bp[j]
        table = self.table

        def row(r):
            # coefficient row r at every time, as (2n, m) columns
            return table[:, r].T.take(j, axis=1)

        with np.errstate(over="ignore", invalid="ignore"):
            x = (t - t_old) / (bp[j + 1] - t_old)
            xm = 1 - x
            y = row(6)
            y += 0.0    # `_horner` starts at 0.0 + f6: -0.0 becomes 0.0
            for r, z in ((5, x), (4, xm), (3, x), (2, xm), (1, x), (0, xm),
                         (7, x)):
                y *= z
                y += row(r)
        return y


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def simulate(hs: HybridSystem, s0: State, t_end: float) -> HybridFlow:
    """Execute the hybrid flow of `hs` from s0 up to t_end.

    s0 and every post-impact state must be admissible arc starts
    (`_check_arc_start`): finite, and strictly inside the guard or on it
    and leaving; t_end must be finite and must not precede s0.t. A bad
    start or horizon raises InvalidStart before any step, a bad
    post-impact state InvalidReset. Each arc runs under the step control
    RTOL and ATOL, and the run stops at MAX_IMPACTS impacts. Returns a
    HybridFlow whose termination is one of horizon_reached, max_impacts,
    zeno_suspected or integration_failure.
    """
    n = hs.system.dim

    def reset(tau, ypre):
        q, v = hs.reset.apply(tau, ypre[:n], ypre[n:])
        return np.concatenate([q, v]), mode

    mode = (hs.system.rhs, hs.guard.surface, hs.guard.direction, reset)
    return _execute(mode, s0.t, hs.system.pack(s0), t_end)


def _check_finite(s: State):
    """Raise InvalidStart unless every component of s is finite."""
    if not s.is_finite():
        raise InvalidStart(f"initial state is not finite (t={s.t!r}, "
                           f"q={s.q.tolist()}, v={s.v.tolist()})")


def _check_arc_start(gfun, dfun, t, q, v, t_end, error):
    """The guard's (g, d) at the arc start (t, q, v); raises `error`
    unless an arc may start there and run forward to t_end.

    The start and t_end must be finite, t_end not before t, and, with
    b = GUARD_TOL max(1, |d|), g <= b and one of: g < -b (strictly
    inside), d < 0 (leaving), or a free step of 1e-7 max(1, |t|) lowers
    g by more than 1e-14. So within b of the guard with d >= 0 the free
    step decides: it admits a start moving inward, and rejects one
    heading out or tangent to a static wall."""
    if not all(map(math.isfinite, [t, *q.tolist(), *v.tolist()])):
        raise error(f"arc start is not finite (t={t!r}, q={q.tolist()}, "
                    f"v={v.tolist()})")
    if not math.isfinite(t_end):
        raise error(f"t_end={t_end!r} is not finite; runs end at a finite "
                    f"horizon")
    if not t_end >= t:
        raise error(f"t_end={t_end!r} precedes the start time t={t!r}; "
                    f"runs go forward in time")
    g, d = gfun(t, q, v), dfun(t, q, v)
    bound = GUARD_TOL * max(1.0, abs(d))
    if g <= bound:
        if g < -bound or d < 0.0:
            return g, d
        eps = 1e-7 * max(1.0, abs(t))
        if gfun(t + eps, q + eps * v, v) < g - 1e-14:
            return g, d
    raise error(f"arc start at t={t!r} has g={g:.3e}, d={d:.3e}; an arc "
                f"starts strictly inside the guard, or on it and leaving")


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
    n = hs.system.dim
    sys = hs.system

    flow_l = simulate(hs, s0, t_end)
    cs0 = sys.legendre(s0)
    # its states hold (q, p); only its arcs and impact times are read
    flow_h = _execute(_momentum_mode(hs, s0.v), cs0.t,
                      np.concatenate([cs0.q, cs0.p]), t_end)

    worst = 0.0
    for arc_l, arc_h in zip(flow_l.arcs, flow_h.arcs):
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

    n_l, n_h = len(flow_l.events), len(flow_h.events)
    ev_delta = flow_l.event_time_delta(flow_h)
    passed = (worst <= EQUIVALENCE_TOL and n_l == n_h
              and ev_delta <= EVENT_TIME_TOL)
    return HybridEquivalenceReport(passed, worst, ev_delta, n_l, n_h)


def _momentum_mode(hs: HybridSystem, v0):
    """The executor mode of `hs` on the momentum side, on packed (q, p):
    its field, guard and reset conjugated by the fiber derivative.

    Every velocity recovery is a Newton solve warm-started at the last
    velocity found, first at v0, so the mode's results depend on the
    order of its calls. The scan calls the surface and then the
    direction at one sample: the direction's solve starts at the
    surface's solution, which passes its residual test at once.
    """
    n = hs.system.dim
    sys = hs.system
    warm = {"v": np.array(v0, float)}

    def velocity(t, q, p):
        warm["v"] = sys._velocity(t, q, p, v0=warm["v"])
        return warm["v"]

    def rhs_h(t, y):
        y = np.asarray(y, float)
        dq, dp = sys.hamiltonian_field(t, y[:n], y[n:], v0=warm["v"])
        warm["v"] = dq
        return np.concatenate([dq, dp])

    def on_momenta(fun):
        """A guard function fun(t, q, v) as a function of (t, q, p)."""
        def f(t, q, p):
            return fun(t, q, velocity(t, q, p))
        return f

    def reset_h(tau, ypre):
        q = ypre[:n]
        q_post, v_post = hs.reset.apply(tau, q, velocity(tau, q, ypre[n:]))
        p_post = sys.dL_dv(tau, q_post, v_post)
        return np.concatenate([q_post, p_post]), mode_h

    mode_h = (rhs_h, on_momenta(hs.guard.surface),
              on_momenta(hs.guard.direction), reset_h)
    return mode_h


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
    triggers, with the step control RTOL and ATOL on both sides. The
    report holds the maximum over the union of both step grids of the
    componentwise difference between the mapped velocity-side state and
    the momentum-side state. A start `simulate` rejects (non-finite, a
    non-finite t_end, or t_end before s0.t) raises InvalidStart.
    """
    rep = check_hybrid_equivalence(_inert_hybrid(sys), s0, t_end,
                                   grid_per_arc=0)
    return FlowEquivalenceReport(rep.passed, rep.max_state_discrepancy,
                                 (s0.t, t_end))


def _never(t, q, v):
    """A guard value of -1 at every state."""
    return -1.0


def _inert_hybrid(system: LagrangianSystem) -> HybridSystem:
    """`system` under a guard that never triggers and an identity reset."""
    return HybridSystem(system=system,
                        guard=Guard(surface=_never, direction=_never),
                        reset=ResetMap(apply=lambda t, q, v: (q, v)))
