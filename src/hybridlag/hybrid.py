"""Execution of hybrid flows: continuous arcs separated by guard-triggered
resets.

Every run in the package goes through one loop, `_execute`: full and
reduced runs, resequenced runs, the momentum-side runs of the
equivalence checks and the closed-form oracle's flights. An arc runner
only flies an arc and reports its impact; the loop owns every rule
between arcs, arcs with no time to cover and step collapses included.
The default arc runner (`_integrator`) integrates each arc under the
fixed step control RTOL = ATOL with the adaptive Dormand-Prince 8(5,3)
pair DOP853, whose 7th-order dense output costs 3 extra right-hand-side
calls per accepted step (Hairer, Norsett & Wanner, Solving ODEs I,
II.5-II.6). The step loop is the module's own (`RK45`): it reads its
tableau from `_dop853`, a copy of scipy's table, and keeps the rule of
scipy's `DOP853`, but takes every tableau sum on Python floats in one
fixed order, so its bits depend on no BLAS kernel and stay within a
measured bound of scipy's. It calls the right-hand side directly, on a
list of Python floats, and gets a list of Python floats back. A step
attempt and a dense output are one call each of a kernel generated for
the state size (`_kernels`). A model with a
closed-form field hands it to the loop as its right-hand side, so each
stage is one Python call into the model's arithmetic
(`LagrangianSystem.rhs`).
Wherever the loop knows the guard, it holds the point as one record
(t, y, g, d): the time, the packed state, the guard surface g and its
rate d. The arc start is one, with the (g, d) of `_check_arc_start`,
which every arc start must pass, and so is an impact. After every
accepted step the scan samples it: its first sample is the last one
before it (the previous step's end, or the arc start), then comes the
step's midpoint, read with one scalar call of the step's dense output,
and last the step loop's own end state. g and then d are called at each
new sample, in time order. One rule on each two consecutive records
brackets the crossings, including those between two samples (`_scan`).
Each crossing is refined on the interpolant by Newton steps on the
guard rate, from the root of the quintic Hermite interpolant of the
(g, d) of the step's three samples, and closed by Brent's method
(`brentq`, scipy's C routine run operation for operation) to REFINE_XTOL
(`_crossing`). A crossing counts as an impact only where its rate does
not leave (`_leaving`: a rate within GUARD_TOL of zero does not), and
never at the arc's start; leaving crossings are skipped and integration
continues. No point of an arc is evaluated twice: each scan sample
once, the bracket ends of Newton and Brent from the scan samples or the
refinement before it, and the impact's record from the evaluations that
located it.
An arc keeps its dense output as one table of its steps' flat
coefficient blocks, which the step loop hands over, and evaluates its times in one
gathered numpy pass with the step interpolants' bits, a scalar time as
an array of one (`_ArcInterpolant`).
The module imports nothing from scipy.

The loop runs in a mode (rhs, guard, direction, reset) on packed states,
each one list of Python floats; `State` appears only at the API edge,
and arrays only per arc and per impact. The guard and the reset get the
two halves of a packed state as lists of floats, so no guard sample
calls numpy or BLAS. The mode's reset returns the post-impact halves
together with the mode of the next arc, so a run can change its
dynamics at an impact; resequenced runs use this to rebuild the reduced
system at the post-impact momentum.

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

import functools
import math
from collections import namedtuple
from dataclasses import dataclass, field
from typing import Callable, List, Sequence, Tuple

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
EQUIVALENCE_TOL = 1e-6  # state bound of the velocity/momentum-side checks
EVENT_TIME_TOL = 1e-8   # impact-time bound of check_hybrid_equivalence


@dataclass(frozen=True)
class Guard:
    """Switching surface: zero set of `surface` filtered by `direction`.

    Both functions are defined on the extended space R x TQ and take
    (t, q, v): a float t, and q and v as lists of n Python floats, which
    they must not modify; they return a float. The
    executor calls them on the halves of its packed state, so a guard
    written on Python floats (`x * x + y * y`, `q[0]`) costs no numpy
    call and its bits depend on no BLAS kernel.

    surface: signed g(t, q, v); the admissible region is g < 0 and
        impacts occur on upward crossings of g = 0.
    direction: the rate d = dg/dt of the surface along the flow; the
        scan reads the extrema of g off its sign changes, and its
        crossings are refined by Newton steps on it. A crossing is
        an impact iff d >= -GUARD_TOL there (`_leaving`: a grazing rate,
        within GUARD_TOL of zero, counts as an impact). Any other rate
        of the same sign costs refinement evaluations, not accuracy
        (`_crossing`).

    The scan calls surface and then direction at each of its samples,
    in time order.
    """

    surface: Callable[[float, List[float], List[float]], float]
    direction: Callable[[float, List[float], List[float]], float]


@dataclass(frozen=True)
class ResetMap:
    """Impact map on the guard: apply(t, q, v) -> (q_post, v_post) at
    the same t. Like the guard, it gets q and v as lists of n Python
    floats, which it must not modify, and returns q_post and v_post as
    sequences of n floats each (lists, or 1-D arrays); the executor
    joins them into the next arc's packed state and raises InvalidReset
    when either has another length."""

    apply: Callable[[float, List[float], List[float]],
                    Tuple[Sequence[float], Sequence[float]]]


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
    segment rule, clamped to the arc; every call is one gathered
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
# scipy's step-size control (scipy.integrate._ivp.rk)
_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10
_ERROR_EXPONENT = -1 / (_ERROR_ESTIMATOR_ORDER + 1)
# stage s of a step or of its dense output: (s, coefficients, node), the
# coefficients as views of the sliced tables
_STAGES = [(s, _A[s, :s], float(_C[s])) for s in range(1, _N_STAGES)]
_EXTRA_STAGES = [(s, a[:s], float(c)) for s, (a, c) in enumerate(
    zip(_A_EXTRA, _C_EXTRA), start=_N_STAGES + 1)]


def _kernel_source(size):
    """The step loop's kernels for states of `size` components, as
    Python source (see `_kernels`)."""
    def each(pattern, sep=" "):
        # pattern once per component, with `#` replaced by its index
        return sep.join(pattern.replace("#", str(i)) for i in range(size))

    def summed(target, terms):
        # target = the terms' sum, left to right, two terms a line
        lines = [" + ".join(terms[k:k + 2]) for k in range(0, len(terms), 2)]
        if len(lines) == 1:
            return [f"    {target} = {lines[0]}"]
        pad = " " * (len(target) + 8)
        return [f"    {target} = ({lines[0]}",
                *(f"{pad}+ {line}" for line in lines[1:-1]),
                f"{pad}+ {lines[-1]})"]

    def tableau_sums(target, coefficients):
        # target = the sum of k{j}_# * coefficients[j] over the columns
        # j, exact zeros skipped
        return [line for i in range(size) for line in summed(
            target.replace("#", str(i)),
            [f"k{j}_{i} * {a!r}" for j, a in enumerate(coefficients.tolist())
             if a])]

    def rms(target, quotients):
        # the square root of the sum of the squared quotients, in
        # component order, over sqrt(size)
        return [*(f"    e{i} = {quotients.replace('#', str(i))}"
                  for i in range(size)),
                *summed("e", [f"e{i} * e{i}" for i in range(size)]),
                f"    {target} = sqrt(e) / {size} ** 0.5"]

    src = ["def horner(c, x):",
           *(f"    {'(' if r == 0 else ' '}{each(f'f{r}_#,')}"
             for r in range(7)),
           f"     {each('y#,')}) = c",
           "    xm = 1 - x",
           "    return [",
           *(f"""\
        (((((((0.0 + f6_{i}) * x + f5_{i}) * xm + f4_{i}) * x + f3_{i})
           * xm + f2_{i}) * x + f1_{i}) * xm + f0_{i}) * x + y{i},"""
             for i in range(size)),
           "    ]",
           "",
           "def attempt(fun, t, y, f, h):",
           f"    {each('y#,')} = y",
           f"    {each('k0_#,')} = f"]
    for s, a, c in _STAGES:
        src += tableau_sums("w#", a)
        src += [f"    {each(f'k{s}_#,')} = k{s} = fun(t + {c!r} * h, [",
                f"        {each('y# + w# * h,')}])"]
    src += tableau_sums("w#", _B)
    src += [f"    {each('u#,')} = y_new = [",
            f"        {each('y# + h * w#,')}]",
            "    f_new = fun(t + h, y_new)"]
    for i in range(size):
        src += [f"    a{i} = abs(y{i})", f"    b{i} = abs(u{i})",
                f"    s{i} = ATOL + (a{i} if a{i} > b{i} else b{i}) * RTOL"]
    for name, e in (("err5_norm_2", _E5), ("err3_norm_2", _E3)):
        src += tableau_sums("w#", e)
        src += [f"    e{i} = w{i} / s{i}" for i in range(size)]
        src += summed(name, [f"e{i} * e{i}" for i in range(size)])
    src += ["    return (y_new, f_new, err5_norm_2, err3_norm_2,",
            f"            (f, {', '.join(f'k{s}' for s, _, _ in _STAGES)},"
            " f_new))",
            "",
            "def dense(fun, t, y_old, h, y, K):",
            f"    {each('o#,')} = y_old"]
    read = {j for _, a, _ in _EXTRA_STAGES for j in np.flatnonzero(a)}
    read |= {j for d in _D for j in np.flatnonzero(d)}
    src += [f"    {each(f'k{j}_#,')} = K[{j}]" for j in sorted(read)
            if j <= _N_STAGES]
    for s, a, c in _EXTRA_STAGES:
        src += tableau_sums("w#", a)
        src += [f"    {each(f'k{s}_#,')} = fun(t + {c!r} * h, [",
                f"        {each('o# + w# * h,')}])"]
    for r, d in enumerate(_D):
        src += tableau_sums(f"e{r}_#", d)
    src += [f"    {each('y#,')} = y",
            *(f"    d{i} = y{i} - o{i}" for i in range(size)),
            "    return [",
            *(f"        {each(p, chr(10) + 8 * ' ')}" for p in (
                "d#,", "h * k0_# - d#,",
                f"2 * d# - h * (k{_N_STAGES}_# + k0_#),",
                *(f"h * e{r}_#," for r in range(len(_D))), "o#,")),
            "    ]"]
    head = [f"    {each('y#,')} = y", f"    {each('f#,')} = f",
            *(f"    s{i} = ATOL + abs(y{i}) * RTOL" for i in range(size))]
    src += ["",
            "def scaled_norms(y, f):",
            *head,
            *rms("d0", "y# / s#"),
            *rms("d1", "f# / s#"),
            "    return d0, d1",
            "",
            "def slope_norm(fun, t0, y, f, h0):",
            *head,
            f"    {each('g#,')} = fun(t0 + h0, [",
            f"        {each('y# + h0 * f#,')}])",
            *rms("d2", "(g# - f#) / s#"),
            "    return d2"]
    return "\n".join(src) + "\n"


_Kernels = namedtuple("_Kernels", "horner attempt dense scaled_norms "
                                  "slope_norm")


@functools.cache
def _kernels(size):
    """The step loop's kernels for states of `size` Python floats, built
    once per size, on the first solver of that size, by exec of
    `_kernel_source(size)`, as `dataclasses` and `collections.namedtuple`
    build their methods. They keep nothing between calls, so every
    solver of a size shares them.

    - horner(c, x): the dense output at the scaled time x, where c is
      the step's flat coefficient block, the list of its 8 rows F0-F6
      and y_old one after the other: scipy's Dop853DenseOutput sum;
    - attempt(fun, t, y, f, h): one DOP853 attempt of step h from
      (t, y), f = fun(t, y). Stage s = 1-11 is the call
      fun(t + c_s h, y + w h), w the stage's sum over the rows before
      it; then y_new = y + h w, w the sum with B, f_new = fun(t + h,
      y_new), the error scale ATOL + max(|y|, |y_new|) RTOL, and the
      error estimates, the sums with E5 and E3, each divided by the
      scale for its squared norm. Returns y_new and f_new as lists, the
      two squared norms, and the attempt's 13 stage rows as a tuple: f,
      the lists the 11 stage calls returned, and f_new;
    - dense(fun, t, y_old, h, y, K): the dense output of the step h from
      (t, y_old) to y, K the attempt's 13 rows: the extra stages 13-15
      from y_old, as above, then the four sums D K. Returns the step's
      flat coefficient block, F0 = y - y_old, F1 = h K[0] - F0,
      F2 = 2 F0 - h (K[12] + K[0]), F3-F6 = h (D K) and y_old, as one
      list of 8 size floats;
    - scaled_norms(y, f): the first two norms of the initial-step
      choice (`RK45._initial_step`), under its error scale
      ATOL + |y| RTOL: the RMS norms of y / scale and of f / scale;
    - slope_norm(fun, t0, y, f, h0): the third, of the slope change:
      the call f1 = fun(t0 + h0, y + h0 f), then the RMS norm of
      (f1 - f) / scale. Its caller divides it by h0.

    Every tableau sum is one Python-float expression over the stage
    values k{j}_{i} (row j, component i), in one fixed order: the
    table's columns left to right, exact zeros skipped, each coefficient
    a literal (its repr, which gives its bits back). Each squared norm
    is the sum of the squared quotients in component order, and each RMS
    norm the square root of that sum over sqrt(size). So no kernel calls
    numpy or BLAS, and their bits depend on no BLAS kernel: they are the
    bits of the stage rule written as loops over the tableau (the tests'
    reference), but for which of two NaN operands comes out, which
    CPython's float arithmetic does not fix (its specialized and generic
    instructions differ there). Every operation between the sums is
    scipy's, whose sums are numpy products that add in the order BLAS
    picks, so the kernels agree with scipy's arithmetic to the rounding
    of the sums. The error scale's `a if a > b else b`, on a = |y_i| and
    b = |y_new_i|, keeps np.maximum's rule that a NaN on either side is
    the maximum with no clause for it: a NaN in y is a NaN in
    y_new = y + h w, and a comparison with a NaN is false, so b comes
    out. The kernels raise no warning where numpy's would warn of an
    invalid value or an overflow, and no division is by zero: each
    divisor is an error scale, NaN or at least ATOL > 0. For size 2 the
    source is::

        def horner(c, x):
            (f0_0, f0_1,
             f1_0, f1_1,
             f2_0, f2_1,
             f3_0, f3_1,
             f4_0, f4_1,
             f5_0, f5_1,
             f6_0, f6_1,
             y0, y1,) = c
            xm = 1 - x
            return [
                (((((((0.0 + f6_0) * x + f5_0) * xm + f4_0) * x + f3_0)
                   * xm + f2_0) * x + f1_0) * xm + f0_0) * x + y0,
                (((((((0.0 + f6_1) * x + f5_1) * xm + f4_1) * x + f3_1)
                   * xm + f2_1) * x + f1_1) * xm + f0_1) * x + y1,
            ]

        def attempt(fun, t, y, f, h):
            y0, y1, = y
            k0_0, k0_1, = f
            w0 = k0_0 * 0.05260015195876773
            w1 = k0_1 * 0.05260015195876773
            k1_0, k1_1, = k1 = fun(t + 0.05260015195876773 * h, [
                y0 + w0 * h, y1 + w1 * h,])
            w0 = k0_0 * 0.0197250569845379 + k1_0 * 0.0591751709536137
            w1 = k0_1 * 0.0197250569845379 + k1_1 * 0.0591751709536137
            k2_0, k2_1, = k2 = fun(t + 0.0789002279381516 * h, [
                y0 + w0 * h, y1 + w1 * h,])
            w0 = k0_0 * 0.02958758547680685 + k2_0 * 0.08876275643042054
            w1 = k0_1 * 0.02958758547680685 + k2_1 * 0.08876275643042054
            k3_0, k3_1, = k3 = fun(t + 0.1183503419072274 * h, [
                y0 + w0 * h, y1 + w1 * h,])
            w0 = (k0_0 * 0.2413651341592667 + k2_0 * -0.8845494793282861
                  + k3_0 * 0.924834003261792)
            w1 = (k0_1 * 0.2413651341592667 + k2_1 * -0.8845494793282861
                  + k3_1 * 0.924834003261792)
            k4_0, k4_1, = k4 = fun(t + 0.2816496580927726 * h, [
                y0 + w0 * h, y1 + w1 * h,])
            w0 = (k0_0 * 0.037037037037037035 + k3_0 * 0.17082860872947386
                  + k4_0 * 0.12546768756682242)
            w1 = (k0_1 * 0.037037037037037035 + k3_1 * 0.17082860872947386
                  + k4_1 * 0.12546768756682242)
            k5_0, k5_1, = k5 = fun(t + 0.3333333333333333 * h, [
                y0 + w0 * h, y1 + w1 * h,])
            w0 = (k0_0 * 0.037109375 + k3_0 * 0.17025221101954405
                  + k4_0 * 0.06021653898045596 + k5_0 * -0.017578125)
            w1 = (k0_1 * 0.037109375 + k3_1 * 0.17025221101954405
                  + k4_1 * 0.06021653898045596 + k5_1 * -0.017578125)
            k6_0, k6_1, = k6 = fun(t + 0.25 * h, [
                y0 + w0 * h, y1 + w1 * h,])
            w0 = (k0_0 * 0.03709200011850479 + k3_0 * 0.17038392571223998
                  + k4_0 * 0.10726203044637328 + k5_0 * -0.015319437748624402
                  + k6_0 * 0.008273789163814023)
            w1 = (k0_1 * 0.03709200011850479 + k3_1 * 0.17038392571223998
                  + k4_1 * 0.10726203044637328 + k5_1 * -0.015319437748624402
                  + k6_1 * 0.008273789163814023)
            k7_0, k7_1, = k7 = fun(t + 0.3076923076923077 * h, [
                y0 + w0 * h, y1 + w1 * h,])
            w0 = (k0_0 * 0.6241109587160757 + k3_0 * -3.3608926294469414
                  + k4_0 * -0.868219346841726 + k5_0 * 27.59209969944671
                  + k6_0 * 20.154067550477894 + k7_0 * -43.48988418106996)
            w1 = (k0_1 * 0.6241109587160757 + k3_1 * -3.3608926294469414
                  + k4_1 * -0.868219346841726 + k5_1 * 27.59209969944671
                  + k6_1 * 20.154067550477894 + k7_1 * -43.48988418106996)
            k8_0, k8_1, = k8 = fun(t + 0.6512820512820513 * h, [
                y0 + w0 * h, y1 + w1 * h,])
            w0 = (k0_0 * 0.47766253643826434 + k3_0 * -2.4881146199716677
                  + k4_0 * -0.590290826836843 + k5_0 * 21.230051448181193
                  + k6_0 * 15.279233632882423 + k7_0 * -33.28821096898486
                  + k8_0 * -0.020331201708508627)
            w1 = (k0_1 * 0.47766253643826434 + k3_1 * -2.4881146199716677
                  + k4_1 * -0.590290826836843 + k5_1 * 21.230051448181193
                  + k6_1 * 15.279233632882423 + k7_1 * -33.28821096898486
                  + k8_1 * -0.020331201708508627)
            k9_0, k9_1, = k9 = fun(t + 0.6 * h, [
                y0 + w0 * h, y1 + w1 * h,])
            w0 = (k0_0 * -0.9371424300859873 + k3_0 * 5.186372428844064
                  + k4_0 * 1.0914373489967295 + k5_0 * -8.149787010746927
                  + k6_0 * -18.52006565999696 + k7_0 * 22.739487099350505
                  + k8_0 * 2.4936055526796523 + k9_0 * -3.0467644718982196)
            w1 = (k0_1 * -0.9371424300859873 + k3_1 * 5.186372428844064
                  + k4_1 * 1.0914373489967295 + k5_1 * -8.149787010746927
                  + k6_1 * -18.52006565999696 + k7_1 * 22.739487099350505
                  + k8_1 * 2.4936055526796523 + k9_1 * -3.0467644718982196)
            k10_0, k10_1, = k10 = fun(t + 0.8571428571428571 * h, [
                y0 + w0 * h, y1 + w1 * h,])
            w0 = (k0_0 * 2.273310147516538 + k3_0 * -10.53449546673725
                  + k4_0 * -2.0008720582248625 + k5_0 * -17.9589318631188
                  + k6_0 * 27.94888452941996 + k7_0 * -2.8589982771350235
                  + k8_0 * -8.87285693353063 + k9_0 * 12.360567175794303
                  + k10_0 * 0.6433927460157636)
            w1 = (k0_1 * 2.273310147516538 + k3_1 * -10.53449546673725
                  + k4_1 * -2.0008720582248625 + k5_1 * -17.9589318631188
                  + k6_1 * 27.94888452941996 + k7_1 * -2.8589982771350235
                  + k8_1 * -8.87285693353063 + k9_1 * 12.360567175794303
                  + k10_1 * 0.6433927460157636)
            k11_0, k11_1, = k11 = fun(t + 1.0 * h, [
                y0 + w0 * h, y1 + w1 * h,])
            w0 = (k0_0 * 0.054293734116568765 + k5_0 * 4.450312892752409
                  + k6_0 * 1.8915178993145003 + k7_0 * -5.801203960010585
                  + k8_0 * 0.3111643669578199 + k9_0 * -0.1521609496625161
                  + k10_0 * 0.20136540080403034 + k11_0 * 0.04471061572777259)
            w1 = (k0_1 * 0.054293734116568765 + k5_1 * 4.450312892752409
                  + k6_1 * 1.8915178993145003 + k7_1 * -5.801203960010585
                  + k8_1 * 0.3111643669578199 + k9_1 * -0.1521609496625161
                  + k10_1 * 0.20136540080403034 + k11_1 * 0.04471061572777259)
            u0, u1, = y_new = [
                y0 + h * w0, y1 + h * w1,]
            f_new = fun(t + h, y_new)
            a0 = abs(y0)
            b0 = abs(u0)
            s0 = ATOL + (a0 if a0 > b0 else b0) * RTOL
            a1 = abs(y1)
            b1 = abs(u1)
            s1 = ATOL + (a1 if a1 > b1 else b1) * RTOL
            w0 = (k0_0 * 0.01312004499419488 + k5_0 * -1.2251564463762044
                  + k6_0 * -0.4957589496572502 + k7_0 * 1.6643771824549864
                  + k8_0 * -0.35032884874997366 + k9_0 * 0.3341791187130175
                  + k10_0 * 0.08192320648511571 + k11_0 * -0.022355307863886294)
            w1 = (k0_1 * 0.01312004499419488 + k5_1 * -1.2251564463762044
                  + k6_1 * -0.4957589496572502 + k7_1 * 1.6643771824549864
                  + k8_1 * -0.35032884874997366 + k9_1 * 0.3341791187130175
                  + k10_1 * 0.08192320648511571 + k11_1 * -0.022355307863886294)
            e0 = w0 / s0
            e1 = w1 / s1
            err5_norm_2 = e0 * e0 + e1 * e1
            w0 = (k0_0 * -0.18980075407240762 + k5_0 * 4.450312892752409
                  + k6_0 * 1.8915178993145003 + k7_0 * -5.801203960010585
                  + k8_0 * -0.4226823213237919 + k9_0 * -0.1521609496625161
                  + k10_0 * 0.20136540080403034 + k11_0 * 0.02265179219836082)
            w1 = (k0_1 * -0.18980075407240762 + k5_1 * 4.450312892752409
                  + k6_1 * 1.8915178993145003 + k7_1 * -5.801203960010585
                  + k8_1 * -0.4226823213237919 + k9_1 * -0.1521609496625161
                  + k10_1 * 0.20136540080403034 + k11_1 * 0.02265179219836082)
            e0 = w0 / s0
            e1 = w1 / s1
            err3_norm_2 = e0 * e0 + e1 * e1
            return (y_new, f_new, err5_norm_2, err3_norm_2,
                    (f, k1, k2, k3, k4, k5, k6, k7, k8, k9, k10, k11, f_new))

        def dense(fun, t, y_old, h, y, K):
            o0, o1, = y_old
            k0_0, k0_1, = K[0]
            k5_0, k5_1, = K[5]
            k6_0, k6_1, = K[6]
            k7_0, k7_1, = K[7]
            k8_0, k8_1, = K[8]
            k9_0, k9_1, = K[9]
            k10_0, k10_1, = K[10]
            k11_0, k11_1, = K[11]
            k12_0, k12_1, = K[12]
            w0 = (k0_0 * 0.056167502283047954 + k6_0 * 0.25350021021662483
                  + k7_0 * -0.2462390374708025 + k8_0 * -0.12419142326381637
                  + k9_0 * 0.15329179827876568 + k10_0 * 0.00820105229563469
                  + k11_0 * 0.007567897660545699 + k12_0 * -0.008298)
            w1 = (k0_1 * 0.056167502283047954 + k6_1 * 0.25350021021662483
                  + k7_1 * -0.2462390374708025 + k8_1 * -0.12419142326381637
                  + k9_1 * 0.15329179827876568 + k10_1 * 0.00820105229563469
                  + k11_1 * 0.007567897660545699 + k12_1 * -0.008298)
            k13_0, k13_1, = fun(t + 0.1 * h, [
                o0 + w0 * h, o1 + w1 * h,])
            w0 = (k0_0 * 0.03183464816350214 + k5_0 * 0.028300909672366776
                  + k6_0 * 0.053541988307438566 + k7_0 * -0.05492374857139099
                  + k10_0 * -0.00010834732869724932 + k11_0 * 0.0003825710908356584
                  + k12_0 * -0.00034046500868740456 + k13_0 * 0.1413124436746325)
            w1 = (k0_1 * 0.03183464816350214 + k5_1 * 0.028300909672366776
                  + k6_1 * 0.053541988307438566 + k7_1 * -0.05492374857139099
                  + k10_1 * -0.00010834732869724932 + k11_1 * 0.0003825710908356584
                  + k12_1 * -0.00034046500868740456 + k13_1 * 0.1413124436746325)
            k14_0, k14_1, = fun(t + 0.2 * h, [
                o0 + w0 * h, o1 + w1 * h,])
            w0 = (k0_0 * -0.42889630158379194 + k5_0 * -4.697621415361164
                  + k6_0 * 7.683421196062599 + k7_0 * 4.06898981839711
                  + k8_0 * 0.3567271874552811 + k12_0 * -0.0013990241651590145
                  + k13_0 * 2.9475147891527724 + k14_0 * -9.15095847217987)
            w1 = (k0_1 * -0.42889630158379194 + k5_1 * -4.697621415361164
                  + k6_1 * 7.683421196062599 + k7_1 * 4.06898981839711
                  + k8_1 * 0.3567271874552811 + k12_1 * -0.0013990241651590145
                  + k13_1 * 2.9475147891527724 + k14_1 * -9.15095847217987)
            k15_0, k15_1, = fun(t + 0.7777777777777778 * h, [
                o0 + w0 * h, o1 + w1 * h,])
            e0_0 = (k0_0 * -8.428938276109013 + k5_0 * 0.5667149535193777
                    + k6_0 * -3.0689499459498917 + k7_0 * 2.38466765651207
                    + k8_0 * 2.117034582445028 + k9_0 * -0.871391583777973
                    + k10_0 * 2.2404374302607883 + k11_0 * 0.6315787787694688
                    + k12_0 * -0.08899033645133331 + k13_0 * 18.148505520854727
                    + k14_0 * -9.194632392478356 + k15_0 * -4.436036387594894)
            e0_1 = (k0_1 * -8.428938276109013 + k5_1 * 0.5667149535193777
                    + k6_1 * -3.0689499459498917 + k7_1 * 2.38466765651207
                    + k8_1 * 2.117034582445028 + k9_1 * -0.871391583777973
                    + k10_1 * 2.2404374302607883 + k11_1 * 0.6315787787694688
                    + k12_1 * -0.08899033645133331 + k13_1 * 18.148505520854727
                    + k14_1 * -9.194632392478356 + k15_1 * -4.436036387594894)
            e1_0 = (k0_0 * 10.427508642579134 + k5_0 * 242.28349177525817
                    + k6_0 * 165.20045171727028 + k7_0 * -374.5467547226902
                    + k8_0 * -22.113666853125306 + k9_0 * 7.733432668472264
                    + k10_0 * -30.674084731089398 + k11_0 * -9.332130526430229
                    + k12_0 * 15.697238121770845 + k13_0 * -31.139403219565178
                    + k14_0 * -9.35292435884448 + k15_0 * 35.81684148639408)
            e1_1 = (k0_1 * 10.427508642579134 + k5_1 * 242.28349177525817
                    + k6_1 * 165.20045171727028 + k7_1 * -374.5467547226902
                    + k8_1 * -22.113666853125306 + k9_1 * 7.733432668472264
                    + k10_1 * -30.674084731089398 + k11_1 * -9.332130526430229
                    + k12_1 * 15.697238121770845 + k13_1 * -31.139403219565178
                    + k14_1 * -9.35292435884448 + k15_1 * 35.81684148639408)
            e2_0 = (k0_0 * 19.985053242002433 + k5_0 * -387.0373087493518
                    + k6_0 * -189.17813819516758 + k7_0 * 527.8081592054236
                    + k8_0 * -11.57390253995963 + k9_0 * 6.8812326946963
                    + k10_0 * -1.0006050966910838 + k11_0 * 0.7777137798053443
                    + k12_0 * -2.778205752353508 + k13_0 * -60.19669523126412
                    + k14_0 * 84.32040550667716 + k15_0 * 11.99229113618279)
            e2_1 = (k0_1 * 19.985053242002433 + k5_1 * -387.0373087493518
                    + k6_1 * -189.17813819516758 + k7_1 * 527.8081592054236
                    + k8_1 * -11.57390253995963 + k9_1 * 6.8812326946963
                    + k10_1 * -1.0006050966910838 + k11_1 * 0.7777137798053443
                    + k12_1 * -2.778205752353508 + k13_1 * -60.19669523126412
                    + k14_1 * 84.32040550667716 + k15_1 * 11.99229113618279)
            e3_0 = (k0_0 * -25.69393346270375 + k5_0 * -154.18974869023643
                    + k6_0 * -231.5293791760455 + k7_0 * 357.6391179106141
                    + k8_0 * 93.40532418362432 + k9_0 * -37.45832313645163
                    + k10_0 * 104.0996495089623 + k11_0 * 29.8402934266605
                    + k12_0 * -43.53345659001114 + k13_0 * 96.32455395918828
                    + k14_0 * -39.17726167561544 + k15_0 * -149.72683625798564)
            e3_1 = (k0_1 * -25.69393346270375 + k5_1 * -154.18974869023643
                    + k6_1 * -231.5293791760455 + k7_1 * 357.6391179106141
                    + k8_1 * 93.40532418362432 + k9_1 * -37.45832313645163
                    + k10_1 * 104.0996495089623 + k11_1 * 29.8402934266605
                    + k12_1 * -43.53345659001114 + k13_1 * 96.32455395918828
                    + k14_1 * -39.17726167561544 + k15_1 * -149.72683625798564)
            y0, y1, = y
            d0 = y0 - o0
            d1 = y1 - o1
            return [
                d0,
                d1,
                h * k0_0 - d0,
                h * k0_1 - d1,
                2 * d0 - h * (k12_0 + k0_0),
                2 * d1 - h * (k12_1 + k0_1),
                h * e0_0,
                h * e0_1,
                h * e1_0,
                h * e1_1,
                h * e2_0,
                h * e2_1,
                h * e3_0,
                h * e3_1,
                o0,
                o1,
            ]

        def scaled_norms(y, f):
            y0, y1, = y
            f0, f1, = f
            s0 = ATOL + abs(y0) * RTOL
            s1 = ATOL + abs(y1) * RTOL
            e0 = y0 / s0
            e1 = y1 / s1
            e = e0 * e0 + e1 * e1
            d0 = sqrt(e) / 2 ** 0.5
            e0 = f0 / s0
            e1 = f1 / s1
            e = e0 * e0 + e1 * e1
            d1 = sqrt(e) / 2 ** 0.5
            return d0, d1

        def slope_norm(fun, t0, y, f, h0):
            y0, y1, = y
            f0, f1, = f
            s0 = ATOL + abs(y0) * RTOL
            s1 = ATOL + abs(y1) * RTOL
            g0, g1, = fun(t0 + h0, [
                y0 + h0 * f0, y1 + h0 * f1,])
            e0 = (g0 - f0) / s0
            e1 = (g1 - f1) / s1
            e = e0 * e0 + e1 * e1
            d2 = sqrt(e) / 2 ** 0.5
            return d2
    """
    namespace = {"ATOL": ATOL, "RTOL": RTOL, "sqrt": math.sqrt}
    # one kernel at a time: compiling the whole source at once took
    # twice the compiler's memory (1.6 MB at size 4), which stayed in
    # the process's peak resident size
    for kernel in _kernel_source(size).split("\n\n"):
        exec(compile(kernel, f"<DOP853 kernels, size {size}>", "exec"),
             namespace)
    return _Kernels(*(namespace[name] for name in _Kernels._fields))


# the name RK45 is the benchmark tracer's seam: it subclasses hybrid.RK45
class RK45:
    """DOP853 on one arc, forward in time, under the executor's step
    control RTOL and ATOL.

    The step loop of scipy's `DOP853` without its wrapper layers: its
    initial-step choice, Runge-Kutta step, step-size control, 5/3 error
    norm and 7th-order dense output on the same tableau, each operation
    between the tableau sums scipy's. The sums themselves (a stage's sum
    over the rows before it, the solution's with B, the error estimates
    with E5 and E3, their norms, the dense output's D K) are not
    scipy's numpy products, whose order of addition BLAS picks, but
    Python-float expressions in one fixed order (`_kernels`). So the
    solver's bits depend on no BLAS kernel, and they stay within a
    measured bound of those of scipy's solver given rtol=RTOL,
    atol=ATOL (tests/test_hybrid.py: the same attempts on every arc that
    does not collapse, and states and dense output within 1e-3 of its
    error scale on closed-form fields). `fun` is called directly, on a
    list of 2n Python floats that it must not modify, and returns a list
    of 2n floats, which it must not modify later either: the solver
    keeps the lists of the accepted attempt's stage rows in `K` for the
    step's dense output. `nfev` counts its calls: two at construction,
    n_stages per attempt in `step`, three in `dense_output`. `y` and `f`
    are kept as lists, and so are the last step's `y_old` and `f_old`. A
    step size below 10 ulp(t) ends the arc with status "failed" (a step
    clamped up to that size is taken first).

    Only `_integrator` builds solvers, after the arc-start check, so the
    loop keeps none of scipy's argument checks: y0 must be finite,
    t_bound > t0 (`_execute` closes an arc with no time without a
    runner) and max_step > 0.

    An attempt is one `attempt` call and a dense output one `dense`
    call of the kernels for the state size, and every operation between
    them runs on Python floats, without numpy's per-call overhead on 2-
    and 4-element arrays. The initial-step choice, once per arc, keeps
    its rule and constants in `_initial_step`; its error scale,
    quotients, norms and third right-hand-side call run in the kernels
    `scaled_norms` and `slope_norm`.
    """

    n_stages = _N_STAGES

    def __init__(self, fun, t0, y0, t_bound, max_step):
        self.fun = fun
        self.t = t0
        self.y = y = [*map(float, y0)]
        self.t_bound = t_bound
        self.max_step = max_step
        self.status = "running"
        self.kernels = _kernels(len(y))
        self.f = fun(t0, y)
        self.nfev = 1
        self.h_abs = self._initial_step()

    def _initial_step(self):
        """scipy's select_initial_step (Hairer, Norsett & Wanner, II.4):
        its rule here, its three RMS norms from the `scaled_norms` and
        `slope_norm` kernels."""
        t0, y0, f0, kernels = self.t, self.y, self.f, self.kernels
        interval_length = abs(self.t_bound - t0)
        d0, d1 = kernels.scaled_norms(y0, f0)
        if d0 < 1e-5 or d1 < 1e-5:
            h0 = 1e-6
        else:
            h0 = 0.01 * d0 / d1
        h0 = min(h0, interval_length)
        d2 = kernels.slope_norm(self.fun, t0, y0, f0, h0) / h0
        self.nfev += 1
        if d1 <= 1e-15 and d2 <= 1e-15:
            h1 = max(1e-6, h0 * 1e-3)
        else:
            h1 = (0.01 / max(d1, d2)) ** -_ERROR_EXPONENT
        return min(100 * h0, h1, interval_length, self.max_step)

    def step(self):
        """Advance by one accepted step; set status to "finished" at
        t_bound, or to "failed" when the step size falls below 10 ulp."""
        t, y, f, fun = self.t, self.y, self.f, self.fun
        attempt = self.kernels.attempt
        t_bound = self.t_bound
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
            y_new, f_new, err5_norm_2, err3_norm_2, K = attempt(fun, t, y,
                                                                f, h)
            self.nfev += self.n_stages
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
        self.t_old, self.y_old, self.f_old = t, y, f
        self.t, self.y, self.f = t_new, y_new, f_new
        self.K = K
        self.h_abs = h_abs
        if t_new - t_bound >= 0:
            self.status = "finished"

    def dense_output(self):
        """Interpolant of the last step: scipy's DOP853 dense output. Its
        flat coefficient block (`_kernels`' `dense`) is also left in
        `_coeffs`, where the executor reads it for the arc's table: a
        traced solver's dense output passes on no more than a
        `_StepInterpolant`'s times and calls."""
        coeffs = self._coeffs = self.kernels.dense(
            self.fun, self.t_old, self.y_old, self.h_previous, self.y,
            self.K)
        self.nfev += len(_EXTRA_STAGES)
        return _StepInterpolant(self.t_old, self.t, coeffs,
                                self.kernels.horner)


class _StepInterpolant:
    """DOP853's dense output on one step [t_old, t] at one float time:
    scipy's Dop853DenseOutput, operation for operation. `block` is the
    step's flat coefficient block, a list of Python floats (rows F and
    y_old, as the step loop's `dense` kernel builds it), and a call is
    the `horner` kernel at the scaled time, which returns the packed
    state as a list of 2n floats: at the few times of a step's scan and
    refinement, Python floats beat numpy's per-call overhead.
    An arc keeps the blocks of its steps, not these objects
    (`_ArcInterpolant`). Callers read t_old, t, t_min and t_max and call
    it; the tracer's proxy passes on nothing else."""

    def __init__(self, t_old, t, block, horner):
        self.t_old = self.t_min = t_old
        self.t = self.t_max = t
        self.h = t - t_old
        self._block = block
        self._horner = horner

    def __call__(self, t):
        return self._horner(self._block, (t - self.t_old) / self.h)


# ---------------------------------------------------------------------------
# generic packed-coordinates execution loop
# ---------------------------------------------------------------------------

def _execute(mode, t0, y0, t_end, run_arc=None):
    """Drive the hybrid loop in packed coordinates and return its run.

    mode: (rhs, gfun, dfun, reset) with rhs: (t, y) -> y', called on a
    list of 2n floats and returning a list of 2n floats (see `RK45`),
    gfun/dfun: a `Guard`'s surface and direction on the halves of y, and
    reset: (tau, y_pre) -> (q_post, v_post, next_mode); the arc after the
    impact runs in next_mode. Returns the `HybridFlow`: its events' states
    split each packed y into its halves, which are (q, v) for a
    velocity-side mode and (q, p) for the momentum-side mode of
    `check_hybrid_equivalence`.

    The loop carries each packed state as one list of 2n Python floats:
    y0 is read into one, the guard gets its halves as list slices, and
    the reset's halves, each of n floats, are joined into the next one
    as [*q_post, *v_post] (a half of another length raises
    InvalidReset). Arrays are built per arc (`_close_arc`) and per
    impact (the two `State`s of its `Event`), never per guard sample.

    A point where the loop knows the guard is one record (t, y, g, d):
    the time, the packed state there, and the guard g and its rate d
    there. Every arc start must pass `_check_arc_start` under the arc's
    guard, or the run raises InvalidStart (the first arc) or InvalidReset
    (an arc after an impact); the check's (g, d) complete the start's
    record. An arc that starts at t_end has no time to cover: the loop
    closes it with its start state alone, without calling the runner,
    and the run ends horizon_reached. Otherwise
    run_arc(mode, start, t_end, max_step) flies the arc and gives
    (arc, hit): the `Arc` from the start and the record of its impact at
    the arc's end, or None; max_step caps the steps at the last dwell.
    `_integrator` builds the default runner. An arc that ends before
    t_end with no impact is a step collapse, which ends the run. An
    `ArithmeticError` out of the runner (a field or a step size that
    leaves the float range), numpy's overflow included, raises
    IntegrationFailure. A start time t0 beyond the float range (an int)
    raises InvalidStart. The loop alone applies the dwell and termination
    rules, the residual check, the reset and the `Event` record.
    """
    try:
        t = float(t0)
    except OverflowError as exc:
        raise InvalidStart(f"start time t={t0!r} lies beyond the float "
                           f"range") from exc
    y = np.asarray(y0, float).tolist()
    n = len(y) // 2
    arcs: List[Arc] = []
    events: List[Event] = []
    max_step = math.inf
    if run_arc is None:
        run_arc = _integrator(len(y))

    while True:
        _, gfun, dfun, reset = mode
        g, d = _check_arc_start(gfun, dfun, t, y[:n], y[n:], t_end,
                                InvalidReset if events else InvalidStart)
        if t == t_end:
            arcs.append(_close_arc([t], [], t, y))
            return HybridFlow(arcs, events, TERM_HORIZON)
        try:
            with np.errstate(over="raise"):
                arc, hit = run_arc(mode, (t, y, g, d), t_end, max_step)
        except ArithmeticError as exc:
            raise IntegrationFailure(
                f"arc from t={t!r} left the float range: {exc!r}") from exc
        arcs.append(arc)
        # the arc's span since the last impact, or since the start
        dwell = arc.t_end - t
        piled_up = bool(events) and dwell < MIN_DWELL

        if hit is None:
            # arcs close at float(t_end), which an int t_end may round
            if arc.t_end < float(t_end):
                # a step collapse; right after an impact, the impacts
                # piling up
                return HybridFlow(arcs, events,
                                  TERM_ZENO if piled_up else TERM_FAILURE)
            return HybridFlow(arcs, events, TERM_HORIZON)
        if piled_up:
            return HybridFlow(arcs, events, TERM_ZENO)

        tau, ypre, g_tau, d_tau = hit
        residual = abs(g_tau)
        if residual > GUARD_TOL * max(1.0, abs(d_tau)):
            raise IntegrationFailure(
                f"guard residual {residual:.3e} at located impact exceeds "
                f"tolerance; event refinement failed")
        q_post, v_post, mode = reset(tau, ypre)
        if len(q_post) != n or len(v_post) != n:
            raise InvalidReset(
                f"reset at t={tau!r} returned q_post of length "
                f"{len(q_post)} and v_post of length {len(v_post)}; the "
                f"state has {n} coordinates")
        y = [*map(float, q_post), *map(float, v_post)]
        pre, post = np.array([ypre, y])
        events.append(Event(tau, State(tau, pre[:n], pre[n:]),
                            State(tau, post[:n], post[n:]), residual))
        max_step = dwell

        if len(events) >= MAX_IMPACTS:
            return HybridFlow(arcs, events, TERM_MAX_IMPACTS)
        t = tau


def _integrator(size):
    """The executor's default arc runner for packed states of `size`
    floats: each arc gets its own solver under the step control RTOL and
    ATOL. A step size that collapses ends the arc at the last accepted
    step, before t_end. A NaN guard value or rate at a scan sample or a
    refinement point raises IntegrationFailure, since it would hide or
    break a crossing.

    Every state of a record is a list of `size` Python floats, which
    the guard gets as two slices: the start's, the step loop's own end
    state `solver.y`, and each dense output (`_StepInterpolant`, the
    `horner` list) at the midpoint and in the refinement. The arc's
    arrays are built once, when it closes (`_close_arc`)."""
    n = size // 2

    def integrate(mode, start, t_end, max_step):
        t, y, _, _ = start
        rhs, gfun, dfun, _ = mode
        # a step's first scan sample is the last one before it: the arc
        # start's is the start record
        samples = [start]
        solver = RK45(rhs, t, y, t_end, max_step)
        if not all(map(math.isfinite, solver.f)):
            # scipy would reject every step of a NaN step size forever
            raise IntegrationFailure(
                f"right-hand side is not finite at the arc start t={t:.6g}")
        # the arc's dense output: each step's coefficient block and end
        breakpoints = [t]
        blocks = []
        hit = None
        while hit is None and solver.status == "running":
            solver.step()
            if solver.status == "failed":
                break
            dense = solver.dense_output()
            blocks.append(solver._coeffs)
            breakpoints.append(solver.t)
            # the step's midpoint, np.linspace(t_old, t, 3)[1] bit for
            # bit, and then its end
            t_mid = (solver.t - solver.t_old) / 2 + solver.t_old
            for tt, yy in ((t_mid, dense(t_mid)), (solver.t, solver.y)):
                q, v = yy[:n], yy[n:]
                g, d = gfun(tt, q, v), dfun(tt, q, v)
                if g != g or d != d:
                    raise IntegrationFailure(
                        f"guard value {g!r} and rate {d!r} at the scan "
                        f"sample t={tt!r}: a NaN hides the crossings")
                samples.append((tt, yy, g, d))
            hit = _scan(dense, n, gfun, dfun, t, samples)
            samples = samples[-1:]

        t_arc, y_arc = hit[:2] if hit is not None else (solver.t, solver.y)
        return _close_arc(breakpoints, blocks, t_arc, y_arc), hit

    return integrate


def _scan(dense, n, gfun, dfun, start, samples):
    """The record (tau, y_pre, g, d) of an accepted step's first impact,
    g and d the guard and its rate at (tau, y_pre), or None.

    dense is the step's dense output, samples the records (t, y, g, d)
    of its three scan samples in time order, and start the time the arc
    starts. One rule reads each interval [a, b] between two consecutive
    samples:

    * an arc's first interval, where d goes from - to + and g(b) > 0:
      the crossing follows the minimum of g. Where g >= 0 there, the arc
      left the guard without measurably getting inside, and the wall
      catches it at the minimum, whose rate does not leave;
    * d from + to - with g(a), g(b) <= 0: where g > 0 at the maximum,
      the crossing precedes it;
    * otherwise, g(a) <= 0 < g(b) brackets the crossing.

    Extrema are located with Brent on d, crossings by Newton steps on
    g and d closed by Brent on g (`_crossing`), which also reads the
    (g, d) of the step's third sample, c. A crossing is an impact
    where its rate is not leaving (`_leaving`), except at the start
    itself; otherwise the scan goes on. A strike
    between two samples is missed only where g has two maxima between
    them.

    No point is evaluated twice: the first bracket seeds a memo, time ->
    [y, g, d], with the samples, and each refinement evaluates the state,
    g or d at a new time once, into the memo; a NaN value there raises
    IntegrationFailure. So every Newton and Brent
    call gets its end values from the samples or from the refinement
    before it, and the impact's record comes from the evaluations that
    located it (Brent's roots are points it evaluated or was given). A
    step with no bracket builds nothing.
    """
    points = None
    s0, s1, s2 = samples
    for (a, _, ga, da), (b, _, gb, db), (c, _, gc, dc) in (
            (s0, s1, s2), (s1, s2, s0)):
        if a == start and da < 0.0 < db and gb > 0.0:
            extremum = "minimum"
        elif da > 0.0 > db and ga <= 0.0 and gb <= 0.0:
            extremum = "maximum"
        elif ga <= 0.0 < gb:
            extremum = None
        else:
            continue
        if points is None:
            points = {tt: [yy, gg, dd] for tt, yy, gg, dd in samples}

            def value(t, i, fun):
                # entry i of the memo at t: 1 for g, 2 for d
                point = points.get(t)
                if point is None:
                    point = points[t] = [dense(t), None, None]
                if point[i] is None:
                    y = point[0]
                    point[i] = fun(t, y[:n], y[n:])
                    if point[i] != point[i]:
                        raise IntegrationFailure(
                            f"the guard {'value' if i == 1 else 'rate'} "
                            f"is NaN at the refinement point t={t!r}")
                return point[i]

            def g(t):
                return value(t, 1, gfun)

            def d(t):
                return value(t, 2, dfun)

        if extremum is None:
            tau = _crossing(g, d, a, b, ga, gb, da, db, c, gc, dc)
        else:
            t_ext = _refine(d, a, b, da, db)
            g_ext, d_ext = g(t_ext), d(t_ext)
            if extremum == "minimum":
                tau = (_crossing(g, d, t_ext, b, g_ext, gb, d_ext, db, c,
                                 gc, dc)
                       if g_ext < 0.0 else t_ext)
            elif g_ext <= 0.0:
                continue
            else:
                tau = _crossing(g, d, a, t_ext, ga, g_ext, da, d_ext, c,
                                gc, dc)
        if tau == start:
            continue
        d_tau = d(tau)
        if not _leaving(d_tau):
            return tau, points[tau][0], g(tau), d_tau
        # a leaving crossing: the trajectory exits; scan on for a re-entry
    return None


def _leaving(d):
    """Whether the guard rate d leaves the guard: d < -GUARD_TOL, so a
    rate within GUARD_TOL of zero does not. The one admissibility test of
    a rate, at arc starts (`_check_arc_start`) and crossings (`_scan`)."""
    return d < -GUARD_TOL


def _crossing(g, d, a, b, ga, gb, da, db, c, gc, dc):
    """The crossing of g in [a, b], given g(a) <= 0 < g(b) and the rates
    d(a) and d(b) there: Newton steps on the rate, closed by Brent.

    The first iterate is the root of the quintic Hermite interpolant of
    (g, d) at the two ends and at a third time c outside [a, b]
    (`_hermite_root`). Each iterate x evaluates g(x), which narrows the
    bracket, and d(x), and steps to x - g(x)/d(x). The steps stop where
    g(x) = 0, where d(x) is zero or
    not finite, or where a step would leave the bracket or not halve the
    step before it; so a rate that is not dg/dt (a constant, a scaled
    one) costs evaluations, not accuracy. A step under
    delta = (REFINE_XTOL + BRENT_RTOL |x|) / 2 puts the root within
    delta of x, and one probe of g delta past the step's end closes the
    bracket on that side. Brent then gets the bracket and both end
    values (`_refine`): under 2 delta wide, or with g = 0 at an end, it
    returns an end without evaluating g; otherwise it goes on from
    there. So the crossing is a Brent root, to Brent's tolerance."""
    lo, hi, glo, ghi = a, b, ga, gb
    x, last = _hermite_root(a, b, ga, gb, da, db, c, gc, dc), math.inf
    probe = False
    while glo < 0.0 and lo < x < hi:
        gx = g(x)
        if gx <= 0.0:
            lo, glo = x, gx
        else:
            hi, ghi = x, gx
        if probe:
            break
        dx = d(x)
        if gx == 0.0 or dx == 0.0 or not math.isfinite(dx):
            break
        step = -gx / dx
        delta = (REFINE_XTOL + BRENT_RTOL * abs(x)) / 2
        if abs(step) < delta:
            x, probe = x + step + math.copysign(delta, step), True
        elif 2 * abs(step) <= last:
            x, last = x + step, abs(step)
        else:
            break
    return _refine(g, lo, hi, glo, ghi)


def _hermite_root(a, b, ga, gb, da, db, c, gc, dc):
    """A root in [a, b] of the quintic Hermite interpolant p of g with
    p(a) = ga <= 0 < p(b) = gb and p' = da at a and db at b, and
    p = gc, p' = dc at c, outside [a, b], from no evaluation of g.

    In the unit time s = (t - a) / (b - a), p is the cubic Hermite
    interpolant of the two ends plus (s (s - 1))^2 (alpha + beta s),
    whose two coefficients match p and p' at c. Next to the cubic's
    error, of fourth order in the step, the quintic's is of sixth: on
    paper-c025, its roots lie 1e-13 to 2e-8 from the crossings, against
    3e-10 to 1e-5 for the cubic's, so one Newton step on g mostly ends
    within Brent's tolerance. Where c lies on a or b (a step too short to
    split), p is the cubic. The first iterate is the root of the
    quadratic through ga and gb with slope da at a (exact where g is a
    parabola, as next to an extremum), or the secant root; then two
    Newton steps on p, each kept inside the bracket of p by bisection."""
    h, rise = b - a, gb - ga
    c1 = h * da
    c2 = 3 * rise - h * (2 * da + db)
    c3 = h * (da + db) - 2 * rise
    u = (c - a) / h
    q = (u * (u - 1)) ** 2
    alpha = beta = 0.0
    if q:
        r0 = gc - (((c3 * u + c2) * u + c1) * u + ga)
        r1 = h * dc - ((3 * c3 * u + 2 * c2) * u + c1)
        beta = (r1 - 2 * u * (u - 1) * (2 * u - 1) * r0 / q) / q
        alpha = r0 / q - beta * u
    den = c1 + math.sqrt(max(0.0, c1 * c1 - 4 * (rise - c1) * ga))
    lo, hi, s = 0, 1, -2 * ga / den if den > 0 else -ga / rise
    for _ in range(2):
        e, w = s * (s - 1), alpha + beta * s
        p = ((c3 * s + c2) * s + c1) * s + ga + e * e * w
        if p <= 0:
            lo = s
        else:
            hi = s
        slope = ((3 * c3 * s + 2 * c2) * s + c1
                 + e * (2 * (2 * s - 1) * w + e * beta))
        if slope:
            s -= p / slope
        if not lo <= s <= hi:
            s = (lo + hi) / 2
    return a + s * h


def _refine(f, a, b, fa, fb):
    """The root of f in [a, b], to REFINE_XTOL, given f(a) and f(b)."""
    return brentq(f, a, b, xtol=REFINE_XTOL, rtol=BRENT_RTOL, fa=fa, fb=fb)


# the name brentq is a seam: the benchmark tracer and the tests patch it
def brentq(f, a, b, xtol=2e-12, rtol=4 * np.finfo(float).eps, fa=None,
           fb=None):
    """Root of f in [a, b] by Brent's method (Brent, Algorithms for
    Minimization without Derivatives, 1973, ch. 4).

    scipy's `optimize.brentq`: its C routine operation for operation on
    Python floats, so the root is scipy's bit for bit. f is called on
    floats and its values are taken as floats. fa and fb, when given,
    are f(a) and f(b), the two values the C routine computes first; f
    is then not called there, and the root is the same as long as they
    equal those calls. As in scipy, f(a) and f(b) of one sign or a NaN
    value of f (evaluated or given) raise ValueError, and no convergence
    in scipy's default of 100 iterations raises RuntimeError. Its callers
    (the executor's `_refine` and the oracle) pass fixed xtol > 0 and
    rtol >= 4 eps, so scipy's checks of these two are left out.
    """
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
    for _ in range(100):
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
    raise RuntimeError(f"Failed to converge after 100 iterations, "
                       f"value is {xcur:f}")


def _close_arc(breakpoints, blocks, t_end, y_end):
    """The arc from breakpoints[0] to t_end, whose steps end at
    breakpoints[1:] with flat coefficient blocks `blocks`, and y_end its
    state at t_end. Its grid is each step's start, with the state at it
    (the block's y_old row), then t_end."""
    k = len(blocks)
    t_start, t_end = breakpoints[0], float(t_end)
    times = np.array(breakpoints[:k] + [t_end])
    if blocks:
        table = np.array(blocks).reshape(k, -1, len(y_end))
        states = np.empty((k + 1, len(y_end)))
        states[:k] = table[:, -1]
        states[k] = y_end
        # an event cuts the last step; clamp queries to the arc
        interp = _ArcInterpolant(table, np.array(breakpoints), t_start, t_end)
    else:
        states = np.array([y_end], float)
        interp = _ConstantInterpolant(states[0])
    return Arc(t_start, t_end, times, states, interp)


class _ConstantInterpolant:
    """Interpolant of an arc that took no step: its start state at every
    time."""

    def __init__(self, y0):
        self._y0 = y0

    def __call__(self, t):
        if np.ndim(t) == 0:
            return self._y0.copy()
        return np.repeat(self._y0[:, None], np.size(t), axis=1)


class _ArcInterpolant:
    """The dense output of an arc [t0, t1] of k steps as one table, with
    scipy's OdeSolution segment rule on times clamped to the arc.

    `table` is (k, 8, 2n): block j holds step j's DOP853 coefficient rows
    F and its y_old, the rows of the flat block a `_StepInterpolant`
    reads, and the step runs from breakpoints[j] to breakpoints[j + 1]. Time t goes to step
    searchsorted(breakpoints, t) - 1 (side "left"), clamped to the first
    and last step, so a breakpoint belongs to the step that ends there.
    Every call is one gathered evaluation, a scalar time as an array of
    one time whose column it returns: one searchsorted for all times,
    then the `horner` kernel's sum in numpy on the coefficients gathered
    one row at a time, whose elementwise IEEE arithmetic gives the
    kernel's bits (a `_StepInterpolant`'s); as on Python floats,
    non-finite values raise no warning.
    """

    def __init__(self, table, breakpoints, t0, t1):
        self.table = table
        self.breakpoints = breakpoints
        self.t0 = t0
        self.t1 = t1

    def __call__(self, t):
        t = np.clip(t, self.t0, self.t1)
        if t.ndim == 0:
            return self(t[None])[:, 0]
        bp = self.breakpoints
        j = np.searchsorted(bp, t) - 1
        np.clip(j, 0, len(bp) - 2, out=j)
        t_old = bp[j]
        table = self.table

        def row(r):
            # coefficient row r at every time, as (2n, m) columns
            return table[:, r].T.take(j, axis=1)

        with np.errstate(over="ignore", invalid="ignore"):
            x = (t - t_old) / (bp[j + 1] - t_old)
            xm = 1 - x
            y = row(6)
            y += 0.0    # `horner` starts at 0.0 + f6: -0.0 becomes 0.0
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
    return _execute(_mode(hs), s0.t, hs.system.pack(s0), t_end)


def _mode(hs: HybridSystem):
    """The executor mode of `hs` on packed (q, v); its reset keeps it."""
    n = hs.system.dim

    def reset(tau, ypre):
        q, v = hs.reset.apply(tau, ypre[:n], ypre[n:])
        return q, v, mode

    mode = (hs.system.rhs, hs.guard.surface, hs.guard.direction, reset)
    return mode


def _check_arc_start(gfun, dfun, t, q, v, t_end, error):
    """The guard's (g, d) at the arc start (t, q, v), q and v lists of
    n Python floats as the guard takes them; raises `error` unless an
    arc may start there and run forward to t_end.

    The start and t_end must be finite floats (an int beyond the float
    range raises `error` too), t_end not before t, and, with
    b = GUARD_TOL max(1, |d|), g <= b and one of: g < -b (strictly
    inside), d leaving (`_leaving`), or a free step of 1e-7 max(1, |t|)
    lowers g by more than 1e-14. The free step's position q + eps v is
    taken per component, the IEEE operations of the array expression.
    So within b of the guard with a rate that does not leave the free
    step decides: it admits a start moving inward, and rejects one
    heading out or tangent to a static wall. A guard whose arithmetic
    leaves the float range there (an `ArithmeticError`) rejects the
    start too; a NaN rate there raises IntegrationFailure."""
    try:
        start_finite = math.isfinite(t) and _finite(q) and _finite(v)
        end_finite = math.isfinite(t_end)
    except OverflowError as exc:
        raise error(f"t={t!r} or t_end={t_end!r} lies beyond the float "
                    f"range") from exc
    if not start_finite:
        raise error(f"arc start is not finite (t={t!r}, q={q}, v={v})")
    if not end_finite:
        raise error(f"t_end={t_end!r} is not finite; runs end at a finite "
                    f"horizon")
    if not t_end >= t:
        raise error(f"t_end={t_end!r} precedes the start time t={t!r}; "
                    f"runs go forward in time")
    try:
        g, d = gfun(t, q, v), dfun(t, q, v)
        if d != d:
            raise IntegrationFailure(f"the guard rate is NaN at the arc "
                                     f"start t={t!r}")
        bound = GUARD_TOL * max(1.0, abs(d))
        if g <= bound:
            if g < -bound or _leaving(d):
                return g, d
            eps = 1e-7 * max(1.0, abs(t))
            ahead = [x + eps * w for x, w in zip(q, v)]
            if gfun(t + eps, ahead, v) < g - 1e-14:
                return g, d
    except ArithmeticError as exc:
        raise error(f"the guard at the arc start t={t!r} left the float "
                    f"range: {exc!r}") from exc
    raise error(f"arc start at t={t!r} has g={g:.3e}, d={d:.3e}; an arc "
                f"starts strictly inside the guard, or on it and leaving")


def _finite(x):
    """Whether every float of the list x is finite."""
    for value in x:
        if not math.isfinite(value):
            return False
    return True


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
        # the loop's halves are lists; the Newton solve takes arrays, and
        # the guard and reset get its velocity back as a list
        warm["v"] = sys._velocity(t, np.array(q), np.array(p),
                                  v0=warm["v"])
        return warm["v"].tolist()

    def rhs_h(t, y):
        y = np.asarray(y, float)
        dq, dp = sys.hamiltonian_field(t, y[:n], y[n:], v0=warm["v"])
        warm["v"] = dq
        return np.concatenate([dq, dp]).tolist()

    def on_momenta(fun):
        """A guard function fun(t, q, v) as a function of (t, q, p)."""
        def f(t, q, p):
            return fun(t, q, velocity(t, q, p))
        return f

    def reset_h(tau, ypre):
        q = ypre[:n]
        q_post, v_post = hs.reset.apply(tau, q, velocity(tau, q, ypre[n:]))
        p_post = sys.dL_dv(tau, np.array(q_post, float),
                           np.array(v_post, float))
        return q_post, p_post, mode_h

    mode_h = (rhs_h, on_momenta(hs.guard.surface),
              on_momenta(hs.guard.direction), reset_h)
    return mode_h


def check_flow_equivalence(sys: LagrangianSystem, s0: State,
                           t_end: float) -> HybridEquivalenceReport:
    """Integrate both evolution fields and compare them under the fiber
    derivative.

    This is `check_hybrid_equivalence` on `sys` under a guard that never
    triggers, with the step control RTOL and ATOL on both sides; it
    returns that check's report, whose state discrepancy is taken over
    the union of both step grids (no run has an impact). A start
    `simulate` rejects (non-finite, a non-finite t_end, or t_end before
    s0.t) raises InvalidStart.
    """
    return check_hybrid_equivalence(_inert_hybrid(sys), s0, t_end,
                                    grid_per_arc=0)


def _never(t, q, v):
    """A guard value of -1 at every state."""
    return -1.0


def _inert_hybrid(system: LagrangianSystem) -> HybridSystem:
    """`system` under a guard that never triggers and an identity reset."""
    return HybridSystem(system=system,
                        guard=Guard(surface=_never, direction=_never),
                        reset=ResetMap(apply=lambda t, q, v: (q, v)))
