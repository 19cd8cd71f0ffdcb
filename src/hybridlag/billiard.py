"""Planar billiard with a circular wall of time-varying radius and
velocity-proportional friction.

Off the wall the particle obeys m*qddot = -c*qdot, which is generated by
the exponentially weighted kinetic Lagrangian

    L(t, q, v) = exp(c t / m) * m |v|^2 / 2.

The wall is the circle |q|^2 = f(t). A crossing is an impact unless the
particle leaves the wall in the co-moving sense, at a rate
d = 2 q.v - fdot < -GUARD_TOL (`hybrid._leaving`); d = d/dt(|q|^2 - f)
is well defined for growing and shrinking walls alike. The reset reflects
the wall-normal velocity elastically in the frame of the moving wall.
This is the contact law of time-dependent billiards (Koiller, Markarian,
Kamphorst & de Carvalho, Nonlinearity 8, 1995). In the polar chart the
angular coordinate is cyclic, the damped angular momentum
exp(ct/m) m r^2 thetadot is conserved between impacts, and the radial
reset is the radial component of the Cartesian reflection, linear in
rdot. The chart ends at r <= R_MIN, where the polar and reduced fields
raise ChartSingularity; at r <= 0 they return NaN accelerations, which
make the step loop reject the trial step that left the chart.

The closed-form damped flight makes an exact piecewise reference flow
possible: between impacts positions follow q(t) = q0 - (m/c) v0
expm1(-c dt/m), and impact times are roots of the convex function
|q(t)|^2 - f(t) along each flight, bracketed through its derivative and
refined with Brent's method. Its flights run as arcs of the executor's
loop, under the same arc-start, termination, residual and reset rules,
but involve no ODE stepping, so it is an independent oracle for the
whole hybrid pipeline.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, List

import numpy as np

from .errors import ChartSingularity, InvalidReset, WeightOverflow
from .hybrid import (REFINE_XTOL, Arc, Guard, HybridFlow, HybridSystem,
                     ResetMap, _execute, _mode, brentq)
from .lagrangian import LagrangianSystem, State
from .reduction import CyclicStructure

R_MIN = 1e-8  # radius at which the polar chart ends
REFERENCE_GRID = 33  # sample times per arc of a reference flow


def _weight(c, t, m):
    """exp(c t / m) as math.exp computes it, for the damped Lagrangian's
    weights (c the dissipation, or -c and -2c for their inverses);
    WeightOverflow where it passes the float range."""
    try:
        return math.exp(c * t / m)
    except OverflowError as exc:
        raise WeightOverflow(f"the weight exp({c!r} t / m) overflows at "
                             f"t={t!r} with m={m!r}") from exc


def default_wall(t):
    """Wall law used by the built-in scenarios."""
    return 2.0 - math.exp(t / 10.0)


def default_wall_rate(t):
    return -math.exp(t / 10.0) / 10.0


@dataclass(frozen=True)
class BilliardParams:
    """Physical parameters of the billiard: mass m, dissipation c, and
    the squared wall radius f = wall(t) with its rate fdot = wall_rate(t).

    wall and wall_rate must be supplied together; the rate is never
    obtained by differencing the wall law.
    """

    m: float = 1.0
    c: float = 0.25
    wall: Callable[[float], float] = default_wall
    wall_rate: Callable[[float], float] = default_wall_rate

    def __post_init__(self):
        if not self.m > 0:
            raise ValueError("mass must be positive")
        if not self.c >= 0:
            raise ValueError("dissipation coefficient must be >= 0")


# ---------------------------------------------------------------------------
# chart maps
# ---------------------------------------------------------------------------

def polar_to_cartesian(s: State) -> State:
    """(r, theta, rdot, thetadot) -> (x, y, xdot, ydot)."""
    r, th = s.q
    rd, thd = s.v
    ct, st = math.cos(th), math.sin(th)
    return State(s.t, np.array([r * ct, r * st]),
                 np.array([rd * ct - r * thd * st,
                           rd * st + r * thd * ct]))


# ---------------------------------------------------------------------------
# Lagrangian systems
# ---------------------------------------------------------------------------

def cartesian_system(p: BilliardParams) -> LagrangianSystem:
    """Two-dimensional damped free particle in Cartesian coordinates."""
    m, c = p.m, p.c

    def lag(t, q, v):
        vx, vy = v.tolist()
        return _weight(c, t, m) * 0.5 * m * (vx * vx + vy * vy)

    def dq(t, q, v):
        return np.zeros(2)

    def dv(t, q, v):
        return _weight(c, t, m) * m * v

    k = -(c / m)

    def field(t, y):
        _, _, xd, yd = y
        return [xd, yd, k * xd, k * yd]

    return LagrangianSystem(dim=2, lagrangian=lag, dL_dq=dq, dL_dv=dv,
                            field=field)


def polar_system(p: BilliardParams) -> LagrangianSystem:
    """The same particle in the polar chart (r > R_MIN)."""
    m, c = p.m, p.c

    def lag(t, q, v):
        r = q[0]
        return _weight(c, t, m) * 0.5 * m * (v[0]**2 + r*r*v[1]**2)

    def dq(t, q, v):
        return np.array([_weight(c, t, m) * m * q[0] * v[1]**2, 0.0])

    def dv(t, q, v):
        w = _weight(c, t, m) * m
        return np.array([w * v[0], w * q[0]**2 * v[1]])

    k = c / m

    def field(t, y):
        r, _, rd, thd = y
        if r <= 0.0:
            # trial extrapolation left the chart: force step rejection
            return [rd, thd, math.nan, math.nan]
        if r <= R_MIN:
            raise ChartSingularity(
                f"trajectory reached r={r:.3e} <= r_min={R_MIN:.1e}")
        return [rd, thd, r * thd**2 - k * rd, -2.0 * rd * thd / r - k * thd]

    return LagrangianSystem(dim=2, lagrangian=lag, dL_dq=dq, dL_dv=dv,
                            field=field)


# ---------------------------------------------------------------------------
# guard and resets
# ---------------------------------------------------------------------------

def guard_cartesian(p: BilliardParams) -> Guard:
    f, fdot = p.wall, p.wall_rate

    def surface(t, q, v):
        x, y = q
        return x * x + y * y - f(t)

    def direction(t, q, v):
        x, y = q
        vx, vy = v
        return 2.0 * (x * vx + y * vy) - fdot(t)

    return Guard(surface=surface, direction=direction)


def guard_polar(p: BilliardParams) -> Guard:
    f, fdot = p.wall, p.wall_rate

    def surface(t, q, v):
        return q[0]**2 - f(t)

    def direction(t, q, v):
        return 2.0 * q[0] * v[0] - fdot(t)

    return Guard(surface=surface, direction=direction)


def _open_wall(f, t):
    """f(t), the squared wall radius a reset divides by; InvalidReset
    where the wall has closed (f(t) <= 0), as at the paper wall's t*, or
    closes within REFINE_XTOL after t. An impact time is located only to
    REFINE_XTOL, so an impact at a closing wall may land on either side
    of the closing time, and just before it f(t) is a few rounding units:
    there the reflection, which divides by f, would throw the state off
    the wall (at the paper wall's t*, one ulp early, a speed of 1e7
    heading out), and the next arc start would reject it."""
    ft, late = f(t), f(t + REFINE_XTOL)
    if not (ft > 0.0 and late > 0.0):
        raise InvalidReset(f"no reset on a closed wall: f(t) = {ft!r} at "
                           f"t={t!r} and {late!r} at t + {REFINE_XTOL!r}")
    return ft


def reset_cartesian(p: BilliardParams) -> ResetMap:
    f, fdot = p.wall, p.wall_rate

    def apply(t, q, v):
        ft = _open_wall(f, t)
        x, y = q
        vx, vy = v
        lam = (fdot(t) - 2.0 * (x * vx + y * vy)) / ft
        return q, [vx + lam * x, vy + lam * y]

    return ResetMap(apply=apply)


def reset_polar(p: BilliardParams) -> ResetMap:
    """The radial component of `reset_cartesian`'s v + lam q: rdot + lam r,
    with lam = (fdot - 2 r rdot) / f; thetadot is unchanged."""
    f, fdot = p.wall, p.wall_rate

    def apply(t, q, v):
        r, rd = q[0], v[0]
        ft = _open_wall(f, t)
        return q, [rd + (fdot(t) - 2.0 * r * rd) * r / ft, v[1]]

    return ResetMap(apply=apply)


def cartesian_hybrid(p: BilliardParams) -> HybridSystem:
    return HybridSystem(system=cartesian_system(p), guard=guard_cartesian(p),
                        reset=reset_cartesian(p))


def polar_hybrid(p: BilliardParams) -> HybridSystem:
    return HybridSystem(system=polar_system(p), guard=guard_polar(p),
                        reset=reset_polar(p))


# ---------------------------------------------------------------------------
# cyclic structure and reduced closed forms
# ---------------------------------------------------------------------------

def routhian_closed(p: BilliardParams, mu: float) -> LagrangianSystem:
    """Closed-form reduced system on the radial line at momentum mu:
    L_mu(t, r, rdot) = exp(ct/m) m rdot^2 / 2 - mu^2 exp(-ct/m) / (2 m r^2).
    """
    m, c = p.m, p.c

    def lag(t, x, xd):
        r = x[0]
        return (_weight(c, t, m) * 0.5 * m * xd[0]**2
                - mu * mu / (2.0 * m * r * r) * _weight(-c, t, m))

    def dq(t, x, xd):
        r = x[0]
        return np.array([mu * mu * _weight(-c, t, m) / (m * r**3)])

    def dv(t, x, xd):
        return np.array([_weight(c, t, m) * m * xd[0]])

    k = c / m

    def field(t, y):
        r, rd = y
        if r <= 0.0:
            return [rd, math.nan]
        if r <= R_MIN:
            raise ChartSingularity(
                f"reduced trajectory reached r={r:.3e} <= r_min={R_MIN:.1e}")
        # the hot path: math.exp inline, and _weight only to raise
        try:
            decay = math.exp(-2.0 * c * t / m)
        except OverflowError:
            decay = _weight(-2.0 * c, t, m)
        return [rd, mu * mu * decay / (m * m * r**3) - k * rd]

    return LagrangianSystem(dim=1, lagrangian=lag, dL_dq=dq, dL_dv=dv,
                            field=field)


def _validation_states(p: BilliardParams):
    """Deterministic state samples for the symmetry checks, drawn with
    the standard library's generator: a run need not load numpy.random.
    A sample time where the wall has closed (f(t) <= 0) gets no on-guard
    sample."""
    rng = random.Random(20240817)
    states, guard_states = [], []
    for _ in range(25):
        t = rng.uniform(0.0, 3.0)
        f = p.wall(t)
        theta = rng.uniform(-math.pi, math.pi)
        r = rng.uniform(0.3, math.sqrt(max(f, 0.09)))
        rd = rng.uniform(-3.0, 3.0)
        thd = rng.uniform(-4.0, 4.0)
        states.append(State(t, np.array([r, theta]), np.array([rd, thd])))
        if f > 0.0:
            guard_states.append(State(t, np.array([math.sqrt(f), theta]),
                                      np.array([abs(rd) + 0.1, thd])))
    return tuple(states), tuple(guard_states)


def polar_cyclic(p: BilliardParams) -> CyclicStructure:
    """Cyclic structure of the polar chart (the angle is cyclic)."""
    m, c = p.m, p.c
    states, guard_states = _validation_states(p)

    def solver(t, x, xdot, mu):
        # x[0] is r, or the row of r over columns. np.exp may differ from
        # math.exp in the last bit; single points (the lifts inside
        # resets) keep math.exp, so impact times do not depend on it
        decay = _weight(-c, t, m) if np.ndim(t) == 0 else np.exp(-c * t / m)
        return decay * mu / (m * x[0] ** 2)

    # the polar guard reads only t, r and rdot, so it is its own reduced
    # form at every momentum
    return CyclicStructure(full=polar_hybrid(p), cyclic_index=1,
                           cyclic_velocity_solver=solver,
                           routhian_factory=lambda mu: routhian_closed(p, mu),
                           reduced_guard_factory=lambda mu: guard_polar(p),
                           sample_states=states,
                           guard_sample_states=guard_states)


# ---------------------------------------------------------------------------
# closed-form flight and the piecewise analytic reference
# ---------------------------------------------------------------------------

def _flight(p: BilliardParams, q0, v0, dt):
    """(q, v) after a damped free flight over dt: q0 - (m/c) v0
    expm1(-c dt/m) and v0 exp(-c dt/m), or uniform motion when c = 0.
    expm1 keeps the position accurate where c dt/m is small, where
    1 - exp(-c dt/m) cancels. Starts of shape (n, 1) and k steps dt give
    (n, k) columns."""
    if p.c == 0.0:
        return q0 + dt * v0, v0 * np.ones_like(dt)
    rate = -p.c * dt / p.m
    return q0 - (p.m / p.c) * v0 * np.expm1(rate), v0 * np.exp(rate)


class _FlightInterpolant:
    """Packed closed-form flight state as a function of absolute time;
    an array of times gives one column per time."""

    def __init__(self, p: BilliardParams, t0, q0, v0):
        self.p = p
        self.t0 = t0
        self.q0 = np.asarray(q0, float)
        self.v0 = np.asarray(v0, float)

    def __call__(self, t):
        dt = np.asarray(t, float) - self.t0
        shape = (-1,) + (1,) * dt.ndim
        q, v = _flight(self.p, self.q0.reshape(shape),
                       self.v0.reshape(shape), dt)
        return np.concatenate([q, v])


def _along(fun, dense, n):
    """fun(t, q, v) along a dense output of n-dimensional states, q and
    v as lists of floats, as the guard takes them."""
    def f(tt):
        y = dense(tt).tolist()
        return fun(tt, y[:n], y[n:])

    return f


def _next_crossing(phi, dphi, t0, t_end):
    """First upward root of a convex phi on [t0, t_end], where dphi is
    its rate, from an admissible arc start (`hybrid._check_arc_start`),
    where dphi(t0) >= 0 comes with phi(t0) < 0: on the guard, such a
    start passes only if a free step lowers the guard, which convexity
    rules out. The executor never flies an arc with no time, so
    t_end > t0."""
    if dphi(t0) >= 0.0:
        # heading out from the start: at most one root ahead
        if phi(t_end) <= 0.0:
            return None
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
        t_min = brentq(dphi, left, right, xtol=1e-15, rtol=1e-15)
        if phi(t_min) >= 0.0:
            # dip never measurably re-enters: the wall caught the state
            return t_min
        if phi(t_end) <= 0.0:
            return None
        lo = t_min
    return brentq(phi, lo, t_end, xtol=1e-14, rtol=1e-15)


def reference_flow(p: BilliardParams, s0: State, t_end: float) -> HybridFlow:
    """Exact piecewise reference run of the Cartesian billiard.

    Flights are closed-form; the next impact is the first root of the
    guard phi(t) = |q(t)|^2 - f(t) along the flight, which is convex for
    these walls, found by `_next_crossing` with the guard's direction,
    its rate, as phi'. Each flight is an arc of the executor's loop
    (`hybrid._execute`) under all its rules, so the result is directly
    comparable to `simulate` while sharing none of its ODE stepping. By
    convexity each root found rises through the wall, or is a dip's
    caught minimum, whose rate is zero to round-off: an impact under the
    executor's rule (`hybrid._leaving`) either way.
    """
    hs = cartesian_hybrid(p)

    def flight_arc(mode, start, t_end, max_step):
        t, y, _, _ = start
        _, gfun, dfun, _ = mode
        flight = _FlightInterpolant(p, t, y[:2], y[2:])
        tau = _next_crossing(_along(gfun, flight, 2), _along(dfun, flight, 2),
                             t, t_end)
        arc_end = tau if tau is not None else t_end
        times = np.linspace(t, arc_end, REFERENCE_GRID)
        arc = Arc(t, float(arc_end), times, flight(times).T, flight)
        if tau is None:
            return arc, None
        y = flight(tau).tolist()
        q, v = y[:2], y[2:]
        return arc, (tau, y, gfun(tau, q, v), dfun(tau, q, v))

    return _execute(_mode(hs), s0.t, hs.system.pack(s0), t_end, flight_arc)


# ---------------------------------------------------------------------------
# built-in scenarios
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PaperScenario:
    """Named parameter set with consistent polar and Cartesian starts."""

    scenario_id: str
    params: BilliardParams
    initial_polar: State
    horizon: float = 10.0

    @property
    def initial_cartesian(self) -> State:
        return polar_to_cartesian(self.initial_polar)


_REFERENCE_START_POLAR = State(0.0, np.array([0.5590, 1.1071]),
                               np.array([2.8621, -3.0400]))


def paper_scenarios() -> List[PaperScenario]:
    """The two bundled moving-wall runs (dissipation 0.25 and 0.10)."""
    return [
        PaperScenario("paper-c025", BilliardParams(c=0.25),
                      _REFERENCE_START_POLAR),
        PaperScenario("paper-c010", BilliardParams(c=0.10),
                      _REFERENCE_START_POLAR),
    ]


def get_scenario(scenario_id: str) -> PaperScenario:
    for sc in paper_scenarios():
        if sc.scenario_id == scenario_id:
            return sc
    raise KeyError(f"unknown scenario id {scenario_id!r}")
