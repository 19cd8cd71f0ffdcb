import math

import numpy as np
import pytest

import hybridlag as hl
from hybridlag import billiard, hybrid
from conftest import no_hang, reset_state
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (C010_IMPACT_COUNT, C025_FIRST_IMPACT, C025_IMPACT_COUNT,
                     WALL_COLLAPSE_TIME, cartesian_to_polar,
                     clock_invariant_cartesian, clock_invariant_radial,
                     clock_quadratic_wall, damped_flight, damping_clock,
                     static_wall)


def mk_state(t, q, v):
    return hl.State(t, np.asarray(q, float), np.asarray(v, float))


def static_params(c=0.0, radius_sq=1.0, **kw):
    wall, rate = static_wall(radius_sq)
    return hl.BilliardParams(c=c, wall=wall, wall_rate=rate, **kw)


# ---------------------------------------------------------------------------
# parameters and charts
# ---------------------------------------------------------------------------

def test_params_validation():
    with pytest.raises(ValueError):
        hl.BilliardParams(m=0.0)
    with pytest.raises(ValueError):
        hl.BilliardParams(c=-0.1)


def test_default_wall_law():
    p = hl.BilliardParams()
    assert p.wall(0.0) == pytest.approx(1.0)
    assert p.wall(10.0 * math.log(2.0)) == pytest.approx(0.0, abs=1e-15)
    assert p.wall_rate(0.0) == pytest.approx(-0.1)


def test_chart_round_trip(rng):
    for _ in range(50):
        s = mk_state(float(rng.uniform(0, 3)),
                     [rng.uniform(0.2, 2.0), rng.uniform(-3, 3)],
                     [rng.uniform(-2, 2), rng.uniform(-3, 3)])
        back = cartesian_to_polar(hl.polar_to_cartesian(s))
        assert np.allclose(back.q[0], s.q[0], atol=1e-12)
        # angle defined modulo full turns
        assert math.cos(back.q[1] - s.q[1]) == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(back.v, s.v, atol=1e-11)


def test_scenarios_cartesian_image():
    sc = hl.get_scenario("paper-c025")
    assert sc.initial_cartesian.q == pytest.approx([0.25, 0.50], abs=5e-4)
    assert sc.initial_cartesian.v == pytest.approx([2.80, 1.80], abs=5e-4)
    assert sc.horizon == 10.0
    back = cartesian_to_polar(sc.initial_cartesian)
    assert np.allclose(back.q, sc.initial_polar.q, atol=1e-12)
    assert np.allclose(back.v, sc.initial_polar.v, atol=1e-12)


def test_scenarios_momentum():
    for sid in ("paper-c025", "paper-c010"):
        sc = hl.get_scenario(sid)
        mu = hl.momentum_map(hl.polar_cyclic(sc.params), sc.initial_polar)
        assert mu == pytest.approx(-0.94994224, abs=1e-10)


def test_unknown_scenario():
    with pytest.raises(KeyError):
        hl.get_scenario("paper-c999")


# ---------------------------------------------------------------------------
# Lagrangians
# ---------------------------------------------------------------------------

def test_cartesian_lagrangian_value():
    sys = hl.cartesian_system(hl.BilliardParams(c=0.25))
    assert sys.lagrangian(0.0, np.zeros(2), np.array([2.8, 1.8])) == \
        pytest.approx(5.54, abs=1e-12)


def test_cartesian_acceleration_is_linear_drag():
    # the packed field (v, a) with a = -(c/m) v
    sys = hl.cartesian_system(hl.BilliardParams(c=0.25))
    dy = sys.field(7.3, [0.4, 0.1, 2.8, 1.8])
    assert dy[:2] == [2.8, 1.8]
    assert np.allclose(dy[2:], [-0.7, -0.45], atol=1e-14)
    sys0 = hl.cartesian_system(hl.BilliardParams(c=0.0))
    dy0 = sys0.field(1.0, [0.0, 0.0, 3.0, -1.0])
    assert dy0[:2] == [3.0, -1.0]
    assert np.allclose(dy0[2:], 0.0)


def test_polar_lagrangian_matches_cartesian(rng):
    p = hl.BilliardParams(c=0.25)
    pol = hl.polar_system(p)
    car = hl.cartesian_system(p)
    for _ in range(25):
        s = mk_state(float(rng.uniform(0, 3)),
                     [rng.uniform(0.2, 1.4), rng.uniform(-3, 3)],
                     [rng.uniform(-2, 2), rng.uniform(-3, 3)])
        sc = hl.polar_to_cartesian(s)
        assert pol.lagrangian(s.t, s.q, s.v) == pytest.approx(
            car.lagrangian(sc.t, sc.q, sc.v), rel=1e-12)


def test_polar_model_on_a_wall_that_closes_early():
    # f = 2 - e^(t/2) closes at 2 ln 2, inside the window [0, 3] from
    # which the cyclic structure draws its validation states: the polar
    # model still builds, and runs in both charts agree
    p = hl.BilliardParams(wall=lambda t: 2.0 - math.exp(t / 2.0),
                          wall_rate=lambda t: -math.exp(t / 2.0) / 2.0)
    polar, cartesian = (
        hl.simulate(bundle.hybrid, bundle.default_initial, 1.0)
        for bundle in (hl.build_model("billiard-polar", p),
                       hl.build_model("billiard-cartesian", p)))
    assert len(polar.events) == len(cartesian.events) > 0
    assert np.max(np.abs(polar.event_times()
                         - cartesian.event_times())) <= 1e-8


def test_polar_chart_singularity_guard():
    # with zero angular velocity the particle runs straight into r = 0
    p = static_params(radius_sq=100.0)
    hs = hl.polar_hybrid(p)
    with pytest.raises(hl.ChartSingularity):
        hl.simulate(hs, mk_state(0.0, [1.0, 0.0], [-1.0, 0.0]), 2.0)


def test_reduced_chart_singularity_guard():
    # at zero momentum the radial line runs straight into r = 0 as well
    red = hl.reduce(hl.polar_cyclic(static_params(radius_sq=100.0)), 0.0)
    with pytest.raises(hl.ChartSingularity, match="reduced trajectory"):
        hl.simulate(red.shape, mk_state(0.0, [1.0], [-1.0]), 2.0)


@pytest.mark.parametrize("chart", ["polar", "reduced"])
def test_chart_fields_end_at_r_min(chart):
    # the closed-form fields' chart checks: NaN accelerations at r <= 0,
    # which make the step loop reject a trial step that left the chart,
    # and ChartSingularity at 0 < r <= R_MIN; the velocities pass through
    p = hl.BilliardParams(c=0.25)
    sys = hl.polar_system(p) if chart == "polar" else \
        hl.reduce(hl.polar_cyclic(p), 0.7).shape.system
    n = sys.dim
    r_min = hl.billiard.R_MIN

    def packed(r):
        return [r, 0.3][:n] + [1.5, -2.0][:n]

    for r in (0.0, -0.0, -5e-324, -1e-3, -math.inf):
        y = packed(r)
        dy = sys.field(1.0, y)
        assert y == packed(r) and dy[:n] == y[n:]
        assert len(dy) == 2 * n and all(math.isnan(a) for a in dy[n:])
    for r in (5e-324, 1e-300, 0.5 * r_min, r_min):
        with pytest.raises(hl.ChartSingularity, match="r_min"):
            sys.field(1.0, packed(r))
    inside = sys.field(1.0, packed(math.nextafter(r_min, 1.0)))
    assert all(map(math.isfinite, inside))


def test_routhian_closed_form_value():
    # reduced Lagrangian at t=0, r=1, rdot=0, mu=1 evaluates to -1/2
    red = hl.routhian_closed(hl.BilliardParams(c=0.25), 1.0)
    assert red.lagrangian(0.0, np.array([1.0]), np.array([0.0])) == \
        pytest.approx(-0.5, abs=1e-15)


@pytest.mark.parametrize("part", ["lag", "dq", "field", "lift"])
def test_inverse_weights_beyond_float_range_raise(part):
    # at t = -5 with c / m = 200 the inverse weights exp(-c t / m) and
    # exp(-2 c t / m) pass the float range: a typed error, no OverflowError
    p = hl.BilliardParams(c=2.0, m=0.01)
    red = hl.routhian_closed(p, 1.0)
    x, xd = np.array([0.5]), np.array([0.1])
    call = {"lag": lambda: red.lagrangian(-5.0, x, xd),
            "dq": lambda: red.dL_dq(-5.0, x, xd),
            "field": lambda: red.field(-5.0, [0.5, 0.1]),
            "lift": lambda: hl.polar_cyclic(p).cyclic_velocity_solver(
                -5.0, x, xd, 1.0)}[part]
    with pytest.raises(hl.WeightOverflow, match="overflows"):
        call()


# ---------------------------------------------------------------------------
# guard
# ---------------------------------------------------------------------------

def test_guard_inside_value():
    g = hl.guard_cartesian(hl.BilliardParams(c=0.25))
    assert g.surface(0.0, [0.25, 0.5], [0.0, 0.0]) == pytest.approx(
        -0.6875, abs=1e-15)


def test_guard_zero_on_wall():
    g = hl.guard_cartesian(hl.BilliardParams())
    assert g.surface(0.0, [1.0, 0.0], [0.0, 0.0]) == pytest.approx(
        0.0, abs=1e-15)


def test_guard_tangential_static_direction_zero():
    g = hl.guard_cartesian(static_params())
    # impact by the closed inequality
    assert g.direction(0.0, [1.0, 0.0], [0.0, 1.0]) == 0.0


def test_shrinking_wall_catches_slow_inward_particle():
    # wall f = 4 - 2t overtakes a slow inward particle: the co-moving
    # direction 2 q.v - fdot counts the impact although q.v < 0
    wall = lambda t: 4.0 - 2.0 * t
    rate = lambda t: -2.0
    s0 = mk_state(0.0, [1.0, 0.0], [-0.1, 0.0])
    p = hl.BilliardParams(c=0.0, wall=wall, wall_rate=rate)
    flow = hl.simulate(hl.cartesian_hybrid(p), s0, 1.9)
    assert len(flow.events) == 1


# ---------------------------------------------------------------------------
# resets
# ---------------------------------------------------------------------------

def test_reset_cartesian_specular():
    r = hl.reset_cartesian(static_params())
    q, v = r.apply(0.0, [1.0, 0.0], [1.0, 0.0])
    assert np.allclose(v, [-1.0, 0.0], atol=1e-15)
    assert np.array_equal(q, [1.0, 0.0])


def test_reset_cartesian_tangential_unchanged():
    r = hl.reset_cartesian(static_params())
    _, v = r.apply(0.0, [1.0, 0.0], [0.0, 1.0])
    assert np.allclose(v, [0.0, 1.0], atol=1e-15)


def test_reset_cartesian_moving_wall():
    wall = lambda t: 1.0
    rate = lambda t: 0.5
    r = hl.reset_cartesian(hl.BilliardParams(c=0.0, wall=wall,
                                             wall_rate=rate))
    _, v = r.apply(0.0, [1.0, 0.0], [1.0, 0.0])
    assert v[0] == pytest.approx(-0.5, abs=1e-15)


def test_reset_polar_specular():
    r = hl.reset_polar(static_params())
    _, v = r.apply(0.0, [1.0, 0.7], [1.0, 2.0])
    assert v[0] == pytest.approx(-1.0, abs=1e-14)
    assert v[1] == 2.0  # angular velocity untouched


def test_reset_polar_resting_state():
    r = hl.reset_polar(static_params())
    _, v = r.apply(0.0, [1.0, 0.0], [0.0, 1.0])
    assert v[0] == 0.0


def test_reset_equivalence_on_guard(rng):
    # polar and Cartesian resets agree under the chart map on admissible
    # impact states (approaching in the co-moving sense) of a breathing
    # wall, which both grows and shrinks over its period
    p = hl.BilliardParams(c=0.25, wall=lambda t: 1.0 + 0.3 * math.sin(3 * t),
                          wall_rate=lambda t: 0.9 * math.cos(3 * t))
    rp = hl.reset_polar(p)
    rc = hl.reset_cartesian(p)
    worst = 0.0
    growing = shrinking = 0
    for _ in range(1000):
        t = float(rng.uniform(0.0, 2 * math.pi / 3))
        r = math.sqrt(p.wall(t))
        theta = float(rng.uniform(-math.pi, math.pi))
        fd = p.wall_rate(t)
        lo = fd / (2.0 * r) + 1e-3
        rd = float(rng.uniform(lo, 3.0))
        thd = float(rng.uniform(-4.0, 4.0))
        growing += fd > 0
        shrinking += fd < 0
        s_pol = mk_state(t, [r, theta], [rd, thd])
        post_car = reset_state(rc, hl.polar_to_cartesian(s_pol))
        mapped = hl.polar_to_cartesian(reset_state(rp, s_pol))
        worst = max(worst, float(np.max(np.abs(mapped.q - post_car.q))),
                    float(np.max(np.abs(mapped.v - post_car.v))))
    assert growing > 0 and shrinking > 0
    assert worst <= 1e-10


def _bits(x):
    """The IEEE bytes of x, a float, a list of floats or a float64 array:
    equal bits, signs of zeros included."""
    return np.asarray(x, np.float64).tobytes()


def test_guards_and_resets_keep_the_float_expressions_bits(rng):
    # the guards and resets take q and v as lists of Python floats and
    # compute on them, and `lag` reads its array v as floats; each result
    # must equal the Python-float expression written out here, bit for
    # bit, on the paper wall before its collapse (t* = 6.93), with signed
    # zeros among the draws
    p = hl.BilliardParams(c=0.25)
    f, fdot = p.wall, p.wall_rate
    gc, rc = hl.guard_cartesian(p), hl.reset_cartesian(p)
    gp, rp = hl.guard_polar(p), hl.reset_polar(p)
    lag = hl.cartesian_system(p).lagrangian
    signed_zeros = 0
    for _ in range(10_000):
        t = float(rng.uniform(0.0, 6.9))
        qa, va = rng.standard_normal(2), rng.standard_normal(2)
        zero = rng.uniform(size=4) < 0.1
        signs = np.where(rng.uniform(size=4) < 0.5, -0.0, 0.0)
        qa[zero[:2]], va[zero[2:]] = signs[:2][zero[:2]], signs[2:][zero[2:]]
        q, v = qa.tolist(), va.tolist()
        (x, y), (vx, vy) = q, v
        ft = f(t)
        # Cartesian: |q|^2 - f, 2 q.v - fdot and v + lam q
        lam = (fdot(t) - 2.0 * (x * vx + y * vy)) / ft
        old = {"surface": x * x + y * y - ft,
               "direction": 2.0 * (x * vx + y * vy) - fdot(t),
               "lag": hl.billiard._weight(p.c, t, p.m) * 0.5 * p.m
               * (vx * vx + vy * vy)}
        new = {"surface": gc.surface(t, q, v),
               "direction": gc.direction(t, q, v),
               "lag": lag(t, qa, va)}
        q_post, v_post = rc.apply(t, q, v)
        assert _bits(q_post) == _bits(q)
        assert _bits(v_post) == _bits([vx + lam * x, vy + lam * y])
        assert [type(e) for e in v_post] == [float, float]
        # polar, on the full state and as the reduced guard on (r, rdot)
        r, rd = x, vx
        old["polar surface"] = r**2 - ft
        old["polar direction"] = 2.0 * r * rd - fdot(t)
        new["polar surface"] = gp.surface(t, q, v)
        new["polar direction"] = gp.direction(t, q, v)
        old["reduced surface"] = old["polar surface"]
        old["reduced direction"] = old["polar direction"]
        new["reduced surface"] = gp.surface(t, q[:1], v[:1])
        new["reduced direction"] = gp.direction(t, q[:1], v[:1])
        q_post, v_post = rp.apply(t, q, v)
        assert _bits(q_post) == _bits(q)
        assert _bits(v_post) == _bits(
            [rd + (fdot(t) - 2.0 * r * rd) * r / ft, vy])
        assert [type(e) for e in v_post] == [float, float]
        for key, value in new.items():
            assert type(value) is float, key
            assert _bits(value) == _bits(old[key]), (key, t, q, v)
        signed_zeros += math.copysign(1.0, v_post[0]) < 0 and v_post[0] == 0
    # the shrinking wall (fdot < 0) maps r = 0.0, rdot = -0.0 to -0.0
    assert signed_zeros > 0


# a Cartesian start whose third impact is located at the collapse time t*
# itself, where the paper wall has closed (f(t*) = 0)
COLLAPSE_IMPACT_C = 0.14393321358124805
COLLAPSE_IMPACT_Q0 = (0.7734375, 0.0)
COLLAPSE_IMPACT_V0 = (0.1413124436746325, 0.0)


@pytest.mark.parametrize("reset", [hl.reset_cartesian, hl.reset_polar])
def test_reset_on_closed_wall_is_invalid_reset(reset):
    p = hl.BilliardParams(c=COLLAPSE_IMPACT_C)
    assert p.wall(WALL_COLLAPSE_TIME) == 0.0
    with pytest.raises(hl.InvalidReset, match="closed wall.*t=6.93147"):
        reset(p).apply(WALL_COLLAPSE_TIME, [0.0, 0.0], [1.0, 0.0])


@pytest.mark.parametrize("reset", [hl.reset_cartesian, hl.reset_polar])
def test_reset_on_a_wall_closing_within_refine_xtol_is_invalid_reset(reset):
    # one ulp before t*, f is a rounding unit, 2.2e-16, and the wall closes
    # well within the impact's time tolerance: the reflection would divide
    # by that unit, so the reset refuses the wall as closed
    p = hl.BilliardParams(c=COLLAPSE_IMPACT_C)
    t = math.nextafter(WALL_COLLAPSE_TIME, 0.0)
    assert 0.0 < p.wall(t) and p.wall(t + hybrid.REFINE_XTOL) < 0.0
    with pytest.raises(hl.InvalidReset, match="closed wall.*t=6.93147"):
        reset(p).apply(t, [1e-8, 0.0], [-1.0, 0.0])


def test_impact_at_wall_collapse_raises_typed_error():
    # the run locates an impact at t*, where the reset would divide by
    # f(t*) = 0; it must end in a HybridLagError, not a ZeroDivisionError
    p = hl.BilliardParams(c=COLLAPSE_IMPACT_C)
    s0 = mk_state(0.0, COLLAPSE_IMPACT_Q0, COLLAPSE_IMPACT_V0)
    with pytest.raises(hl.InvalidReset, match="t=6.93147"):
        hl.simulate(hl.cartesian_hybrid(p), s0, 10.0)


# ---------------------------------------------------------------------------
# analytic flight and the reference flow
# ---------------------------------------------------------------------------

# the analytic arc is the oracle's closed-form flight, read through the
# interpolant that `reference_flow` gives each of its arcs: the packed
# state (q, v) at absolute times, one column per time

def flight(p, s0):
    return billiard._FlightInterpolant(p, s0.t, s0.q, s0.v)


def test_analytic_arc_straight_line():
    p = static_params(c=0.0)
    y = flight(p, mk_state(0.0, [0.1, 0.2], [1.0, -0.5]))(2.0)
    assert np.allclose(y[:2], [2.1, -0.8], atol=1e-15)
    assert np.allclose(y[2:], [1.0, -0.5], atol=0)


def test_analytic_arc_total_travel_limit():
    p = hl.BilliardParams(c=0.25)
    y = flight(p, mk_state(0.0, [0.0, 0.0], [1.0, 0.0]))(300.0)
    assert y[0] == pytest.approx(p.m / p.c, abs=1e-12)
    assert abs(y[2]) < 1e-30


def test_analytic_arc_matches_independent_form(rng):
    p = hl.BilliardParams(c=0.25)
    for _ in range(20):
        q0 = rng.uniform(-1, 1, 2)
        v0 = rng.uniform(-3, 3, 2)
        dts = rng.uniform(0.0, 2.0, 3)
        arc = flight(p, mk_state(0.5, q0, v0))
        columns = arc(0.5 + dts)
        for k, t in enumerate((0.5 + dts).tolist()):
            q_ref, v_ref = damped_flight(p.m, p.c, q0, v0, t - 0.5)
            for y in (arc(t), columns[:, k]):
                assert np.allclose(y[:2], q_ref, atol=1e-15)
                assert np.allclose(y[2:], v_ref, atol=1e-15)


def test_analytic_arc_matches_integrator():
    sc = hl.get_scenario("paper-c025")
    sys = hl.cartesian_system(sc.params)
    s0 = sc.initial_cartesian
    hs = hybrid._inert_hybrid(sys)
    flow = hl.simulate(hs, s0, s0.t + 1.0)
    assert not flow.events
    sol = flow.arcs[0]
    ref = flight(sc.params, s0)
    for t in np.linspace(0.0, 1.0, 11):
        y = sol(s0.t + t)
        assert np.max(np.abs(y - ref(s0.t + t))) <= 1e-10


def test_reference_flow_static_wall_times():
    p = static_params(c=0.0)
    flow = hl.reference_flow(p, mk_state(0.0, [0.0, 0.0], [1.0, 0.0]), 10.0)
    assert flow.termination == "horizon_reached"
    assert np.allclose(flow.event_times(), [1.0, 3.0, 5.0, 7.0, 9.0],
                       atol=1e-12)
    post = flow.events[0].post
    assert np.allclose(post.v, [-1.0, 0.0], atol=1e-12)


# (q0, v0, t_end) of free flights on the static unit wall that end
# before they reach it: no time to fly, which the executor closes without
# a flight, and two branches of the oracle's crossing search, heading out
# but short of the wall, and heading in with the bottom of the dip
# bracketed by t_end
SHORT_FLIGHTS = {
    "no-time": ((0.5, 0.0), (0.1, 0.0), 0.0),
    "heading-out": ((0.5, 0.0), (0.1, 0.0), 1.0),
    "dip-bracketed-by-t-end": ((0.5, 0.0), (-1.0, 0.0), 0.52),
}


@pytest.mark.parametrize("name", list(SHORT_FLIGHTS))
def test_flight_short_of_the_wall_has_no_impact(name):
    q0, v0, t_end = SHORT_FLIGHTS[name]
    p = static_params()
    s0 = mk_state(0.0, q0, v0)
    end = [q0[0] + t_end * v0[0], q0[1] + t_end * v0[1], *v0]
    for flow in (hl.reference_flow(p, s0, t_end),
                 hl.simulate(hl.cartesian_hybrid(p), s0, t_end)):
        assert flow.termination == "horizon_reached" and not flow.events
        assert len(flow.arcs) == 1 and flow.t_final == t_end
        assert np.allclose(flow.arcs[0](t_end), end, rtol=0.0, atol=1e-12)


def test_start_at_the_horizon_is_one_point_arc_in_both_pipelines():
    # the executor closes an arc that starts at t_end without its runner,
    # so the oracle's arc is the simulator's: one grid time, the start
    # state, and a constant interpolant
    p = static_params()
    s0 = mk_state(1.5, (0.5, 0.0), (0.1, -0.2))
    y0 = [0.5, 0.0, 0.1, -0.2]
    for flow in (hl.reference_flow(p, s0, 1.5),
                 hl.simulate(hl.cartesian_hybrid(p), s0, 1.5)):
        assert flow.termination == "horizon_reached" and not flow.events
        (arc,) = flow.arcs
        assert arc.t_start == arc.t_end == 1.5
        assert arc.times.tolist() == [1.5] and arc.states.tolist() == [y0]
        assert isinstance(arc.interpolant, hybrid._ConstantInterpolant)
        assert arc(1.5).tolist() == y0


def test_reference_flow_scenario_counts():
    for sid, count in (("paper-c025", C025_IMPACT_COUNT),
                       ("paper-c010", C010_IMPACT_COUNT)):
        sc = hl.get_scenario(sid)
        flow = hl.reference_flow(sc.params, sc.initial_cartesian, sc.horizon)
        assert flow.termination == "zeno_suspected"
        assert len(flow.events) == count, sid
        assert flow.events[-1].tau < WALL_COLLAPSE_TIME


@pytest.mark.parametrize("c", [0.0, 1e-12, 1e-9, 1e-6])
def test_reference_flow_matches_simulate_at_small_dissipation(c):
    # the damped flight's (m/c)(1 - exp(-c dt/m)) cancels as c -> 0; the
    # oracle must stay on the simulator's impacts all the way down
    sc = hl.get_scenario("paper-c025")
    p = hl.BilliardParams(c=c)
    ref = hl.reference_flow(p, sc.initial_cartesian, 3.0)
    sim = hl.simulate(hl.cartesian_hybrid(p), sc.initial_cartesian, 3.0)
    assert len(ref.events) == len(sim.events) > 0
    assert ref.event_time_delta(sim) <= 1e-8


def test_reference_flow_first_impact_frozen_value():
    sc = hl.get_scenario("paper-c025")
    flow = hl.reference_flow(sc.params, sc.initial_cartesian, 1.0)
    assert flow.events[0].tau == pytest.approx(C025_FIRST_IMPACT, abs=1e-9)


def test_wall_admissibility_at_impacts():
    sc = hl.get_scenario("paper-c025")
    flow = hl.simulate(hl.cartesian_hybrid(sc.params), sc.initial_cartesian,
                       10.0)
    for e in flow.events:
        r2 = float(e.pre.q @ e.pre.q)
        assert r2 == pytest.approx(sc.params.wall(e.tau), abs=1e-6)


def test_simulated_arcs_match_flight_locally():
    # each arc against the closed-form flight from its own start state
    sc = hl.get_scenario("paper-c025")
    p = sc.params
    flow = hl.simulate(hl.cartesian_hybrid(p), sc.initial_cartesian, 10.0)
    worst = 0.0
    for arc in flow.arcs:
        s_start = hl.State(arc.times[0], arc.states[0][:2], arc.states[0][2:])
        ref = flight(p, s_start)(arc.times)
        worst = max(worst, float(np.max(np.abs(ref.T - arc.states))))
    assert worst <= 1e-8


# walls f = a sigma^2 + b sigma + c0 in the damping clock, as (a, b, c0,
# m, c), that stay open up to t = 8 from the start below; a closing wall
# ends zeno_suspected with the invariant drifting by up to 3e-4
CLOCK_WALLS = [(0.05, -0.3, 1.0, 1.0, 0.25), (0.0, 0.0, 1.0, 1.0, 0.0),
               (0.02, 0.1, 0.8, 2.0, 0.3)]
# the largest drift measured over these walls and pipelines, at 50
# points per arc, was 1.9e-9 (reduced and resequenced runs)
CLOCK_INVARIANT_TOL = 1e-8


@pytest.mark.parametrize("wall", CLOCK_WALLS)
def test_damping_clock_invariant_holds_in_every_pipeline(wall):
    # the exact invariant of the damping clock (oracles.py) along the
    # Cartesian, polar, reduced and resequenced runs, across every impact,
    # each with the oracle's impact count
    m, c = wall[3:]
    f, fdot = clock_quadratic_wall(*wall)
    p = hl.BilliardParams(m=m, c=c, wall=f, wall_rate=fdot)
    s0 = mk_state(0.0, [0.3, -0.2], [1.1, 0.7])
    ref = hl.reference_flow(p, s0, 8.0)
    assert ref.termination == "horizon_reached"
    _, runs = clock_invariant_drifts(wall, s0, 8.0)
    for name, (flow, drift) in runs.items():
        assert flow.termination == ref.termination, name
        assert len(flow.events) == len(ref.events), name
        assert drift <= CLOCK_INVARIANT_TOL, name


CLOCK_HORIZON = 6.0


def clock_wall_min(a, b, c0, sigma_end):
    """The least value of f = a sigma^2 + b sigma + c0 on [0, sigma_end]."""
    ends = [c0, (a * sigma_end + b) * sigma_end + c0]
    if a > 0.0 and 0.0 < -b / (2.0 * a) < sigma_end:
        ends.append(c0 - b * b / (4.0 * a))
    return min(ends)


def clock_invariant_drifts(wall, s0, t_end):
    """The four pipelines' runs from the Cartesian start s0 to t_end in
    the damping-clock wall `wall` = (a, b, c0, m, c): I0, and name ->
    (flow, the largest |I - I0| at 50 points of each arc)."""
    m, c = wall[3:]
    f, fdot = clock_quadratic_wall(*wall)
    p = hl.BilliardParams(m=m, c=c, wall=f, wall_rate=fdot)
    s0p = cartesian_to_polar(s0)
    invariant0 = clock_invariant_cartesian(*wall, np.zeros(1), s0.q[:, None],
                                           s0.v[:, None])[0]
    cyc = hl.polar_cyclic(p)
    mu0 = hl.momentum_map(cyc, s0p)
    reseq = hl.simulate_resequenced(cyc, s0p, t_end)
    runs = {
        "cartesian": (hl.simulate(hl.cartesian_hybrid(p), s0, t_end),
                      lambda k, t, y: clock_invariant_cartesian(
                          *wall, t, y[:2], y[2:])),
        "polar": (hl.simulate(hl.polar_hybrid(p), s0p, t_end),
                  lambda k, t, y: clock_invariant_radial(
                      *wall, t, y[0], y[2],
                      np.exp(c * t / m) * m * y[0] ** 2 * y[3])),
        "reduced": (hl.simulate(hl.reduce(cyc, mu0).shape,
                                cyc.project_state(s0p), t_end),
                    lambda k, t, y: clock_invariant_radial(
                        *wall, t, y[0], y[1], mu0)),
        "resequenced": (reseq.reduced, lambda k, t, y: clock_invariant_radial(
            *wall, t, y[0], y[1], reseq.mu_sequence[k])),
    }
    out = {}
    for name, (flow, invariant) in runs.items():
        worst = 0.0
        for k, arc in enumerate(flow.arcs):
            t = np.linspace(arc.t_start, arc.t_end, 50)
            dev = np.abs(invariant(k, t, arc(t)) - invariant0)
            worst = max(worst, float(np.max(dev)))
        out[name] = (flow, worst)
    return invariant0, out


# drifts are divided by max(1, |I0|) e^{2cT/m}: the invariant weighs
# velocities by e^{ct/m}, so its round-off grows with that weight squared.
# Over 825 draws of the strategy below (these 25 and 800 randomized ones)
# the largest was 1.2e-8, a reduced run at c = 0 whose pericentre lies
# close to the centre, and the next 3.0e-9; the bound is ~4x the largest
CLOCK_RELATIVE_DRIFT_TOL = 5e-8


@settings(derandomize=True, database=None, max_examples=25, deadline=None)
@given(a=st.floats(-0.05, 0.05), b=st.floats(-0.3, 0.3),
       c0=st.floats(0.6, 1.5), m=st.floats(0.5, 2.0),
       c=st.one_of(st.just(0.0),
                   st.floats(0.0, 0.4, allow_subnormal=False)),
       r_frac=st.floats(0.0, 0.8), speed=st.floats(0.0, 3.0),
       angle=st.floats(-np.pi, np.pi), turn=st.floats(-np.pi, np.pi))
def test_damping_clock_invariant_over_open_quadratic_walls(
        a, b, c0, m, c, r_frac, speed, angle, turn):
    # the invariant of test_damping_clock_invariant_holds_in_every_pipeline
    # over drawn walls, masses, drags and starts: every wall stays open
    # (f >= 0.25 on the run's clock span), and every start keeps an
    # angular momentum the polar chart can carry. The four pipelines must
    # agree on the impact count with each other; reference_flow is left
    # out, since it assumes the flight's guard is convex
    assume(clock_wall_min(a, b, c0, damping_clock(m, c, CLOCK_HORIZON))
           >= 0.25)
    r = r_frac * math.sqrt(c0)
    assume(r * speed * abs(math.sin(turn)) >= 0.01)
    s0 = mk_state(0.0, r * np.array([math.cos(angle), math.sin(angle)]),
                  speed * np.array([math.cos(angle + turn),
                                    math.sin(angle + turn)]))
    wall = (a, b, c0, m, c)
    with no_hang(10):
        invariant0, runs = clock_invariant_drifts(wall, s0, CLOCK_HORIZON)
    scale = max(1.0, abs(invariant0)) * math.exp(2.0 * c * CLOCK_HORIZON / m)
    counts = {name: len(flow.events) for name, (flow, _) in runs.items()}
    assert len(set(counts.values())) == 1, counts
    for name, (flow, drift) in runs.items():
        assert flow.termination == "horizon_reached", name
        assert drift / scale <= CLOCK_RELATIVE_DRIFT_TOL, (name, drift)
