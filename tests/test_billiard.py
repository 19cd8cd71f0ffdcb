import math

import numpy as np
import pytest

import hybridlag as hl
from hybridlag import hybrid
from conftest import reset_state

from oracles import (C010_IMPACT_COUNT, C025_FIRST_IMPACT, C025_IMPACT_COUNT,
                     WALL_COLLAPSE_TIME, damped_flight)


def mk_state(t, q, v):
    return hl.State(t, np.asarray(q, float), np.asarray(v, float))


def static_params(c=0.0, radius_sq=1.0, **kw):
    wall, rate = hl.static_wall(radius_sq)
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
        back = hl.cartesian_to_polar(hl.polar_to_cartesian(s))
        assert np.allclose(back.q[0], s.q[0], atol=1e-12)
        # angle defined modulo full turns
        assert math.cos(back.q[1] - s.q[1]) == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(back.v, s.v, atol=1e-11)


def test_scenarios_cartesian_image():
    sc = hl.get_scenario("paper-c025")
    assert sc.initial_cartesian.q == pytest.approx([0.25, 0.50], abs=5e-4)
    assert sc.initial_cartesian.v == pytest.approx([2.80, 1.80], abs=5e-4)
    assert sc.horizon == 10.0
    back = hl.cartesian_to_polar(sc.initial_cartesian)
    assert np.allclose(back.q, sc.initial_polar.q, atol=1e-12)
    assert np.allclose(back.v, sc.initial_polar.v, atol=1e-12)


def test_scenarios_momentum():
    for sid in ("paper-c025", "paper-c010"):
        sc = hl.get_scenario(sid)
        assert sc.momentum == pytest.approx(-0.94994224, abs=1e-10)


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
    sys = hl.cartesian_system(hl.BilliardParams(c=0.25))
    a = sys.acceleration(7.3, [0.4, 0.1], [2.8, 1.8])
    assert np.allclose(a, [-0.7, -0.45], atol=1e-14)
    sys0 = hl.cartesian_system(hl.BilliardParams(c=0.0))
    assert np.allclose(sys0.acceleration(1.0, [0.0, 0.0], [3.0, -1.0]), 0.0)


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


def test_polar_chart_singularity_guard():
    # with zero angular velocity the particle runs straight into r = 0
    p = static_params(radius_sq=100.0)
    hs = hl.polar_hybrid(p)
    with pytest.raises(hl.ChartSingularity):
        hl.simulate(hs, mk_state(0.0, [1.0, 0.0], [-1.0, 0.0]), 2.0)


def test_routhian_closed_form_value():
    # reduced Lagrangian at t=0, r=1, rdot=0, mu=1 evaluates to -1/2
    red = hl.routhian_closed(hl.BilliardParams(c=0.25), 1.0)
    assert red.lagrangian(0.0, np.array([1.0]), np.array([0.0])) == \
        pytest.approx(-0.5, abs=1e-15)


# ---------------------------------------------------------------------------
# guard
# ---------------------------------------------------------------------------

def test_guard_inside_value():
    g = hl.guard_cartesian(hl.BilliardParams(c=0.25))
    s = mk_state(0.0, [0.25, 0.5], [0, 0])
    assert g.surface(s.t, s.q, s.v) == pytest.approx(-0.6875, abs=1e-15)


def test_guard_zero_on_wall():
    g = hl.guard_cartesian(hl.BilliardParams())
    s = mk_state(0.0, [1.0, 0.0], [0, 0])
    assert g.surface(s.t, s.q, s.v) == pytest.approx(0.0, abs=1e-15)


def test_guard_tangential_static_direction_zero():
    g = hl.guard_cartesian(static_params())
    s = mk_state(0.0, [1.0, 0.0], [0.0, 1.0])
    assert g.direction(s.t, s.q, s.v) == 0.0  # impact by the closed inequality


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
    q, v = r.apply(0.0, np.array([1.0, 0.0]), np.array([1.0, 0.0]))
    assert np.allclose(v, [-1.0, 0.0], atol=1e-15)
    assert np.array_equal(q, [1.0, 0.0])


def test_reset_cartesian_tangential_unchanged():
    r = hl.reset_cartesian(static_params())
    _, v = r.apply(0.0, np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    assert np.allclose(v, [0.0, 1.0], atol=1e-15)


def test_reset_cartesian_moving_wall():
    wall = lambda t: 1.0
    rate = lambda t: 0.5
    r = hl.reset_cartesian(hl.BilliardParams(c=0.0, wall=wall,
                                             wall_rate=rate))
    _, v = r.apply(0.0, np.array([1.0, 0.0]), np.array([1.0, 0.0]))
    assert v[0] == pytest.approx(-0.5, abs=1e-15)


def test_reset_polar_specular():
    r = hl.reset_polar(static_params())
    _, v = r.apply(0.0, np.array([1.0, 0.7]), np.array([1.0, 2.0]))
    assert v[0] == pytest.approx(-1.0, abs=1e-14)
    assert v[1] == 2.0  # angular velocity untouched


def test_reset_polar_resting_state():
    r = hl.reset_polar(static_params())
    _, v = r.apply(0.0, np.array([1.0, 0.0]), np.array([0.0, 1.0]))
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
        reset(p).apply(WALL_COLLAPSE_TIME, np.array([0.0, 0.0]),
                       np.array([1.0, 0.0]))


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

def test_analytic_arc_straight_line():
    p = static_params(c=0.0)
    s = hl.analytic_arc(p, mk_state(0.0, [0.1, 0.2], [1.0, -0.5]), 2.0)
    assert np.allclose(s.q, [2.1, -0.8], atol=1e-15)
    assert np.allclose(s.v, [1.0, -0.5], atol=0)


def test_analytic_arc_total_travel_limit():
    p = hl.BilliardParams(c=0.25)
    s = hl.analytic_arc(p, mk_state(0.0, [0.0, 0.0], [1.0, 0.0]), 300.0)
    assert s.q[0] == pytest.approx(p.m / p.c, abs=1e-12)
    assert abs(s.v[0]) < 1e-30


def test_analytic_arc_matches_independent_form(rng):
    p = hl.BilliardParams(c=0.25)
    for _ in range(20):
        q0 = rng.uniform(-1, 1, 2)
        v0 = rng.uniform(-3, 3, 2)
        dt = float(rng.uniform(0.0, 2.0))
        s = hl.analytic_arc(p, mk_state(0.5, q0, v0), dt)
        q_ref, v_ref = damped_flight(p.m, p.c, q0, v0, dt)
        assert np.allclose(s.q, q_ref, atol=1e-15)
        assert np.allclose(s.v, v_ref, atol=1e-15)


def test_analytic_arc_matches_integrator():
    sc = hl.get_scenario("paper-c025")
    sys = hl.cartesian_system(sc.params)
    s0 = sc.initial_cartesian
    hs = hybrid._inert_hybrid(sys)
    flow = hl.simulate(hs, s0, s0.t + 1.0)
    assert not flow.events
    sol = flow.arcs[0]
    for t in np.linspace(0.0, 1.0, 11):
        ref = hl.analytic_arc(sc.params, s0, t)
        y = sol(s0.t + t)
        assert np.max(np.abs(y[:2] - ref.q)) <= 1e-10
        assert np.max(np.abs(y[2:] - ref.v)) <= 1e-10


def test_reference_flow_static_wall_times():
    p = static_params(c=0.0)
    flow = hl.reference_flow(p, mk_state(0.0, [0.0, 0.0], [1.0, 0.0]), 10.0)
    assert flow.termination == "horizon_reached"
    assert np.allclose(flow.event_times(), [1.0, 3.0, 5.0, 7.0, 9.0],
                       atol=1e-12)
    post = flow.events[0].post
    assert np.allclose(post.v, [-1.0, 0.0], atol=1e-12)


def test_reference_flow_scenario_counts():
    for sid, count in (("paper-c025", C025_IMPACT_COUNT),
                       ("paper-c010", C010_IMPACT_COUNT)):
        sc = hl.get_scenario(sid)
        flow = hl.reference_flow(sc.params, sc.initial_cartesian, sc.horizon)
        assert flow.termination == "zeno_suspected"
        assert len(flow.events) == count, sid
        assert flow.events[-1].tau < WALL_COLLAPSE_TIME


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
        for t, y in zip(arc.times, arc.states):
            ref = hl.analytic_arc(p, s_start, t - s_start.t)
            worst = max(worst, float(np.max(np.abs(ref.q - y[:2]))),
                        float(np.max(np.abs(ref.v - y[2:]))))
    assert worst <= 1e-8
