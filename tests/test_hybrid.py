import dataclasses

import numpy as np
import pytest

import hybridlag as hl


def static_billiard(c=0.0, radius_sq=1.0, **kw):
    wall, rate = hl.static_wall(radius_sq)
    return hl.BilliardParams(c=c, wall=wall, wall_rate=rate, **kw)


@pytest.fixture(scope="module")
def unit_wall_hybrid():
    return hl.cartesian_hybrid(static_billiard())


def center_start():
    return hl.State(0.0, np.zeros(2), np.array([1.0, 0.0]))


# ---------------------------------------------------------------------------
# simulate semantics
# ---------------------------------------------------------------------------

def test_single_bounce_static_wall(unit_wall_hybrid):
    flow = hl.simulate(unit_wall_hybrid, center_start(), 2.0)
    assert flow.termination == "horizon_reached"
    assert len(flow.events) == 1
    ev = flow.events[0]
    assert ev.tau == pytest.approx(1.0, abs=1e-9)
    assert np.allclose(ev.pre.q, [1.0, 0.0], atol=1e-9)
    assert np.allclose(ev.post.v, [-1.0, 0.0], atol=1e-9)
    assert flow.t_final == 2.0


def test_empty_horizon_is_single_degenerate_arc(unit_wall_hybrid):
    flow = hl.simulate(unit_wall_hybrid, center_start(), 0.0)
    assert len(flow.arcs) == 1 and not flow.events
    assert flow.arcs[0].t_start == flow.arcs[0].t_end == 0.0
    assert flow.termination == "horizon_reached"


def test_periodic_bounces_static_wall(unit_wall_hybrid):
    # diameter crossings: impacts at t = 1, 3, 5, 7, 9
    flow = hl.simulate(unit_wall_hybrid, center_start(), 10.0)
    assert len(flow.events) == 5
    assert np.allclose(flow.event_times(), [1.0, 3.0, 5.0, 7.0, 9.0],
                       atol=1e-8)


def test_flow_invariants(unit_wall_hybrid):
    flow = hl.simulate(unit_wall_hybrid, center_start(), 10.0)
    reset = unit_wall_hybrid.reset
    guard = unit_wall_hybrid.guard
    for i, arc in enumerate(flow.arcs[:-1]):
        assert arc.t_end == flow.arcs[i + 1].t_start
        assert arc.t_start <= arc.t_end
    for i, ev in enumerate(flow.events):
        # impact lies on the guard and is admissible
        assert abs(guard.surface(ev.pre)) <= 1e-8 * max(
            1.0, abs(guard.direction(ev.pre)))
        assert guard.direction(ev.pre) >= 0.0
        # stored post state is exactly the reset image
        again = reset.apply(ev.pre)
        assert np.array_equal(again.q, ev.post.q)
        assert np.array_equal(again.v, ev.post.v)
        # next arc starts at the post state
        nxt = flow.arcs[i + 1]
        assert nxt.times[0] == ev.tau
        assert np.array_equal(nxt.states[0][:2], ev.post.q)
        assert np.array_equal(nxt.states[0][2:], ev.post.v)


def test_guard_sign_bounded_along_arcs(unit_wall_hybrid):
    flow = hl.simulate(unit_wall_hybrid, center_start(), 10.0)
    g = unit_wall_hybrid.guard.surface
    for arc in flow.arcs:
        for t, y in zip(arc.times, arc.states):
            assert g(hl.State(t, y[:2], y[2:])) <= 1e-8


def test_event_times_strictly_increase(unit_wall_hybrid):
    flow = hl.simulate(unit_wall_hybrid, center_start(), 10.0)
    taus = flow.event_times()
    assert np.all(np.diff(taus) >= flow.options.min_dwell)


def test_determinism_identical_records(unit_wall_hybrid):
    a = hl.simulate(unit_wall_hybrid, center_start(), 10.0)
    b = hl.simulate(unit_wall_hybrid, center_start(), 10.0)
    assert len(a.events) == len(b.events)
    for ea, eb in zip(a.events, b.events):
        assert ea.tau == eb.tau
        assert np.array_equal(ea.pre.v, eb.pre.v)
    for arc_a, arc_b in zip(a.arcs, b.arcs):
        assert np.array_equal(arc_a.times, arc_b.times)
        assert np.array_equal(arc_a.states, arc_b.states)


def test_invalid_start_outside(unit_wall_hybrid):
    with pytest.raises(hl.InvalidStart):
        hl.simulate(unit_wall_hybrid,
                    hl.State(0.0, np.array([2.0, 0.0]), np.array([1.0, 0.0])),
                    1.0)


def test_invalid_start_on_guard_entering(unit_wall_hybrid):
    with pytest.raises(hl.InvalidStart):
        hl.simulate(unit_wall_hybrid,
                    hl.State(0.0, np.array([1.0, 0.0]), np.array([1.0, 0.0])),
                    1.0)


def test_start_on_guard_leaving_is_accepted(unit_wall_hybrid):
    flow = hl.simulate(unit_wall_hybrid,
                       hl.State(0.0, np.array([1.0, 0.0]),
                                np.array([-1.0, 0.0])), 1.5)
    assert flow.termination == "horizon_reached"
    assert not flow.events


def test_max_impacts_termination(unit_wall_hybrid):
    opts = hl.SimOptions(max_impacts=3)
    flow = hl.simulate(unit_wall_hybrid, center_start(), 10.0, opts)
    assert flow.termination == "max_impacts"
    assert len(flow.events) == 3


def test_strict_mode_raises_on_caps(unit_wall_hybrid):
    opts = hl.SimOptions(max_impacts=2, strict=True)
    with pytest.raises(hl.ZenoSuspected) as err:
        hl.simulate(unit_wall_hybrid, center_start(), 10.0, opts)
    assert len(err.value.flow.events) == 2


def test_zeno_termination_on_collapsing_wall():
    # the bundled moving wall closes at 10 ln 2; impacts accumulate there
    sc = hl.get_scenario("paper-c025")
    flow = hl.simulate(hl.cartesian_hybrid(sc.params), sc.initial_cartesian,
                       10.0)
    assert flow.termination == "zeno_suspected"
    assert flow.events[-1].tau == pytest.approx(6.9314718, abs=1e-4)
    dwells = np.diff(flow.event_times())
    assert dwells[-1] >= flow.options.min_dwell
    assert dwells[-1] <= 1e-8  # the accumulation was actually resolved


def test_uncapped_steps_lose_the_accumulation():
    # without the post-impact step ceiling the fixed-resolution scan
    # eventually misses the shrinking guard dip: the run coasts to the
    # horizon with fewer impacts than the resolved accumulation has
    sc = hl.get_scenario("paper-c025")
    opts = hl.SimOptions(post_impact_step_factor=None)
    flow = hl.simulate(hl.cartesian_hybrid(sc.params), sc.initial_cartesian,
                       10.0, opts)
    assert flow.termination == "horizon_reached"
    assert flow.t_final == 10.0
    assert 10 <= len(flow.events) < 41


def test_reset_must_preserve_time(unit_wall_hybrid):
    bad = dataclasses.replace(
        unit_wall_hybrid,
        reset=hl.ResetMap(apply=lambda s: hl.State(s.t + 0.1, s.q.copy(),
                                                   -s.v)))
    with pytest.raises(hl.InvalidReset):
        hl.simulate(bad, center_start(), 2.0)


def test_reset_retrigger_rejected(unit_wall_hybrid):
    # identity reset leaves the state exiting the guard: must be refused
    bad = dataclasses.replace(unit_wall_hybrid,
                              reset=hl.ResetMap(apply=lambda s: s))
    with pytest.raises(hl.InvalidReset):
        hl.simulate(bad, center_start(), 2.0)


def test_guard_continuity_bound_triggers():
    params = static_billiard()
    hs = hl.cartesian_hybrid(params)
    jumpy = dataclasses.replace(
        hs, guard=hl.Guard(
            surface=lambda s: s.q[0]**2 + s.q[1]**2 - (1.0 if s.t < 0.5
                                                       else 100.0),
            direction=lambda s: 1.0))
    opts = hl.SimOptions(guard_jump_bound=1.0)
    with pytest.raises(hl.IntegrationFailure):
        hl.simulate(jumpy, center_start(), 2.0, opts)


# ---------------------------------------------------------------------------
# locate_event
# ---------------------------------------------------------------------------

def test_locate_event_linear_in_time():
    sys = hl.build_model("free-particle").system
    hs = hl.HybridSystem(system=sys,
                         guard=hl.Guard(surface=lambda s: s.t - 1.0,
                                        direction=lambda s: 1.0),
                         reset=hl.ResetMap(apply=lambda s: s))
    sa = hl.State(0.9, np.zeros(2), np.array([1.0, 0.0]))
    sb = hl.State(1.1, np.array([0.2, 0.0]), np.array([1.0, 0.0]))
    ev = hl.locate_event(hs, (sa, sb))
    assert ev.t == pytest.approx(1.0, abs=1e-10)


def test_locate_event_billiard_crossing(unit_wall_hybrid):
    sa = hl.State(0.5, np.array([0.5, 0.0]), np.array([1.0, 0.0]))
    sb = hl.State(1.5, np.array([1.5, 0.0]), np.array([1.0, 0.0]))
    ev = hl.locate_event(unit_wall_hybrid, (sa, sb))
    assert ev.t == pytest.approx(1.0, abs=1e-9)
    assert abs(unit_wall_hybrid.guard.surface(ev)) <= 1e-9


def test_locate_event_grazing_direction_zero_accepted(unit_wall_hybrid):
    # closed inequality: an exactly-zero direction still counts
    hs = dataclasses.replace(
        unit_wall_hybrid,
        guard=dataclasses.replace(unit_wall_hybrid.guard,
                                  direction=lambda s: 0.0))
    sa = hl.State(0.5, np.array([0.5, 0.0]), np.array([1.0, 0.0]))
    sb = hl.State(1.5, np.array([1.5, 0.0]), np.array([1.0, 0.0]))
    ev = hl.locate_event(hs, (sa, sb))
    assert ev.t == pytest.approx(1.0, abs=1e-9)


def test_locate_event_direction_rejected(unit_wall_hybrid):
    hs = dataclasses.replace(
        unit_wall_hybrid,
        guard=dataclasses.replace(unit_wall_hybrid.guard,
                                  direction=lambda s: -1.0))
    sa = hl.State(0.5, np.array([0.5, 0.0]), np.array([1.0, 0.0]))
    sb = hl.State(1.5, np.array([1.5, 0.0]), np.array([1.0, 0.0]))
    with pytest.raises(hl.DirectionRejected):
        hl.locate_event(hs, (sa, sb))


def test_locate_event_bracket_invalid(unit_wall_hybrid):
    sa = hl.State(0.0, np.zeros(2), np.array([0.1, 0.0]))
    sb = hl.State(0.5, np.array([0.05, 0.0]), np.array([0.1, 0.0]))
    with pytest.raises(hl.BracketInvalid):
        hl.locate_event(unit_wall_hybrid, (sa, sb))


def test_locate_event_left_state_on_rising_guard(unit_wall_hybrid):
    # a left state exactly on the guard and moving out is its own crossing
    sa = hl.State(1.0, np.array([1.0, 0.0]), np.array([1.0, 0.0]))
    sb = hl.State(1.5, np.array([1.5, 0.0]), np.array([1.0, 0.0]))
    assert unit_wall_hybrid.guard.surface(sa) == 0.0
    ev = hl.locate_event(unit_wall_hybrid, (sa, sb))
    assert ev.t == sa.t
    assert np.array_equal(ev.q, sa.q) and np.array_equal(ev.v, sa.v)


# ---------------------------------------------------------------------------
# hybrid correspondence of the two phase-space pictures
# ---------------------------------------------------------------------------

def test_hybrid_equivalence_static_wall(unit_wall_hybrid):
    rep = hl.check_hybrid_equivalence(unit_wall_hybrid, center_start(), 4.5,
                                      tol=1e-6)
    assert rep.passed, str(rep)
    assert rep.events_velocity_side == rep.events_momentum_side == 2


@pytest.mark.parametrize("sid", ["paper-c025", "paper-c010"])
def test_hybrid_equivalence_moving_wall(sid):
    sc = hl.get_scenario(sid)
    hs = hl.cartesian_hybrid(sc.params)
    rep = hl.check_hybrid_equivalence(hs, sc.initial_cartesian, 5.0, tol=1e-6)
    assert rep.passed, str(rep)


def test_hybrid_equivalence_no_events_reduces_to_flow_check():
    sc = hl.get_scenario("paper-c025")
    hs = hl.cartesian_hybrid(sc.params)
    rep = hl.check_hybrid_equivalence(hs, sc.initial_cartesian, 0.1, tol=1e-6)
    assert rep.passed
    assert rep.events_velocity_side == 0 == rep.events_momentum_side
    assert rep.max_event_time_delta == 0.0


def test_concurrent_runs_share_system_safely(unit_wall_hybrid):
    # systems are immutable and runs own their state: concurrent
    # simulations on one shared system must all reproduce the serial run
    from concurrent.futures import ThreadPoolExecutor

    serial = hl.simulate(unit_wall_hybrid, center_start(), 10.0)
    with ThreadPoolExecutor(max_workers=4) as pool:
        flows = list(pool.map(
            lambda _: hl.simulate(unit_wall_hybrid, center_start(), 10.0),
            range(8)))
    for flow in flows:
        assert np.array_equal(flow.event_times(), serial.event_times())
        for arc_a, arc_b in zip(flow.arcs, serial.arcs):
            assert np.array_equal(arc_a.states, arc_b.states)
