import dataclasses
import math

import numpy as np
import pytest
from conftest import no_hang
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import hybridlag as hl
from hybridlag import verification


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


def _paper_c025(chart):
    """The paper-c025 hybrid system and start in `chart`."""
    sc = hl.get_scenario("paper-c025")
    return (getattr(hl, f"{chart}_hybrid")(sc.params),
            getattr(sc, f"initial_{chart}"))


def _simulated(hs, s0, t_end):
    return hl.simulate(hs, s0, t_end), hs


def _capped(hs, cap):
    """`hs` run from the centre to t = 10 under an impact cap of `cap`."""
    from hybridlag import hybrid

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hybrid, "MAX_IMPACTS", cap)
        return _simulated(hs, center_start(), 10.0)


def _resequenced_c025(t_end):
    sc = hl.get_scenario("paper-c025")
    rec = hl.simulate_resequenced(hl.polar_cyclic(sc.params),
                                  sc.initial_polar, t_end)
    # its reset switches to the system rebuilt at each post-impact momentum
    return rec.reduced, None


def _reference_c025(t_end):
    sc = hl.get_scenario("paper-c025")
    return (hl.reference_flow(sc.params, sc.initial_cartesian, t_end),
            hl.cartesian_hybrid(sc.params))


# every producer of a HybridFlow: id -> (run(unit_wall_hybrid) giving the
# flow and the hybrid system whose guard and reset its impacts obey, or
# None; horizon; termination)
FLOW_RUNS = {
    "unit-wall": (lambda hs: _simulated(hs, center_start(), 10.0), 10.0,
                  "horizon_reached"),
    "polar-c025": (lambda hs: _simulated(*_paper_c025("polar"), 10.0), 10.0,
                   "zeno_suspected"),
    "cartesian-c025": (lambda hs: _simulated(*_paper_c025("cartesian"), 3.0),
                       3.0, "horizon_reached"),
    "max-impacts": (lambda hs: _capped(hs, 5), 10.0, "max_impacts"),
    "resequenced-c025": (lambda hs: _resequenced_c025(10.0), 10.0,
                         "zeno_suspected"),
    "reference-c025": (lambda hs: _reference_c025(10.0), 10.0,
                       "zeno_suspected"),
    "empty-horizon": (lambda hs: _simulated(hs, center_start(), 0.0), 0.0,
                      "horizon_reached"),
}


@pytest.mark.parametrize("run", list(FLOW_RUNS))
def test_flow_invariants(unit_wall_hybrid, run):
    make, t_end, termination = FLOW_RUNS[run]
    flow, hs = make(unit_wall_hybrid)
    assert flow.termination == termination
    for arc in flow.arcs:
        # an arc spans its grid, which never runs backwards
        assert arc.t_start == arc.times[0] and arc.t_end == arc.times[-1]
        assert np.all(np.diff(arc.times) >= 0.0)
    # no arc follows the impact that reaches the cap
    assert len(flow.arcs) == len(flow.events) + (termination != "max_impacts")
    if termination == "horizon_reached":
        assert flow.arcs[-1].t_end == t_end
    for i, ev in enumerate(flow.events):
        # arc i ends and arc i + 1 starts at the impact, from its post state
        assert flow.arcs[i].t_end == ev.tau
        if i + 1 < len(flow.arcs):
            nxt = flow.arcs[i + 1]
            assert nxt.t_start == ev.tau
            n = len(ev.post.q)
            assert np.array_equal(nxt.states[0][:n], ev.post.q)
            assert np.array_equal(nxt.states[0][n:], ev.post.v)
        if hs is None:
            continue
        # impact lies on the guard and is admissible
        pre, guard = ev.pre, hs.guard
        assert abs(guard.surface(pre.t, pre.q, pre.v)) <= 1e-8 * max(
            1.0, abs(guard.direction(pre.t, pre.q, pre.v)))
        assert guard.direction(pre.t, pre.q, pre.v) >= 0.0
        # stored post state is exactly the reset image
        q_post, v_post = hs.reset.apply(ev.tau, pre.q, pre.v)
        assert np.array_equal(q_post, ev.post.q)
        assert np.array_equal(v_post, ev.post.v)


def test_guard_sign_bounded_along_arcs(unit_wall_hybrid):
    flow = hl.simulate(unit_wall_hybrid, center_start(), 10.0)
    g = unit_wall_hybrid.guard.surface
    for arc in flow.arcs:
        for t, y in zip(arc.times, arc.states):
            assert g(t, y[:2], y[2:]) <= 1e-8


def test_event_times_strictly_increase(unit_wall_hybrid):
    from hybridlag import hybrid

    flow = hl.simulate(unit_wall_hybrid, center_start(), 10.0)
    taus = flow.event_times()
    assert np.all(np.diff(taus) >= hybrid.MIN_DWELL)


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


def test_horizon_before_start_is_invalid_start():
    # raised before any step: the stepper would otherwise integrate
    # backward and fail in the dense-output bookkeeping
    sc = hl.get_scenario("paper-c025")
    s0 = dataclasses.replace(sc.initial_cartesian, t=2.0)
    with pytest.raises(hl.InvalidStart, match="precedes the start time"):
        hl.simulate(hl.cartesian_hybrid(sc.params), s0, 1.0)


@pytest.mark.parametrize("chart", ["cartesian", "polar"])
@pytest.mark.parametrize("part", ["q", "v"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_start_is_invalid_start(chart, part, bad):
    sc = hl.get_scenario("paper-c025")
    hs = getattr(hl, f"{chart}_hybrid")(sc.params)
    s0 = getattr(sc, f"initial_{chart}")
    vec = getattr(s0, part).copy()
    vec[0] = bad
    with pytest.raises(hl.InvalidStart, match="not finite"):
        hl.simulate(hs, dataclasses.replace(s0, **{part: vec}), 1.0)


def _oracle_and_executor(q, v, t_end):
    """reference_flow and simulate on the paper-c025 Cartesian billiard
    (wall |q|^2 = 1 at t = 0) from (0, q, v) to t_end."""
    p = hl.get_scenario("paper-c025").params
    s0 = hl.State(0.0, np.array(q), np.array(v))
    return [lambda: hl.reference_flow(p, s0, t_end),
            lambda: hl.simulate(hl.cartesian_hybrid(p), s0, t_end)]


def _flow_check(model_id, span):
    """check_flow_equivalence on `model_id` from its default start to
    span after it."""
    bundle = hl.build_model(model_id)
    s0 = bundle.default_initial
    return [lambda: hl.check_flow_equivalence(bundle.system, s0, s0.t + span)]


@pytest.mark.parametrize("entry_points", [
    lambda: _oracle_and_executor((0.5, 0.1), (1.0, 0.0), -1.0),
    lambda: _oracle_and_executor((np.nan, 0.1), (1.0, 0.0), 10.0),
    lambda: _oracle_and_executor((1.0, 0.0), (1.0, 0.0), 10.0),
    # an infinite horizon used to end in a Brent RuntimeError in the
    # oracle and a ZeroDivisionError in the step loop
    lambda: _oracle_and_executor((0.5, 0.1), (1.0, 0.0), math.inf),
    lambda: _flow_check("harmonic-1d", -1.0),
    lambda: _flow_check("free-particle", math.inf),
], ids=["oracle-backwards", "oracle-non-finite", "oracle-on-wall-heading-out",
        "oracle-infinite-horizon", "flow-check-backwards",
        "flow-check-infinite-horizon"])
def test_bad_start_is_invalid_start_from_every_entry_point(entry_points):
    for run in entry_points():
        with pytest.raises(hl.InvalidStart):
            run()


def test_start_on_guard_leaving_is_accepted(unit_wall_hybrid):
    flow = hl.simulate(unit_wall_hybrid,
                       hl.State(0.0, np.array([1.0, 0.0]),
                                np.array([-1.0, 0.0])), 1.5)
    assert flow.termination == "horizon_reached"
    assert not flow.events


def test_max_impacts_termination(unit_wall_hybrid):
    flow, _ = _capped(unit_wall_hybrid, 3)
    assert flow.termination == "max_impacts"
    assert len(flow.events) == 3


def test_oracle_and_executor_stop_at_the_same_cap(monkeypatch):
    from hybridlag import billiard, hybrid

    monkeypatch.setattr(hybrid, "MAX_IMPACTS", 3)
    monkeypatch.setattr(billiard, "MAX_IMPACTS", 3)
    p = static_billiard()
    s0 = hl.State(0.0, np.zeros(2), np.array([1.0, 0.3]))
    flow = hl.simulate(hl.cartesian_hybrid(p), s0, 10.0)
    ref = hl.reference_flow(p, s0, 10.0)
    for run in (flow, ref):
        assert run.termination == "max_impacts"
        assert len(run.events) == 3
    assert flow.event_time_delta(ref) <= 1e-8


def _with_direction(hs, value):
    """`hs` with its guard's direction replaced by the constant value."""
    def direction(t, q, v):
        return value

    return dataclasses.replace(
        hs, guard=dataclasses.replace(hs.guard, direction=direction))


def test_grazing_direction_zero_is_an_impact(unit_wall_hybrid):
    # closed inequality: a crossing with direction exactly 0 counts
    flow = hl.simulate(_with_direction(unit_wall_hybrid, 0.0),
                       center_start(), 1.5)
    assert flow.events[0].tau == pytest.approx(1.0, abs=1e-9)


def test_crossing_with_negative_direction_is_skipped(unit_wall_hybrid):
    flow = hl.simulate(_with_direction(unit_wall_hybrid, -1.0),
                       center_start(), 2.0)
    assert flow.termination == "horizon_reached"
    assert not flow.events
    assert len(flow.arcs) == 1


def test_zeno_termination_on_collapsing_wall():
    # the bundled moving wall closes at 10 ln 2; impacts accumulate there
    from hybridlag import hybrid

    sc = hl.get_scenario("paper-c025")
    flow = hl.simulate(hl.cartesian_hybrid(sc.params), sc.initial_cartesian,
                       10.0)
    assert flow.termination == "zeno_suspected"
    assert flow.events[-1].tau == pytest.approx(6.9314718, abs=1e-4)
    dwells = np.diff(flow.event_times())
    assert dwells[-1] >= hybrid.MIN_DWELL
    assert dwells[-1] <= 1e-8  # the accumulation was actually resolved


# Runs whose arcs start on the guard with a dip below it shorter than one
# scan interval, which the scan finds through the minimum of the guard;
# with a sign test alone, all but the paper run missed impacts (0 of 50
# from on and just outside the wall, 4 of 7, and 6 of 11 after crawling
# to the horizon). The sweep starts are cases 0 and 27 of the benchmark's
# seed-1 cartesian-sweep.
PAPER_C025 = hl.get_scenario("paper-c025")
ORACLE_RUNS = {
    "grazing-static-wall": (static_billiard(), (1.0, 0.0), (-1e-4, 1.0),
                            0.01, 50),
    # g = 1e-10 at the start: accepted as on the guard, within GUARD_TOL
    "grazing-just-outside": (static_billiard(), (1.00000000005, 0.0),
                             (-1e-4, 1.0), 0.01, 50),
    "sweep-000": (hl.BilliardParams(c=0.06421726735278491),
                  (-0.45291046761709836, -0.3188799724696672),
                  (-0.0673930368899194, 0.046451316399299614), 10.0, 7),
    "sweep-027": (hl.BilliardParams(c=0.14102475566792697),
                  (-0.491880191368867, -0.28676075711268867),
                  (-0.0781942307831347, 0.3227087147363463), 10.0, 11),
    "paper-c025": (PAPER_C025.params, PAPER_C025.initial_cartesian.q,
                   PAPER_C025.initial_cartesian.v, 10.0, 41),
}


def assert_matches_oracle(params, s0, t_end, polar=False):
    """simulate, in the Cartesian or the polar chart, agrees with
    reference_flow from the Cartesian s0 on the impact count, the
    termination and every impact time (1e-8), and a rerun is
    bit-identical."""
    if polar:
        hs, start = hl.polar_hybrid(params), hl.cartesian_to_polar(s0)
    else:
        hs, start = hl.cartesian_hybrid(params), s0
    with no_hang(10):
        flow = hl.simulate(hs, start, t_end)
        again = hl.simulate(hs, start, t_end)
    ref = hl.reference_flow(params, s0, t_end)
    assert len(flow.events) == len(ref.events), \
        (flow.termination, ref.termination)
    assert flow.termination == ref.termination
    if ref.events:
        assert np.max(np.abs(flow.event_times()
                             - ref.event_times())) <= 1e-8
    assert np.array_equal(again.event_times(), flow.event_times())
    assert all(np.array_equal(a.states, b.states)
               for a, b in zip(again.arcs, flow.arcs))
    return flow


@pytest.mark.parametrize("name", ORACLE_RUNS)
def test_arcs_starting_on_the_guard_match_oracle(name):
    params, q0, v0, t_end, impacts = ORACLE_RUNS[name]
    s0 = hl.State(0.0, np.array(q0), np.array(v0))
    flow = assert_matches_oracle(params, s0, t_end)
    assert len(flow.events) == impacts


def _oscillating_wall():
    return hl.BilliardParams(wall=lambda t: 1.0 + 0.3 * math.sin(3.0 * t),
                             wall_rate=lambda t: 0.9 * math.cos(3.0 * t))


# (eps, tangential speed) of a particle at r0^2 = 0.7 + eps inside the
# breathing wall f = 1 + 0.3 sin 3t, which sweeps through it near
# t = pi/2: a strike between two scan samples of one long step, which a
# sign test of the guard alone misses, to run on outside the wall
BREATHING_WALL_STARTS = {"rest-1e-3": (1e-3, 0.0), "rest-1e-6": (1e-6, 0.0),
                         "drift-1e-6": (1e-6, 1e-3)}


@pytest.mark.parametrize("start", list(BREATHING_WALL_STARTS))
@pytest.mark.parametrize("chart", ["cartesian", "polar"])
def test_strike_between_scan_samples_is_found(chart, start):
    from hybridlag import hybrid

    eps, speed = BREATHING_WALL_STARTS[start]
    params = _oscillating_wall()
    s0 = hl.State(0.0, np.array([math.sqrt(0.7 + eps), 0.0]),
                  np.array([0.0, speed]))
    if chart == "polar":
        hs, s0 = hl.polar_hybrid(params), hl.cartesian_to_polar(s0)
    else:
        hs = hl.cartesian_hybrid(params)
    flow = hl.simulate(hs, s0, 3.0)
    assert len(flow.events) == 1
    for arc in flow.arcs:
        ts = np.linspace(arc.t_start, arc.t_end, 2000)
        ys = arc(ts)
        assert max(hs.guard.surface(t, y[:2], y[2:])
                   for t, y in zip(ts.tolist(), ys.T)) <= hybrid.GUARD_TOL


def _recorded_refines(monkeypatch):
    """Patch `hybrid._refine` to log (g or d, root) of every refinement."""
    from hybridlag import hybrid

    refine, refines = hybrid._refine, []

    def recorded(f, a, b, fa, fb):
        root = refine(f, a, b, fa, fb)
        refines.append((f.__name__, root))
        return root

    monkeypatch.setattr(hybrid, "_refine", recorded)
    return refines


def test_first_interval_minimum_on_or_above_the_wall_is_the_impact(
        monkeypatch):
    # a start 5e-9 outside the static unit wall (within GUARD_TOL),
    # heading in almost tangentially: the guard's minimum at t ~ 1e-5
    # stays above the wall, so the wall catches the particle there and
    # no crossing is refined
    refines = _recorded_refines(monkeypatch)
    s0 = hl.State(0.0, np.array([math.sqrt(1.0 + 5e-9), 0.0]),
                  np.array([-1e-5, 1.0]))
    flow = hl.simulate(hl.cartesian_hybrid(static_billiard()), s0, 0.5)
    assert len(flow.events) == 1
    assert flow.events[0].tau == pytest.approx(1.0e-5, rel=1e-3)
    assert ("d", flow.events[0].tau) in refines
    assert all(name == "d" for name, _ in refines)


@pytest.mark.parametrize("chart", ["cartesian", "polar"])
def test_maximum_below_the_wall_is_no_impact(monkeypatch, chart):
    # a particle at rest at r^2 = 0.6 inside the breathing wall
    # f = 1 + 0.3 sin 3t, which never comes within 0.1 of it: the guard's
    # maximum is located and, lying below the wall, brackets nothing
    refines = _recorded_refines(monkeypatch)
    s0 = hl.State(0.0, np.array([math.sqrt(0.6), 0.0]), np.zeros(2))
    hs = getattr(hl, f"{chart}_hybrid")(_oscillating_wall())
    flow = hl.simulate(hs, s0, 6.0)
    assert flow.events == [] and flow.termination == "horizon_reached"
    assert refines and all(name == "d" for name, _ in refines)


def _scalar_only(hs):
    """`hs` with a guard whose surface and direction raise on an array of
    times."""
    def scalar(fun):
        def f(t, q, v):
            if isinstance(t, np.ndarray):
                raise AssertionError("guard called on an array of times")
            return fun(t, q, v)
        return f

    return dataclasses.replace(hs, guard=hl.Guard(
        surface=scalar(hs.guard.surface),
        direction=scalar(hs.guard.direction)))


def test_guards_are_called_on_one_time_only():
    # every run that calls a guard, on the paper wall with a guard that
    # takes one time: both charts, a reduce-once run and a resequenced run
    # through the embed-based reduced guard, and the momentum side of the
    # equivalence check
    sc = hl.get_scenario("paper-c025")
    for chart in ("cartesian", "polar"):
        hs, s0 = _paper_c025(chart)
        flow = hl.simulate(_scalar_only(hs), s0, 3.0)
        assert len(flow.events) >= 2, chart
    cyc = dataclasses.replace(hl.polar_cyclic(sc.params),
                              full=_scalar_only(hl.polar_hybrid(sc.params)),
                              reduced_guard_factory=None)
    red = hl.reduce(cyc, hl.momentum_map(cyc, sc.initial_polar))
    flow = hl.simulate(red.shape, cyc.project_state(sc.initial_polar), 3.0)
    assert len(flow.events) >= 2
    rec = hl.simulate_resequenced(cyc, sc.initial_polar, 3.0)
    assert len(rec.reduced.events) >= 2
    rep = hl.check_hybrid_equivalence(
        _scalar_only(hl.cartesian_hybrid(sc.params)), sc.initial_cartesian,
        3.0)
    assert rep.passed and rep.events_momentum_side >= 2, str(rep)


# the benchmark sweep's ranges, on the paper wall through its collapse.
# Hypothesis (6.155.2) draws some floats from the constants it finds in
# the non-test modules of src/ and perfbench/, so adding or removing a
# distinct float literal there changes the examples of both tests below,
# derandomized as they are: deleting only the arc-start probe's 1e-7 made
# the whole suite draw the radial start r = 0.771484375 (c = 0.1439,
# speed 0.1413), which hangs in the collapse tail, and the test failed.
# No literal is added or kept in the package to steer the draws
CLOSING_WALL_STARTS = dict(c=st.floats(0.05, 0.3), speed=st.floats(0.0, 3.0),
                           r=st.floats(0.2, 0.9),
                           angle=st.floats(-np.pi, np.pi),
                           turn=st.floats(-np.pi, np.pi))


def closing_wall_start(speed, r, angle, turn):
    return hl.State(0.0, r * np.array([np.cos(angle), np.sin(angle)]),
                    speed * np.array([np.cos(angle + turn),
                                      np.sin(angle + turn)]))


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(**CLOSING_WALL_STARTS)
def test_random_starts_on_closing_wall_match_oracle(c, speed, r, angle,
                                                    turn):
    # its draws follow the package's float literals (see above)
    assert_matches_oracle(hl.BilliardParams(c=c),
                          closing_wall_start(speed, r, angle, turn), 10.0)


@settings(derandomize=True, database=None, max_examples=20, deadline=None)
@given(**CLOSING_WALL_STARTS)
# its stepper collapsed 2.2e-13 after the 4th impact, where the oracle
# and the Cartesian run end zeno_suspected
@example(c=0.25, speed=0.1875, r=0.5, angle=0.0, turn=3.0)
def test_random_polar_starts_on_closing_wall_match_oracle(c, speed, r, angle,
                                                          turn):
    # its draws follow the package's float literals (see above
    # CLOSING_WALL_STARTS). The polar chart takes the widest steps. It
    # cannot pass through the origin: starts with an angular momentum
    # |q x v| of 1.5e-3 were seen to reach r_min before the collapse,
    # where the chart raises ChartSingularity
    assume(r * speed * abs(np.sin(turn)) >= 0.01)
    assert_matches_oracle(hl.BilliardParams(c=c),
                          closing_wall_start(speed, r, angle, turn), 10.0,
                          polar=True)


def test_paper_polar_run_takes_high_order_steps():
    # DOP853 takes 1310 steps here and the Dormand-Prince 5(4) pair 6343;
    # the bound catches a silent fall back to a low-order stepper
    sc = hl.get_scenario("paper-c025")
    flow = hl.simulate(hl.polar_hybrid(sc.params), sc.initial_polar, 10.0)
    assert len(flow.events) == 41
    assert sum(arc.times.size - 1 for arc in flow.arcs) <= 1500


def test_non_finite_field_at_arc_start_raises():
    # scipy's stepper would take a NaN step size and reject it forever
    bundle = hl.build_model("harmonic-1d")
    sys = dataclasses.replace(
        bundle.system, acceleration=lambda t, q, v: [math.nan] * len(q))
    hs = dataclasses.replace(bundle.hybrid, system=sys)
    s0 = hl.State(0.0, np.array([1.0]), np.array([0.5]))
    with no_hang(10), pytest.raises(hl.IntegrationFailure, match="not finite"):
        hl.simulate(hs, s0, 1.0)


def test_field_turning_non_finite_ends_integration_failure():
    # q'' = -q until t = 0.5 and NaN after: every step across t = 0.5 is
    # rejected until the step size falls below 10 ulp, and the run ends
    # integration_failure at the last accepted step, under a guard that
    # never triggers
    bundle = hl.build_model("harmonic-1d")
    sys = dataclasses.replace(
        bundle.system, acceleration=lambda t, q, v: (
            [-x for x in q] if t < 0.5 else [math.nan] * len(q)))
    hs = dataclasses.replace(bundle.hybrid, system=sys)
    s0 = hl.State(0.0, np.array([1.0]), np.array([0.0]))
    with no_hang(10):
        flow = hl.simulate(hs, s0, 1.0)
    assert flow.termination == "integration_failure"
    assert flow.events == [] and len(flow.arcs) == 1
    assert flow.t_final == pytest.approx(0.5, abs=1e-12)
    assert flow.t_final < 0.5
    assert flow.arcs[0].states[-1, 0] == pytest.approx(math.cos(0.5),
                                                       abs=1e-9)


def test_reset_retrigger_rejected(unit_wall_hybrid):
    # identity reset leaves the state exiting the guard: must be refused
    bad = dataclasses.replace(
        unit_wall_hybrid, reset=hl.ResetMap(apply=lambda t, q, v: (q, v)))
    with pytest.raises(hl.InvalidReset):
        hl.simulate(bad, center_start(), 2.0)


def _outward_reset(hs):
    """`hs` with a reset that moves q outside the wall: (1.2 q, -v)."""
    return dataclasses.replace(hs, reset=hl.ResetMap(
        apply=lambda t, q, v: (1.2 * q, -v)))


def test_reset_outside_the_wall_rejected(unit_wall_hybrid):
    # the post-impact state leaves the wall (d < 0), but from g = 0.44
    # outside it; a check of d alone let the run go on to the horizon
    # there. Every arc start is held to g <= GUARD_TOL max(1, |d|)
    with no_hang(10), pytest.raises(hl.InvalidReset, match="g=4.400e-01"):
        hl.simulate(_outward_reset(unit_wall_hybrid), center_start(), 2.5)


def test_momentum_side_reset_outside_the_wall_rejected(unit_wall_hybrid):
    # the momentum-side run checks its arc starts by the same rule
    from hybridlag import hybrid

    hs, s0 = _outward_reset(unit_wall_hybrid), center_start()
    cs0 = hs.system.legendre(s0)
    with no_hang(10), pytest.raises(hl.InvalidReset):
        hybrid._execute(hybrid._momentum_mode(hs, s0.v), cs0.t,
                        np.concatenate([cs0.q, cs0.p]), 2.5)


@pytest.mark.parametrize("q0, v0", [
    ((math.sqrt(1.0 - 1e-10), 0.0), (1.0, 0.0)),
    ((1.0, 0.0), (0.0, 1.0)),
], ids=["1e-10-inside-heading-out", "tangent"])
def test_start_on_the_guard_not_leaving_is_invalid_start(q0, v0):
    # within GUARD_TOL of the static unit wall with d >= 0, a start is
    # admissible only if a free step moves it inward. Heading out from
    # 1e-10 inside, the run used to cross at once and then crawl at a
    # step ceiling of that 5e-11 dwell; the tangent start's free step
    # raises g by 9.99e-15. The oracle applies the same rule
    params = static_billiard()
    s0 = hl.State(0.0, np.array(q0), np.array(v0))
    for run in (lambda: hl.simulate(hl.cartesian_hybrid(params), s0, 2.5),
                lambda: hl.reference_flow(params, s0, 2.5)):
        with no_hang(10), pytest.raises(hl.InvalidStart):
            run()


def _guard_calls_of_run(chart):
    """The paper-c025 run of `chart` to t=10, and how often its guard
    surface and rate were called at each (t, q, v), keyed by
    (name, t, *q, *v)."""
    calls = {}

    def recorded(name, fun):
        def f(t, q, v):
            key = (name, t, *q.tolist(), *v.tolist())
            calls[key] = calls.get(key, 0) + 1
            return fun(t, q, v)
        return f

    hs, s0 = _paper_c025(chart)
    hs = dataclasses.replace(hs, guard=hl.Guard(
        surface=recorded("surface", hs.guard.surface),
        direction=recorded("direction", hs.guard.direction)))
    flow = hl.simulate(hs, s0, 10.0)
    assert len(flow.events) == 41
    return flow, calls


@pytest.mark.parametrize("chart", ["cartesian", "polar"])
def test_each_arc_start_is_evaluated_once(chart):
    # an arc-start check's g and d are the first scan sample of the arc's
    # first step, so over a whole run each arc start (t, y) gets one call
    # of the surface and one of its rate, after an impact too
    flow, calls = _guard_calls_of_run(chart)
    for arc in flow.arcs:
        start = (arc.t_start, *arc.states[0].tolist())
        assert calls[("surface", *start)] == 1
        assert calls[("direction", *start)] == 1


@pytest.mark.parametrize("chart", ["cartesian", "polar"])
def test_guard_samples_each_breakpoint_at_its_grid_state(chart):
    # the scan samples a step's end at the step loop's own state, which
    # the arc's grid holds, and carries it to the next step as its first
    # sample: every grid point (t_k, arc.states[k]) after the arc start
    # gets one call of the surface and one of its rate, the arc's end
    # too (the horizon, or the impact located by the refinement)
    flow, calls = _guard_calls_of_run(chart)
    assert sum(arc.times.size - 2 for arc in flow.arcs) > 0
    for arc in flow.arcs:
        for t, y in zip(arc.times[1:].tolist(), arc.states[1:].tolist()):
            assert calls[("surface", t, *y)] == 1, t
            assert calls[("direction", t, *y)] == 1, t


def test_scan_evaluates_dense_output_once_per_step(monkeypatch):
    # the scan makes one scalar call of the dense output per interior
    # sample of an accepted step, and calls the guard surface and then its
    # rate at each new sample, in time order: the interior ones and the
    # step's end, whose state is the step loop's. Every other dense
    # evaluation is a Brent iterate: the bracket ends come from the scan
    # and the pre-impact state from the refinement. Outside the scan rule,
    # the only other guard calls are the arc-start checks, whose surface
    # and rate are the first sample of the arc's first step, as each
    # step's end is the next step's first; the rule calls the surface once
    # per Brent iterate, and the impact's residual is the refinement's.
    # The oracle's convex search is not called
    from hybridlag import billiard, hybrid

    counts = dict(steps=0, dense=0, brent_evals=0, refines=0)
    surface = {}
    loop_calls = []
    where = ["loop"]

    class CountedDense:
        def __init__(self, inner):
            self._inner = inner

        def __getattr__(self, name):
            return getattr(self._inner, name)

        def __call__(self, t):
            counts["dense"] += 1
            return self._inner(t)

    class CountedRK45(hybrid.RK45):
        def step(self):
            msg = super().step()
            if self.status != "failed":
                counts["steps"] += 1
            return msg

        def dense_output(self):
            return CountedDense(super().dense_output())

    def inside(label, fun):
        def wrapped(*args, **kwargs):
            where.append(label)
            try:
                return fun(*args, **kwargs)
            finally:
                where.pop()
        return wrapped

    brentq = hybrid.brentq

    def counted_brentq(f, a, b, *args, **kwargs):
        def counted(x, *fargs):
            counts["brent_evals"] += 1
            return f(x, *fargs)
        counts["refines"] += 1
        return inside("brent", brentq)(counted, a, b, *args, **kwargs)

    def never_called(*args):
        raise AssertionError("the executor called _next_crossing")

    sc = hl.get_scenario("paper-c025")
    hs = hl.polar_hybrid(sc.params)
    g, d = hs.guard.surface, hs.guard.direction

    def counted_surface(t, q, v):
        surface[where[-1]] = surface.get(where[-1], 0) + 1
        if where[-1] == "loop":
            loop_calls.append(("surface", t))
        return g(t, q, v)

    def counted_direction(t, q, v):
        if where[-1] == "loop":
            loop_calls.append(("direction", t))
        return d(t, q, v)

    monkeypatch.setattr(hybrid, "RK45", CountedRK45)
    monkeypatch.setattr(hybrid, "brentq", counted_brentq)
    monkeypatch.setattr(hybrid, "_scan", inside("_scan", hybrid._scan))
    monkeypatch.setattr(billiard, "_next_crossing", never_called)
    hs = dataclasses.replace(hs, guard=dataclasses.replace(
        hs.guard, surface=counted_surface, direction=counted_direction))
    flow = hl.simulate(hs, sc.initial_polar, 2.0)
    assert flow.events and counts["refines"] >= len(flow.events)
    assert counts["dense"] == (hybrid.SCAN_POINTS * counts["steps"]
                               + counts["brent_evals"])
    # surface and rate at each new scan sample of a step, and at each
    # arc's start check
    samples = (hybrid.SCAN_POINTS + 1) * counts["steps"] + len(flow.arcs)
    assert [name for name, _ in loop_calls] == ["surface",
                                                "direction"] * samples
    times = [t for _, t in loop_calls]
    assert times[::2] == times[1::2]
    assert surface.pop("loop") == samples
    assert surface.pop("brent") == counts["brent_evals"]
    assert surface == {}


@pytest.mark.parametrize("kind, t_end, impacts", [
    ("cartesian", 10.0, 30), ("polar", 2.0, 1), ("reduced", 2.0, 1)])
def test_no_point_is_evaluated_twice_in_an_arc(monkeypatch, kind, t_end,
                                               impacts):
    # within one arc (from its start check up to the next one, so the
    # impact and its reset count with the arc that found it), no call of
    # the guard surface or rate repeats the (t, q, v) of an earlier call
    # of the same function, scan samples included, and no dense call
    # repeats a time: a step's end is the next step's first sample,
    # refinements start from the scan's values, and the impact is read
    # off the refinement. Brent never evaluates its bracket ends
    from hybridlag import hybrid

    seen, repeats, on_ends, refines = {}, [], [], []

    def note(name, key):
        if key in seen.setdefault(name, set()):
            repeats.append((name, key))
        seen[name].add(key)

    check = hybrid._check_arc_start

    def per_arc(*args):
        seen.clear()
        return check(*args)

    class Recorded(hybrid.RK45):
        def dense_output(self):
            dense = super().dense_output()

            def recorded(t):
                note("dense", t)
                return dense(t)
            return recorded

    def recorded(name, fun):
        def wrapped(t, q, v):
            note(name, (t, *q.tolist(), *v.tolist()))
            return fun(t, q, v)
        return wrapped

    brentq = hybrid.brentq

    def end_checked_brentq(f, a, b, *args, **kwargs):
        def checked(x):
            if x in (a, b):
                on_ends.append((a, b, x))
            return f(x)
        refines.append((a, b))
        return brentq(checked, a, b, *args, **kwargs)

    monkeypatch.setattr(hybrid, "_check_arc_start", per_arc)
    monkeypatch.setattr(hybrid, "RK45", Recorded)
    monkeypatch.setattr(hybrid, "brentq", end_checked_brentq)
    sc = hl.get_scenario("paper-c025")
    if kind == "reduced":
        cyc = hl.polar_cyclic(sc.params)
        hs = hl.reduce(cyc, hl.momentum_map(cyc, sc.initial_polar)).shape
        s0 = cyc.project_state(sc.initial_polar)
    else:
        hs, s0 = _paper_c025(kind)
    hs = dataclasses.replace(hs, guard=hl.Guard(
        surface=recorded("surface", hs.guard.surface),
        direction=recorded("direction", hs.guard.direction)))
    flow = hl.simulate(hs, s0, t_end)
    assert len(flow.events) >= impacts and len(refines) >= len(flow.events)
    assert repeats == [] and on_ends == []


# ---------------------------------------------------------------------------
# the DOP853 step loop against scipy's DOP853
# ---------------------------------------------------------------------------

def _assert_steps_like_scipy(ours, ref):
    """Step both solvers to the end and require bit-identical states,
    RHS call counts, statuses and dense output at the scan times and at
    five seeded interior times per step, each as one float."""
    from hybridlag import hybrid

    def same():
        assert (ours.t, ours.status, ours.nfev) == (ref.t, ref.status,
                                                    ref.nfev)
        assert np.array_equal(ours.y, ref.y)
        assert np.array_equal(ours.f, ref.f)

    rng = np.random.default_rng(5)
    same()
    steps = 0
    while ref.status == "running":
        ours.step()
        ref.step()
        same()
        if ref.status == "failed":
            break
        steps += 1
        mine, theirs = ours.dense_output(), ref.dense_output()
        assert ours.nfev == ref.nfev
        assert ((mine.t_old, mine.t, mine.t_min, mine.t_max)
                == (theirs.t_old, theirs.t, theirs.t_min, theirs.t_max))
        for ts in (np.linspace(ref.t_old, ref.t, hybrid.SCAN_POINTS + 2),
                   rng.uniform(ref.t_old, ref.t, 5)):
            assert all(np.array_equal(mine(float(t)), theirs(t)) for t in ts)
    return steps


def _nan_after_half(t, y):
    return [-v for v in y] if t < 0.5 else [math.nan] * len(y)


def _step_loop_case(name):
    """(fun, t0, y0, t_bound, max_step) of a named comparison run; each
    call builds a fresh fun, so two solvers never share the warm start
    of the momentum-side field."""
    from hybridlag import hybrid

    sc = hl.get_scenario("paper-c025")
    polar = hl.polar_system(sc.params)
    y_polar = polar.pack(sc.initial_polar)
    if name == "reduced":
        cyc = hl.polar_cyclic(sc.params)
        mu = hl.momentum_map(cyc, sc.initial_polar)
        red = hl.reduce(cyc, mu).shape.system
        s0 = cyc.project_state(sc.initial_polar)
        return red.rhs, 0.0, red.pack(s0), 10.0, np.inf
    if name == "cartesian":
        cart = hl.cartesian_system(sc.params)
        return (cart.rhs, 0.0, cart.pack(sc.initial_cartesian), 10.0,
                np.inf)
    if name == "finite-difference":
        # no closed form: differences of dL/dv and np.linalg.solve
        numeric = dataclasses.replace(polar, acceleration=None)
        return numeric.rhs, 0.0, y_polar, 10.0, np.inf
    if name == "momentum-side":
        hs = hl.polar_hybrid(sc.params)
        cs0 = hs.system.legendre(sc.initial_polar)
        rhs_h = hybrid._momentum_mode(hs, sc.initial_polar.v)[0]
        return rhs_h, 0.0, np.concatenate([cs0.q, cs0.p]), 10.0, np.inf
    return {"paper-c025": (polar.rhs, 0.0, y_polar, 10.0, np.inf),
            "max-step": (polar.rhs, 0.0, y_polar, 2.0, 0.05),
            "empty-horizon": (polar.rhs, 0.0, y_polar, 0.0, np.inf),
            "nan-field": (_nan_after_half, 0.0, np.array([1.0, 0.5]), 1.0,
                          np.inf)}[name]


@pytest.mark.parametrize("name, status, steps", [
    ("paper-c025", "finished", 20), ("reduced", "finished", 20),
    ("max-step", "finished", 40), ("empty-horizon", "finished", 1),
    ("nan-field", "failed", 10), ("cartesian", "finished", 5),
    ("finite-difference", "finished", 20), ("momentum-side", "finished", 20)])
def test_step_loop_reproduces_scipy_dop853(name, status, steps):
    # the executor's step loop repeats scipy's DOP853 arithmetic; a change
    # of scipy's arithmetic fails here instead of drifting the outputs
    from scipy.integrate import DOP853

    from hybridlag import hybrid

    solvers = []
    for cls in (hybrid.RK45, DOP853):
        fun, t0, y0, t_bound, max_step = _step_loop_case(name)
        solvers.append(cls(fun, t0, y0, t_bound=t_bound, rtol=1e-10,
                           atol=1e-10, max_step=max_step))
    taken = _assert_steps_like_scipy(*solvers)
    assert solvers[0].status == status and taken >= steps


def test_step_loop_floors_rtol_like_scipy():
    from scipy.integrate import DOP853

    from hybridlag import hybrid

    fun, t0, y0, _, _ = _step_loop_case("paper-c025")
    ours = hybrid.RK45(fun, t0, y0, t_bound=0.2, rtol=1e-20, atol=1e-10,
                       max_step=np.inf)
    with pytest.warns(UserWarning, match="rtol"):
        ref = DOP853(fun, t0, y0, t_bound=0.2, rtol=1e-20, atol=1e-10)
    assert ours.rtol == ref.rtol == 100 * np.finfo(float).eps
    _assert_steps_like_scipy(ours, ref)


@pytest.mark.parametrize("max_step, y0, match", [
    (0.0, [0.5, 0.0, 1.0, 0.3], "max_step"),
    (-1.0, [0.5, 0.0, 1.0, 0.3], "max_step"),
    (np.inf, [np.nan, 0.0, 1.0, 0.3], "finite")])
def test_step_loop_rejects_what_scipy_rejects(max_step, y0, match):
    from scipy.integrate import DOP853

    from hybridlag import hybrid

    fun = hl.cartesian_system(hl.BilliardParams()).rhs
    for cls in (hybrid.RK45, DOP853):
        with pytest.raises(ValueError, match=match):
            cls(fun, 0.0, np.array(y0), t_bound=1.0, rtol=1e-10, atol=1e-10,
                max_step=max_step)


def test_tableau_matches_scipy_dop853():
    # the vendored table, sliced as scipy's DOP853 class slices its own
    from scipy.integrate import DOP853

    from hybridlag import hybrid

    assert hybrid.RK45.n_stages == DOP853.n_stages
    assert hybrid._ERROR_ESTIMATOR_ORDER == DOP853.error_estimator_order
    for name in ("A", "B", "C", "E3", "E5", "D", "A_EXTRA", "C_EXTRA"):
        ours, theirs = getattr(hybrid, "_" + name), getattr(DOP853, name)
        assert ours.shape == theirs.shape, name
        assert np.array_equal(ours, theirs), name


# ---------------------------------------------------------------------------
# Brent's method against scipy's brentq
# ---------------------------------------------------------------------------

def _recorded(f):
    """f and the list of points it was called at."""
    calls = []

    def g(x):
        calls.append(x)
        return f(x)

    return g, calls


def _both_brentq(f, a, b, **kw):
    """(root or exception type, evaluation points) of hybrid.brentq and
    scipy.optimize.brentq on f over [a, b]."""
    from scipy import optimize

    from hybridlag import hybrid

    out = []
    for brentq in (hybrid.brentq, optimize.brentq):
        g, calls = _recorded(f)
        try:
            out.append((brentq(g, a, b, **kw), calls))
        except Exception as exc:
            out.append((type(exc), calls))
    return out


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(root=st.floats(0.0, 10.0), left=st.floats(1e-12, 1.0),
       right=st.floats(1e-12, 1.0), scale=st.floats(1e-6, 1e4),
       bend=st.floats(0.0, 50.0), wave=st.floats(0.0, 0.9),
       sign=st.sampled_from([1.0, -1.0]), swap=st.booleans(),
       xtol=st.sampled_from([1e-13, 1e-14, 1e-15]))
def test_brentq_matches_scipy_bit_for_bit(root, left, right, scale, bend,
                                          wave, sign, swap, xtol):
    # a smooth monotone function with one root in a bracket of event
    # times, at the tolerances the executor refines with
    def f(x):
        d = x - root
        return sign * scale * (math.expm1(d) + bend * d ** 3
                               + wave * math.sin(d))

    a, b = root - left, root + right
    if swap:
        a, b = b, a
    (ours, our_calls), (theirs, their_calls) = _both_brentq(
        f, a, b, xtol=xtol, rtol=1e-15)
    assert isinstance(ours, float)
    assert ours == theirs and math.copysign(1.0, ours) == math.copysign(
        1.0, theirs)
    assert our_calls == their_calls


@pytest.mark.parametrize("f, a, b, kw", [
    (lambda x: (x - 0.5) ** 2 + 1.0, 0.0, 1.0, {}),           # no sign change
    (lambda x: x - 0.5, 0.0, 0.25, {}),                       # root outside
    (lambda x: math.nan if x > 0.6 else x - 0.5, 0.0, 1.0, {}),
    (lambda x: math.tan(x), 1.0, 2.0, {"maxiter": 3}),
    (lambda x: x - 0.5, 0.0, 1.0, {"xtol": 0.0}),
    (lambda x: x - 0.5, 0.0, 1.0, {"rtol": 1e-16}),
], ids=["no-sign-change", "root-outside", "nan", "maxiter", "xtol", "rtol"])
def test_brentq_raises_like_scipy(f, a, b, kw):
    (ours, our_calls), (theirs, their_calls) = _both_brentq(f, a, b, **kw)
    assert isinstance(ours, type) and ours is theirs
    assert our_calls == their_calls


def _dense_guard_case():
    """g along the dense output of a real step, on the first interval
    between two of its scan samples that brackets a crossing: the paper
    polar run's first step out of the wall, with impacts left out."""
    from hybridlag import hybrid

    hs, s0 = _paper_c025("polar")
    solver = hybrid.RK45(hs.system.rhs, s0.t, hs.system.pack(s0), 2.0,
                         1e-10, 1e-10, math.inf)
    while solver.status == "running":
        solver.step()
        g = hybrid._along(hs.guard.surface, solver.dense_output(), 2)
        ts = np.linspace(solver.t_old, solver.t, hybrid.SCAN_POINTS + 2)
        for a, b in zip(ts.tolist(), ts[1:].tolist()):
            if g(a) <= 0.0 < g(b):
                return g, a, b
    raise AssertionError("the run never left the wall")


_END_VALUE_CASES = {
    "polynomial": lambda: (lambda x: (x - 1.5) * (x * x + 0.25), 0.0, 2.0),
    "exp": lambda: (lambda x: math.exp(3.0 * x) - 7.0 + 0.2 * x, 0.0, 1.0),
    "dense-guard": _dense_guard_case,
}


@pytest.mark.parametrize("name", list(_END_VALUE_CASES))
def test_brentq_takes_end_values_without_calling_f_there(name):
    # given f(a) and f(b), Brent skips its two first calls and finds the
    # root it finds without them, which is scipy's, bit for bit
    from scipy import optimize

    from hybridlag import hybrid

    f, a, b = _END_VALUE_CASES[name]()
    kw = dict(xtol=hybrid.REFINE_XTOL, rtol=hybrid.BRENT_RTOL)
    g, calls = _recorded(f)
    plain = hybrid.brentq(g, a, b, **kw)
    g_given, calls_given = _recorded(f)
    given = hybrid.brentq(g_given, a, b, fa=f(a), fb=f(b), **kw)
    assert given.hex() == plain.hex() == optimize.brentq(f, a, b, **kw).hex()
    assert calls[:2] == [a, b] and calls_given == calls[2:]


@pytest.mark.parametrize("fa, fb, match", [
    (math.nan, None, "NaN"), (None, math.nan, "NaN"),
    (-0.5, math.nan, "NaN"), (1.0, 2.0, "different signs"),
    (-1.0, -2.0, "different signs")],
    ids=["nan-at-a", "nan-at-b", "nan-at-b-both-given", "positive",
         "negative"])
def test_brentq_given_end_values_raise_like_evaluated_ones(fa, fb, match):
    # a given NaN, or given values of one sign, raise the ValueError that
    # the same values would raise as calls of f
    from hybridlag import hybrid

    def line(x):
        return x - 0.5

    ends = {0.0: fa, 1.0: fb}

    def evaluated(x):
        value = ends.get(x)
        return line(x) if value is None else value

    with pytest.raises(ValueError, match=match) as by_calls:
        hybrid.brentq(evaluated, 0.0, 1.0)
    with pytest.raises(ValueError, match=match) as given:
        hybrid.brentq(line, 0.0, 1.0, fa=fa, fb=fb)
    assert str(given.value) == str(by_calls.value)


@pytest.mark.parametrize("f, a, b, expected", [
    (lambda x: x - 0.5, 0.5, 1.0, 0.5),
    (lambda x: x - 1.0, 0.5, 1.0, 1.0),
    (lambda x: x * x - 2.0, 0.0, 2.0, None),
], ids=["root-at-a", "root-at-b", "sqrt2"])
def test_brentq_endpoint_roots_like_scipy(f, a, b, expected):
    (ours, _), (theirs, _) = _both_brentq(f, a, b, xtol=1e-15, rtol=1e-15)
    assert ours == theirs
    if expected is not None:
        assert ours == expected


# ---------------------------------------------------------------------------
# the arc interpolant against scipy's OdeSolution
# ---------------------------------------------------------------------------

def _event_arc():
    # ends at an impact, inside its last step: the clamp matters
    sc = hl.get_scenario("paper-c025")
    flow = hl.simulate(hl.polar_hybrid(sc.params), sc.initial_polar, 2.0)
    assert flow.events and flow.arcs[0].t_end == flow.events[0].tau
    return flow.arcs[0]


def _horizon_arc():
    sc = hl.get_scenario("paper-c025")
    return hl.simulate(hl.polar_hybrid(sc.params), sc.initial_polar,
                       2.0).arcs[-1]


@pytest.mark.parametrize("build", [_event_arc, _horizon_arc],
                         ids=["event", "horizon"])
def test_arc_interpolant_matches_scipy_ode_solution(build):
    # OdeSolution over scipy's DOP853 step interpolants rebuilt from the
    # arc's table rows, on times clipped to the arc
    from scipy.integrate import OdeSolution
    from scipy.integrate._ivp.rk import Dop853DenseOutput

    arc = build()
    interp = arc.interpolant
    table, breakpoints = interp.table, interp.breakpoints
    assert breakpoints[0] == arc.times[0]
    assert table.shape == (len(breakpoints) - 1, 8, arc.states.shape[1])
    segments = [Dop853DenseOutput(a, b, block[-1], block[:-1]) for a, b, block
                in zip(breakpoints[:-1].tolist(), breakpoints[1:].tolist(),
                       table)]

    def clipped(sol):
        return lambda t: sol(np.clip(t, arc.t_start, arc.t_end))

    expected = clipped(OdeSolution(breakpoints, segments))

    rng = np.random.default_rng(7)
    span = arc.t_end - arc.t_start
    inside = rng.uniform(arc.t_start, arc.t_end, 50)
    on_breaks = breakpoints.copy()
    outside = np.array([arc.t_start - 1.0, arc.t_start - 1e-12,
                        arc.t_end + 1e-12, arc.t_end + span])
    mixed = rng.permutation(np.concatenate([inside, on_breaks, outside,
                                            inside[:5]]))
    for t in [arc.t_start, arc.t_end, float(inside[0]),
              float(breakpoints[len(breakpoints) // 2]), *outside.tolist()]:
        assert np.array_equal(arc(t), expected(t)), t
    for ts in (np.sort(inside), inside, on_breaks, outside, mixed):
        got = arc(ts)
        assert got.shape == (arc.states.shape[1], ts.size)
        assert np.array_equal(got, expected(ts))

    # adjacent DOP853 steps agree at their common breakpoint, so the
    # segment rule shows only on segments that report their index: here
    # a table whose block k evaluates to the constant k
    class Labelled:
        def __init__(self, k, t_max):
            self.k, self.t_max = k, t_max

        def __call__(self, t):
            return np.stack(np.broadcast_arrays(float(self.k), t))

    fakes = [Labelled(k, s.t_max) for k, s in enumerate(segments)]
    labels = np.zeros((len(segments), 8, 1))
    labels[:, -1, 0] = np.arange(len(segments))
    labelled = type(interp)(labels, breakpoints, arc.t_start, arc.t_end)
    expected = clipped(OdeSolution(breakpoints, fakes))
    # row 0 of a fake is its label
    for ts in (on_breaks, mixed, outside):
        assert np.array_equal(labelled(ts), expected(ts)[:1])
    for t in on_breaks.tolist() + outside.tolist():
        assert np.array_equal(labelled(t), expected(t)[:1])


# ---------------------------------------------------------------------------
# the arc's coefficient table against the step interpolants of its run
# ---------------------------------------------------------------------------

def _with_step_interpolants(monkeypatch, run):
    """run() with every solver keeping the dense outputs of its steps:
    the flow, and per arc the `_StepInterpolant`s its steps made (the
    executor starts one solver per arc)."""
    from hybridlag import hybrid

    solvers = []

    class Recording(hybrid.RK45):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.steps = []
            solvers.append(self)

        def dense_output(self):
            dense = super().dense_output()
            self.steps.append(dense)
            return dense

    monkeypatch.setattr(hybrid, "RK45", Recording)
    flow = run()
    assert len(solvers) == len(flow.arcs)
    return flow, [s.steps for s in solvers]


def _c025_run(kind, t_end):
    if kind != "reduced":
        hs, s0 = _paper_c025(kind)
        return lambda: hl.simulate(hs, s0, t_end)
    sc = hl.get_scenario("paper-c025")
    cyc = hl.polar_cyclic(sc.params)
    red = hl.reduce(cyc, hl.momentum_map(cyc, sc.initial_polar))
    return lambda: hl.simulate(red.shape, cyc.project_state(sc.initial_polar),
                               t_end)


@pytest.mark.parametrize("kind, t_end, index, dim, steps", [
    ("polar", 2.0, 0, 2, None),
    ("reduced", 2.0, 1, 1, None),
    ("cartesian", 10.0, 1, 2, None),
    ("cartesian", 10.0, 15, 2, 1),
], ids=["polar", "reduced", "cartesian", "one-step"])
def test_arc_table_matches_its_step_interpolants(monkeypatch, kind, t_end,
                                                 index, dim, steps):
    # each column of an arc's array call, and each scalar call, is the
    # call of the run's own step interpolant at the time clipped to the
    # arc, with a breakpoint going to the step that ends there
    import bisect

    flow, recorded = _with_step_interpolants(monkeypatch,
                                             _c025_run(kind, t_end))
    arc, own = flow.arcs[index], recorded[index]
    if steps is not None:
        assert len(own) == steps
    assert len(own) > 0 and arc.interpolant.table.shape == (len(own), 8,
                                                            2 * dim)
    ends = [s.t for s in own]

    def per_step(t):
        t = min(max(t, float(arc.t_start)), float(arc.t_end))
        return own[min(bisect.bisect_left(ends, t), len(own) - 1)](t)

    rng = np.random.default_rng(13)
    inside = np.sort(rng.uniform(arc.t_start, arc.t_end, 40))
    on_breaks = np.array([own[0].t_old] + ends)
    outside = np.array([arc.t_start - 1.0, arc.t_start - 1e-12,
                        arc.t_end + 1e-12, arc.t_end + 1.0])
    duplicates = np.repeat(inside[::8], 3)
    unsorted = rng.permutation(np.concatenate([inside, on_breaks, outside,
                                               duplicates]))
    for ts in (inside, unsorted, duplicates, on_breaks, outside):
        cols = arc(ts)
        assert cols.shape == (2 * dim, ts.size)
        for i, t in enumerate(ts.tolist()):
            y = per_step(t)
            assert np.array_equal(cols[:, i], y), (i, t)
            assert np.array_equal(arc(t), y), t


def test_arc_table_with_non_finite_coefficients_is_silent():
    # numpy's arithmetic on inf and overflow gives the Python floats'
    # bits (NaN in the same places) and, like them, no warning; an
    # all -0.0 block sums to +0.0, as on Python floats
    import warnings

    from hybridlag import hybrid

    rng = np.random.default_rng(17)
    table = rng.standard_normal((3, 8, 3))
    table[:, :, 2] = -0.0
    table[0, 0, 1] = table[0, 7, 1] = 1.7e308   # overflows near x = 1
    table[1, 4, 0] = math.inf                    # inf * 0 at x = 1
    table[2, 0, 0], table[2, 7, 0] = math.inf, -math.inf
    breakpoints = np.array([0.0, 0.5, 1.25, 2.0])
    interp = hybrid._ArcInterpolant(table, breakpoints, 0.0, 2.0)
    ts = np.concatenate([np.linspace(-0.5, 2.5, 31), breakpoints,
                         [0.4999, 1.0, 1.9]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cols = interp(ts)
    scalar = np.column_stack([interp(t) for t in ts.tolist()])
    assert np.isnan(cols).any() and np.isinf(cols).any()
    assert np.array_equal(cols, scalar, equal_nan=True)
    numbers = ~np.isnan(cols)
    assert np.array_equal(np.signbit(cols[numbers]),
                          np.signbit(scalar[numbers]))
    assert not np.signbit(cols[2]).any()


# ---------------------------------------------------------------------------
# one DOP853 stage matrix per run
# ---------------------------------------------------------------------------

def _flow_bits(flow):
    """Every number of a flow, as bytes, and its termination."""
    bits = [flow.termination]
    for arc in flow.arcs:
        bits += [arc.times.tobytes(), arc.states.tobytes(),
                 np.asarray(arc(arc.times)).tobytes()]
        table = getattr(arc.interpolant, "table", None)
        if table is not None:
            bits.append(table.tobytes())
    for e in flow.events:
        bits += [np.array([e.tau, e.guard_residual]).tobytes()]
        bits += [x.tobytes() for x in (e.pre.q, e.pre.v, e.post.q, e.post.v)]
    return bits


def _stage_sharing_run(kind):
    """A run of `kind` as a zero-argument callable returning its bits."""
    from hybridlag import hybrid

    sc = hl.get_scenario("paper-c025")
    if kind == "cartesian":
        # a start of the cartesian sweep's kind: its own dissipation, an
        # oblique start inside the paper wall
        hs = hl.cartesian_hybrid(hl.BilliardParams(c=0.17))
        s0 = hl.State(0.0, np.array([0.31, -0.52]), np.array([1.9, 0.8]))
        return lambda: _flow_bits(hl.simulate(hs, s0, 5.0))
    if kind == "polar":
        hs, s0 = _paper_c025("polar")
        return lambda: _flow_bits(hl.simulate(hs, s0, 5.0))
    if kind == "resequenced":
        cyc = hl.polar_cyclic(sc.params)

        def run():
            rec = hl.simulate_resequenced(cyc, sc.initial_polar, 5.0)
            return (_flow_bits(rec.reduced) + rec.mu_sequence
                    + [th.tobytes() for th in rec.theta])
        return run
    hs, s0 = _paper_c025("cartesian")
    cs0 = hs.system.legendre(s0)

    def run():
        # the momentum side alone, then inside the check with its
        # velocity side
        flow = hybrid._execute(hybrid._momentum_mode(hs, s0.v), cs0.t,
                               np.concatenate([cs0.q, cs0.p]), 5.0)
        rep = hl.check_hybrid_equivalence(hs, s0, 5.0)
        return _flow_bits(flow) + [dataclasses.astuple(rep)]
    return run


@pytest.mark.parametrize("kind", ["cartesian", "polar", "resequenced",
                                  "momentum-side"])
def test_arcs_of_a_run_share_one_stage_matrix(monkeypatch, kind):
    # each run builds one stage matrix and hands it to the solver of
    # every arc; a run with a fresh matrix per arc is the same bit for bit
    from hybridlag import hybrid, reduction

    log = []

    class Recording(hybrid.RK45):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            log.append(self.K_extended)

    class Fresh(Recording):
        def __init__(self, *args, stages=None, **kwargs):
            super().__init__(*args, **kwargs)

    def marked(execute):
        def run(*args):
            log.append("run")
            return execute(*args)
        return run

    for module in (hybrid, reduction):
        monkeypatch.setattr(module, "_execute", marked(module._execute))
    run = _stage_sharing_run(kind)

    def solvers_by_run(cls):
        # the bits of two repeats, and the matrices of each run's solvers
        monkeypatch.setattr(hybrid, "RK45", cls)
        log.clear()
        with no_hang(20):
            bits = [run(), run()]
        runs = []
        for entry in log:
            if isinstance(entry, str):
                runs.append([])
            else:
                runs[-1].append(entry)
        assert bits[0] == bits[1]
        return bits[0], runs

    shared, runs = solvers_by_run(Recording)
    assert len(runs) == (6 if kind == "momentum-side" else 2)
    assert max(map(len, runs)) > 1
    for matrices in runs:
        assert matrices and all(k is matrices[0] for k in matrices)
    assert len({id(matrices[0]) for matrices in runs}) == len(runs)
    fresh, runs = solvers_by_run(Fresh)
    matrices = [k for m in runs for k in m]
    assert len({id(k) for k in matrices}) == len(matrices)
    assert fresh == shared


def test_arcs_take_blocks_from_the_step_loop_not_its_dense_output(
        monkeypatch):
    # a traced solver's dense output is a proxy that passes on only the
    # step's times and calls (as perfbench's tracer does); the arcs of a
    # reduced run and of a resequenced run, and the angle rebuilt along
    # them, come out the same under it
    from hybridlag import hybrid

    class Proxy:
        def __init__(self, inner):
            self._inner = inner
            self.t_old, self.t = inner.t_old, inner.t
            self.t_min, self.t_max = inner.t_min, inner.t_max

        def __call__(self, t):
            return self._inner(t)

    class ProxiedRK45(hybrid.RK45):
        def dense_output(self):
            return Proxy(super().dense_output())

    sc = hl.get_scenario("paper-c025")
    cyc = hl.polar_cyclic(sc.params)
    mu = hl.momentum_map(cyc, sc.initial_polar)
    s0 = cyc.project_state(sc.initial_polar)

    def runs():
        rflow = hl.simulate(hl.reduce(cyc, mu).shape, s0, 10.0)
        return (hl.reconstruct(cyc, rflow, mu, float(sc.initial_polar.q[1])),
                hl.simulate_resequenced(cyc, sc.initial_polar, 10.0))

    shipped = runs()
    monkeypatch.setattr(hybrid, "RK45", ProxiedRK45)
    proxied = runs()
    for a, b in zip(shipped, proxied):
        assert len(a.reduced.arcs) == len(b.reduced.arcs) > 1
        for arc_a, arc_b in zip(a.reduced.arcs, b.reduced.arcs):
            assert np.array_equal(arc_a.times, arc_b.times)
            assert np.array_equal(arc_a.states, arc_b.states)
            grid = np.linspace(arc_a.t_start, arc_a.t_end, 17)
            assert np.array_equal(arc_a(grid), arc_b(grid))
        for th_a, th_b in zip(a.theta + a.theta_dot, b.theta + b.theta_dot):
            assert np.array_equal(th_a, th_b)
        assert len(a.theta) == len(b.theta) == len(a.reduced.arcs)


# ---------------------------------------------------------------------------
# the array contract of arc interpolants
# ---------------------------------------------------------------------------

def _simulated_polar_arc():
    sc = hl.get_scenario("paper-c025")
    return hl.simulate(hl.polar_hybrid(sc.params), sc.initial_polar,
                       2.0).arcs[1]


def _zero_step_arc():
    flow = hl.simulate(hl.cartesian_hybrid(static_billiard()),
                       center_start(), 0.0)
    return flow.arcs[0]


def _projected_arc():
    sc = hl.get_scenario("paper-c025")
    cyc = hl.polar_cyclic(sc.params)
    flow = hl.simulate(cyc.full, sc.initial_polar, 2.0)
    return hl.project(cyc, flow).arcs[1]


def _reference_arc():
    sc = hl.get_scenario("paper-c025")
    return hl.reference_flow(sc.params, sc.initial_cartesian, 2.0).arcs[1]


def _reduced_arc():
    sc = hl.get_scenario("paper-c025")
    cyc = hl.polar_cyclic(sc.params)
    red = hl.reduce(cyc, hl.momentum_map(cyc, sc.initial_polar))
    return hl.simulate(red.shape, cyc.project_state(sc.initial_polar),
                       2.0).arcs[1]


@pytest.mark.parametrize("build, dim", [
    (_simulated_polar_arc, 2),
    (_reduced_arc, 1),
    (_zero_step_arc, 2),
    (_projected_arc, 1),
    (_reference_arc, 2),
], ids=["simulated", "reduced", "zero-step", "projected", "reference"])
def test_arc_interpolant_array_contract(build, dim):
    # column i of an array call is the scalar call at time i, bit for bit
    arc = build()
    rng = np.random.default_rng(3)
    ts = np.concatenate([np.linspace(arc.t_start, arc.t_end, 7),
                         rng.uniform(arc.t_start, arc.t_end, 100)])
    cols = arc(ts)
    assert cols.shape == (2 * dim, ts.size)
    for i, t in enumerate(ts):
        y = arc(t)
        assert y.shape == (2 * dim,)
        assert np.array_equal(cols[:, i], y)
        assert np.array_equal(arc(float(t)), y)


def test_runs_build_states_per_impact_not_per_sample(monkeypatch):
    # State is the API edge: the executor calls the guard, the reset and
    # the RHS on its packed arrays, so a run builds the two States of each
    # Event record and nothing per step, guard sample or reset; the
    # passes after a run read arcs as columns and build none per grid
    # point either
    sc = hl.get_scenario("paper-c025")
    cyc = hl.polar_cyclic(sc.params)
    mu = hl.momentum_map(cyc, sc.initial_polar)
    red = hl.reduce(cyc, mu)
    s0r = cyc.project_state(sc.initial_polar)
    s0c = sc.initial_cartesian
    rflow = hl.simulate(red.shape, s0r, 10.0)
    # no symmetry samples: the one-time validation is not part of the run
    bare = dataclasses.replace(cyc, sample_states=(), guard_sample_states=())
    runs = {
        "polar": lambda: hl.simulate(hl.polar_hybrid(sc.params),
                                     sc.initial_polar, 10.0),
        "reduced": lambda: hl.simulate(red.shape, s0r, 10.0),
        "cartesian": lambda: hl.simulate(hl.cartesian_hybrid(sc.params),
                                         s0c, 10.0),
        "resequenced": lambda: hl.simulate_resequenced(
            bare, sc.initial_polar, 10.0).reduced,
        "reference": lambda: hl.reference_flow(sc.params, s0c, 10.0),
    }
    built = {hl.State: 0, hl.CoState: 0}

    for cls in built:
        def count(self, cls=cls, init=cls.__post_init__):
            built[cls] += 1
            init(self)

        monkeypatch.setattr(cls, "__post_init__", count)
    for name, run in runs.items():
        built[hl.State] = 0
        flow = run()
        assert len(flow.events) == 41, name
        if name == "resequenced":
            # it also projects its start state
            assert built[hl.State] <= 2 * len(flow.events) + 1, \
                built[hl.State]
        else:
            assert built[hl.State] == 2 * len(flow.events), \
                (name, built[hl.State])
    built[hl.State] = 0
    hl.reconstruct(cyc, rflow, mu, float(sc.initial_polar.q[1]))
    assert built[hl.State] == 0
    # the momentum check on a polar run's step grid builds only the
    # symmetry samples of the cyclic structure it makes
    polar = runs["polar"]()
    built[hl.State] = 0
    assert verification.check_momentum_conservation(sc, polar)["passed"]
    assert built[hl.State] == (len(cyc.sample_states)
                               + len(cyc.guard_sample_states)), \
        built[hl.State]
    # the momentum side builds one CoState, at the start
    built[hl.CoState] = 0
    rep = hl.check_hybrid_equivalence(hl.cartesian_hybrid(sc.params),
                                      sc.initial_cartesian, 10.0)
    assert rep.events_momentum_side == 41
    assert built[hl.CoState] == 1, built[hl.CoState]


# ---------------------------------------------------------------------------
# the momentum-side guard
# ---------------------------------------------------------------------------

def test_momentum_side_scan_solves_each_column_once(monkeypatch):
    # the arc-start check and the scan call the surface and then the rate
    # at each new sample; the rate's velocity recovery starts at the
    # surface's solution, so it makes no Hessian solve. Counted over each
    # start check, and from each step's dense output, which the sample
    # calls follow, to the scan rule. A step's first sample is the last
    # one before it, so the scan calls the guard at its SCAN_POINTS
    # interior samples and its end
    from hybridlag import hybrid
    from hybridlag.lagrangian import LagrangianSystem

    # per start check or step, (kind, [[name, Hessian solves] of each
    # sample call])
    in_samples, groups = [False], []
    solve_hessian, scan = LagrangianSystem._solve_hessian, hybrid._scan
    check = hybrid._check_arc_start

    def counted_solve(self, *args, **kwargs):
        if in_samples[0]:
            groups[-1][1][-1][1] += 1
        return solve_hessian(self, *args, **kwargs)

    class Marking(hybrid.RK45):
        def dense_output(self):
            dense = super().dense_output()
            in_samples[0] = True
            groups.append(("step", []))
            return dense

    def scan_after_samples(*args):
        in_samples[0] = False
        return scan(*args)

    def marked_check(*args):
        in_samples[0] = True
        groups.append(("start", []))
        try:
            return check(*args)
        finally:
            in_samples[0] = False

    def labelled(name, fun):
        def f(t, q, p):
            if in_samples[0]:
                groups[-1][1].append([name, 0])
            return fun(t, q, p)
        return f

    monkeypatch.setattr(LagrangianSystem, "_solve_hessian", counted_solve)
    monkeypatch.setattr(hybrid, "RK45", Marking)
    monkeypatch.setattr(hybrid, "_scan", scan_after_samples)
    monkeypatch.setattr(hybrid, "_check_arc_start", marked_check)
    hs, s0 = _paper_c025("cartesian")
    rhs, g, d, reset = hybrid._momentum_mode(hs, s0.v)
    mode = (rhs, labelled("surface", g), labelled("direction", d),
            lambda tau, y: (reset(tau, y)[0], mode))
    cs0 = hs.system.legendre(s0)
    flow = hybrid._execute(mode, cs0.t, np.concatenate([cs0.q, cs0.p]), 5.0)
    kinds = [kind for kind, _ in groups]
    assert flow.events and kinds.count("start") == len(flow.arcs)
    assert len(groups) > 3 * len(flow.arcs)
    pair = ["surface", "direction"]
    for kind, calls in groups:
        samples = 1 if kind == "start" else hybrid.SCAN_POINTS + 1
        assert [name for name, _ in calls] == pair * samples
    calls = [call for _, group in groups for call in group]
    assert sum(n for name, n in calls if name == "direction") == 0
    assert sum(n for name, n in calls if name == "surface") > 0


# ---------------------------------------------------------------------------
# hybrid correspondence of the two phase-space pictures
# ---------------------------------------------------------------------------

def test_hybrid_equivalence_static_wall(unit_wall_hybrid):
    rep = hl.check_hybrid_equivalence(unit_wall_hybrid, center_start(), 4.5)
    assert rep.passed, str(rep)
    assert rep.events_velocity_side == rep.events_momentum_side == 2


@pytest.mark.parametrize("sid", ["paper-c025", "paper-c010"])
def test_hybrid_equivalence_moving_wall(sid):
    sc = hl.get_scenario(sid)
    hs = hl.cartesian_hybrid(sc.params)
    rep = hl.check_hybrid_equivalence(hs, sc.initial_cartesian, 5.0)
    assert rep.passed, str(rep)


def test_hybrid_equivalence_no_events_reduces_to_flow_check():
    sc = hl.get_scenario("paper-c025")
    hs = hl.cartesian_hybrid(sc.params)
    rep = hl.check_hybrid_equivalence(hs, sc.initial_cartesian, 0.1)
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
