import dataclasses
import math

import numpy as np
import pytest
from conftest import no_hang
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import hybridlag as hl
from hybridlag import verification
from oracles import cartesian_to_polar, static_wall


def static_billiard(c=0.0, radius_sq=1.0, **kw):
    wall, rate = static_wall(radius_sq)
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


def test_empty_horizon_is_single_degenerate_arc():
    # an arc with no time to cover is closed without building a solver:
    # the right-hand side is never called, not even where it is not finite
    from hybridlag import hybrid

    def uncallable(t, y):
        raise AssertionError("the right-hand side was called")

    free = hl.build_model("free-particle").system
    sys = dataclasses.replace(free, field=uncallable)
    s0 = hl.State(2.0, np.array([0.5, 0.0]), np.array([1.0, 0.0]))
    flow = hl.simulate(hybrid._inert_hybrid(sys), s0, 2.0)
    assert flow.termination == "horizon_reached" and not flow.events
    (arc,) = flow.arcs
    assert arc.t_start == arc.t_end == 2.0 and arc.times.tolist() == [2.0]
    assert arc.states.tolist() == [[0.5, 0.0, 1.0, 0.0]]
    assert arc(2.0).tolist() == [0.5, 0.0, 1.0, 0.0]


def test_arc_at_the_horizon_never_calls_the_runner(unit_wall_hybrid):
    # the loop closes an arc that starts at t_end itself with its start
    # state, after the start check, and never calls the arc runner
    from hybridlag import hybrid

    def never_called(*args):
        raise AssertionError("the executor called the arc runner")

    hs = unit_wall_hybrid
    y0 = hs.system.pack(center_start())
    flow = hybrid._execute(hybrid._mode(hs), 2.0, y0, 2.0, never_called)
    assert flow.termination == "horizon_reached" and not flow.events
    (arc,) = flow.arcs
    assert arc.t_start == arc.t_end == 2.0 and arc.times.tolist() == [2.0]
    assert _bits(arc.states[0]) == _bits(y0)
    assert isinstance(arc.interpolant, hybrid._ConstantInterpolant)
    with pytest.raises(hl.InvalidStart):
        hybrid._execute(hybrid._mode(hs), 2.0, y0 + [2.0, 0.0, 0.0, 0.0],
                        2.0, never_called)


@pytest.mark.parametrize("impacts, dwell, termination", [
    (0, 0.5, "integration_failure"), (0, 1e-10, "integration_failure"),
    (1, 0.5, "integration_failure"), (1, 1e-10, "zeno_suspected")])
def test_arc_short_of_the_horizon_without_impact_is_a_collapse(
        unit_wall_hybrid, impacts, dwell, termination):
    # the loop reads a step collapse off an arc that ends before t_end
    # with no impact: zeno_suspected within MIN_DWELL of an impact, else
    # integration_failure. The first `impacts` arcs run to their impact;
    # the next is the integrator's own arc to `dwell` after its start
    from hybridlag import hybrid

    hs = unit_wall_hybrid
    y0 = hs.system.pack(center_start())
    run_arc, calls = hybrid._integrator(y0.size), []

    def stub(mode, start, t_end, max_step):
        calls.append(start[0])
        if len(calls) <= impacts:
            return run_arc(mode, start, t_end, max_step)
        arc, hit = run_arc(mode, start, start[0] + dwell, max_step)
        assert hit is None and arc.t_end == start[0] + dwell
        return arc, hit

    flow = hybrid._execute(hybrid._mode(hs), 0.0, y0, 4.0, stub)
    assert flow.termination == termination
    assert len(flow.events) == impacts and len(flow.arcs) == impacts + 1
    assert flow.t_final == calls[-1] + dwell


def test_integer_horizon_beyond_float_precision_ends_horizon_reached():
    # the last arc closes at float(t_end) = 2**53, below the int horizon:
    # it reached the horizon, not a step collapse
    hs = hl.build_model("free-particle").hybrid
    s0 = hl.State(0.0, np.zeros(2), np.zeros(2))
    with no_hang(10):
        flow = hl.simulate(hs, s0, 2**53 + 1)
    assert flow.termination == "horizon_reached"
    assert flow.t_final == float(2**53 + 1)


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
        # arc i's last state is the pre-impact state, bit for bit
        assert np.array_equal(flow.arcs[i].states[-1],
                              np.concatenate([ev.pre.q, ev.pre.v]))
        # the event owns its states: 1-D float64 arrays that share no
        # memory with any arc's states or with the event's other state
        pre, post = [ev.pre.q, ev.pre.v], [ev.post.q, ev.post.v]
        for x in pre + post:
            assert x.ndim == 1 and x.dtype == np.float64
            assert not any(np.shares_memory(x, arc.states)
                           for arc in flow.arcs)
        assert not any(np.shares_memory(a, b) for a in pre for b in post)
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
        q, v = pre.q.tolist(), pre.v.tolist()
        assert abs(guard.surface(pre.t, q, v)) <= 1e-8 * max(
            1.0, abs(guard.direction(pre.t, q, v)))
        assert guard.direction(pre.t, q, v) >= 0.0
        # stored post state is exactly the reset image
        q_post, v_post = hs.reset.apply(ev.tau, q, v)
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


# every entry point that packs a start, run on the paper-c025 parameters
# (check_flow_equivalence on free-particle, also of dim 2), and the wrong
# shapes of a start: a third coordinate, one coordinate, a (1, 2) row
_PACKING_ENTRY_POINTS = {
    "simulate": lambda p, s0: hl.simulate(hl.cartesian_hybrid(p), s0, 1.0),
    "reference_flow": lambda p, s0: hl.reference_flow(p, s0, 1.0),
    "check_hybrid_equivalence": lambda p, s0: hl.check_hybrid_equivalence(
        hl.cartesian_hybrid(p), s0, 1.0),
    "simulate_resequenced": lambda p, s0: hl.simulate_resequenced(
        hl.polar_cyclic(p), s0, 1.0),
    "check_flow_equivalence": lambda p, s0: hl.check_flow_equivalence(
        hl.build_model("free-particle").system, s0, 1.0),
}
_WRONG_SHAPES = {"q3-v2": ((3,), (2,)), "q1-v1": ((1,), (1,)),
                 "row": ((1, 2), (1, 2))}


@pytest.mark.parametrize("shape", list(_WRONG_SHAPES))
@pytest.mark.parametrize("entry_point", list(_PACKING_ENTRY_POINTS))
def test_start_of_the_wrong_shape_is_invalid_start(entry_point, shape,
                                                   params_c025):
    # each used to fail deep inside numpy (a matmul mismatch, an unpack
    # of too few values, an IndexError, a TypeError)
    q_shape, v_shape = _WRONG_SHAPES[shape]
    s0 = hl.State(0.0, np.full(q_shape, 0.3), np.full(v_shape, 0.1))
    with pytest.raises(hl.InvalidStart) as raised:
        _PACKING_ENTRY_POINTS[entry_point](params_c025, s0)
    # the message names both shapes and the system's dim
    assert (f"q of shape {q_shape} and v of shape {v_shape}; a system of "
            f"dim 2 " in str(raised.value))


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


def _both_pipelines_under(monkeypatch, rule, value):
    """`simulate` and the oracle from the centre of the static unit wall,
    whose dwells are 0.96 and then 1.92, with the executor's loop rule
    `hybrid.<rule>` set to value: the oracle's flights run as arcs of that
    loop, so the rule binds it by construction."""
    from hybridlag import hybrid

    monkeypatch.setattr(hybrid, rule, value)
    p = static_billiard()
    s0 = hl.State(0.0, np.zeros(2), np.array([1.0, 0.3]))
    flow = hl.simulate(hl.cartesian_hybrid(p), s0, 10.0)
    ref = hl.reference_flow(p, s0, 10.0)
    assert flow.event_time_delta(ref) <= 1e-8
    return flow, ref


def test_oracle_and_executor_stop_at_the_same_cap(monkeypatch):
    for run in _both_pipelines_under(monkeypatch, "MAX_IMPACTS", 3):
        assert run.termination == "max_impacts"
        assert len(run.events) == 3


def test_oracle_and_executor_stop_at_the_same_dwell(monkeypatch):
    # a MIN_DWELL above the second dwell ends both runs there as Zeno
    for run in _both_pipelines_under(monkeypatch, "MIN_DWELL", 2.0):
        assert run.termination == "zeno_suspected"
        assert len(run.events) == 1


def test_oracle_shares_no_ode_stepping(monkeypatch):
    from hybridlag import hybrid

    def stepping(*args, **kwargs):
        raise AssertionError("ODE stepping or its scan was called")

    monkeypatch.setattr(hybrid, "RK45", stepping)
    monkeypatch.setattr(hybrid, "_scan", stepping)
    sc = hl.get_scenario("paper-c025")
    ref = hl.reference_flow(sc.params, sc.initial_cartesian, 10.0)
    assert ref.termination == "zeno_suspected" and len(ref.events) == 41
    with pytest.raises(AssertionError, match="ODE stepping"):
        hl.simulate(hl.cartesian_hybrid(sc.params), sc.initial_cartesian,
                    10.0)


def test_arc_times_are_floats():
    # as `Arc` declares them, for every producer of arcs; an int horizon
    # is where a numpy or int end time would show
    sc = hl.get_scenario("paper-c025")
    cyc = hl.polar_cyclic(sc.params)
    full = hl.simulate(cyc.full, sc.initial_polar, 3)
    reduced = hl.simulate(
        hl.reduce(cyc, hl.momentum_map(cyc, sc.initial_polar)).shape,
        cyc.project_state(sc.initial_polar), 3)
    flows = [full, reduced, hl.project(cyc, full),
             hl.simulate(hl.cartesian_hybrid(sc.params), sc.initial_cartesian,
                         3),
             hl.reference_flow(sc.params, sc.initial_cartesian, 3)]
    for flow in flows:
        assert flow.events and type(flow.t_final) is float
        for arc in flow.arcs:
            assert type(arc.t_start) is float and type(arc.t_end) is float


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
        hs, start = hl.polar_hybrid(params), cartesian_to_polar(s0)
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
        hs, s0 = hl.polar_hybrid(params), cartesian_to_polar(s0)
    else:
        hs = hl.cartesian_hybrid(params)
    flow = hl.simulate(hs, s0, 3.0)
    assert len(flow.events) == 1
    for arc in flow.arcs:
        ts = np.linspace(arc.t_start, arc.t_end, 2000)
        ys = arc(ts)
        assert max(hs.guard.surface(t, y[:2], y[2:])
                   for t, y in zip(ts.tolist(), ys.T.tolist())
                   ) <= hybrid.GUARD_TOL


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
    # no crossing is refined. The reset leaves it tangent (d = -4.7e-20)
    # and 4.9e-9 outside the wall, where it would fly out, so that
    # post-impact state is no arc start, in either pipeline
    refines = _recorded_refines(monkeypatch)
    hs, resets = hl.cartesian_hybrid(static_billiard()), []
    wall = hs.reset.apply
    hs = dataclasses.replace(hs, reset=hl.ResetMap(
        apply=lambda t, q, v: resets.append(t) or wall(t, q, v)))
    s0 = hl.State(0.0, np.array([math.sqrt(1.0 + 5e-9), 0.0]),
                  np.array([-1e-5, 1.0]))
    for run in (lambda: hl.simulate(hs, s0, 0.5),
                lambda: hl.reference_flow(static_billiard(), s0, 0.5)):
        with no_hang(10), pytest.raises(hl.InvalidReset, match=(
                r"^arc start at t=1\.0000000024\d*e-05 has g=4\.900e-09, ")):
            run()
    assert len(resets) == 1
    assert resets[0] == pytest.approx(1.0e-5, rel=1e-3)
    assert ("d", resets[0]) in refines
    assert all(name == "d" for name, _ in refines)


@pytest.mark.parametrize("scale, impacts", [(-0.5, 1), (-2, 0)],
                         ids=["within-GUARD_TOL", "leaving"])
def test_crossing_rate_within_guard_tol_of_zero_is_an_impact(scale, impacts):
    # the unit wall's guard with a constant rate d = scale GUARD_TOL, from
    # the centre at speed 1: g crosses upward at t = 1, and the crossing is
    # an impact unless its rate leaves, d < -GUARD_TOL; the reflected
    # state's free step moves inward, so it starts the next arc
    from hybridlag import hybrid

    hs = hl.cartesian_hybrid(static_billiard())
    hs = dataclasses.replace(hs, guard=hl.Guard(
        surface=hs.guard.surface,
        direction=lambda t, q, v: scale * hybrid.GUARD_TOL))
    flow = hl.simulate(hs, center_start(), 2.5)
    assert flow.termination == "horizon_reached"
    assert len(flow.events) == impacts
    assert [e.tau for e in flow.events] == pytest.approx([1.0] * impacts)


def test_crossings_close_by_newton_before_brent(monkeypatch):
    # on paper-c025, the Newton steps on the guard rate put each crossing
    # within Brent's tolerance of a two-sided bracket in three evaluations
    # on average (Hermite root, one Newton step, the closing probe) and
    # four at most (one Hermite root here lies 3.4e-6 from the crossing,
    # and one Newton step leaves 1.4e-11, still beyond delta): at every
    # crossing's Brent call the bracket is under
    # REFINE_XTOL + BRENT_RTOL max(|a|, |b|), twice Brent's delta, or g
    # is exactly 0 at its lower end (a Newton iterate on the root), and
    # Brent returns an end without evaluating g
    from hybridlag import hybrid

    newton, brent, where = [], [], []

    class Counted(hybrid.RK45):
        def dense_output(self):
            dense = super().dense_output()

            def counted(t):
                if where == ["crossing"]:
                    newton[-1] += 1
                return dense(t)
            return counted

    crossing, brentq = hybrid._crossing, hybrid.brentq

    def marked_crossing(*args):
        newton.append(0)
        where.append("crossing")
        try:
            return crossing(*args)
        finally:
            where.pop()

    def counted_brentq(f, a, b, *args, **kwargs):
        evals = [0]

        def counted(x):
            evals[0] += 1
            return f(x)
        where.append("brent")
        try:
            return brentq(counted, a, b, *args, **kwargs)
        finally:
            where.pop()
            if where == ["crossing"]:
                brent.append((a, b, kwargs["fa"], evals[0]))

    monkeypatch.setattr(hybrid, "RK45", Counted)
    monkeypatch.setattr(hybrid, "_crossing", marked_crossing)
    monkeypatch.setattr(hybrid, "brentq", counted_brentq)
    hs, s0 = _paper_c025("cartesian")
    flow = hl.simulate(hs, s0, 3.0)
    assert len(flow.events) == 5 and len(brent) == len(newton) >= 5
    for a, b, fa, evals in brent:
        assert fa == 0.0 or 0 < b - a < (
            hybrid.REFINE_XTOL + hybrid.BRENT_RTOL * max(abs(a), abs(b)))
        assert evals == 0
    assert max(newton) <= 4 and sum(newton) <= 3 * len(newton)


@pytest.mark.parametrize("scale", [10.0, 0.1])
def test_a_scaled_rate_costs_evaluations_not_accuracy(monkeypatch, scale):
    # paper-c025's guard with its rate scaled by 10 or 0.1: the same sign,
    # so the same extrema and the same impacts (its values stay clear of
    # GUARD_TOL here), but Newton's steps are 10 times too short or too
    # long. They stop early, and Brent closes the bracket in their place,
    # at most three times the true rate's guard evaluations in all. Each
    # crossing lands within 2 REFINE_XTOL of the crossing the true rate
    # gives on the same bracket (each within Brent's tolerance of the
    # root). Whole runs are compared on their first impact only: later
    # ones start from post-impact states that differ in the last bits,
    # and their differences add up from impact to impact
    from hybridlag import hybrid

    hs, s0 = _paper_c025("cartesian")
    surface, rate, calls = hs.guard.surface, hs.guard.direction, []

    def counted(t, q, v):
        calls.append(t)
        return surface(t, q, v)

    hs = dataclasses.replace(hs, guard=hl.Guard(surface=counted,
                                                direction=rate))
    true_rate = hl.simulate(hs, s0, 10.0)
    scaled = dataclasses.replace(hs, guard=dataclasses.replace(
        hs.guard, direction=lambda t, q, v: scale * rate(t, q, v)))
    true_calls = len(calls)
    hl.simulate(scaled, s0, 10.0)
    assert true_calls < len(calls) - true_calls <= 3 * true_calls
    crossing, pairs = hybrid._crossing, []

    def both(g, d, a, b, ga, gb, da, db, c, gc, dc):
        tau = crossing(g, d, a, b, ga, gb, da, db, c, gc, dc)
        pairs.append((tau, crossing(g, lambda t: d(t) / scale, a, b, ga,
                                    gb, da / scale, db / scale, c, gc,
                                    dc / scale)))
        return tau

    monkeypatch.setattr(hybrid, "_crossing", both)
    flow = hl.simulate(scaled, s0, 10.0)
    assert flow.termination == true_rate.termination == "zeno_suspected"
    assert len(flow.events) == len(true_rate.events) == 41
    assert len(pairs) >= len(flow.events)
    for tau, tau_true in pairs:
        assert abs(tau - tau_true) <= 2 * hybrid.REFINE_XTOL
    assert abs(flow.events[0].tau - true_rate.events[0].tau) <= (
        2 * hybrid.REFINE_XTOL)


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
# the local non-test modules the suite imports, so adding or removing a
# constant there can change the examples of both tests below,
# derandomized as they are: deleting only the arc-start probe's 1e-7 made
# the whole suite draw the radial start r = 0.771484375 (c = 0.1439,
# speed 0.1413), which hangs in the collapse tail, and the test failed.
# `tools/hypothesis_pool.py` prints that pool; diff it across a change.
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
        bundle.system, field=lambda t, y: [y[1], math.nan])
    hs = dataclasses.replace(bundle.hybrid, system=sys)
    s0 = hl.State(0.0, np.array([1.0]), np.array([0.5]))
    with no_hang(10), pytest.raises(hl.IntegrationFailure, match="not finite"):
        hl.simulate(hs, s0, 1.0)


def _from_half(v):
    """The start (0, (0.5, 0), v)."""
    return hl.State(0.0, np.array([0.5, 0.0]), np.array(v, float))


def _reduced_run(p, v):
    """The reduced system of the polar billiard `p` at the momentum of
    `_from_half(v)`, run from its projection to t = 1."""
    cyc, s0 = hl.polar_cyclic(p), _from_half(v)
    return hl.simulate(hl.reduce(cyc, hl.momentum_map(cyc, s0)).shape,
                       cyc.project_state(s0), 1.0)


# finite starts and parameters whose arithmetic leaves the float range, run
# to t = 1 on paper-c025 but for free-particle, and the error each raises;
# each used to escape as an OverflowError or a ZeroDivisionError
_OVERFLOWING_RUNS = {
    # the polar guard squares r = 0.5 + 1e-7 v_r in the start check's
    # free step
    "polar-full-vr": (lambda p: hl.simulate(
        hl.polar_hybrid(p), _from_half([1e300, 1.0]), 1.0), hl.InvalidStart),
    "resequenced-vr": (lambda p: hl.simulate_resequenced(
        hl.polar_cyclic(p), _from_half([1e300, 1.0]), 1.0), hl.InvalidStart),
    # the polar field squares the angle's rate when the solver is built
    "polar-full-thd": (lambda p: hl.simulate(
        hl.polar_hybrid(p), _from_half([0.0, 1e160]), 1.0),
        hl.IntegrationFailure),
    # the initial step's norms overflow in numpy's dot
    "polar-full-thd-1e154": (lambda p: hl.simulate(
        hl.polar_hybrid(p), _from_half([0.0, 1e154]), 1.0),
        hl.IntegrationFailure),
    "cartesian-v-1e154": (lambda p: hl.simulate(
        hl.cartesian_hybrid(p), _from_half([0.0, 1e154]), 1.0),
        hl.IntegrationFailure),
    # the initial step size comes out 0, and the slope norm divides by it
    "cartesian-m-1e-300": (lambda p: hl.simulate(
        hl.cartesian_hybrid(dataclasses.replace(p, m=1e-300)),
        hl.get_scenario("paper-c025").initial_cartesian, 1.0),
        hl.IntegrationFailure),
    "reduced-thd": (lambda p: _reduced_run(p, [0.1, 1e300]),
                    hl.IntegrationFailure),
    "free-particle": (lambda p: hl.simulate(
        hl.build_model("free-particle").hybrid,
        hl.State(0.0, np.zeros(2), np.array([1e308, 1e308])), 1.0),
        hl.IntegrationFailure),
}


@pytest.mark.parametrize("name", list(_OVERFLOWING_RUNS))
def test_arithmetic_beyond_the_float_range_is_a_typed_error(name,
                                                            params_c025):
    # InvalidStart from the start check, IntegrationFailure from the arc
    # runner, each chained from the arithmetic error. The v = 1e154 runs'
    # initial-step norms overflow in numpy's dot, which the executor
    # turns from a warning into a FloatingPointError
    run, error = _OVERFLOWING_RUNS[name]
    with no_hang(10), \
            pytest.raises(error, match="left the float range") as raised:
        run(params_c025)
    assert isinstance(raised.value.__cause__, ArithmeticError)


# each pipeline's run from paper-c025's start (Cartesian or polar) at the
# start time t0 to the horizon t_end
_PIPELINES = {
    "simulate": lambda p, t0, t_end: hl.simulate(
        hl.cartesian_hybrid(p), _at(_paper_c025("cartesian")[1], t0), t_end),
    "reference_flow": lambda p, t0, t_end: hl.reference_flow(
        p, _at(_paper_c025("cartesian")[1], t0), t_end),
    "simulate_resequenced": lambda p, t0, t_end: hl.simulate_resequenced(
        hl.polar_cyclic(p), _at(_paper_c025("polar")[1], t0), t_end),
}


def _at(s0, t):
    """The state s0 at the time t."""
    return hl.State(t, s0.q, s0.v)


@pytest.mark.parametrize("t0, t_end", [(0.0, 10**400), (10**400, 1.0)],
                         ids=["horizon", "start"])
@pytest.mark.parametrize("name", list(_PIPELINES))
def test_time_beyond_the_float_range_is_invalid_start(name, t0, t_end,
                                                      params_c025):
    # an int start time or horizon that no float holds used to escape as
    # OverflowError: int too large to convert to float
    with pytest.raises(hl.InvalidStart,
                       match="beyond the float range") as raised:
        _PIPELINES[name](params_c025, t0, t_end)
    assert isinstance(raised.value.__cause__, OverflowError)


def test_arc_runner_gets_the_start_check_record(monkeypatch):
    # the arc-runner seam: a runner passed to `_execute` gets each arc's
    # start as one record (t, y, g, d), whose g and d are the values the
    # start check returned there, bit for bit: on the first arc and on
    # every arc after an impact
    from hybridlag import hybrid

    check, checked, starts = hybrid._check_arc_start, [], []

    def recorded_check(*args):
        checked.append(check(*args))
        return checked[-1]

    hs, s0 = _paper_c025("cartesian")
    y0 = hs.system.pack(s0)
    run_arc = hybrid._integrator(y0.size)

    def stub(mode, start, t_end, max_step):
        starts.append(start)
        return run_arc(mode, start, t_end, max_step)

    monkeypatch.setattr(hybrid, "_check_arc_start", recorded_check)
    flow = hybrid._execute(hybrid._mode(hs), s0.t, y0, 3.0, stub)
    assert len(flow.events) >= 2
    assert len(starts) == len(checked) == len(flow.arcs)
    ends = [(s0.t, y0)] + [(e.tau, np.concatenate([e.post.q, e.post.v]))
                           for e in flow.events]
    for (t, y, g, d), (g_check, d_check), (t_end, y_end) in zip(
            starts, checked, ends):
        assert t == t_end and _bits(y) == _bits(y_end)
        assert _bits([g, d]) == _bits([g_check, d_check])
        assert _bits([g, d]) == _bits([hs.guard.surface(t, y[:2], y[2:]),
                                       hs.guard.direction(t, y[:2], y[2:])])


def test_field_turning_non_finite_ends_integration_failure():
    # q'' = -q until t = 0.5 and NaN after: every step across t = 0.5 is
    # rejected until the step size falls below 10 ulp, and the run ends
    # integration_failure at the last accepted step, under a guard that
    # never triggers
    bundle = hl.build_model("harmonic-1d")
    sys = dataclasses.replace(
        bundle.system, field=lambda t, y: (
            [y[1], -y[0]] if t < 0.5 else [y[1], math.nan]))
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


def _rate_one(t, q, v):
    return 1.0


@pytest.mark.parametrize("surface, rate, where", [
    (lambda t, q, v: t - 0.5 if t < 0.7 else math.nan, _rate_one,
     "scan sample"),
    (lambda t, q, v: math.nan if 0.45 < t < 0.55 else t - 0.5, _rate_one,
     "refinement point t=0.5"),
    (lambda t, q, v: t - 0.5, lambda t, q, v: math.nan, "arc start t=0.0"),
], ids=["nan-after-the-crossing", "nan-around-the-crossing",
        "nan-rate-at-the-start"])
def test_nan_guard_raises_integration_failure(surface, rate, where):
    # g = t - 0.5 crosses at t = 0.5 on the free particle's flight. A NaN
    # guard value or rate at a scan sample, at a refinement point or at
    # an arc start ends the run with IntegrationFailure naming the time:
    # read as no bracket, a NaN after the crossing hid the impact, and a
    # NaN at the crossing broke Brent's method with a ValueError
    hs = dataclasses.replace(hl.build_model("free-particle").hybrid,
                             guard=hl.Guard(surface, rate))
    s0 = hl.State(0.0, np.zeros(2), np.array([1.0, 0.0]))
    with no_hang(10), pytest.raises(hl.IntegrationFailure, match=where):
        hl.simulate(hs, s0, 2.0)


def test_located_impact_off_the_guard_raises():
    # a guard that jumps from -1 to +1 at t = 0.5 with rate 1: Brent
    # brackets the jump to REFINE_XTOL, but the surface there is still
    # 1 away from zero, above GUARD_TOL max(1, |d|), so the impact is
    # refused before the reset runs
    def jump(t, q, v):
        return -1.0 if t < 0.5 else 1.0

    resets = []
    hs = hl.HybridSystem(
        system=hl.build_model("free-particle").system,
        guard=hl.Guard(surface=jump, direction=lambda t, q, v: 1.0),
        reset=hl.ResetMap(apply=lambda t, q, v: resets.append(t) or (q, v)))
    s0 = hl.State(0.0, np.zeros(2), np.array([1.0, 0.0]))
    with no_hang(10), pytest.raises(hl.IntegrationFailure, match=(
            r"^guard residual 1\.000e\+00 at located impact exceeds "
            r"tolerance; event refinement failed$")):
        hl.simulate(hs, s0, 2.0)
    assert resets == []


def test_reset_retrigger_rejected(unit_wall_hybrid):
    # identity reset leaves the state exiting the guard: must be refused
    bad = dataclasses.replace(
        unit_wall_hybrid, reset=hl.ResetMap(apply=lambda t, q, v: (q, v)))
    with pytest.raises(hl.InvalidReset):
        hl.simulate(bad, center_start(), 2.0)


def _outward_reset(hs):
    """`hs` with a reset that moves q outside the wall: (1.2 q, -v)."""
    return dataclasses.replace(hs, reset=hl.ResetMap(
        apply=lambda t, q, v: ([1.2 * x for x in q], [-x for x in v])))


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


@pytest.mark.parametrize("wrong, lengths", [
    (lambda q, v: (np.append(q, 0.0), v), (3, 2)),
    (lambda q, v: (q, v[:1]), (2, 1)),
    (lambda q, v: (q, np.reshape(v, (1, 2))), (2, 1)),
], ids=["q-of-3", "v-of-1", "v-of-shape-1x2"])
def test_reset_of_the_wrong_length_is_invalid_reset(wrong, lengths):
    # the loop joins the reset's q_post and v_post into the next arc's
    # packed state; a half with another length than n is refused at the
    # impact, naming both lengths, before any arc starts from it
    sc = hl.get_scenario("paper-c025")
    hs = hl.cartesian_hybrid(sc.params)
    wall = hs.reset.apply
    bad = dataclasses.replace(hs, reset=hl.ResetMap(
        apply=lambda t, q, v: wrong(*wall(t, q, v))))
    match = "q_post of length {} and v_post of length {}".format(*lengths)
    with pytest.raises(hl.InvalidReset, match=match):
        hl.simulate(bad, sc.initial_cartesian, 10.0)


@pytest.mark.parametrize("c, q0, v0", [
    (0.0, (math.sqrt(1.0 - 1e-10), 0.0), (1.0, 0.0)),
    (0.0, (1.0, 0.0), (0.0, 1.0)),
    (0.2446318921487286, (-0.3867797755436651, -0.9221721125854935),
     (1.896538472127192, -0.7954509950454342)),
    (0.31403411703878364, (-0.11767317020917162, 0.9930523777791825),
     (-1.613040416418868, -0.19113954482442969)),
    (0.06648206623718847, (0.9504366942746172, 0.3109181406356269),
     (-0.533686558521362, 1.631411044150951)),
], ids=["1e-10-inside-heading-out", "tangent", "tangent-rate-below-0",
        "whispering-gallery-1", "whispering-gallery-2"])
def test_start_on_the_guard_not_leaving_is_invalid_start(c, q0, v0):
    # within GUARD_TOL of the static unit wall with a rate that does not
    # leave (d >= -GUARD_TOL), a start is admissible only if a free step
    # moves it inward. Heading out from 1e-10 inside, the run used to
    # cross at once and then crawl at a step ceiling of that 5e-11 dwell;
    # the tangent start's free step raises g by 9.99e-15. The last three
    # are tangent starts with drag whose rate rounds below zero (d from
    # -4.1e-17 to -6.1e-18, g = 0, -3.5e-14 and -2.2e-14): read as
    # leaving, the first flew out of the wall to |q(10)|^2 = 60 in both
    # pipelines, and the two whispering-gallery starts ended unlike the
    # oracle (5,213 impacts against 2,140) or ran for more than 20 s. The
    # oracle applies the same rule
    params = static_billiard(c)
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
            key = (name, t, *q, *v)
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
    # the scan makes one scalar call of the dense output per accepted
    # step, at its midpoint np.linspace(t_old, t, 3)[1], and calls the
    # guard surface and then its rate at each new sample, in time order:
    # the midpoint and the step's end, whose state is the step loop's.
    # Every other dense evaluation is made inside a crossing's
    # refinement, at a Newton iterate or a Brent iterate: the bracket ends
    # come from the scan and the pre-impact state from the refinement.
    # Outside the scan rule, the only other guard calls are the arc-start
    # checks, whose surface and rate are the first sample of the arc's
    # first step, as each step's end is the next step's first; the rule
    # calls the surface once per Newton or Brent iterate, and the impact's
    # residual is the refinement's. The oracle's convex search is not
    # called
    from hybridlag import billiard, hybrid

    counts = dict(steps=0, dense=0, brent_evals=0, refines=0)
    spans = []
    surface, dense = {}, {}
    loop_calls = []
    where = ["loop"]

    class CountedDense:
        def __init__(self, inner):
            self._inner = inner

        def __getattr__(self, name):
            return getattr(self._inner, name)

        def __call__(self, t):
            counts["dense"] += 1
            dense[where[-1]] = dense.get(where[-1], 0) + 1
            return self._inner(t)

    class CountedRK45(hybrid.RK45):
        def step(self):
            msg = super().step()
            if self.status != "failed":
                counts["steps"] += 1
            return msg

        def dense_output(self):
            spans.append((self.t_old, self.t))
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
    monkeypatch.setattr(hybrid, "_crossing",
                        inside("newton", hybrid._crossing))
    monkeypatch.setattr(billiard, "_next_crossing", never_called)
    hs = dataclasses.replace(hs, guard=dataclasses.replace(
        hs.guard, surface=counted_surface, direction=counted_direction))
    flow = hl.simulate(hs, sc.initial_polar, 2.0)
    assert flow.events and counts["refines"] >= len(flow.events)
    newton_evals = surface.get("newton", 0)
    assert newton_evals >= len(flow.events)
    assert counts["dense"] == (counts["steps"] + counts["brent_evals"]
                               + newton_evals)
    assert dense == {key: value for key, value in (
        ("loop", counts["steps"]), ("newton", newton_evals),
        ("brent", counts["brent_evals"])) if value}
    # surface and rate at each new scan sample of a step, and at each
    # arc's start check
    samples = 2 * counts["steps"] + len(flow.arcs)
    assert [name for name, _ in loop_calls] == ["surface",
                                                "direction"] * samples
    times = [t for _, t in loop_calls]
    assert times[::2] == times[1::2]
    assert len(spans) == counts["steps"]
    assert set(times) == ({np.linspace(a, b, 3)[1].item() for a, b in spans}
                          | {b for _, b in spans}
                          | {arc.t_start for arc in flow.arcs})
    assert surface.pop("loop") == samples
    assert surface.pop("newton") == newton_evals
    assert surface.pop("brent", 0) == counts["brent_evals"]
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
            note(name, (t, *q, *v))
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

# the largest difference between the step loop and scipy's DOP853, in
# units of the error scale ATOL + RTOL |y| times max(1, |y|) (two
# solutions of y' = y^2 part as y^2): measured 3.6e-4 at most on the
# closed-form fields, and 4.4 on the fields that solve for their values
# (finite differences; the momentum side's warm-started Newton solve)
_SCIPY_BOUND = 1e-3
_SCIPY_BOUND_SOLVED = {"finite-difference": 10.0, "momentum-side": 10.0}


def _assert_near_scipy(ours, theirs, bound):
    from hybridlag import hybrid

    theirs = np.asarray(theirs)
    scale = ((hybrid.ATOL + hybrid.RTOL * np.abs(theirs))
             * np.maximum(1.0, np.abs(theirs)))
    assert np.all(np.abs(np.asarray(ours) - theirs) <= bound * scale)


def _assert_steps_like_scipy(ours, ref, bound):
    """Step both solvers while they make the same attempts (the same RHS
    call counts) and return the number of steps they take so. At each of
    these steps the statuses are the same, and the state at our step's
    end and the dense output at the step's scan times and at five seeded
    interior times are within `bound` of scipy's (see `_SCIPY_BOUND`)."""
    rng = np.random.default_rng(5)
    assert ours.nfev == ref.nfev
    _assert_near_scipy(ours.y, ref.y, bound)
    steps = 0
    while ref.status == "running":
        ours.step()
        ref.step()
        if ours.nfev != ref.nfev:
            return steps
        assert ours.status == ref.status
        if ref.status == "failed":
            return steps
        steps += 1
        mine, theirs = ours.dense_output(), ref.dense_output()
        assert ours.nfev == ref.nfev
        assert isinstance(ours._coeffs, list) and len(ours._coeffs) == (
            8 * len(ours.y))
        _assert_near_scipy(ours.y, theirs(ours.t), bound)
        for ts in (np.linspace(ref.t_old, ref.t, 3),
                   rng.uniform(ref.t_old, ref.t, 5)):
            for t in ts:
                _assert_near_scipy(mine(float(t)), theirs(t), bound)
    return steps


def _nan_after_half(t, y):
    return [-v for v in y] if t < 0.5 else [math.nan] * len(y)


def _blow_up(t, y):
    # y' = y^2 from y(0) = 1 blows up at t = 1
    return [v * v for v in y]


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
        numeric = dataclasses.replace(polar, field=None)
        return numeric.rhs, 0.0, y_polar, 10.0, np.inf
    if name == "momentum-side":
        hs = hl.polar_hybrid(sc.params)
        cs0 = hs.system.legendre(sc.initial_polar)
        rhs_h = hybrid._momentum_mode(hs, sc.initial_polar.v)[0]
        return rhs_h, 0.0, np.concatenate([cs0.q, cs0.p]), 10.0, np.inf
    return {"paper-c025": (polar.rhs, 0.0, y_polar, 10.0, np.inf),
            "max-step": (polar.rhs, 0.0, y_polar, 2.0, 0.05),
            "nan-field": (_nan_after_half, 0.0, np.array([1.0, 0.5]), 1.0,
                          np.inf),
            "blow-up": (_blow_up, 0.0, np.array([1.0]), 2.0, np.inf)}[name]


@pytest.mark.parametrize("name, status, steps", [
    ("paper-c025", "finished", 20), ("reduced", "finished", 20),
    ("max-step", "finished", 40), ("nan-field", "failed", 10),
    ("cartesian", "finished", 5), ("finite-difference", "finished", 20),
    ("momentum-side", "finished", 20), ("blow-up", "failed", 260)])
def test_step_loop_reproduces_scipy_dop853(name, status, steps):
    # the executor's step loop against scipy's DOP853 under the executor's
    # step control: the same attempts, so the same accepted steps and RHS
    # calls, through at least the first `steps` steps and on every step of
    # an arc that finishes, with states and dense output within a bound of
    # scipy's (`_assert_steps_like_scipy`). Where the step size collapses
    # at a singularity, the last bits of the error estimates decide how
    # many attempts the collapse takes: there both solvers fail, at the
    # same time. Each solver gets its own case, so the two never share
    # the momentum-side field's warm start
    from scipy.integrate import DOP853

    from hybridlag import hybrid

    ours = hybrid.RK45(*_step_loop_case(name))
    fun, t0, y0, t_bound, max_step = _step_loop_case(name)
    ref = DOP853(fun, t0, y0, t_bound=t_bound, rtol=hybrid.RTOL,
                 atol=hybrid.ATOL, max_step=max_step)
    bound = _SCIPY_BOUND_SOLVED.get(name, _SCIPY_BOUND)
    assert _assert_steps_like_scipy(ours, ref, bound) >= steps
    if status == "finished":
        assert ours.status == ref.status and ours.nfev == ref.nfev
    for solver in (ours, ref):
        while solver.status == "running":
            solver.step()
    assert ours.status == ref.status == status
    assert ours.t == pytest.approx(ref.t, rel=1e-14)


def _initial_step_case(name):
    """(fun, t0, y0, t_bound, max_step, h_abs) of a named start, h_abs
    the initial step its branch of the rule gives, or None."""
    sc = hl.get_scenario("paper-c025")
    polar = hl.polar_system(sc.params)
    y_polar = polar.pack(sc.initial_polar)
    return {
        # d1 = d2 = 0: h0 = 1e-6 and h1 = max(1e-6, h0 * 1e-3)
        "zero-field": (lambda t, y: [0.0] * len(y), 0.0,
                       np.array([0.3, -0.2, 1.0, 0.5]), 10.0, np.inf, 1e-6),
        # d0 < 1e-5 under ATOL = 1e-10, with a field that is not small
        "tiny-state": (lambda t, y: [y[2], y[3], 1.0, -2.0], 0.0,
                       1e-16 * np.array([1.0, -2.0, 3.0, 0.5]), 10.0,
                       np.inf, None),
        "step-ceiling": (polar.rhs, 0.0, y_polar, 10.0, 1e-7, 1e-7),
        "short-interval": (polar.rhs, 0.0, y_polar, 1e-9, np.inf, 1e-9),
        "polar": (polar.rhs, 0.0, y_polar, 10.0, np.inf, None),
    }[name]


@pytest.mark.parametrize("name", ["zero-field", "tiny-state", "step-ceiling",
                                  "short-interval", "polar"])
def test_initial_step_reproduces_scipy_dop853(name):
    # the first step size of an arc, and the two right-hand-side calls that
    # choose it, are scipy's bit for bit in every branch of the rule
    from scipy.integrate import DOP853

    from hybridlag import hybrid

    fun, t0, y0, t_bound, max_step, h_abs = _initial_step_case(name)
    ours = hybrid.RK45(fun, t0, y0, t_bound, max_step)
    ref = DOP853(fun, t0, y0, t_bound=t_bound, rtol=hybrid.RTOL,
                 atol=hybrid.ATOL, max_step=max_step)
    assert ours.h_abs.hex() == float(ref.h_abs).hex()
    assert ours.nfev == ref.nfev == 2
    if h_abs is not None:
        assert ours.h_abs == h_abs


def _bits(values):
    """The IEEE bit patterns of a sequence of floats, with one pattern for
    every NaN. Which of two NaN operands, and so which sign, comes out of
    a float + or * is not the expression's to fix in CPython: the same
    `a * b` on (nan, -nan) gives -nan until the adaptive interpreter
    specializes it, and nan after."""
    x = np.array(values, float)
    x[np.isnan(x)] = math.nan
    return x.view(np.uint64).tolist()


# finite floats of all scales, and the values IEEE arithmetic treats
# apart: NaN of both signs, infinities, signed zeros and subnormals
_SPECIAL_FLOATS = [math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0,
                   5e-324, -5e-324, 1.1e-308, -2.5e-310, 1.7e308, -1.0]


def _draws(rng, size):
    """`size` floats, a quarter of them special."""
    x = rng.standard_normal(size) * 10.0 ** rng.integers(-30, 30, size)
    special = rng.random(size) < 0.25
    x[special] = rng.choice(_SPECIAL_FLOATS, size)[special]
    return x.tolist()


@pytest.mark.parametrize("size", range(1, 7))
def test_kernels_match_the_list_comprehensions_bit_for_bit(size, rng):
    # the Horner kernel against the list comprehension it replaced in
    # the step loop, kept here as the reference
    from hybridlag import hybrid

    k = hybrid._kernels(size)
    assert k is hybrid._kernels(size)   # built once per size
    for _ in range(400):
        (x,) = _draws(rng, 1)
        block = np.array([_draws(rng, size) for _ in range(8)])
        # components at rest: Horner's leading 0.0 + turns -0.0 into 0.0
        block[:, rng.random(size) < 0.2] = -0.0
        xm = 1 - x
        assert _bits(k.horner(block.ravel().tolist(), x)) == _bits(
            [(((((((0.0 + f6) * x + f5) * xm + f4) * x + f3) * xm + f2) * x
               + f1) * xm + f0) * x + y0
             for f0, f1, f2, f3, f4, f5, f6, y0 in block.T.tolist()])


def _stage_loop(fun, K, t, y, f, h):
    """scipy's DOP853 arithmetic for one attempt of step h from (t, y),
    f = fun(t, y), with its error estimates, then the dense output of
    that step: each tableau sum the numpy product scipy takes, into the
    stage matrix K. Returns y_new, f_new, the squared norms of the 5th-
    and 3rd-order error estimates, the 3rd-order estimate and the
    coefficient block, flattened row by row."""
    from hybridlag import hybrid

    K[0] = f
    for s, a, c in hybrid._STAGES:
        K[s] = fun(t + c * h, [v + d * h for v, d in
                               zip(y, K[:s].T.dot(a).tolist())])
    y_new = [v + h * d for v, d in
             zip(y, K[:hybrid._N_STAGES].T.dot(hybrid._B).tolist())]
    f_new = fun(t + h, y_new)
    K[hybrid._N_STAGES] = f_new
    # scipy's error scale, with np.maximum's rule that a NaN on either
    # side is the maximum, and its two estimates' norms
    scale = hybrid.ATOL + np.maximum(np.abs(y), np.abs(y_new)) * hybrid.RTOL
    err5 = K[:hybrid._N_STAGES + 1].T.dot(hybrid._E5) / scale
    err3 = K[:hybrid._N_STAGES + 1].T.dot(hybrid._E3) / scale
    norms = [math.sqrt(err5.dot(err5)) ** 2, math.sqrt(err3.dot(err3)) ** 2]
    for s, a, c in hybrid._EXTRA_STAGES:
        K[s] = fun(t + c * h, [v + d * h for v, d in
                               zip(y, K[:s].T.dot(a).tolist())])
    delta = [a - b for a, b in zip(y_new, y)]
    f_old, f_end = K[0].tolist(), K[hybrid._N_STAGES].tolist()
    block = np.empty((8, len(y)))
    block[:3] = [delta,
                 [h * fo - d for fo, d in zip(f_old, delta)],
                 [2 * d - h * (fn + fo)
                  for d, fn, fo in zip(delta, f_end, f_old)]]
    block[3:-1] = h * hybrid._D.dot(K)
    block[-1] = y
    return y_new, f_new, norms, err3, block.ravel().tolist()


def _python_stage_loop(fun, t, y, f, h):
    """The step loop's stage rule on Python floats, as loops over
    `_dop853`'s arrays: one attempt of step h from (t, y), f = fun(t, y),
    then the dense output of that step. Each tableau sum runs over the
    table's columns left to right, exact zeros skipped, and each squared
    error norm is the sum of the squared quotients in component order.
    Returns y_new, f_new, the two squared norms, the attempt's 13 stage
    rows and the coefficient block, flattened row by row."""
    from hybridlag import _dop853, hybrid

    A, B, C, D = (x.tolist() for x in (_dop853.A, _dop853.B, _dop853.C,
                                       _dop853.D))
    n, n_stages = len(y), _dop853.N_STAGES

    def tableau_sum(coefficients, K, i):
        total = None
        for a, row in zip(coefficients, K):
            if a:
                term = row[i] * a
                total = term if total is None else total + term
        return total

    def stage(K, s, y0):
        w = [tableau_sum(A[s][:s], K, i) for i in range(n)]
        return fun(t + C[s] * h, [v + d * h for v, d in zip(y0, w)])

    K = [f]
    for s in range(1, n_stages):
        K.append(stage(K, s, y))
    y_new = [v + h * tableau_sum(B, K, i) for i, v in enumerate(y)]
    f_new = fun(t + h, y_new)
    K.append(f_new)
    scale = [hybrid.ATOL + (a if a > b else b) * hybrid.RTOL
             for a, b in zip(map(abs, y), map(abs, y_new))]
    norms = []
    for E in (_dop853.E5.tolist(), _dop853.E3.tolist()):
        total = 0.0
        for i in range(n):
            q = tableau_sum(E, K, i) / scale[i]
            total += q * q
        norms.append(total)
    rows = tuple(K)
    for s in range(n_stages + 1, _dop853.N_STAGES_EXTENDED):
        K.append(stage(K, s, y))
    delta = [a - b for a, b in zip(y_new, y)]
    block = [delta,
             [h * fo - d for fo, d in zip(f, delta)],
             [2 * d - h * (fn + fo) for d, fn, fo in zip(delta, f_new, f)]]
    block += [[h * tableau_sum(d, K, i) for i in range(n)] for d in D]
    block.append(y)
    return y_new, f_new, norms, rows, [v for row in block for v in row]


def _python_initial_norms(fun, t0, y, f, h0):
    """The three RMS norms of the initial-step choice on Python floats:
    of y, of f and of the slope change fun(t0 + h0, y + h0 f) - f, each
    over the error scale ATOL + |y| RTOL, as the square root of the sum
    of the squared quotients in component order over sqrt(n)."""
    from hybridlag import hybrid

    scale = [hybrid.ATOL + abs(v) * hybrid.RTOL for v in y]

    def rms(values):
        total = 0.0
        for v, s in zip(values, scale):
            q = v / s
            total += q * q
        return math.sqrt(total) / len(values) ** 0.5

    g = fun(t0 + h0, [v + h0 * d for v, d in zip(y, f)])
    return rms(y), rms(f), rms([a - b for a, b in zip(g, f)])


def _recording(values, calls):
    """A right-hand side that returns `values` in call order and records
    the bits of each call's arguments in `calls`."""
    def fun(tt, yy):
        calls.append(_bits([tt] + yy))
        return values[len(calls) - 1]
    return fun


@pytest.mark.parametrize("size", range(1, 7))
def test_stage_kernels_match_the_stage_loop_bit_for_bit(size, rng):
    # the `attempt`, `dense`, `scaled_norms` and `slope_norm` kernels
    # against the stage rule written as loops (`_python_stage_loop`,
    # `_python_initial_norms`): the same right-hand-side calls with the
    # same arguments, the same stage rows, and the same (y_new, f_new),
    # squared error norms, coefficient block and initial-step norms, on
    # special floats too
    from hybridlag import hybrid

    k = hybrid._kernels(size)
    for _ in range(100):
        t, h = _draws(rng, 2)
        y, f = _draws(rng, size), _draws(rng, size)
        values = [_draws(rng, size) for _ in range(hybrid._N_STAGES + 3)]
        calls, ref_calls = [], []
        fun = _recording(values, calls)
        y_new, f_new, *norms, K = k.attempt(fun, t, y, f, h)
        block = k.dense(fun, t, y, h, y_new, K)
        ref = _python_stage_loop(_recording(values, ref_calls), t, y, f, h)
        assert calls == ref_calls
        assert len(calls) == hybrid.RK45.n_stages + 3
        assert _bits(y_new) == _bits(ref[0])
        assert f_new is values[hybrid._N_STAGES - 1]
        assert _bits(norms) == _bits(ref[2])
        # the rows: f and the values of the 12 stage calls, as returned
        assert isinstance(K, tuple) and len(K) == hybrid._N_STAGES + 1
        assert all(a is b for a, b in zip(K, ref[3]))
        assert K[0] is f and K[-1] is f_new
        assert isinstance(block, list) and len(block) == 8 * size
        assert _bits(block) == _bits(ref[4])

        calls, ref_calls = [], []
        norms = [*k.scaled_norms(y, f),
                 k.slope_norm(_recording(values, calls), t, y, f, h)]
        ref = _python_initial_norms(_recording(values, ref_calls), t, y, f,
                                    h)
        assert calls == ref_calls and len(calls) == 1
        assert _bits(norms) == _bits(ref)


@pytest.mark.parametrize("size", range(1, 7))
def test_stage_kernels_stay_within_rounding_of_scipys_products(size, rng):
    # against scipy's arithmetic (`_stage_loop`, its numpy products) on
    # finite values: the same calls and rows, and y_new and the dense
    # output's D K rows within the rounding of their tableau sums (two
    # orders of a sum of m <= 16 terms differ by at most 2 m eps times
    # the sum of the terms' magnitudes)
    from hybridlag import hybrid

    k = hybrid._kernels(size)
    eps = np.finfo(float).eps
    reach = 2 * 16 * eps
    for _ in range(100):
        t, h, *y = (rng.standard_normal(size + 2)
                    * 10.0 ** rng.integers(-3, 4, size + 2)).tolist()
        stages = (rng.standard_normal((hybrid._N_STAGES + 4, size))
                  * 10.0 ** rng.integers(-3, 4, size))
        f, *values = stages.tolist()
        calls, ref_calls = [], []
        fun = _recording(values, calls)
        y_new, f_new, *_, K = k.attempt(fun, t, y, f, h)
        block = np.array(k.dense(fun, t, y, h, y_new, K)).reshape(8, size)
        ref = _stage_loop(_recording(values, ref_calls),
                          np.empty_like(stages), t, y, f, h)
        assert len(calls) == len(ref_calls) == hybrid.RK45.n_stages + 3
        assert f_new is values[hybrid._N_STAGES - 1]
        magnitude = abs(h) * (np.abs(hybrid._B) @ np.abs(
            stages[:hybrid._N_STAGES]))
        assert np.all(np.abs(np.subtract(y_new, ref[0]))
                      <= reach * magnitude + 4 * eps * np.abs(ref[0]))
        magnitude = abs(h) * (np.abs(hybrid._D) @ np.abs(stages))
        ref_block = np.array(ref[4]).reshape(8, size)
        assert np.all(np.abs(block[3:7] - ref_block[3:7])
                      <= reach * magnitude + 2 * eps * np.abs(ref_block[3:7]))
        assert _bits(block[7]) == _bits(y)


# the paper-c010 Cartesian and polar runs and one reduced run with its
# reconstruction, in a fresh interpreter: the impact counts and times and
# the reconstruction's worst angle error at them, as float.hex
_KERNEL_PROBE = """
import sys
sys.path.insert(0, {src!r})
import hybridlag as hl

sc = hl.get_scenario("paper-c010")
cyc = hl.polar_cyclic(sc.params)
cart = hl.simulate(hl.cartesian_hybrid(sc.params), sc.initial_cartesian, 10.0)
full = hl.simulate(cyc.full, sc.initial_polar, 10.0)
mu = hl.momentum_map(cyc, sc.initial_polar)
reduced = hl.simulate(hl.reduce(cyc, mu).shape,
                      cyc.project_state(sc.initial_polar), 10.0)
rec = hl.reconstruct(cyc, reduced, mu, float(sc.initial_polar.q[1]))
worst = max(abs(float(rec.theta[k][-1]) - float(full.arcs[k](ev.tau)[1]))
            for k, ev in enumerate(reduced.events))
print(len(cart.events), len(full.events), len(reduced.events))
print(*(ev.tau.hex() for ev in cart.events + full.events + reduced.events))
print(worst.hex())
"""


def test_every_pipeline_keeps_its_bits_under_two_blas_kernels():
    # no tableau sum of the step loop and no guard or reset goes through
    # BLAS, so the Cartesian, polar and reduced pipelines give the same
    # bits under any OpenBLAS kernel: the one the CPU selects, and
    # Nehalem's (SSE2-era, runs on any x86-64)
    import os
    import subprocess
    import sys

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    if "openblas" not in blas.get("name", "").lower():
        pytest.skip("numpy's BLAS is not OpenBLAS")
    src = os.path.dirname(os.path.dirname(os.path.abspath(hl.__file__)))
    outputs = []
    for coretype in (None, "Nehalem"):
        env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
        env.pop("OPENBLAS_CORETYPE", None)
        if coretype is not None:
            env["OPENBLAS_CORETYPE"] = coretype
        result = subprocess.run(
            [sys.executable, "-c", _KERNEL_PROBE.format(src=src)], env=env,
            capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        outputs.append(result.stdout)
    assert outputs[0].split()[:3] == ["99", "99", "99"]
    assert outputs[0] == outputs[1]


def test_kernel_docstring_shows_the_generated_source():
    # the size-2 text in `_kernels`' docstring is what the template gives
    import inspect
    import textwrap

    from hybridlag import hybrid

    doc = inspect.getdoc(hybrid._kernels)
    shown = textwrap.dedent(doc[doc.index("::") + 2:]).strip()
    assert shown == hybrid._kernel_source(2).strip()


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
    # a flat root that Brent does not close to xtol in its 100 iterations
    (lambda x: math.copysign(abs(x) ** (1 / 51), x), -1.0, 0.5,
     {"xtol": 1e-300}),
], ids=["no-sign-change", "root-outside", "nan", "no-convergence"])
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
    y0 = hs.system.pack(s0)
    solver = hybrid.RK45(hs.system.rhs, s0.t, y0, 2.0, math.inf)
    while solver.status == "running":
        solver.step()
        dense = solver.dense_output()

        def g(t, dense=dense):
            y = dense(t)
            return hs.guard.surface(t, y[:2], y[2:])
        ts = np.linspace(solver.t_old, solver.t, 3)
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


def test_arc_table_with_non_finite_coefficients_sums_like_the_kernel():
    # the gathered numpy sum, scalar times included, against each step's
    # `_StepInterpolant`, the `horner` kernel on Python floats, on blocks
    # with overflow, inf and -0.0: NaN in the same places, and the same
    # bits elsewhere
    import bisect

    from hybridlag import hybrid

    rng = np.random.default_rng(17)
    table = rng.standard_normal((3, 8, 3))
    table[:, :, 2] = -0.0
    table[0, 0, 1] = table[0, 7, 1] = 1.7e308
    table[1, 4, 0] = math.inf
    table[2, 0, 0], table[2, 7, 0] = math.inf, -math.inf
    ends = [0.0, 0.5, 1.25, 2.0]
    interp = hybrid._ArcInterpolant(table, np.array(ends), 0.0, 2.0)
    steps = [hybrid._StepInterpolant(a, b, block.ravel().tolist(),
                                     hybrid._kernels(3).horner)
             for a, b, block in zip(ends, ends[1:], table)]
    ts = np.concatenate([np.linspace(-0.5, 2.5, 31), ends,
                         [0.4999, 1.0, 1.9]])
    cols = interp(ts)
    for i, t in enumerate(ts.tolist()):
        t = min(max(t, 0.0), 2.0)
        j = min(max(bisect.bisect_left(ends, t) - 1, 0), len(steps) - 1)
        expected = np.array(steps[j](t))
        for got in (cols[:, i], interp(t)):
            assert np.array_equal(np.isnan(got), np.isnan(expected)), t
            numbers = ~np.isnan(expected)
            assert _bits(got[numbers]) == _bits(expected[numbers]), t


# ---------------------------------------------------------------------------
# solvers that share nothing
# ---------------------------------------------------------------------------

def _step_bits(solver):
    """The status and bits of `solver`'s last step: its end, RHS call
    count, state, slope, and its dense output's coefficient block and
    midpoint value (the dense output made here)."""
    if solver.status == "failed":
        return [solver.status, _bits([solver.t, solver.nfev])]
    dense = solver.dense_output()
    t_mid = (solver.t - solver.t_old) / 2 + solver.t_old
    return [solver.status, _bits([solver.t, solver.nfev, *solver.y,
                                  *solver.f, *solver._coeffs,
                                  *dense(t_mid)])]


@pytest.mark.parametrize("first, second", [
    ("cartesian", "paper-c025"), ("paper-c025", "max-step"),
    ("reduced", "cartesian"), ("momentum-side", "reduced")])
def test_solvers_stepped_in_alternation_match_solo_runs(first, second):
    # a solver keeps its stage rows itself, and the kernels it shares with
    # every solver of its size hold no state: two solvers stepped in
    # alternation, both steps taken before either dense output, give the
    # bits of the two run one after the other
    from hybridlag import hybrid

    def solo(name):
        solver = hybrid.RK45(*_step_loop_case(name))
        steps = []
        while solver.status == "running":
            solver.step()
            steps.append(_step_bits(solver))
        return steps

    expected = [solo(first), solo(second)]
    solvers = [hybrid.RK45(*_step_loop_case(name)) for name in (first,
                                                                 second)]
    alternated = [[], []]
    while any(solver.status == "running" for solver in solvers):
        stepped = [solver.status == "running" for solver in solvers]
        for solver, step in zip(solvers, stepped):
            if step:
                solver.step()
        for steps, solver, step in zip(alternated, solvers, stepped):
            if step:
                steps.append(_step_bits(solver))
    assert min(map(len, expected)) > 1
    assert alternated == expected


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
    # the RHS on its packed lists, so a run builds the two States of each
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
    # the momentum check on a polar run's step grid builds none: it reads
    # the cyclic structure it is given
    polar = runs["polar"]()
    built[hl.State] = 0
    assert verification.check_momentum_conservation(cyc, polar)["passed"]
    assert built[hl.State] == 0
    # the momentum side builds one CoState, at the start
    built[hl.CoState] = 0
    rep = hl.check_hybrid_equivalence(hl.cartesian_hybrid(sc.params),
                                      sc.initial_cartesian, 10.0)
    assert rep.events_momentum_side == 41
    assert built[hl.CoState] == 1, built[hl.CoState]


def test_guards_and_resets_get_lists_of_floats_in_every_run(monkeypatch):
    # the loop hands the guard and the reset the halves of its packed
    # state as lists of Python floats: in the Cartesian, polar, reduced,
    # resequenced and momentum-side runs, the oracle's flights, and the
    # reduction's one-time symmetry checks. Each function is called, and
    # never on anything else
    from hybridlag import billiard

    sc = hl.get_scenario("paper-c025")
    calls, bad = {}, []

    def floats(x):
        return type(x) is list and all(type(e) is float for e in x)

    def checked(name, fun):
        def f(t, q, v):
            calls[name] = calls.get(name, 0) + 1
            if not (floats(q) and floats(v)):
                bad.append((name, type(q), type(v)))
            return fun(t, q, v)
        return f

    def wrapped_guard(guard, label):
        return hl.Guard(surface=checked(f"{label} surface", guard.surface),
                        direction=checked(f"{label} direction",
                                          guard.direction))

    def wrapped(hs, label):
        return dataclasses.replace(
            hs, guard=wrapped_guard(hs.guard, label),
            reset=hl.ResetMap(apply=checked(f"{label} reset",
                                            hs.reset.apply)))

    polar = hl.polar_cyclic(sc.params)
    cyc = dataclasses.replace(
        polar, full=wrapped(polar.full, "polar"),
        reduced_guard_factory=lambda mu: wrapped_guard(
            polar.reduced_guard_factory(mu), "reduced"))
    mu = hl.momentum_map(cyc, sc.initial_polar)
    cart = wrapped(hl.cartesian_hybrid(sc.params), "cartesian")
    runs = {
        "polar": lambda: hl.simulate(cyc.full, sc.initial_polar, 10.0),
        "reduced": lambda: hl.simulate(
            wrapped(hl.reduce(cyc, mu).shape, "reduced"),
            cyc.project_state(sc.initial_polar), 10.0),
        "resequenced": lambda: hl.simulate_resequenced(
            cyc, sc.initial_polar, 10.0).reduced,
        "cartesian": lambda: hl.simulate(cart, sc.initial_cartesian, 10.0),
    }
    for name, run in runs.items():
        assert len(run().events) == 41, name
    rep = hl.check_hybrid_equivalence(cart, sc.initial_cartesian, 5.0)
    assert rep.passed and rep.events_momentum_side > 0
    # the oracle builds its Cartesian system from the parameters
    monkeypatch.setattr(billiard, "cartesian_hybrid", lambda p: cart)
    assert len(hl.reference_flow(sc.params, sc.initial_cartesian,
                                 10.0).events) == 41
    assert bad == []
    assert sorted(calls) == sorted(
        f"{label} {part}" for label in ("cartesian", "polar", "reduced")
        for part in ("surface", "direction", "reset"))


# ---------------------------------------------------------------------------
# the momentum-side guard
# ---------------------------------------------------------------------------

def test_momentum_side_scan_solves_each_column_once(monkeypatch):
    # the arc-start check and the scan call the surface and then the rate
    # at each new sample; the rate's velocity recovery starts at the
    # surface's solution, so it makes no Hessian solve. Counted over each
    # start check, and from each step's dense output, which the sample
    # calls follow, to the scan rule. A step's first sample is the last
    # one before it, so the scan calls the guard at its midpoint and its
    # end
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
            lambda tau, y: (*reset(tau, y)[:2], mode))
    cs0 = hs.system.legendre(s0)
    flow = hybrid._execute(mode, cs0.t, np.concatenate([cs0.q, cs0.p]), 5.0)
    kinds = [kind for kind, _ in groups]
    assert flow.events and kinds.count("start") == len(flow.arcs)
    assert len(groups) > 3 * len(flow.arcs)
    pair = ["surface", "direction"]
    for kind, calls in groups:
        samples = 1 if kind == "start" else 2
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
