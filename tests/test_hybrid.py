import dataclasses

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


def test_flow_invariants(unit_wall_hybrid):
    flow = hl.simulate(unit_wall_hybrid, center_start(), 10.0)
    reset = unit_wall_hybrid.reset
    guard = unit_wall_hybrid.guard
    for i, arc in enumerate(flow.arcs[:-1]):
        assert arc.t_end == flow.arcs[i + 1].t_start
        assert arc.t_start <= arc.t_end
    for i, ev in enumerate(flow.events):
        # impact lies on the guard and is admissible
        pre = ev.pre
        assert abs(guard.surface(pre.t, pre.q, pre.v)) <= 1e-8 * max(
            1.0, abs(guard.direction(pre.t, pre.q, pre.v)))
        assert guard.direction(pre.t, pre.q, pre.v) >= 0.0
        # stored post state is exactly the reset image
        q_post, v_post = reset.apply(ev.tau, pre.q, pre.v)
        assert np.array_equal(q_post, ev.post.q)
        assert np.array_equal(v_post, ev.post.v)
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
            assert g(t, y[:2], y[2:]) <= 1e-8


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


# Runs whose arcs start on the guard with a dip below it shorter than one
# scan interval; before such arcs were armed from their start, all but the
# paper run missed impacts (0 of 50 from on and just outside the wall, 4 of
# 7, and 6 of 11 after crawling to the horizon). The sweep starts are cases
# 0 and 27 of the benchmark's seed-1 cartesian-sweep.
PAPER_C025 = hl.get_scenario("paper-c025")
ORACLE_RUNS = {
    "grazing-static-wall": (static_billiard(), (1.0, 0.0), (-1e-4, 1.0),
                            0.01, 50),
    # g = 1e-10 at the start: accepted as on the guard, within guard_tol
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


# the benchmark sweep's ranges, on the paper wall through its collapse
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
    assert_matches_oracle(hl.BilliardParams(c=c),
                          closing_wall_start(speed, r, angle, turn), 10.0)


@settings(derandomize=True, database=None, max_examples=20, deadline=None)
@given(**CLOSING_WALL_STARTS)
# its stepper collapsed 2.2e-13 after the 4th impact, where the oracle
# and the Cartesian run end zeno_suspected
@example(c=0.25, speed=0.1875, r=0.5, angle=0.0, turn=3.0)
def test_random_polar_starts_on_closing_wall_match_oracle(c, speed, r, angle,
                                                          turn):
    # the polar chart takes the widest steps. It cannot pass through the
    # origin: starts with an angular momentum |q x v| of 1.5e-3 were seen
    # to reach r_min before the collapse, where the chart raises
    # ChartSingularity
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
    sys = dataclasses.replace(bundle.system,
                              acceleration=lambda t, q, v: q * np.nan)
    hs = dataclasses.replace(bundle.hybrid, system=sys)
    s0 = hl.State(0.0, np.array([1.0]), np.array([0.5]))
    with no_hang(10), pytest.raises(hl.IntegrationFailure, match="not finite"):
        hl.simulate(hs, s0, 1.0)


def test_reset_retrigger_rejected(unit_wall_hybrid):
    # identity reset leaves the state exiting the guard: must be refused
    bad = dataclasses.replace(
        unit_wall_hybrid, reset=hl.ResetMap(apply=lambda t, q, v: (q, v)))
    with pytest.raises(hl.InvalidReset):
        hl.simulate(bad, center_start(), 2.0)


def test_guard_continuity_bound_triggers():
    params = static_billiard()
    hs = hl.cartesian_hybrid(params)
    jumpy = dataclasses.replace(
        hs, guard=hl.Guard(
            surface=lambda t, q, v: q[0]**2 + q[1]**2 - (1.0 if t < 0.5
                                                         else 100.0),
            direction=lambda t, q, v: 1.0))
    opts = hl.SimOptions(guard_jump_bound=1.0)
    with pytest.raises(hl.IntegrationFailure):
        hl.simulate(jumpy, center_start(), 2.0, opts)


def test_scan_evaluates_dense_output_once_per_step(monkeypatch):
    # the scan makes one array call per accepted step; every other dense
    # evaluation belongs to a refinement: each Brent iterate and the
    # pre-impact state (the left end's guard value comes from the scan)
    from hybridlag import hybrid

    counts = dict(steps=0, dense=0, brent_evals=0, refines=0)

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

    brentq = hybrid.brentq

    def counted_brentq(f, a, b, *args, **kwargs):
        def counted(x, *fargs):
            counts["brent_evals"] += 1
            return f(x, *fargs)
        counts["refines"] += 1
        return brentq(counted, a, b, *args, **kwargs)

    monkeypatch.setattr(hybrid, "RK45", CountedRK45)
    monkeypatch.setattr(hybrid, "brentq", counted_brentq)
    sc = hl.get_scenario("paper-c025")
    flow = hl.simulate(hl.polar_hybrid(sc.params), sc.initial_polar, 2.0)
    assert flow.events and counts["refines"] >= len(flow.events)
    assert counts["dense"] == (counts["steps"] + counts["brent_evals"]
                               + counts["refines"])


# ---------------------------------------------------------------------------
# the DOP853 step loop against scipy's DOP853
# ---------------------------------------------------------------------------

def _assert_steps_like_scipy(ours, ref):
    """Step both solvers to the end and require bit-identical states,
    RHS call counts, statuses and dense output at the scan times."""
    from hybridlag import hybrid

    def same():
        assert (ours.t, ours.status, ours.nfev) == (ref.t, ref.status,
                                                    ref.nfev)
        assert np.array_equal(ours.y, ref.y)
        assert np.array_equal(ours.f, ref.f)

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
        ts = np.linspace(ref.t_old, ref.t, hybrid.SCAN_POINTS + 2)
        assert np.array_equal(mine(ts), theirs(ts))
        assert all(np.array_equal(mine(float(t)), theirs(t)) for t in ts)
    return steps


def _nan_after_half(t, y):
    return -y if t < 0.5 else np.full_like(y, np.nan)


def _step_loop_case(name):
    """(fun, t0, y0, t_bound, max_step) of a named comparison run."""
    sc = hl.get_scenario("paper-c025")
    polar = hl.polar_system(sc.params)
    y_polar = polar.pack(sc.initial_polar)
    if name == "reduced":
        cyc = hl.polar_cyclic(sc.params)
        mu = hl.momentum_map(cyc, sc.initial_polar)
        red = hl.reduce(cyc, mu).shape.system
        s0 = cyc.project_state(sc.initial_polar)
        return red.rhs, 0.0, red.pack(s0), 10.0, np.inf
    return {"paper-c025": (polar.rhs, 0.0, y_polar, 10.0, np.inf),
            "max-step": (polar.rhs, 0.0, y_polar, 2.0, 0.05),
            "empty-horizon": (polar.rhs, 0.0, y_polar, 0.0, np.inf),
            "nan-field": (_nan_after_half, 0.0, np.array([1.0, 0.5]), 1.0,
                          np.inf)}[name]


@pytest.mark.parametrize("name, status, steps", [
    ("paper-c025", "finished", 20), ("reduced", "finished", 20),
    ("max-step", "finished", 40), ("empty-horizon", "finished", 1),
    ("nan-field", "failed", 10)])
def test_step_loop_reproduces_scipy_dop853(name, status, steps):
    # the executor's step loop repeats scipy's DOP853 arithmetic; a change
    # of scipy's arithmetic fails here instead of drifting the outputs
    from scipy.integrate import DOP853

    from hybridlag import hybrid

    fun, t0, y0, t_bound, max_step = _step_loop_case(name)
    solvers = [cls(fun, t0, y0, t_bound=t_bound, rtol=1e-10, atol=1e-10,
                   max_step=max_step) for cls in (hybrid.RK45, DOP853)]
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


@pytest.mark.parametrize("build, dim, exact", [
    (_simulated_polar_arc, 2, False),
    (_zero_step_arc, 2, True),
    (_projected_arc, 1, False),
    (_reference_arc, 2, True),
], ids=["simulated", "zero-step", "projected", "reference"])
def test_arc_interpolant_array_contract(build, dim, exact):
    arc = build()
    ts = np.linspace(arc.t_start, arc.t_end, 7)
    cols = arc(ts)
    assert cols.shape == (2 * dim, ts.size)
    for i, t in enumerate(ts):
        y = arc(t)
        assert y.shape == (2 * dim,)
        if exact:
            assert np.array_equal(cols[:, i], y)
        else:
            assert np.max(np.abs(cols[:, i] - y)) <= 1e-15 * np.max(np.abs(y))


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
    rflow = hl.simulate(red.shape, s0r, 10.0)
    # no symmetry samples: the one-time validation is not part of the run
    bare = dataclasses.replace(cyc, sample_states=(), guard_sample_states=())
    runs = {
        "polar": lambda: hl.simulate(hl.polar_hybrid(sc.params),
                                     sc.initial_polar, 10.0),
        "reduced": lambda: hl.simulate(red.shape, s0r, 10.0),
        "cartesian": lambda: hl.simulate(hl.cartesian_hybrid(sc.params),
                                         sc.initial_cartesian, 10.0),
        "resequenced": lambda: hl.simulate_resequenced(
            bare, sc.initial_polar, 10.0).reduced,
        "reference": lambda: hl.reference_flow(sc.params,
                                               sc.initial_cartesian, 10.0),
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
# locate_event
# ---------------------------------------------------------------------------

def test_locate_event_linear_in_time():
    sys = hl.build_model("free-particle").system
    hs = hl.HybridSystem(system=sys,
                         guard=hl.Guard(surface=lambda t, q, v: t - 1.0,
                                        direction=lambda t, q, v: 1.0),
                         reset=hl.ResetMap(apply=lambda t, q, v: (q, v)))
    sa = hl.State(0.9, np.zeros(2), np.array([1.0, 0.0]))
    sb = hl.State(1.1, np.array([0.2, 0.0]), np.array([1.0, 0.0]))
    ev = hl.locate_event(hs, (sa, sb))
    assert ev.t == pytest.approx(1.0, abs=1e-10)


def test_locate_event_billiard_crossing(unit_wall_hybrid):
    sa = hl.State(0.5, np.array([0.5, 0.0]), np.array([1.0, 0.0]))
    sb = hl.State(1.5, np.array([1.5, 0.0]), np.array([1.0, 0.0]))
    ev = hl.locate_event(unit_wall_hybrid, (sa, sb))
    assert ev.t == pytest.approx(1.0, abs=1e-9)
    assert abs(unit_wall_hybrid.guard.surface(ev.t, ev.q, ev.v)) <= 1e-9


def test_locate_event_grazing_direction_zero_accepted(unit_wall_hybrid):
    # closed inequality: an exactly-zero direction still counts
    hs = dataclasses.replace(
        unit_wall_hybrid,
        guard=dataclasses.replace(unit_wall_hybrid.guard,
                                  direction=lambda t, q, v: 0.0))
    sa = hl.State(0.5, np.array([0.5, 0.0]), np.array([1.0, 0.0]))
    sb = hl.State(1.5, np.array([1.5, 0.0]), np.array([1.0, 0.0]))
    ev = hl.locate_event(hs, (sa, sb))
    assert ev.t == pytest.approx(1.0, abs=1e-9)


def test_locate_event_direction_rejected(unit_wall_hybrid):
    hs = dataclasses.replace(
        unit_wall_hybrid,
        guard=dataclasses.replace(unit_wall_hybrid.guard,
                                  direction=lambda t, q, v: -1.0))
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
    assert unit_wall_hybrid.guard.surface(sa.t, sa.q, sa.v) == 0.0
    ev = hl.locate_event(unit_wall_hybrid, (sa, sb))
    assert ev.t == sa.t
    assert np.array_equal(ev.q, sa.q) and np.array_equal(ev.v, sa.v)


def test_locate_event_from_non_finite_state_raises():
    # the Cartesian field ignores q, so a NaN position passes the RHS
    # check; without the start check every step size would be NaN
    hs = hl.cartesian_hybrid(static_billiard())
    sa = hl.State(0.0, np.array([np.nan, 0.0]), np.array([1.0, 0.0]))
    sb = hl.State(2.0, np.zeros(2), np.array([1.0, 0.0]))
    with no_hang(10), pytest.raises(ValueError, match="finite"):
        hl.locate_event(hs, (sa, sb))


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
