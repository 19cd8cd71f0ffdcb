import dataclasses
import math

import numpy as np
import pytest

import hybridlag as hl
from hybridlag import hybrid
from oracles import simpson


def mk_state(t, q, v):
    return hl.State(t, np.asarray(q, float), np.asarray(v, float))


@pytest.fixture(scope="module")
def cyc025():
    return hl.polar_cyclic(hl.BilliardParams(c=0.25))


@pytest.fixture(scope="module")
def scenario():
    return hl.get_scenario("paper-c025")


# ---------------------------------------------------------------------------
# momentum map and cyclic velocity
# ---------------------------------------------------------------------------

def test_momentum_at_reference_start(cyc025, scenario):
    mu = hl.momentum_map(cyc025, scenario.initial_polar)
    assert mu == pytest.approx(-0.94994224, abs=1e-10)


def test_momentum_zero_angular_velocity(cyc025):
    assert hl.momentum_map(cyc025, mk_state(1.0, [0.7, 0.2], [1.5, 0.0])) == 0.0


def test_resequenced_horizon_before_start_is_invalid_start(cyc025, scenario):
    s0 = dataclasses.replace(scenario.initial_polar, t=2.0)
    with pytest.raises(hl.InvalidStart, match="precedes the start time"):
        hl.simulate_resequenced(cyc025, s0, 1.0)


@pytest.mark.parametrize("index", [0, 1, 2, 3])
def test_non_finite_start_is_invalid_start(cyc025, scenario, index):
    # components r, theta, rdot, thetadot. The resequenced run checks the
    # whole start. The reduce-once pipeline fails at `reduce` when the
    # momentum is not finite (r, thetadot), at `simulate` on the
    # projected start (rdot), and at `reconstruct` on the start angle
    # (theta).
    y = np.concatenate([scenario.initial_polar.q, scenario.initial_polar.v])
    y[index] = np.nan
    s0 = mk_state(0.0, y[:2], y[2:])
    with pytest.raises(hl.InvalidStart, match="not finite"):
        hl.simulate_resequenced(cyc025, s0, 1.0)
    with pytest.raises(hl.InvalidStart, match="not finite"):
        mu = hl.momentum_map(cyc025, s0)
        red = hl.reduce(cyc025, mu)
        flow = hl.simulate(red.shape, cyc025.project_state(s0), 1.0)
        hl.reconstruct(cyc025, flow, mu, s0.q[1])


def test_momentum_exponential_weight(cyc025):
    # at t = m ln 2 / c the weight doubles the kinetic momentum
    t = math.log(2.0) / 0.25
    mu = hl.momentum_map(cyc025, mk_state(t, [1.0, 0.0], [0.0, 1.0]))
    assert mu == pytest.approx(2.0, rel=1e-14)


def test_momentum_equals_cyclic_momentum_component(cyc025, rng):
    sys = cyc025.full.system
    for _ in range(50):
        s = mk_state(float(rng.uniform(0, 3)),
                     [rng.uniform(0.3, 1.3), rng.uniform(-3, 3)],
                     [rng.uniform(-2, 2), rng.uniform(-4, 4)])
        p_theta = sys.legendre(s).p[cyc025.cyclic_index]
        assert hl.momentum_map(cyc025, s) == pytest.approx(p_theta, abs=1e-10)


def test_solve_cyclic_velocity_inverts_momentum(cyc025):
    thd = cyc025.solve_cyclic_velocity(0.0, np.array([0.5590]),
                                       np.array([2.8621]), -0.94994224)
    assert thd == pytest.approx(-3.0400, abs=1e-10)


def test_solve_cyclic_velocity_zero(cyc025):
    assert cyc025.solve_cyclic_velocity(1.3, np.array([0.8]),
                                        np.array([0.1]), 0.0) == 0.0


def test_solve_cyclic_velocity_plain_values(cyc025):
    assert cyc025.solve_cyclic_velocity(0.0, np.array([2.0]),
                                        np.array([0.0]), 8.0) == \
        pytest.approx(2.0, rel=1e-13)


def test_solve_cyclic_velocity_newton_path(cyc025, rng):
    generic = dataclasses.replace(cyc025, cyclic_velocity_solver=None)
    for _ in range(20):
        t = float(rng.uniform(0, 3))
        r = float(rng.uniform(0.3, 1.3))
        mu = float(rng.uniform(-2, 2))
        x, xdot = np.array([r]), np.array([0.5])
        closed = cyc025.solve_cyclic_velocity(t, x, xdot, mu)
        newton = generic.solve_cyclic_velocity(t, x, xdot, mu)
        assert newton == pytest.approx(closed, abs=1e-11)


@pytest.mark.parametrize("closed_form", [True, False],
                         ids=["closed-form", "newton"])
def test_solve_cyclic_velocity_on_columns(cyc025, rng, closed_form):
    # the array contract of Arc.interpolant: (k,) times with (m, k)
    # columns give (k,) velocities, column i agreeing with the scalar call
    # (the closed form may differ in the last bit, as np.exp does)
    cs = cyc025 if closed_form else dataclasses.replace(
        cyc025, cyclic_velocity_solver=None)
    ts = rng.uniform(0.0, 3.0, 9)
    x = rng.uniform(0.3, 1.3, (1, 9))
    xdot = rng.uniform(-2.0, 2.0, (1, 9))
    cols = cs.solve_cyclic_velocity(ts, x, xdot, -0.95)
    assert cols.shape == (9,)
    for i, t in enumerate(ts):
        thd = cs.solve_cyclic_velocity(t, x[:, i], xdot[:, i], -0.95)
        assert isinstance(thd, float)
        if closed_form:
            assert abs(cols[i] - thd) <= 1e-15 * abs(thd)
        else:
            assert cols[i] == thd


def test_solve_cyclic_velocity_degenerate_raises():
    # Lagrangian linear in the cyclic velocity: momentum relation has no
    # solution (not regular in the group velocity)
    sys = hl.LagrangianSystem(
        dim=2,
        lagrangian=lambda t, q, v: 0.5 * v[0]**2 + v[1],
        dL_dq=lambda t, q, v: np.zeros(2),
        dL_dv=lambda t, q, v: np.array([v[0], 1.0]))
    hs = hybrid._inert_hybrid(sys)
    cs = hl.CyclicStructure(full=hs, cyclic_index=1)
    with pytest.raises(hl.NoConvergence):
        cs.solve_cyclic_velocity(0.0, np.array([0.0]), np.array([0.0]), 2.0)


# ---------------------------------------------------------------------------
# Routhian
# ---------------------------------------------------------------------------

def test_routhian_closed_form_value(cyc025):
    red = hl.routhian(cyc025, 1.0)
    assert red.lagrangian(0.0, np.array([1.0]), np.array([0.0])) == \
        pytest.approx(-0.5, abs=1e-15)


def test_routhian_generic_matches_closed_form(cyc025, rng):
    composed = dataclasses.replace(cyc025, routhian_factory=None)
    for _ in range(100):
        mu = float(rng.uniform(-2.0, 2.0))
        t = float(rng.uniform(0.0, 4.0))
        r = float(rng.uniform(0.3, 1.5))
        rd = float(rng.uniform(-3.0, 3.0))
        closed = hl.routhian(cyc025, mu)
        generic = hl.routhian(composed, mu)
        x, xd = np.array([r]), np.array([rd])
        assert generic.lagrangian(t, x, xd) == pytest.approx(
            closed.lagrangian(t, x, xd), abs=1e-9)
        assert generic.dL_dq(t, x, xd)[0] == pytest.approx(
            closed.dL_dq(t, x, xd)[0], abs=1e-9)
        assert generic.dL_dv(t, x, xd)[0] == pytest.approx(
            closed.dL_dv(t, x, xd)[0], abs=1e-9)


def test_routhian_zero_momentum_restricts_lagrangian(cyc025):
    red = hl.routhian(dataclasses.replace(cyc025, routhian_factory=None), 0.0)
    sys = cyc025.full.system
    t, x, xd = 0.7, np.array([0.9]), np.array([1.2])
    full_val = sys.lagrangian(t, np.array([0.9, 0.0]), np.array([1.2, 0.0]))
    assert red.lagrangian(t, x, xd) == pytest.approx(full_val, abs=1e-14)


# ---------------------------------------------------------------------------
# reduce
# ---------------------------------------------------------------------------

def test_reduce_guard_is_radial_wall(cyc025, scenario):
    mu = scenario.momentum
    red = hl.reduce(cyc025, mu)
    p = hl.BilliardParams(c=0.25)
    s = mk_state(0.4, [0.8], [1.1])
    assert red.shape.guard.surface(s.t, s.q, s.v) == pytest.approx(
        0.8**2 - p.wall(0.4), abs=1e-14)
    # admissibility matches the co-moving radial condition
    assert red.shape.guard.direction(s.t, s.q, s.v) == pytest.approx(
        2 * 0.8 * 1.1 - p.wall_rate(0.4), abs=1e-13)


def test_reduce_reset_matches_full_radial_part(cyc025, scenario, rng):
    mu = scenario.momentum
    red = hl.reduce(cyc025, mu)
    p = hl.BilliardParams(c=0.25)
    rp = hl.reset_polar(p)
    for _ in range(50):
        t = float(rng.uniform(0, 3))
        r = math.sqrt(p.wall(t))
        rd = float(rng.uniform(0.1, 3.0))
        x_post, xdot_post = red.shape.reset.apply(t, np.array([r]),
                                                  np.array([rd]))
        thd = cyc025.solve_cyclic_velocity(t, np.array([r]), np.array([rd]),
                                           mu)
        _, v_post = rp.apply(t, np.array([r, 0.0]), np.array([rd, thd]))
        assert xdot_post[0] == pytest.approx(v_post[0], abs=1e-13)
        assert x_post[0] == r


def test_reduce_rejects_non_invariant_lagrangian(cyc025):
    base = cyc025.full
    sys = base.system
    broken = dataclasses.replace(
        base,
        system=dataclasses.replace(
            sys,
            lagrangian=lambda t, q, v: sys.lagrangian(t, q, v)
            + 0.01 * math.sin(q[1]),
            dL_dq=lambda t, q, v: sys.dL_dq(t, q, v)
            + np.array([0.0, 0.01 * math.cos(q[1])])))
    cs = dataclasses.replace(cyc025, full=broken)
    with pytest.raises(hl.NotInvariant):
        hl.reduce(cs, -0.9)


def test_reduce_rejects_non_equivariant_reset(cyc025):
    base = cyc025.full
    broken = dataclasses.replace(
        base,
        reset=hl.ResetMap(apply=lambda t, q, v: (
            np.array([q[0], 0.5 * q[1]]), -v)))
    cs = dataclasses.replace(cyc025, full=broken)
    with pytest.raises(hl.NotInvariant):
        hl.reduce(cs, -0.9)


def test_reduce_rejects_wrong_closed_form_guard(cyc025):
    wall, rate = hl.static_wall(1.0)
    other = hl.guard_polar(hl.BilliardParams(c=0.25, wall=wall,
                                             wall_rate=rate))
    cs = dataclasses.replace(cyc025, reduced_guard_factory=lambda mu: other)
    with pytest.raises(hl.NotInvariant):
        hl.reduce(cs, -0.9)


def test_closed_form_guard_run_matches_embedded_guard(cyc025, scenario):
    mu = hl.momentum_map(cyc025, scenario.initial_polar)
    s0r = cyc025.project_state(scenario.initial_polar)
    embedded = dataclasses.replace(cyc025, reduced_guard_factory=None)
    closed = hl.simulate(hl.reduce(cyc025, mu).shape, s0r, 3.0)
    generic = hl.simulate(hl.reduce(embedded, mu).shape, s0r, 3.0)
    assert closed.events
    assert np.array_equal(closed.event_times(), generic.event_times())
    assert len(closed.arcs) == len(generic.arcs)
    for arc_c, arc_g in zip(closed.arcs, generic.arcs):
        assert np.array_equal(arc_c.times, arc_g.times)
        assert np.array_equal(arc_c.states, arc_g.states)


def test_reduce_free_particle_zero_momentum():
    # radial free motion: with mu = 0 the reduced system is force-free
    wall, rate = hl.static_wall(100.0)
    p = hl.BilliardParams(c=0.0, wall=wall, wall_rate=rate)
    cyc = hl.polar_cyclic(p)
    red = hl.reduce(cyc, 0.0)
    a = red.shape.system.acceleration(0.0, [1.0], [0.5])
    assert a[0] == 0.0


# ---------------------------------------------------------------------------
# project
# ---------------------------------------------------------------------------

def test_project_drops_cyclic_components(cyc025, scenario):
    flow = hl.simulate(cyc025.full, scenario.initial_polar, 2.0)
    proj = hl.project(cyc025, flow)
    assert proj.termination == flow.termination
    assert len(proj.events) == len(flow.events)
    for arc_f, arc_p in zip(flow.arcs, proj.arcs):
        assert arc_p.states.shape[1] == 2
        assert np.array_equal(arc_p.states[:, 0], arc_f.states[:, 0])
        assert np.array_equal(arc_p.states[:, 1], arc_f.states[:, 2])
        t_mid = 0.5 * (arc_f.t_start + arc_f.t_end)
        y_f = arc_f(t_mid)
        y_p = arc_p(t_mid)
        assert np.allclose(y_p, [y_f[0], y_f[2]], atol=0)
    for e_f, e_p in zip(flow.events, proj.events):
        assert e_p.pre.q[0] == e_f.pre.q[0]
        assert e_p.pre.v[0] == e_f.pre.v[0]


def test_projection_matches_reduced_simulation(cyc025, scenario):
    # solutions at fixed momentum project onto reduced solutions
    mu = hl.momentum_map(cyc025, scenario.initial_polar)
    full = hl.simulate(cyc025.full, scenario.initial_polar, 5.0)
    proj = hl.project(cyc025, full)
    red = hl.reduce(cyc025, mu)
    s0r = cyc025.project_state(scenario.initial_polar)
    reduced = hl.simulate(red.shape, s0r, 5.0)
    assert len(proj.events) == len(reduced.events)
    ev_delta = np.max(np.abs(proj.event_times() - reduced.event_times()))
    assert ev_delta <= 1e-8
    sup = 0.0
    for arc_p, arc_r in zip(proj.arcs, reduced.arcs):
        lo, hi = arc_r.t_start, min(arc_p.t_end, arc_r.t_end)
        for t in np.linspace(lo, hi, 33):
            sup = max(sup, float(np.max(np.abs(arc_p(t) - arc_r(t)))))
    assert sup <= 1e-6


# ---------------------------------------------------------------------------
# reconstruction
# ---------------------------------------------------------------------------

def test_reconstruct_constant_radius_closed_form(cyc025):
    # fabricated single-arc reduced flow with frozen radius: the cyclic
    # angle grows linearly, theta = theta0 + mu t / (m r^2) for c = 0
    wall, rate = hl.static_wall(100.0)
    cyc = hl.polar_cyclic(hl.BilliardParams(c=0.0, wall=wall, wall_rate=rate))
    r0, mu, theta0 = 1.3, 0.7, 0.2
    times = np.linspace(0.0, 2.0, 9)
    states = np.column_stack([np.full(9, r0), np.zeros(9)])
    arc = hl.Arc(0.0, 2.0, times, states,
                 lambda t: np.array([np.full(np.shape(t), r0),
                                     np.zeros(np.shape(t))]))
    flow = hl.HybridFlow([arc], [], "horizon_reached")
    rec = hl.reconstruct(cyc, flow, mu, theta0)
    expected = theta0 + mu * 2.0 / (r0 * r0)
    assert rec.theta[0][-1] == pytest.approx(expected, abs=1e-12)


def test_reconstruct_zero_momentum_is_constant(scenario):
    # zero angular momentum leaves no barrier: keep the horizon short of
    # the origin crossing (the chart would legitimately give out there)
    cyc = hl.polar_cyclic(hl.BilliardParams(c=0.0))
    mu = 0.0
    red = hl.reduce(cyc, mu)
    s0r = cyc.project_state(scenario.initial_polar)
    reduced = hl.simulate(red.shape, s0r, 0.3)
    assert len(reduced.events) == 1
    rec = hl.reconstruct(cyc, reduced, mu, 1.1071)
    for th in rec.theta:
        assert np.allclose(th, 1.1071, atol=1e-14)


def test_reconstruct_matches_simpson_oracle(cyc025, scenario):
    # independent quadrature of the angular rate along the first arc
    mu = hl.momentum_map(cyc025, scenario.initial_polar)
    red = hl.reduce(cyc025, mu)
    s0r = cyc025.project_state(scenario.initial_polar)
    reduced = hl.simulate(red.shape, s0r, 2.0)
    rec = hl.reconstruct(cyc025, reduced, mu, 1.1071)
    arc = reduced.arcs[0]
    c = 0.25

    def theta_dot(t):
        r = arc(t)[0]
        return math.exp(-c * t) * mu / (r * r)

    ref = 1.1071 + simpson(theta_dot, arc.t_start, arc.t_end, n=4000)
    assert rec.theta[0][-1] == pytest.approx(ref, abs=1e-9)


def test_reconstruct_momentum_residual(cyc025, scenario):
    mu = hl.momentum_map(cyc025, scenario.initial_polar)
    red = hl.reduce(cyc025, mu)
    s0r = cyc025.project_state(scenario.initial_polar)
    reduced = hl.simulate(red.shape, s0r, 5.0)
    rec = hl.reconstruct(cyc025, reduced, mu, 1.1071)
    assert rec.max_momentum_residual <= 1e-6


def test_reconstruct_theta_continuous_across_impacts(cyc025, scenario):
    mu = hl.momentum_map(cyc025, scenario.initial_polar)
    red = hl.reduce(cyc025, mu)
    s0r = cyc025.project_state(scenario.initial_polar)
    reduced = hl.simulate(red.shape, s0r, 5.0)
    rec = hl.reconstruct(cyc025, reduced, mu, 1.1071)
    for k in range(len(rec.theta) - 1):
        assert rec.theta[k + 1][0] == pytest.approx(rec.theta[k][-1],
                                                    abs=1e-14)


def test_reconstruct_tracks_full_flow(cyc025, scenario):
    mu = hl.momentum_map(cyc025, scenario.initial_polar)
    full = hl.simulate(cyc025.full, scenario.initial_polar, 5.0)
    red = hl.reduce(cyc025, mu)
    s0r = cyc025.project_state(scenario.initial_polar)
    reduced = hl.simulate(red.shape, s0r, 5.0)
    rec = hl.reconstruct(cyc025, reduced, mu, 1.1071)
    worst = 0.0
    for k, ev in enumerate(reduced.events):
        theta_full = full.arcs[k](ev.tau)[1]
        worst = max(worst, abs(rec.theta[k][-1] - theta_full))
    assert worst <= 1e-5


# ---------------------------------------------------------------------------
# resequencing
# ---------------------------------------------------------------------------

def test_reconstruct_solves_cyclic_velocity_once_per_arc(cyc025, scenario):
    mu = hl.momentum_map(cyc025, scenario.initial_polar)
    flow = hl.simulate(hl.reduce(cyc025, mu).shape,
                       cyc025.project_state(scenario.initial_polar), 10.0)
    solver = cyc025.cyclic_velocity_solver
    calls = [0]

    def counted(t, x, xdot, mu):
        calls[0] += 1
        return solver(t, x, xdot, mu)

    counting = dataclasses.replace(cyc025, cyclic_velocity_solver=counted)
    hl.reconstruct(counting, flow, mu, float(scenario.initial_polar.q[1]))
    assert len(flow.arcs) == 42
    assert calls[0] == len(flow.arcs)


def test_resequenced_elastic_constant_momentum(cyc025, scenario):
    rs = hl.simulate_resequenced(cyc025, scenario.initial_polar, 5.0)
    mus = np.array(rs.mu_sequence)
    assert np.max(np.abs(mus - mus[0])) <= 1e-12 * abs(mus[0])
    assert rs.reduced.termination == "horizon_reached"


def test_resequenced_elastic_matches_reduce_once(cyc025, scenario):
    mu = hl.momentum_map(cyc025, scenario.initial_polar)
    rs = hl.simulate_resequenced(cyc025, scenario.initial_polar, 5.0)
    red = hl.reduce(cyc025, mu)
    s0r = cyc025.project_state(scenario.initial_polar)
    reduced = hl.simulate(red.shape, s0r, 5.0)
    rec = hl.reconstruct(cyc025, reduced, mu, 1.1071)
    assert len(rs.reduced.events) == len(reduced.events)
    ev_delta = np.max(np.abs(rs.reduced.event_times()
                             - reduced.event_times()))
    assert ev_delta <= 1e-9
    sup = 0.0
    for arc_a, arc_b in zip(rs.reduced.arcs, reduced.arcs):
        lo = max(arc_a.t_start, arc_b.t_start)
        hi = min(arc_a.t_end, arc_b.t_end)
        for t in np.linspace(lo, hi, 17):
            sup = max(sup, float(np.max(np.abs(arc_a(t) - arc_b(t)))))
    assert sup <= 1e-9
    th_delta = max(abs(a[-1] - b[-1]) for a, b in zip(rs.theta, rec.theta))
    assert th_delta <= 1e-9


def halving_fixture(cyc):
    """`cyc` with restitution on the angular component: the momentum
    halves per impact."""
    polar_reset = cyc.full.reset

    def damped_angular(t, q, v):
        q_post, v_post = polar_reset.apply(t, q, v)
        return q_post, np.array([v_post[0], 0.5 * v_post[1]])

    return dataclasses.replace(cyc, full=dataclasses.replace(
        cyc.full, reset=hl.ResetMap(apply=damped_angular)))


def test_resequenced_halving_fixture(cyc025, scenario):
    rs = hl.simulate_resequenced(halving_fixture(cyc025),
                                 scenario.initial_polar, 5.0)
    mus = rs.mu_sequence
    assert len(mus) >= 4
    for k in range(len(mus) - 1):
        assert mus[k + 1] / mus[k] == pytest.approx(0.5, abs=1e-12)


def test_reduce_once_rejects_momentum_changing_reset(cyc025, scenario):
    # the reduced system holds at one momentum; the halving reset leaves
    # it at the first impact, so the reduced reset refuses it
    fixture = halving_fixture(cyc025)
    mu = hl.momentum_map(fixture, scenario.initial_polar)
    red = hl.reduce(fixture, mu)
    with pytest.raises(hl.NotInvariant, match="mu_post="):
        hl.simulate(red.shape, fixture.project_state(scenario.initial_polar),
                    5.0)


def test_resequenced_rejects_retriggering_reset(cyc025, scenario):
    # halves the angular velocity but keeps the outward radial velocity,
    # so the post-impact state runs straight back through the wall
    def no_bounce(t, q, v):
        return q.copy(), np.array([v[0], 0.5 * v[1]])

    fixture = dataclasses.replace(
        cyc025, full=dataclasses.replace(
            cyc025.full, reset=hl.ResetMap(apply=no_bounce)))
    with pytest.raises(hl.InvalidReset):
        hl.simulate_resequenced(fixture, scenario.initial_polar, 5.0)


def test_resequenced_no_impacts(cyc025, scenario):
    rs = hl.simulate_resequenced(cyc025, scenario.initial_polar, 0.05)
    assert len(rs.mu_sequence) == 1
    assert not rs.reduced.events


# ---------------------------------------------------------------------------
# iterated reduction on a generic system (two cyclic coordinates)
# ---------------------------------------------------------------------------

def test_iterated_reduction_free_3d():
    # L = |v|^2/2 on (x, y, z); y and z are cyclic. Reducing twice leaves
    # free 1-D motion in x, and the eliminated velocities are constants.
    free3 = hl.LagrangianSystem(
        dim=3,
        lagrangian=lambda t, q, v: 0.5 * float(v @ v),
        dL_dq=lambda t, q, v: np.zeros(3),
        dL_dv=lambda t, q, v: v.copy(),
        acceleration=lambda t, q, v: [0.0] * 3)
    rng = np.random.default_rng(7)
    samples3 = [hl.State(rng.uniform(0, 2), rng.uniform(-1, 1, 3),
                         rng.uniform(-2, 2, 3)) for _ in range(10)]
    cs_z = hl.CyclicStructure(full=hybrid._inert_hybrid(free3),
                              cyclic_index=2, sample_states=samples3,
                              guard_sample_states=samples3)
    red_z = hl.reduce(cs_z, 0.75)
    assert red_z.shape.system.dim == 2

    samples2 = [hl.State(rng.uniform(0, 2), rng.uniform(-1, 1, 2),
                         rng.uniform(-2, 2, 2)) for _ in range(10)]
    cs_y = hl.CyclicStructure(full=red_z.shape, cyclic_index=1,
                              sample_states=samples2,
                              guard_sample_states=samples2)
    red_yz = hl.reduce(cs_y, -0.25)
    assert red_yz.shape.system.dim == 1

    s0 = hl.State(0.0, np.array([0.3]), np.array([1.1]))
    flow = hl.simulate(red_yz.shape, s0, 2.0)
    y_end = flow.arcs[-1](2.0)
    assert y_end[0] == pytest.approx(0.3 + 1.1 * 2.0, abs=1e-9)
    # recover both cyclic velocities from their momenta
    thd_y = cs_y.solve_cyclic_velocity(0.0, np.array([0.3]),
                                       np.array([1.1]), -0.25)
    assert thd_y == pytest.approx(-0.25, abs=1e-10)
    thd_z = cs_z.solve_cyclic_velocity(0.0, np.array([0.3, 0.0]),
                                       np.array([1.1, thd_y]), 0.75)
    assert thd_z == pytest.approx(0.75, abs=1e-10)
