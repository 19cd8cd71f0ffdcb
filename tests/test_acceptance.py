"""Acceptance suite: one test per criterion clause, at the stated
tolerances, printing one line per check (run with -s to see them all).

The two bundled scenarios use the default shrinking wall, which closes
at t* = 10 ln 2 ~ 6.93; impacts accumulate geometrically there and every
run over [0, 10] terminates with zeno_suspected just short of t*. Event
counts, impact times, momentum conservation and the event-structure
agreements all hold through the accumulation at their stated bounds.

The absolute state sup-norm clauses (criteria 1, 2, 6) are asserted over
the full executed record, including the final ~20 ms of micro-bounces
where speeds reach ~1e4 and any two float64 pipelines decorrelate; those
assertions fail there by construction (an absolute 1e-6 at speed 1e4 is
relative 1e-10, at or below the integration tolerance itself, amplified
~2x per bounce across ~40 bounces). The same quantities restricted to
the pre-collapse region (radius >= 0.1) are printed alongside; there the
oracle state error is ~1e-10, the projected-vs-reduced gap 2e-8..2e-7 and
the reconstructed angle error 6e-9..2.4e-8, and the first and last are
asserted by test_pre_collapse_accuracy. See the repository notes for the
full analysis.
"""

import dataclasses
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

import hybridlag as hl
from hybridlag import cli

from conftest import reset_state, sample_states
from oracles import C025_IMPACT_COUNT

HORIZON = 10.0
CORE_RADIUS = 0.1
SCENARIO_IDS = ("paper-c025", "paper-c010")


def report(label, ok, detail=""):
    print(f"[acceptance] {label}: {'PASS' if ok else 'FAIL'}  {detail}")
    return ok


def chart_to_cartesian(y):
    r, th, rd, thd = y
    return np.array([r * math.cos(th), r * math.sin(th),
                     rd * math.cos(th) - r * thd * math.sin(th),
                     rd * math.sin(th) + r * thd * math.cos(th)])


def paired_arc_sup(arcs_a, arcs_b, map_a=None, core_index=None,
                   fill=33):
    """Sup of |map_a(a(t)) - b(t)| over matched arcs; also the sup
    restricted to samples whose b-state coordinate `core_index` >= 0.1."""
    sup_all = 0.0
    sup_core = 0.0
    for arc_a, arc_b in zip(arcs_a, arcs_b):
        lo = max(arc_a.t_start, arc_b.t_start)
        hi = min(arc_a.t_end, arc_b.t_end)
        if hi <= lo:
            continue
        grid = np.union1d(arc_a.times[(arc_a.times >= lo)
                                      & (arc_a.times <= hi)],
                          np.linspace(lo, hi, fill))
        for t in grid:
            ya = arc_a(t)
            yb = arc_b(t)
            if map_a is not None:
                ya = map_a(ya)
            d = float(np.max(np.abs(ya - yb)))
            sup_all = max(sup_all, d)
            if core_index is None or yb[core_index] >= CORE_RADIUS:
                sup_core = max(sup_core, d)
    return sup_all, sup_core


# ---------------------------------------------------------------------------
# shared heavyweight runs
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module", params=SCENARIO_IDS)
def scenario(request):
    return hl.get_scenario(request.param)


@pytest.fixture(scope="module")
def cart_runs():
    """scenario id -> (simulated flow, reference flow, wall seconds)."""
    out = {}
    for sid in SCENARIO_IDS:
        sc = hl.get_scenario(sid)
        start = time.perf_counter()
        sim = hl.simulate(hl.cartesian_hybrid(sc.params),
                          sc.initial_cartesian, HORIZON)
        ref = hl.reference_flow(sc.params, sc.initial_cartesian, HORIZON)
        out[sid] = (sim, ref, time.perf_counter() - start)
    return out


@pytest.fixture(scope="module")
def polar_runs():
    out = {}
    for sid in SCENARIO_IDS:
        sc = hl.get_scenario(sid)
        cyc = hl.polar_cyclic(sc.params)
        out[sid] = (cyc, hl.simulate(cyc.full, sc.initial_polar, HORIZON))
    return out


@pytest.fixture(scope="module")
def reduction_runs(polar_runs):
    """scenario id -> (projected, reduced flow, reconstruction, full)."""
    out = {}
    for sid in SCENARIO_IDS:
        sc = hl.get_scenario(sid)
        cyc, full = polar_runs[sid]
        mu = hl.momentum_map(cyc, sc.initial_polar)
        projected = hl.project(cyc, full)
        red = hl.reduce(cyc, mu)
        reduced = hl.simulate(red.shape, cyc.project_state(sc.initial_polar),
                              HORIZON)
        rec = hl.reconstruct(cyc, reduced, mu,
                             float(sc.initial_polar.q[1]))
        out[sid] = (projected, reduced, rec, full)
    return out


# ---------------------------------------------------------------------------
# criteria 1 and 2: oracle reproduction over [0, 10]
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("sid", SCENARIO_IDS)
def test_criterion_1_2_impact_counts(cart_runs, sid):
    sim, ref, _ = cart_runs[sid]
    ok = report(f"{sid} oracle impact counts",
                len(sim.events) == len(ref.events),
                f"sim {len(sim.events)} vs oracle {len(ref.events)}, "
                f"terminations {sim.termination}/{ref.termination}")
    assert ok


@pytest.mark.parametrize("sid", SCENARIO_IDS)
def test_criterion_1_2_impact_times(cart_runs, sid):
    sim, ref, _ = cart_runs[sid]
    n = min(len(sim.events), len(ref.events))
    worst = max(abs(sim.events[k].tau - ref.events[k].tau) for k in range(n))
    ok = report(f"{sid} oracle impact times <= 1e-8", worst <= 1e-8,
                f"max delta {worst:.3e} over {n} impacts")
    assert ok


@pytest.mark.parametrize("sid", SCENARIO_IDS)
def test_criterion_1_2_runtime(cart_runs, sid):
    _, _, wall = cart_runs[sid]
    ok = report(f"{sid} runtime < 5 s", wall < 5.0, f"{wall:.2f} s")
    assert ok


@pytest.mark.parametrize("sid", SCENARIO_IDS)
def test_criterion_1_2_state_supnorm(cart_runs, sid):
    sim, ref, _ = cart_runs[sid]
    sup_all, _ = paired_arc_sup(ref.arcs, sim.arcs, core_index=None)
    sup_core = _core_sup_cart(ref, sim)
    ok = report(f"{sid} oracle state sup-norm <= 1e-6", sup_all <= 1e-6,
                f"sup {sup_all:.3e} over the full record; "
                f"pre-collapse (|q| >= {CORE_RADIUS}) sup {sup_core:.3e}")
    assert ok, (
        f"state sup-norm {sup_all:.3e} > 1e-6: the comparison includes the "
        f"wall-collapse micro-bounces, where an absolute 1e-6 would need "
        f"relative accuracy below float64; pre-collapse sup is "
        f"{sup_core:.3e}")


def _core_sup_cart(ref, sim):
    sup = 0.0
    for arc_r, arc_s in zip(ref.arcs, sim.arcs):
        lo = max(arc_r.t_start, arc_s.t_start)
        hi = min(arc_r.t_end, arc_s.t_end)
        if hi <= lo:
            continue
        for t in np.linspace(lo, hi, 33):
            ys = arc_s(t)
            if math.hypot(ys[0], ys[1]) >= CORE_RADIUS:
                sup = max(sup, float(np.max(np.abs(arc_r(t) - ys))))
    return sup


# ---------------------------------------------------------------------------
# criterion 3: continuous flow equivalence on the built-in models
# ---------------------------------------------------------------------------

def test_criterion_3_flow_equivalence():
    cases = []
    for c in (0.25, 0.10):
        sc = hl.get_scenario(f"paper-c{int(c*100):03d}")
        cases.append((f"billiard-c{c}", hl.cartesian_system(sc.params),
                      sc.initial_cartesian))
    free = hl.build_model("free-particle")
    osc = hl.build_model("harmonic-1d")
    cases.append(("free-particle", free.system, free.default_initial))
    cases.append(("harmonic-1d", osc.system, osc.default_initial))
    worst = 0.0
    for name, sys, s0 in cases:
        rep = hl.check_flow_equivalence(sys, s0, s0.t + 1.0)
        worst = max(worst, rep.max_state_discrepancy)
        assert rep.passed, f"{name}: {rep}"
    assert report("criterion 3 flow equivalence (unit horizons, 1e-6)",
                  worst <= 1e-6, f"worst {worst:.3e}")


# ---------------------------------------------------------------------------
# criterion 4: hybrid correspondence over [0, 5]
# ---------------------------------------------------------------------------

def test_criterion_4_hybrid_correspondence():
    sc = hl.get_scenario("paper-c025")
    rep = hl.check_hybrid_equivalence(hl.cartesian_hybrid(sc.params),
                                      sc.initial_cartesian, 5.0)
    ok = report("criterion 4 hybrid correspondence [0,5]", rep.passed,
                str(rep))
    assert ok
    assert rep.events_velocity_side == rep.events_momentum_side


# ---------------------------------------------------------------------------
# criterion 5: momentum conservation along the polar flow
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("sid", SCENARIO_IDS)
def test_criterion_5_momentum(polar_runs, sid):
    cyc, flow = polar_runs[sid]
    sc = hl.get_scenario(sid)
    mu0 = hl.momentum_map(cyc, sc.initial_polar)
    drift = 0.0
    mu_arc = mu0
    for arc in flow.arcs:
        J = np.array([hl.momentum_map(cyc, hl.State(t, y[:2], y[2:]))
                      for t, y in zip(arc.times, arc.states)])
        drift = max(drift, float(np.max(np.abs(J - mu_arc))))
    jump = 0.0
    for e in flow.events:
        jump = max(jump, abs(hl.momentum_map(cyc, e.post)
                             - hl.momentum_map(cyc, e.pre)))
    ok_drift = report(f"{sid} momentum drift along arcs <= 1e-8",
                      drift <= 1e-8, f"max {drift:.3e}")
    ok_jump = report(f"{sid} elastic momentum jump <= 1e-12",
                     jump <= 1e-12, f"max {jump:.3e}")
    assert ok_drift and ok_jump


# ---------------------------------------------------------------------------
# criterion 6: reduction round trip over [0, 10]
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("sid", SCENARIO_IDS)
def test_criterion_6_event_structure(reduction_runs, sid):
    projected, reduced, _, _ = reduction_runs[sid]
    counts = len(projected.events) == len(reduced.events)
    n = min(len(projected.events), len(reduced.events))
    evd = max(abs(projected.events[k].tau - reduced.events[k].tau)
              for k in range(n))
    ok = report(f"{sid} reduction event structure", counts and evd <= 1e-8,
                f"counts {len(projected.events)}=={len(reduced.events)}, "
                f"max event dt {evd:.3e}")
    assert ok


@pytest.mark.parametrize("sid", SCENARIO_IDS)
def test_criterion_6_state_supnorm(reduction_runs, sid):
    projected, reduced, _, _ = reduction_runs[sid]
    sup_all, sup_core = paired_arc_sup(projected.arcs, reduced.arcs,
                                       core_index=0)
    ok = report(f"{sid} projected-vs-reduced sup <= 1e-6", sup_all <= 1e-6,
                f"sup {sup_all:.3e}; away from the axis (r >= "
                f"{CORE_RADIUS}) {sup_core:.3e}")
    assert ok, (
        f"projected-vs-reduced sup {sup_all:.3e} > 1e-6 over [0,10]: the "
        f"record includes the wall-collapse micro-bounces where float64 "
        f"pipelines decorrelate; away from the axis the sup is "
        f"{sup_core:.3e}")


@pytest.mark.parametrize("sid", SCENARIO_IDS)
def test_criterion_6_reconstruction(reduction_runs, sid):
    _, reduced, rec, full = reduction_runs[sid]
    worst = 0.0
    worst_core = 0.0
    for k, ev in enumerate(reduced.events):
        theta_full = full.arcs[k](ev.tau)[1]
        d = abs(float(rec.theta[k][-1]) - float(theta_full))
        worst = max(worst, d)
        if ev.pre.q[0] >= CORE_RADIUS:
            worst_core = max(worst_core, d)
    ok = report(f"{sid} reconstructed angle <= 1e-5", worst <= 1e-5,
                f"max {worst:.3e} at impact times; pre-collapse "
                f"{worst_core:.3e}")
    assert ok, (
        f"angle reconstruction delta {worst:.3e} > 1e-5 over [0,10]: "
        f"quadrature through the collapse micro-bounces integrates an "
        f"angular rate ~1/r^2; pre-collapse delta is {worst_core:.3e}")


@pytest.mark.parametrize("sid", SCENARIO_IDS)
def test_pre_collapse_accuracy(cart_runs, reduction_runs, sid):
    # the figures the red sup-norm and angle checks print for the record
    # before the collapse (|q| >= 0.1), held to bounds of their own
    sim, ref, _ = cart_runs[sid]
    state = _core_sup_cart(ref, sim)
    _, reduced, rec, full = reduction_runs[sid]
    angle = max(abs(float(rec.theta[k][-1]) - float(full.arcs[k](ev.tau)[1]))
                for k, ev in enumerate(reduced.events)
                if ev.pre.q[0] >= CORE_RADIUS)
    ok = report(f"{sid} pre-collapse oracle state <= 1e-8 and angle <= 5e-8",
                state <= 1e-8 and angle <= 5e-8,
                f"state {state:.3e}, angle {angle:.3e}")
    assert ok


# ---------------------------------------------------------------------------
# criterion 7: momentum resequencing
# ---------------------------------------------------------------------------

def test_criterion_7_elastic_degeneracy():
    sc = hl.get_scenario("paper-c025")
    cyc = hl.polar_cyclic(sc.params)
    mu = hl.momentum_map(cyc, sc.initial_polar)
    rs = hl.simulate_resequenced(cyc, sc.initial_polar, 5.0)
    mus = np.array(rs.mu_sequence)
    const_ok = float(np.max(np.abs(mus - mus[0]))) <= 1e-12 * abs(mus[0])

    red = hl.reduce(cyc, mu)
    reduced = hl.simulate(red.shape, cyc.project_state(sc.initial_polar), 5.0)
    rec = hl.reconstruct(cyc, reduced, mu, float(sc.initial_polar.q[1]))
    sup, _ = paired_arc_sup(rs.reduced.arcs, reduced.arcs, fill=17)
    evd = float(np.max(np.abs(rs.reduced.event_times()
                              - reduced.event_times())))
    th = max(abs(a[-1] - b[-1]) for a, b in zip(rs.theta, rec.theta))
    ok = report("criterion 7 elastic resequencing degeneracy",
                const_ok and sup <= 1e-9 and evd <= 1e-9 and th <= 1e-9,
                f"mu spread {np.max(np.abs(mus - mus[0])):.2e}, state sup "
                f"{sup:.2e}, event dt {evd:.2e}, theta {th:.2e}")
    assert ok


def test_criterion_7_halving_fixture():
    sc = hl.get_scenario("paper-c025")
    cyc = hl.polar_cyclic(sc.params)
    polar_reset = cyc.full.reset

    def halved(t, q, v):
        q_post, v_post = polar_reset.apply(t, q, v)
        return q_post, np.array([v_post[0], 0.5 * v_post[1]])

    fixture = dataclasses.replace(
        cyc, full=dataclasses.replace(cyc.full,
                                      reset=hl.ResetMap(apply=halved)))
    rs = hl.simulate_resequenced(fixture, sc.initial_polar, 5.0)
    mus = rs.mu_sequence
    worst = max(abs(mus[k + 1] / mus[k] - 0.5) for k in range(len(mus) - 1))
    ok = report("criterion 7 halving fixture mu ratios", worst <= 1e-12,
                f"{len(mus) - 1} impacts, max |ratio - 1/2| {worst:.2e}")
    assert ok


def test_criterion_7_elastic_resequencing_into_zeno(reduction_runs):
    # resequencing keeps the post-impact step ceiling, so it tracks the
    # reduce-once run through the impact accumulation
    sc = hl.get_scenario("paper-c025")
    _, reduced, _, _ = reduction_runs["paper-c025"]
    rs = hl.simulate_resequenced(hl.polar_cyclic(sc.params),
                                 sc.initial_polar, HORIZON)
    terms = (rs.reduced.termination, reduced.termination)
    counts = (len(rs.reduced.events), len(reduced.events))
    m = min(counts)
    evd = float(np.max(np.abs(rs.reduced.event_times()[:m]
                              - reduced.event_times()[:m])))
    ok = report("criterion 7 elastic resequencing into the Zeno regime",
                terms == ("zeno_suspected",) * 2
                and counts == (C025_IMPACT_COUNT,) * 2 and evd <= 1e-9,
                f"terminations {terms}, impacts {counts}, event dt {evd:.2e}")
    assert ok


# ---------------------------------------------------------------------------
# criterion 8: chart and reset equivalences
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("sid", SCENARIO_IDS)
def test_criterion_8_chart_agreement(cart_runs, polar_runs, sid):
    cart, _, _ = cart_runs[sid]
    _, polar = polar_runs[sid]
    counts = len(cart.events) == len(polar.events)
    n = min(len(cart.events), len(polar.events))
    evd = max(abs(cart.events[k].tau - polar.events[k].tau)
              for k in range(n))
    sup_all, sup_core = paired_arc_sup(polar.arcs, cart.arcs,
                                       map_a=chart_to_cartesian,
                                       core_index=None)
    sup_core = _chart_core_sup(polar, cart)
    # the polar chart degenerates at the axis; state agreement is asserted
    # away from it, exactly where the chart-equivalence contract applies
    ok = report(f"{sid} chart agreement", counts and evd <= 1e-8
                and sup_core <= 1e-6,
                f"counts {len(cart.events)}=={len(polar.events)}, event dt "
                f"{evd:.3e}, state sup (r >= {CORE_RADIUS}) {sup_core:.3e}, "
                f"unrestricted {sup_all:.3e}")
    assert ok


def _chart_core_sup(polar, cart):
    sup = 0.0
    for arc_p, arc_c in zip(polar.arcs, cart.arcs):
        lo = max(arc_p.t_start, arc_c.t_start)
        hi = min(arc_p.t_end, arc_c.t_end)
        if hi <= lo:
            continue
        for t in np.linspace(lo, hi, 33):
            yp = arc_p(t)
            if yp[0] >= CORE_RADIUS:
                d = float(np.max(np.abs(chart_to_cartesian(yp) - arc_c(t))))
                sup = max(sup, d)
    return sup


@pytest.mark.parametrize("wall", ["paper", "growing"])
def test_criterion_8_reset_equivalence(wall, rng):
    if wall == "paper":
        p = hl.BilliardParams(c=0.25)
    else:
        # f = 1 + t outruns the slow reflections: for fdot/(2r) <= rdot <
        # fdot/r the Cartesian reset sends the particle radially outward
        p = hl.BilliardParams(c=0.25, wall=lambda t: 1.0 + t,
                              wall_rate=lambda t: 1.0)
    rp = hl.reset_polar(p)
    rc = hl.reset_cartesian(p)
    worst = 0.0
    outward = 0
    for _ in range(1000):
        t = float(rng.uniform(0.0, 6.0))
        r = math.sqrt(p.wall(t))
        theta = float(rng.uniform(-math.pi, math.pi))
        rd = float(rng.uniform(p.wall_rate(t) / (2 * r) + 1e-3, 3.0))
        thd = float(rng.uniform(-4.0, 4.0))
        outward += rd < p.wall_rate(t) / r
        s_pol = hl.State(t, np.array([r, theta]), np.array([rd, thd]))
        mapped = hl.polar_to_cartesian(reset_state(rp, s_pol))
        direct = reset_state(rc, hl.polar_to_cartesian(s_pol))
        worst = max(worst, float(np.max(np.abs(mapped.q - direct.q))),
                    float(np.max(np.abs(mapped.v - direct.v))))
    if wall == "growing":
        assert outward > 0
    ok = report(f"criterion 8 reset equivalence, {wall} wall (1000 on-guard "
                f"states, {outward} reflected outward)",
                worst <= 1e-10, f"max {worst:.3e}")
    assert ok


# ---------------------------------------------------------------------------
# criterion 9: fiber-derivative round trip and derivative consistency
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("model_id", hl.MODEL_IDS)
def test_criterion_9_roundtrip_and_derivatives(model_id, rng):
    sys = hl.build_model(model_id).system
    states = sample_states(rng, model_id, 100)
    worst_rt = 0.0
    for s in states:
        back = sys.inverse_legendre(sys.legendre(s), v0=s.v + 0.03)
        worst_rt = max(worst_rt, float(np.max(np.abs(back.v - s.v))))
    dev = sys.derivative_consistency(states)
    ok = report(f"criterion 9 {model_id}", worst_rt <= 1e-10 and dev <= 1e-6,
                f"round trip {worst_rt:.3e}, derivatives {dev:.3e}")
    assert ok


# ---------------------------------------------------------------------------
# criterion 10: byte-identical repeated runs
# ---------------------------------------------------------------------------

def test_criterion_10_determinism(tmp_path):
    outs = [str(tmp_path / f"run{i}") for i in range(2)]
    for out in outs:
        code = cli.main(["run", "--model", "billiard-cartesian",
                         "--scenario", "paper-c025", "--mode", "full",
                         "--horizon", "10", "--out", out])
        assert code == 0
    identical = True
    for name in ("trajectory.csv", "events.csv"):
        a = Path(outs[0], name).read_bytes()
        b = Path(outs[1], name).read_bytes()
        identical = identical and a == b
    ok = report("criterion 10 determinism (byte-identical files)", identical,
                "trajectory.csv, events.csv")
    assert ok


if __name__ == "__main__":
    import sys
    sys.exit(pytest.main([__file__, "-v", "-s"]))
