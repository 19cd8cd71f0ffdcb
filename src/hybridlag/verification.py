"""Invariant suite behind the CLI ``verify`` mode.

Each check returns a record {check, passed, measured, bound, detail};
the runner aggregates them. Bounds mirror the package-wide contracts:
derivative consistency 1e-6, fiber-derivative round trip 1e-10, flow
equivalence 1e-6, hybrid correspondence 1e-6 with event times 1e-8,
momentum drift 1e-8 per arc, per-arc oracle agreement 1e-8, chart
impact-time agreement 1e-8.
"""

from __future__ import annotations

import numpy as np

from . import billiard
from .hybrid import (SimOptions, check_flow_equivalence,
                     check_hybrid_equivalence, simulate)
from .io import events_header, trajectory_header
from .lagrangian import State
from .models import MODEL_IDS, build_model
from .reduction import momentum_map

_SAMPLE_SEED = 911


def _sample_states(model_id, count=100):
    rng = np.random.default_rng(_SAMPLE_SEED)
    states = []
    for _ in range(count):
        t = float(rng.uniform(0.0, 4.0))
        if model_id == "billiard-polar":
            q = np.array([rng.uniform(0.3, 1.3), rng.uniform(-3.0, 3.0)])
        elif model_id == "harmonic-1d":
            q = rng.uniform(-1.5, 1.5, size=1)
        else:
            q = rng.uniform(-1.5, 1.5, size=2)
        v = rng.uniform(-3.0, 3.0, size=q.size)
        states.append(State(t, q, v))
    return states


def check_derivative_consistency(params=None, count=100):
    worst, worst_model = 0.0, None
    for mid in MODEL_IDS:
        bundle = build_model(mid, params)
        dev = bundle.system.derivative_consistency(_sample_states(mid, count))
        if dev > worst:
            worst, worst_model = dev, mid
    return {"check": "derivative_consistency", "passed": worst <= 1e-6,
            "measured": worst, "bound": 1e-6,
            "detail": f"worst model: {worst_model}"}


def check_legendre_roundtrip(params=None, count=100):
    worst = 0.0
    for mid in MODEL_IDS:
        bundle = build_model(mid, params)
        sys = bundle.system
        for s in _sample_states(mid, count):
            back = sys.inverse_legendre(sys.legendre(s), v0=s.v + 0.1)
            worst = max(worst, float(np.max(np.abs(back.v - s.v))))
    return {"check": "legendre_roundtrip", "passed": worst <= 1e-10,
            "measured": worst, "bound": 1e-10, "detail": ""}


def check_flow_equivalence_models(params=None, tol=1e-6):
    worst, detail = 0.0, []
    for mid in MODEL_IDS:
        bundle = build_model(mid, params)
        s0 = bundle.default_initial
        rep = check_flow_equivalence(bundle.system, s0, s0.t + 1.0, tol=tol)
        worst = max(worst, rep.max_discrepancy)
        detail.append(f"{mid}:{rep.max_discrepancy:.2e}")
    return {"check": "flow_equivalence", "passed": worst <= tol,
            "measured": worst, "bound": tol, "detail": " ".join(detail)}


def check_hybrid_correspondence(scenario, horizon=5.0, tol=1e-6,
                                opts=None):
    hs = billiard.cartesian_hybrid(scenario.params)
    rep = check_hybrid_equivalence(hs, scenario.initial_cartesian,
                                   min(horizon, scenario.horizon), tol=tol,
                                   opts=opts)
    return {"check": "hybrid_correspondence", "passed": rep.passed,
            "measured": rep.max_state_discrepancy, "bound": tol,
            "detail": str(rep)}


def check_momentum_conservation(scenario, opts=None):
    cyc = billiard.polar_cyclic(scenario.params)
    flow = simulate(cyc.full, scenario.initial_polar, scenario.horizon,
                    opts or SimOptions())
    worst = 0.0
    for arc in flow.arcs:
        J = np.array([momentum_map(cyc, State(t, y[:2], y[2:]))
                      for t, y in zip(arc.times, arc.states)])
        worst = max(worst, float(np.max(np.abs(J - J[0]))))
    jump = 0.0
    for e in flow.events:
        jump = max(jump, abs(momentum_map(cyc, e.post)
                             - momentum_map(cyc, e.pre)))
    return {"check": "momentum_conservation", "passed": worst <= 1e-8
            and jump <= 1e-12, "measured": worst, "bound": 1e-8,
            "detail": f"impact jump {jump:.2e} (bound 1e-12)"}


def check_arc_oracle_agreement(scenario, opts=None):
    """Each simulated arc against the closed-form flight from the arc's
    own initial state (local comparison, no cross-impact accumulation)."""
    p = scenario.params
    hs = billiard.cartesian_hybrid(p)
    flow = simulate(hs, scenario.initial_cartesian, scenario.horizon,
                    opts or SimOptions())
    worst = 0.0
    for arc in flow.arcs:
        s_start = State(arc.times[0], arc.states[0][:2], arc.states[0][2:])
        for t, y in zip(arc.times, arc.states):
            ref = billiard.analytic_arc(p, s_start, t - s_start.t)
            worst = max(worst, float(np.max(np.abs(ref.q - y[:2]))),
                        float(np.max(np.abs(ref.v - y[2:]))))
    return {"check": "arc_oracle_agreement", "passed": worst <= 1e-8,
            "measured": worst, "bound": 1e-8,
            "detail": f"{len(flow.arcs)} arcs"}


def check_chart_impact_agreement(scenario, opts=None):
    opts = opts or SimOptions()
    flow_c = simulate(billiard.cartesian_hybrid(scenario.params),
                      scenario.initial_cartesian, scenario.horizon, opts)
    flow_p = simulate(billiard.polar_hybrid(scenario.params),
                      scenario.initial_polar, scenario.horizon, opts)
    same = len(flow_c.events) == len(flow_p.events)
    delta = 0.0
    if flow_c.events and flow_p.events:
        m = min(len(flow_c.events), len(flow_p.events))
        delta = float(np.max(np.abs(flow_c.event_times()[:m]
                                    - flow_p.event_times()[:m])))
    return {"check": "chart_impact_agreement",
            "passed": same and delta <= 1e-8, "measured": delta,
            "bound": 1e-8,
            "detail": f"events {len(flow_c.events)} vs {len(flow_p.events)}"}


def check_csv_schema():
    traj = trajectory_header(2, with_theta=True)
    ev = events_header(2)
    ok = (traj == ["t", "arc_index", "q_1", "q_2", "v_1", "v_2", "theta",
                   "theta_dot"]
          and ev == ["tau", "pre_q_1", "pre_q_2", "pre_v_1", "pre_v_2",
                     "post_q_1", "post_q_2", "post_v_1", "post_v_2",
                     "guard_residual"])
    return {"check": "csv_schema", "passed": ok, "measured": 0.0,
            "bound": 0.0, "detail": ",".join(traj)}


def run_verification(scenario, opts=None, horizon_correspondence=5.0):
    """Run every check against one scenario; returns the record list."""
    return [
        check_derivative_consistency(scenario.params),
        check_legendre_roundtrip(scenario.params),
        check_flow_equivalence_models(scenario.params),
        check_hybrid_correspondence(scenario, horizon_correspondence,
                                    opts=opts),
        check_momentum_conservation(scenario, opts=opts),
        check_arc_oracle_agreement(scenario, opts=opts),
        check_chart_impact_agreement(scenario, opts=opts),
        check_csv_schema(),
    ]
