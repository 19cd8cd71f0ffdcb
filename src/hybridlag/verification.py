"""Invariant suite behind the CLI ``verify`` mode.

Each check returns a record {check, passed, measured, bound, detail};
the runner aggregates them. Bounds mirror the package-wide contracts:
derivative consistency 1e-6, fiber-derivative round trip 1e-10, flow
equivalence 1e-6, hybrid correspondence 1e-6 with event times 1e-8,
momentum drift 1e-8 per arc, per-arc oracle agreement 1e-8, chart
impact-time agreement 1e-8. Each model is built once, into a map from
model id to bundle that the model checks take; the scenario is simulated
once in each chart, and the momentum, oracle and chart checks read
those two runs. No check builds a model of its own.
"""

from __future__ import annotations

import numpy as np

from . import billiard
from .hybrid import (EQUIVALENCE_TOL, check_flow_equivalence,
                     check_hybrid_equivalence, simulate)
from .io import events_header, trajectory_header
from .lagrangian import State
from .models import MODEL_IDS, build_model
from .reduction import momentum_map

_SAMPLE_SEED = 911
SAMPLE_COUNT = 100  # sampled states per model in the pointwise checks
CORRESPONDENCE_HORIZON = 5.0  # cap on the hybrid-correspondence horizon


def _record(check, measured, bound, detail="", holds=True):
    """A check's record: it passes when measured <= bound and the check's
    own further condition `holds`."""
    return {"check": check, "passed": measured <= bound and holds,
            "measured": measured, "bound": bound, "detail": detail}


def _sample_states(model_id):
    rng = np.random.default_rng(_SAMPLE_SEED)
    states = []
    for _ in range(SAMPLE_COUNT):
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


def check_derivative_consistency(bundles):
    worst, worst_model = 0.0, None
    for mid, bundle in bundles.items():
        dev = bundle.system.derivative_consistency(_sample_states(mid))
        if dev > worst:
            worst, worst_model = dev, mid
    return _record("derivative_consistency", worst, 1e-6,
                   f"worst model: {worst_model}")


def check_legendre_roundtrip(bundles):
    worst = 0.0
    for mid, bundle in bundles.items():
        sys = bundle.system
        for s in _sample_states(mid):
            back = sys.inverse_legendre(sys.legendre(s), v0=s.v + 0.1)
            worst = max(worst, float(np.max(np.abs(back.v - s.v))))
    return _record("legendre_roundtrip", worst, 1e-10)


def check_flow_equivalence_models(bundles):
    worst, detail = 0.0, []
    for mid, bundle in bundles.items():
        s0 = bundle.default_initial
        rep = check_flow_equivalence(bundle.system, s0, s0.t + 1.0)
        worst = max(worst, rep.max_state_discrepancy)
        detail.append(f"{mid}:{rep.max_state_discrepancy:.2e}")
    return _record("flow_equivalence", worst, EQUIVALENCE_TOL,
                   " ".join(detail))


def check_hybrid_correspondence(hs, scenario):
    """The Cartesian billiard `hs` from the scenario's start."""
    rep = check_hybrid_equivalence(
        hs, scenario.initial_cartesian,
        min(CORRESPONDENCE_HORIZON, scenario.horizon))
    return _record("hybrid_correspondence", rep.max_state_discrepancy,
                   EQUIVALENCE_TOL, str(rep), rep.passed)


def check_momentum_conservation(cyc, flow):
    """The momentum of `cyc` along the polar run `flow` and at impacts."""
    worst = 0.0
    for arc in flow.arcs:
        J = np.array([cyc.momentum_value(t, y[:2], y[2:])
                      for t, y in zip(arc.times, arc.states)])
        worst = max(worst, float(np.max(np.abs(J - J[0]))))
    jump = 0.0
    for e in flow.events:
        jump = max(jump, abs(momentum_map(cyc, e.post)
                             - momentum_map(cyc, e.pre)))
    return _record("momentum_conservation", worst, 1e-8,
                   f"impact jump {jump:.2e} (bound 1e-12)", jump <= 1e-12)


def check_arc_oracle_agreement(scenario, flow):
    """Each arc of the Cartesian run `flow` against the closed-form flight
    from the arc's own start (no cross-impact accumulation)."""
    p = scenario.params
    worst = 0.0
    for arc in flow.arcs:
        y0 = arc.states[0]
        ref = billiard._FlightInterpolant(p, arc.times[0], y0[:2], y0[2:])
        worst = max(worst, float(np.max(np.abs(ref(arc.times).T
                                               - arc.states))))
    return _record("arc_oracle_agreement", worst, 1e-8,
                   f"{len(flow.arcs)} arcs")


def check_chart_impact_agreement(flow_c, flow_p):
    n_c, n_p = len(flow_c.events), len(flow_p.events)
    return _record("chart_impact_agreement", flow_c.event_time_delta(flow_p),
                   1e-8, f"events {n_c} vs {n_p}", n_c == n_p)


def check_csv_schema():
    traj = trajectory_header(2, with_theta=True)
    ev = events_header(2)
    ok = (traj == ["t", "arc_index", "q_1", "q_2", "v_1", "v_2", "theta",
                   "theta_dot"]
          and ev == ["tau", "pre_q_1", "pre_q_2", "pre_v_1", "pre_v_2",
                     "post_q_1", "post_q_2", "post_v_1", "post_v_2",
                     "guard_residual"])
    return _record("csv_schema", 0.0, 0.0, ",".join(traj), ok)


def run_verification(scenario):
    """Run every check against one scenario; returns the record list."""
    bundles = {mid: build_model(mid, scenario.params) for mid in MODEL_IDS}
    cart, polar = bundles["billiard-cartesian"], bundles["billiard-polar"]
    flow_c = simulate(cart.hybrid, scenario.initial_cartesian,
                      scenario.horizon)
    flow_p = simulate(polar.hybrid, scenario.initial_polar, scenario.horizon)
    return [
        check_derivative_consistency(bundles),
        check_legendre_roundtrip(bundles),
        check_flow_equivalence_models(bundles),
        check_hybrid_correspondence(cart.hybrid, scenario),
        check_momentum_conservation(polar.cyclic, flow_p),
        check_arc_oracle_agreement(scenario, flow_c),
        check_chart_impact_agreement(flow_c, flow_p),
        check_csv_schema(),
    ]
