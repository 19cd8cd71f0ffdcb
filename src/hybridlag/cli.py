"""Command-line front end.

    hybridlag run --config run.json
    hybridlag run --model billiard-cartesian --scenario paper-c025 \
        --mode full --horizon 10 --out results/

Modes: full (one hybrid simulation), reduced (reduce at the start
momentum, simulate on the shape space, reconstruct the cyclic angle),
resequenced (rebuild the reduced system after every impact), compare
(reduced-vs-full discrepancy report), verify (invariant suite).

Every run writes run.json; its "config" object is itself a valid
configuration document, so a finished run can be reproduced with
``hybridlag run --config <out>/run.json`` (bit-identical outputs: the
pipeline contains no randomness). Exit status is 0 when the run and all
requested checks succeed; failures write error.json and exit nonzero.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from . import __version__, billiard
from .errors import HybridLagError, ParseError
from .hybrid import simulate
from .io import (CONFIG_KEYS, SCHEMA_VERSION, RunConfig, config_from_dict,
                 load_document, write_events_csv, write_json,
                 write_trajectory_csv)
from .lagrangian import State
from .models import build_model
from .reduction import momentum_map, project, reconstruct, reduce, \
    simulate_resequenced
from .verification import run_verification

COMPARE_STATE_TOL = 1e-6
COMPARE_EVENT_TOL = 1e-8
COMPARE_CORE_RADIUS = 0.1


@functools.cache
def _parser():
    """The argument parser, built on first use and kept for the process:
    parsing reads nothing from an earlier call."""
    parser = argparse.ArgumentParser(
        prog="hybridlag",
        description="simulate time-dependent hybrid Lagrangian systems")
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="execute one configured run")
    run_p.add_argument("--config", help="path to a JSON configuration")
    run_p.add_argument("--model", help="model id override")
    run_p.add_argument("--scenario", help="scenario id override")
    run_p.add_argument("--mode", help="mode override")
    run_p.add_argument("--horizon", type=float, help="horizon override")
    run_p.add_argument("--out", help="output directory override")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

    overrides = {key: value for key, value in vars(args).items()
                 if key in CONFIG_KEYS and value is not None}
    doc = overrides
    try:
        text = _read_config(args.config) if args.config else "{}"
        doc = {**load_document(text), **overrides}
        config = config_from_dict(doc)
    except HybridLagError as exc:
        out = doc.get("out")
        _emit_error(out if isinstance(out, str) else ".", exc)
        return 2

    try:
        return _run(config)
    except HybridLagError as exc:
        _emit_error(config.out, exc)
        return 1


def _read_config(path):
    try:
        with open(path) as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read configuration {path!r}: "
                         f"{exc}") from exc


def _emit_error(out_dir, exc):
    record = {"error": type(exc).__name__, "message": str(exc)}
    if getattr(exc, "key", None) is not None:
        record["key"] = exc.key
    sys.stderr.write(json.dumps(record) + "\n")
    try:
        os.makedirs(out_dir, exist_ok=True)
        write_json(os.path.join(out_dir, "error.json"), record)
    except OSError:
        pass


def _initial_state(config: RunConfig, bundle) -> State:
    if config.initial_q is not None or config.initial_v is not None:
        dim = bundle.system.dim
        q_v = []
        for key in ("initial_q", "initial_v"):
            vec = getattr(config, key)
            if vec is None:
                raise ParseError("initial_q and initial_v must be given "
                                 "together", key=key)
            if len(vec) != dim:
                raise ParseError(f"{key} has {len(vec)} entries; model "
                                 f"{config.model!r} has dimension {dim}",
                                 key=key)
            try:
                q_v.append(np.asarray(vec, float))
            except OverflowError as exc:
                # JSON integers have no bound; floats stop at ~1.8e308
                raise ParseError(f"{key} holds an integer beyond the float "
                                 f"range", key=key) from exc
        t0 = config.initial_t if config.initial_t is not None else 0.0
        return State(t0, *q_v)
    if config.scenario is not None:
        sc = billiard.get_scenario(config.scenario)
        if config.model == "billiard-polar":
            return sc.initial_polar
        if config.model == "billiard-cartesian":
            return sc.initial_cartesian
        raise ParseError(f"scenario {config.scenario!r} applies to the "
                         f"billiard models only")
    return bundle.default_initial


def _run(config: RunConfig) -> int:
    try:
        os.makedirs(config.out, exist_ok=True)
    except OSError as exc:
        raise ParseError(f"cannot make the output directory "
                         f"{config.out!r}: {exc}", key="out") from exc
    record = {
        "schema_version": SCHEMA_VERSION,
        "package_version": __version__,
        "config": config.to_record(),
        "model": config.model,
        "mode": config.mode,
    }
    if config.scenario:
        record["scenario"] = config.scenario
    if config.mode == "verify":
        return _verify(config, record)

    # the name build_model is the benchmark tracer's seam: it patches it
    bundle = build_model(config.model, config.params)
    if config.mode == "full":
        s0 = _initial_state(config, bundle)
        flow = simulate(bundle.hybrid, s0, config.horizon)
        _write_flow(config, flow, None)
        record.update(_flow_record(flow))
        write_json(os.path.join(config.out, "run.json"), record)
        return 0

    if config.mode in ("reduced", "resequenced"):
        if bundle.cyclic is None:
            raise ParseError(f"mode {config.mode!r} needs a model with a "
                             f"cyclic coordinate (billiard-polar)")
        cyc = bundle.cyclic
        s0 = _initial_state(config, bundle)
        if config.mode == "reduced":
            rec = _reduce_once(cyc, s0, config)
        else:
            rec = simulate_resequenced(cyc, s0, config.horizon)
        flow = rec.reduced
        _write_flow(config, flow, rec)
        record.update(_flow_record(flow))
        record["mu_sequence"] = rec.mu_sequence
        record["max_momentum_residual"] = rec.max_momentum_residual
        write_json(os.path.join(config.out, "run.json"), record)
        return 0

    # compare: config_from_dict admits no other mode
    report = _compare(config, bundle)
    record["compare"] = report
    write_json(os.path.join(config.out, "compare.json"), report)
    write_json(os.path.join(config.out, "run.json"), record)
    return 0 if report["passed"] else 1


def _verify(config: RunConfig, record) -> int:
    """The verify mode: `run_verification` on the configured scenario
    under the run's parameters, which builds every model it checks."""
    if config.scenario is None:
        raise ParseError("verify mode needs a scenario")
    sc0 = billiard.get_scenario(config.scenario)
    sc = billiard.PaperScenario(sc0.scenario_id, config.params,
                                sc0.initial_polar,
                                horizon=min(config.horizon, sc0.horizon))
    checks = run_verification(sc)
    passed = all(c["passed"] for c in checks)
    record["checks"] = checks
    record["passed"] = passed
    write_json(os.path.join(config.out, "verify.json"),
               {"checks": checks, "passed": passed})
    write_json(os.path.join(config.out, "run.json"), record)
    for c in checks:
        status = "pass" if c["passed"] else "FAIL"
        print(f"{c['check']}: {status} (measured {c['measured']:.3e}, "
              f"bound {c['bound']:.1e}) {c['detail']}")
    return 0 if passed else 1


def _write_flow(config, flow, rec):
    write_trajectory_csv(os.path.join(config.out, "trajectory.csv"), flow, rec)
    write_events_csv(os.path.join(config.out, "events.csv"), flow)


def _reduce_once(cyc, s0, config):
    """Reduce at the start momentum, run the reduced system from the
    projected start and reconstruct the cyclic angle along it."""
    mu0 = momentum_map(cyc, s0)
    red = reduce(cyc, mu0)
    flow = simulate(red.shape, cyc.project_state(s0), config.horizon)
    return reconstruct(cyc, flow, mu0, float(s0.q[cyc.cyclic_index]))


def _flow_record(flow):
    return {
        "termination": flow.termination,
        "n_events": len(flow.events),
        "t_final": flow.t_final,
        "event_times": [e.tau for e in flow.events],
    }


def _compare(config: RunConfig, bundle):
    """Reduced-vs-full discrepancy report for the polar billiard."""
    if bundle.cyclic is None:
        raise ParseError("compare mode needs a model with a cyclic "
                         "coordinate (billiard-polar)")
    cyc = bundle.cyclic
    s0 = _initial_state(config, bundle)
    full = simulate(cyc.full, s0, config.horizon)
    projected = project(cyc, full)
    rec = _reduce_once(cyc, s0, config)
    reduced = rec.reduced

    n_f, n_r = len(projected.events), len(reduced.events)
    event_delta = projected.event_time_delta(reduced)
    sup_core = 0.0
    core_at = (None, None)   # (arc index, time) where sup_core is attained
    arc_sups = []
    for k, (arc_p, arc_r) in enumerate(zip(projected.arcs, reduced.arcs)):
        lo = max(arc_p.t_start, arc_r.t_start)
        hi = min(arc_p.t_end, arc_r.t_end)
        if hi <= lo:
            arc_sups.append(0.0)
            continue
        grid = np.linspace(lo, hi, 65)
        yp = arc_p(grid)
        d = np.max(np.abs(yp - arc_r(grid)), axis=0)
        arc_sups.append(float(np.max(d)))
        core = np.flatnonzero(yp[0] >= COMPARE_CORE_RADIUS)
        if core.size:
            i = core[np.argmax(d[core])]
            if d[i] > sup_core or core_at[0] is None:
                sup_core, core_at = float(d[i]), (k, float(grid[i]))
    sup_all = max(arc_sups, default=0.0)
    # the angle at each impact: the end of the reduced arc before it
    theta_delta = max([abs(float(th[-1]) - float(arc(ev.tau)[1]))
                       for th, ev, arc in zip(rec.theta, reduced.events,
                                              full.arcs)], default=0.0)
    passed = (n_f == n_r and event_delta <= COMPARE_EVENT_TOL
              and sup_core <= COMPARE_STATE_TOL)
    return {
        "passed": passed,
        "events_full": n_f,
        "events_reduced": n_r,
        "max_event_time_delta": event_delta,
        "event_time_bound": COMPARE_EVENT_TOL,
        "sup_norm_per_arc": arc_sups,
        "sup_norm_overall": sup_all,
        "sup_norm_core": sup_core,
        "sup_norm_core_arc": core_at[0],
        "sup_norm_core_t": core_at[1],
        "core_radius": COMPARE_CORE_RADIUS,
        "state_bound": COMPARE_STATE_TOL,
        "max_theta_delta_at_events": theta_delta,
        "terminations": [full.termination, reduced.termination],
    }


if __name__ == "__main__":
    sys.exit(main())
