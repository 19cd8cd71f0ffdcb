"""Correctness gates, run on a case's written outputs outside the timed
region.

Every bound below is the one the repository's acceptance tests use
(tests/test_acceptance.py); the benchmark never loosens them. State and
angle errors are measured where the oracle's radius is at least
CORE_RADIUS, because the absolute 1e-6 checks cannot hold in the
collapse tail (README, "Known red acceptance checks").
"""

from __future__ import annotations

import hashlib
import json
import math
import os

import numpy as np

IMPACT_TIME_BOUND = 1e-8
STATE_BOUND = 1e-6
THETA_BOUND = 1e-5
CORE_RADIUS = 0.1


def output_digest(out_dir):
    """sha256 over the names and bytes of every file a run wrote."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(out_dir, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def oracle_flow(case):
    import hybridlag as hl

    s0 = hl.State(0.0, np.array(case.q0), np.array(case.v0))
    return hl.reference_flow(hl.BilliardParams(c=case.c), s0,
                             case.config["horizon"])


def _cartesian_rows(chart, rows):
    """Trajectory rows -> (arc index, t, Cartesian state, angle or None)."""
    t = rows[:, 0]
    arc = rows[:, 1].astype(int)
    if chart == "cartesian":
        return arc, t, rows[:, 2:6], None
    if chart == "polar":
        r, th, rd, thd = rows[:, 2], rows[:, 3], rows[:, 4], rows[:, 5]
    else:   # reduced: r, rdot, then the rebuilt theta and theta_dot
        r, rd, th, thd = rows[:, 2], rows[:, 3], rows[:, 4], rows[:, 5]
    ct, st = np.cos(th), np.sin(th)
    cart = np.column_stack([r * ct, r * st, rd * ct - r * thd * st,
                            rd * st + r * thd * ct])
    return arc, t, cart, th


def check_case(case, out_dir, oracle):
    """Gate one finished run. Returns a dict of the measured errors and
    `failure`: None, or why the case failed."""
    with open(os.path.join(out_dir, "run.json")) as fh:
        run = json.load(fh)
    result = {"impacts": run["n_events"], "oracle_impacts": len(oracle.events),
              "impact_time_err": None, "state_err_core": None,
              "theta_err_core": None, "failure": None}
    taus = np.array(run["event_times"], float)
    taus_ref = oracle.event_times()
    if len(taus) != len(taus_ref):
        result["failure"] = (f"impact count {len(taus)} vs oracle "
                             f"{len(taus_ref)}")
        return result
    if len(taus):
        result["impact_time_err"] = float(np.max(np.abs(taus - taus_ref)))

    rows = np.loadtxt(os.path.join(out_dir, "trajectory.csv"), delimiter=",",
                      skiprows=1, ndmin=2)
    arc, t, cart, theta = _cartesian_rows(case.chart, rows)
    if arc.max() >= len(oracle.arcs):
        result["failure"] = "trajectory has more arcs than the oracle"
        return result
    ref = np.array([oracle.arcs[k].interpolant(tt) for k, tt in zip(arc, t)])
    core = np.hypot(ref[:, 0], ref[:, 1]) >= CORE_RADIUS
    if core.any():
        result["state_err_core"] = float(np.max(np.abs(cart[core]
                                                       - ref[core])))
        if theta is not None:
            dth = theta[core] - np.arctan2(ref[core, 1], ref[core, 0])
            dth = np.abs((dth + math.pi) % (2.0 * math.pi) - math.pi)
            result["theta_err_core"] = float(np.max(dth))

    for key, bound, what in (
            ("impact_time_err", IMPACT_TIME_BOUND, "impact time"),
            ("state_err_core", STATE_BOUND, "core state"),
            ("theta_err_core", THETA_BOUND, "core angle")):
        if (result[key] or 0.0) > bound:
            result["failure"] = f"{what} error {result[key]:.3e} > {bound:.0e}"
            break
    return result
