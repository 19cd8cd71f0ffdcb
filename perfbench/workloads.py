"""Workload definitions: the cases each workload runs through the CLI.

A case is one `hybridlag run --config <file>` invocation plus what the
oracle needs to check it (dissipation and Cartesian start). The paper
workloads are fixed by the paper and ignore the seed; cartesian-sweep
draws its cases from the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

HORIZON = 10.0

# cartesian-sweep draws SWEEP_GRID**2 cases. Dissipation and start speed,
# which set how many impacts a case makes and whether it falls into the
# collapse-tail hang, are stratified on a SWEEP_GRID x SWEEP_GRID grid with
# one case drawn uniformly inside each cell. The start radius (inside the
# t=0 wall, radius 1) and the angle between start velocity and position
# are Latin-hypercube stratified; the position angle is uniform. This
# keeps the case mix, and so the per-seed figures, steady from seed to
# seed. No draw is filtered.
SWEEP_GRID = 9
SWEEP_C = (0.05, 0.3)
SWEEP_R = (0.2, 0.9)
SWEEP_SPEED = (0.0, 3.0)

# Per-case wall-clock budget. Healthy sweep cases take 0.03-0.25 s. A case
# that misses a crossing as the wall closes crawls past the collapse at a
# post-impact step ceiling (4e-9, or the last dwell) and is stopped here;
# given the time, it would hang or end with missed impacts.
SWEEP_BUDGET_S = 0.75
PAPER_BUDGET_S = 45.0

WORKLOADS = ("paper-polar", "paper-reduced", "cartesian-sweep")


@dataclass(frozen=True)
class Case:
    case_id: str
    config: dict                  # CLI configuration, without "out"
    c: float                      # dissipation, for the oracle
    q0: tuple                     # Cartesian start, for the oracle
    v0: tuple
    budget_s: float

    @property
    def chart(self) -> str:
        """Column layout of the case's trajectory.csv."""
        if self.config["model"] == "billiard-cartesian":
            return "cartesian"
        return "polar" if self.config["mode"] == "full" else "reduced"


def _paper_case(case_id, scenario, mode):
    from hybridlag import get_scenario

    sc = get_scenario(scenario)
    s0 = sc.initial_cartesian
    config = {"model": "billiard-polar", "scenario": scenario, "mode": mode,
              "horizon": HORIZON}
    return Case(case_id, config, sc.params.c, tuple(map(float, s0.q)),
                tuple(map(float, s0.v)), PAPER_BUDGET_S)


def _strata(rng, lo, hi, n):
    """One uniform draw in each of n equal bins of [lo, hi], shuffled."""
    return lo + (hi - lo) * (rng.permutation(n) + rng.random(n)) / n


def sweep_cases(seed: int) -> List[Case]:
    """The seeded cartesian-sweep cases (same seed, same cases)."""
    k = SWEEP_GRID
    n = k * k
    rng = np.random.default_rng(seed)
    cell_c, cell_speed = np.divmod(np.arange(n), k)
    c = SWEEP_C[0] + (SWEEP_C[1] - SWEEP_C[0]) * (cell_c + rng.random(n)) / k
    speed = SWEEP_SPEED[0] + (SWEEP_SPEED[1] - SWEEP_SPEED[0]) * (
        cell_speed + rng.random(n)) / k
    r = _strata(rng, *SWEEP_R, n)
    turn = _strata(rng, 0.0, math.pi, n) * rng.choice([-1.0, 1.0], n)
    pos_angle = rng.uniform(-math.pi, math.pi, n)
    cases = []
    for i in range(n):
        vel_angle = pos_angle[i] + turn[i]
        q0 = (float(r[i] * math.cos(pos_angle[i])),
              float(r[i] * math.sin(pos_angle[i])))
        v0 = (float(speed[i] * math.cos(vel_angle)),
              float(speed[i] * math.sin(vel_angle)))
        config = {"model": "billiard-cartesian", "mode": "full",
                  "horizon": HORIZON, "c": float(c[i]),
                  "initial_q": list(q0), "initial_v": list(v0)}
        cases.append(Case(f"sweep-{i:03d}", config, float(c[i]), q0, v0,
                          SWEEP_BUDGET_S))
    return cases


def cases_for(workload: str, seed: Optional[int]) -> List[Case]:
    if workload == "paper-polar":
        return [_paper_case("polar-c025", "paper-c025", "full"),
                _paper_case("polar-c010", "paper-c010", "full")]
    if workload == "paper-reduced":
        return [_paper_case("reduced-c025", "paper-c025", "reduced"),
                _paper_case("resequenced-c025", "paper-c025", "resequenced")]
    if workload == "cartesian-sweep":
        return sweep_cases(seed)
    raise KeyError(f"unknown workload {workload!r}; expected one of "
                   f"{WORKLOADS}")


def build_models(workload: str, seed: int):
    """Construct the workload's models, scenarios and reduced systems:
    the set-up a user pays before the first run."""
    import hybridlag as hl

    built = []
    if workload == "cartesian-sweep":
        for case in sweep_cases(seed):
            built.append(hl.build_model("billiard-cartesian",
                                        hl.BilliardParams(c=case.c)))
        return built
    scenarios = (("paper-c025", "paper-c010") if workload == "paper-polar"
                 else ("paper-c025",))
    for sid in scenarios:
        sc = hl.get_scenario(sid)
        bundle = hl.build_model("billiard-polar", sc.params)
        built.append(bundle)
        if workload == "paper-reduced":
            mu = hl.momentum_map(bundle.cyclic, sc.initial_polar)
            built.append(hl.reduce(bundle.cyclic, mu))
    return built
