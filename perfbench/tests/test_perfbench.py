"""Self-tests of the benchmark.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

import os
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(os.path.dirname(BENCH), "src"), BENCH]

import gates  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from hybridlag import cli, cartesian_hybrid, BilliardParams, State, \
    simulate  # noqa: E402


def test_same_seed_same_cases():
    assert workloads.sweep_cases(7) == workloads.sweep_cases(7)
    assert workloads.sweep_cases(7) != workloads.sweep_cases(8)


def test_sweep_grid_has_one_case_per_cell():
    cases = workloads.sweep_cases(3)
    k = workloads.SWEEP_GRID

    def cell(value, bounds):
        lo, hi = bounds
        return int((value - lo) / (hi - lo) * k)

    cells = {(cell(c.c, workloads.SWEEP_C),
              cell(np.hypot(*c.v0), workloads.SWEEP_SPEED)) for c in cases}
    assert len(cases) == k * k == len(cells)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_sweep_starts_are_valid(seed):
    # simulate raises InvalidStart before stepping when a start is not
    # admissible; a tiny horizon keeps the check cheap
    for case in workloads.sweep_cases(seed):
        hs = cartesian_hybrid(BilliardParams(c=case.c))
        s0 = State(0.0, np.array(case.q0), np.array(case.v0))
        simulate(hs, s0, 1e-6)


def _runner(tmp_path, cases):
    return run.Runner(cli, tracing, cases, str(tmp_path))


def _fast_start_cases(n):
    """Seed-1 sweep cases from the top speed bin; these pass every gate."""
    k = workloads.SWEEP_GRID
    return workloads.sweep_cases(1)[k - 1::k][:n]


def test_span_self_times_add_up_to_traced_wall(tmp_path):
    cases = _fast_start_cases(3)
    runner = _runner(tmp_path, cases)
    tracer = tracing.Tracer()
    with tracing.Instrumentation(tracer):
        traced_pass = runner.run_pass(tracer)
    assert all(r[1] == "ok" for r in traced_pass[1])
    verdicts = [gates.check_case(c, d, gates.oracle_flow(c))
                for c, d in zip(cases, runner.out_dirs)]
    m = run.layer_metrics(tracing, tracer, traced_pass, [0, 1, 2], verdicts,
                          runner.out_dirs)
    self_total = sum(v for k, v in m.items() if k.endswith("_s")
                     and k not in ("trace.wall_s", "trace.remainder_s"))
    assert m["trace.wall_s"] == sum(r[2] for r in traced_pass[1])
    assert abs(m["trace.remainder_s"]) < 1e-3
    assert m["trace.wall_s"] - self_total == pytest.approx(
        m["trace.remainder_s"], abs=1e-9)
    assert m["hybrid.steps"] > 0 and m["hybrid.dense_evals"] > 0
    assert m["hybrid.guard_evals"] > 0 and m["hybrid.refines"] > 0
    assert m["reduction.reduce_calls"] == 0


def test_tracing_leaves_outputs_byte_identical(tmp_path):
    cases = _fast_start_cases(1)
    runner = _runner(tmp_path, cases)
    assert runner.run_case(0)[1] == "ok"
    plain = gates.output_digest(runner.out_dirs[0])
    tracer = tracing.Tracer()
    with tracing.Instrumentation(tracer):
        assert runner.run_case(0, tracer)[1] == "ok"
    assert gates.output_digest(runner.out_dirs[0]) == plain
    assert cli.simulate is simulate       # seams restored


def test_budget_stop_leaves_spans_closed(tmp_path):
    case = _fast_start_cases(1)[0]
    short = workloads.Case(case.case_id, case.config, case.c, case.q0,
                           case.v0, budget_s=0.005)
    runner = _runner(tmp_path, [short])
    tracer = tracing.Tracer()
    with tracing.Instrumentation(tracer):
        _, results, span_range, _ = runner.run_pass(tracer)
    assert results[0][1] == "budget"
    name_id, start, end, parent, _ = tracer.arrays(*span_range)
    assert np.all(end >= start) and np.all(end > 0)
    own, _ = tracing.self_times(name_id, start, end, parent,
                                len(tracer.names))
    assert abs(results[0][2] - own.sum()) < 1e-3
