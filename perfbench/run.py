"""hybridlag benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the root of a checkout. Every case goes through the public
entry point `hybridlag.cli.main` with a generated configuration, in this
process, one after another (a closed loop with one client). Passes over
the workload's cases repeat while they fit in --seconds. Afterwards, and
outside the timed region, every case is gated against the closed-form
oracle `billiard.reference_flow` and checked for byte-identical reruns.

--trace 0 reports the end-to-end metrics; --trace 1 runs untraced
passes first, then traced ones, and reports the per-layer metrics and
the tracing overhead. The last line of standard output is one JSON
object; the lines before it are the same figures for people. See
README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_out")

# one process, no extra threads: numpy must not start a BLAS pool
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
SETUP_SAMPLES = 3

_clock = time.perf_counter


class CaseBudgetExceeded(Exception):
    """Raised into a case that ran past its wall-clock budget."""


class Runner:
    """Runs the workload's cases through the CLI, one pass at a time."""

    def __init__(self, cli, tracing, cases, workdir, probe=None):
        self.cli = cli
        self.tracing = tracing
        self.probe = probe
        self.cases = cases
        self.out_dirs = []
        self.config_paths = []
        for case in cases:
            out = os.path.join(workdir, case.case_id)
            path = out + ".json"
            with open(path, "w") as fh:
                json.dump(dict(case.config, out=out), fh)
            self.out_dirs.append(out)
            self.config_paths.append(path)
        self._armed = False
        signal.signal(signal.SIGALRM, self._on_alarm)

    def _on_alarm(self, signum, frame):
        if not self._armed:
            return
        if self.tracing.in_critical_section(frame):
            signal.setitimer(signal.ITIMER_REAL, 1e-4)
            return
        self._armed = False
        raise CaseBudgetExceeded()

    def run_case(self, i, tracer=None):
        """One CLI run of case i: (seconds, status, wall seconds).

        With a speed probe, `seconds` is the wall time put on the probe's
        reference speed; without one it is the wall time. When tracing,
        the case runs inside a root span `bench.case`, and the probe's
        samples during the case land inside whichever span is open."""
        argv = ["run", "--config", self.config_paths[i]]
        start = self.probe.begin() if self.probe else _clock()
        if tracer:
            tracer.case = i
            root = tracer.open("bench.case")
        self._armed = True
        signal.setitimer(signal.ITIMER_REAL, self.cases[i].budget_s)
        try:
            rc = self.cli.main(argv)
            status = "ok" if rc == 0 else f"exit status {rc}"
        except CaseBudgetExceeded:
            status = "budget"
        except Exception as exc:  # a failing case must not stop the pass
            status = f"{type(exc).__name__}: {exc}"
        finally:
            self._armed = False
            signal.setitimer(signal.ITIMER_REAL, 0)
        if tracer:
            tracer.close(root)      # also closes what a budget stop left
            tracer.case = -1
        if self.probe:
            seconds, wall = self.probe.end()
        else:
            seconds = wall = _clock() - start
        return seconds, status, wall

    def run_pass(self, tracer=None):
        """All cases once. Returns (wall, [run_case result per case], span
        index range of the pass or None, counters of the pass or None)."""
        first = len(tracer.start) if tracer else 0
        if tracer:
            tracer.counts = {}
        t0 = _clock()
        results = [self.run_case(i, tracer) for i in range(len(self.cases))]
        wall = _clock() - t0
        if not tracer:
            return wall, results, None, None
        return wall, results, (first, len(tracer.start)), tracer.counts


LAYER_UNITS = {"hybrid.impacts_per_refine": "1", "io.bytes": "B"}


def pass_time(results, healthy, column=0):
    """A pass's time at the rate of its cases that passed every gate
    (`column` 0: at the reference speed, 2: wall time).

    The paper workloads pass every gate, so this is their pass time. On
    cartesian-sweep ~30% of cases fail (stopped at the budget, or ended
    with too few impacts) and how many varies with the seed; their times
    belong to the budget and to the known defect, not to the speed of
    the program, and are counted in `failed` instead."""
    times = [results[i][column] for i in healthy]
    return sum(times) * len(results) / len(times)


def judge(gates, runner, passes, digests):
    """Gate every case after the timed passes. Returns (verdicts, whether
    every gate could be evaluated)."""
    verdicts = []
    checks_made = True
    for i, case in enumerate(runner.cases):
        verdict = {"impacts": None, "oracle_impacts": None,
                   "impact_time_err": None, "state_err_core": None,
                   "theta_err_core": None, "failure": None}
        if digests[i]:
            try:
                verdict = gates.check_case(case, runner.out_dirs[i],
                                           gates.oracle_flow(case))
            except Exception as exc:  # the check itself broke
                checks_made = False
                verdict["failure"] = f"gate error {type(exc).__name__}: {exc}"
        bad = next((p[1][i][1] for p in passes if p[1][i][1] != "ok"), None)
        if bad is not None:
            verdict["failure"] = bad
        elif verdict["failure"] is None:
            if len(digests[i]) == 1:
                status = runner.run_case(i)[1]
                if status != "ok":
                    verdict["failure"] = f"rerun: {status}"
                else:
                    digests[i].append(gates.output_digest(runner.out_dirs[i]))
            if len(set(digests[i])) > 1:
                verdict["failure"] = "rerun not byte-identical"
        verdicts.append(verdict)
    return verdicts, checks_made


def measure_setup(workload, seed):
    """Median over SETUP_SAMPLES fresh processes of the time to import
    hybridlag and build the workload's models: (at the reference speed,
    wall)."""
    env = dict(os.environ, **THREAD_ENV)
    argv = [sys.executable, os.path.join(HERE, "setup_probe.py"), workload,
            str(seed)]
    samples = [json.loads(subprocess.run(
        argv, cwd=ROOT, env=env, check=True, timeout=120,
        capture_output=True, text=True).stdout.splitlines()[-1])
        for _ in range(SETUP_SAMPLES)]
    return (statistics.median(s["seconds"] for s in samples),
            statistics.median(s["wall"] for s in samples))


def layer_metrics(tracing, tracer, traced_pass, healthy, verdicts,
                  out_dirs):
    """Per-layer figures of one traced pass, from the spans of the cases
    that passed every gate (the cases the end-to-end times cover)."""
    import numpy as np

    _, results, span_range, counts = traced_pass
    name_id, start, end, parent, case_id = tracer.arrays(*span_range)
    keep = np.isin(case_id, healthy)
    renumber = np.cumsum(keep) - 1
    parent = np.where(parent >= 0, renumber[parent], -1)[keep]
    name_id, start, end = name_id[keep], start[keep], end[keep]
    names = tracer.names
    own, count = tracing.self_times(name_id, start, end, parent, len(names))
    self_s = dict(zip(names, own))
    n = dict(zip(names, count))
    # guard evaluations made by the executor: outermost guard spans only,
    # since the reduced guard calls the full one
    is_guard = np.isin(name_id, [names.index(g) for g in tracing.GUARD_SPANS
                                 if g in names])
    outer = is_guard & ~np.where(parent >= 0, is_guard[parent], False)
    impacts = sum(verdicts[i]["impacts"] for i in healthy)
    refines = n.get("hybrid.refine", 0)
    wall = sum(results[i][2] for i in healthy)

    def counted(key):
        return sum(v for (k, case), v in counts.items()
                   if k == key and case in healthy)

    return {
        "hybrid.steps": n.get("hybrid.step", 0),
        "hybrid.steps_rejected": counted("hybrid.steps_rejected"),
        "hybrid.step_s": self_s.get("hybrid.step", 0.0),
        "hybrid.dense_evals": n.get("hybrid.dense", 0),
        "hybrid.dense_s": self_s.get("hybrid.dense", 0.0),
        "hybrid.guard_evals": int(outer.sum()),
        "hybrid.self_s": self_s.get("hybrid.simulate", 0.0),
        "hybrid.arcs": n.get("hybrid.arc_start", 0),
        "hybrid.arc_start_s": self_s.get("hybrid.arc_start", 0.0),
        "hybrid.refines": n.get("hybrid.refine", 0),
        "hybrid.refine_evals": counted("hybrid.refine_evals"),
        "hybrid.refine_s": self_s.get("hybrid.refine", 0.0),
        "hybrid.impacts_per_refine": impacts / refines if refines else 0.0,
        "lagrangian.rhs_evals": n.get("lagrangian.rhs", 0),
        "lagrangian.rhs_s": self_s.get("lagrangian.rhs", 0.0),
        "reduction.guard_s": self_s.get("reduction.guard", 0.0),
        "reduction.reset_s": self_s.get("reduction.reset", 0.0),
        "reduction.cyclic_solves": n.get("reduction.cyclic_solve", 0),
        "reduction.cyclic_solve_s": self_s.get("reduction.cyclic_solve",
                                               0.0),
        "reduction.reconstruct_s": self_s.get("reduction.reconstruct", 0.0),
        "reduction.reduce_calls": n.get("reduction.reduce", 0),
        "reduction.reduce_s": self_s.get("reduction.reduce", 0.0),
        "reduction.resequenced_s": self_s.get("reduction.resequenced", 0.0),
        "billiard.guard_s": self_s.get("billiard.guard", 0.0),
        "billiard.reset_s": self_s.get("billiard.reset", 0.0),
        "billiard.model_build_s": self_s.get("billiard.model_build", 0.0),
        "io.write_s": self_s.get("io.write", 0.0),
        "io.bytes": sum(os.path.getsize(os.path.join(out_dirs[i], f))
                        for i in healthy for f in os.listdir(out_dirs[i])),
        "cli.self_s": self_s.get("cli", 0.0),
        "trace.unattributed_s": self_s.get("bench.case", 0.0),
        "trace.wall_s": wall,
        "trace.remainder_s": wall - float(own.sum()),
        "trace.spans": len(start),
    }


def _fmt(x, unit=""):
    return "n/a" if x is None else f"{x:.6g} {unit}".rstrip()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "hybridlag", "__init__.py")):
        sys.stderr.write(f"perfbench: no hybridlag package under {SRC}; run "
                         f"from the root of a hybridlag checkout\n")
        return 2
    os.environ.update(THREAD_ENV)
    sys.path[:0] = [SRC, HERE]
    import hybridlag
    from hybridlag import cli

    if not os.path.abspath(hybridlag.__file__).startswith(SRC + os.sep):
        sys.stderr.write(f"perfbench: imported hybridlag from "
                         f"{hybridlag.__file__}, not from {SRC}\n")
        return 2
    import numpy as np

    import gates
    import speed
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write(f"perfbench: unknown workload {args.workload!r}; "
                         f"expected one of {workloads.WORKLOADS}\n")
        return 2
    cases = workloads.cases_for(args.workload, args.seed)
    workdir = os.path.join(WORK, f"{args.workload}-{args.seed}-{args.trace}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    # end-to-end times and the tracing overhead are put on a reference
    # machine speed; span times are plain wall times
    runner = Runner(cli, tracing, cases, workdir, probe=speed.SpeedProbe())
    setup_s, setup_wall = measure_setup(args.workload, args.seed) \
        if not args.trace else (None, None)

    # timed region: untraced passes (the first half of the time when
    # tracing), then traced ones; each loop runs at least one pass and
    # starts another only if a typical pass still fits
    digests = [[] for _ in cases]
    t0 = _clock()

    def timed_passes(passes, tracer, until):
        while True:
            passes.append(runner.run_pass(tracer))
            for i, (_, status, _) in enumerate(passes[-1][1]):
                if status == "ok":
                    digests[i].append(gates.output_digest(runner.out_dirs[i]))
            typical = statistics.median(p[0] for p in passes)
            if _clock() - t0 + typical > until:
                return

    untraced, traced = [], []
    timed_passes(untraced, None, args.seconds * (0.5 if args.trace else 1))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        with tracing.Instrumentation(tracer):
            timed_passes(traced, tracer, args.seconds)
    measured = _clock() - t0

    # gates, outside the timed region
    verdicts, checks_made = judge(gates, runner, untraced + traced, digests)
    failed = sum(v["failure"] is not None for v in verdicts)
    paper = args.workload != "cartesian-sweep"
    correct = checks_made and not (paper and failed)

    print(f"perfbench {args.workload} seed {args.seed}: {len(cases)} cases, "
          f"{len(untraced)} untraced + {len(traced)} traced passes in "
          f"{measured:.1f} s")
    for case, v, *runs in zip(cases, verdicts,
                              *[p[1] for p in untraced]):
        times = " ".join(f"{dt:.3f}" for dt, _, _ in runs)
        walls = " ".join(f"{wall:.3f}" for _, _, wall in runs)
        print(f"  {case.case_id:18s} {v['failure'] or 'ok':28.28s} "
              f"t={times} s (wall {walls} s) "
              f"impacts {v['impacts']}/{v['oracle_impacts']} "
              f"dt_err {_fmt(v['impact_time_err'])} "
              f"state_err {_fmt(v['state_err_core'])} "
              f"theta_err {_fmt(v['theta_err_core'])}")

    def worst(key):
        vals = [v[key] for v in verdicts if v[key] is not None]
        return max(vals) if vals else None

    healthy = [i for i, v in enumerate(verdicts) if v["failure"] is None]
    if not healthy:
        sys.stderr.write("perfbench: no case passed its gates\n")
        return 1
    if not args.trace:
        case_times = [statistics.median(p[1][i][0] for p in untraced)
                      for i in healthy]
        metrics = {
            "run_s": (statistics.median(pass_time(p[1], healthy)
                                        for p in untraced), "s"),
            "setup_s": (setup_s, "s"),
            # over the cases that passed every gate (~56 of the sweep's
            # 81, so p75 has more than ten beyond it)
            "case_p50_s": (float(np.percentile(case_times, 50)), "s"),
            "case_p75_s": (float(np.percentile(case_times, 75)), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        report = dict(metrics)
        report.update({
            "run_wall_s": (statistics.median(pass_time(p[1], healthy, 2)
                                             for p in untraced), "s"),
            "setup_wall_s": (setup_wall, "s"),
            "failed_frac": (failed / len(cases), "1"),
            "impact_time_err": (worst("impact_time_err"), "s"),
            "state_err_core": (worst("state_err_core"), "1"),
            "theta_err_core": (worst("theta_err_core"), "rad"),
        })
    else:
        per_pass = [layer_metrics(tracing, tracer, p, healthy, verdicts,
                                  runner.out_dirs) for p in traced]
        metrics = {k: (statistics.median(m[k] for m in per_pass),
                       LAYER_UNITS.get(k, "s" if k.endswith("_s")
                                       else "count"))
                   for k in per_pass[0]}
        metrics["trace.overhead_s"] = (
            statistics.median(pass_time(p[1], healthy) for p in traced)
            - statistics.median(pass_time(p[1], healthy) for p in untraced),
            "s")
        report = metrics
        tracer.save(os.path.join(WORK, f"spans-{args.workload}-"
                                       f"{args.seed}.npz"))
    for name, (value, unit) in report.items():
        print(f"  {name:28s} {_fmt(value, unit)}")
    print(f"  failed {failed}/{len(cases)} cases; case percentiles over the "
          f"{len(cases) - failed} that passed every gate")
    shutil.rmtree(workdir, ignore_errors=True)

    print(json.dumps({
        "correct": correct,
        "attempted": len(cases),
        "failed": failed,
        "metrics": {k: {"value": getattr(v, "item", lambda: v)(), "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
