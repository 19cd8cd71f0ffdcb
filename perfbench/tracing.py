"""Span tracing of hybridlag from outside the package.

The benchmark never edits `src/`: every span is recorded by a wrapper
that this module installs around a public seam of the package for the
duration of a traced pass, and removes afterwards.

Seams and the span each one records:

  hybridlag.hybrid.RK45            subclass: hybrid.arc_start (solver
                                   construction), hybrid.step, and a
                                   dense-output proxy recording
                                   hybrid.dense; the RHS handed to the
                                   solver records lagrangian.rhs
  hybridlag.hybrid.brentq          hybrid.refine
  cli.simulate, reduction.simulate hybrid.simulate
  cli.build_model                  billiard.model_build; the bundle's
                                   guards, resets and cyclic solver are
                                   rebuilt with dataclasses.replace so
                                   they record billiard.guard,
                                   billiard.reset, reduction.cyclic_solve
  cli.reduce, reduction.reduce     reduction.reduce; the reduced guard
                                   and reset record reduction.guard and
                                   reduction.reset, with the full guard's
                                   billiard.guard span nested inside
  reduction._reconstruct_arcs      reduction.reconstruct (the Simpson
                                   post-pass behind both `reconstruct`
                                   and `simulate_resequenced`)
  cli.simulate_resequenced         reduction.resequenced
  cli.write_*                      io.write
  cli.main                         cli

Spans nest, and a layer's time is its self time: the span's duration
minus the part covered by its child spans. The reduced guard therefore
reports the embed cost alone, and the full guard it calls reports its
own. Each case runs under a root span `bench.case`, and the self times
of a case's spans add up to that root span's duration.
"""

from __future__ import annotations

import dataclasses
import time
from array import array

import numpy as np

_clock = time.perf_counter

GUARD_SPANS = ("billiard.guard", "reduction.guard")


class Tracer:
    """In-memory span recorder.

    Spans are kept in flat typed arrays (name id, start, end, parent
    index, case id) so a pass with a million spans stays compact; they
    are written out only when the benchmark ends.
    """

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.case_id = array("l")
        self.counts = {}
        self.case = -1
        self._stack = []

    def open(self, name):
        # no Python-level calls in here: a budget alarm that lands inside
        # this method is deferred (see `in_critical_section`), which keeps
        # the five arrays the same length
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.case_id.append(self.case)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(_clock())
        return idx

    def close(self, idx):
        self.end[idx] = _clock()
        top = self._stack.pop()
        while top != idx:       # a budget stop skipped the close of `top`
            if self.end[top] == 0.0:
                self.end[top] = self.end[idx]
            top = self._stack.pop()

    def wrap(self, name, fn):
        """Return fn wrapped in a span called `name`."""
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)
        traced.__wrapped__ = fn
        return traced

    def count(self, key, n=1):
        """Add n to counter `key` of the current case."""
        k = (key, self.case)
        self.counts[k] = self.counts.get(k, 0) + n

    def arrays(self, first=0, last=None):
        """Spans [first, last) as numpy arrays (name id, start, end, parent
        index within the slice or -1, case id)."""
        sl = slice(first, len(self.start) if last is None else last)
        parent = np.frombuffer(self.parent, dtype=np.int64)[sl] - first
        parent[parent < 0] = -1
        return (np.frombuffer(self.name_id, dtype=np.int64)[sl].copy(),
                np.frombuffer(self.start, dtype=np.float64)[sl].copy(),
                np.frombuffer(self.end, dtype=np.float64)[sl].copy(),
                parent,
                np.frombuffer(self.case_id, dtype=np.int64)[sl].copy())

    def save(self, path):
        names, start, end, parent, case = self.arrays()
        np.savez(path, names=np.array(self.names), name_id=names,
                 start=start, end=end, parent=parent, case=case)


def in_critical_section(frame):
    """True when `frame`, or a frame it was called from, is Tracer.open,
    whose appends must not be split by an exception. (Open calls no Python
    code, so it can only be on the stack under a signal handler.)"""
    while frame is not None:
        if frame.f_code is Tracer.open.__code__:
            return True
        frame = frame.f_back
    return False


def self_times(name_id, start, end, parent, n_names):
    """Per-name (self seconds, span count) of a well-nested span table."""
    dur = end - start
    child = np.zeros(len(dur))
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    own = dur - child
    return (np.bincount(name_id, weights=own, minlength=n_names),
            np.bincount(name_id, minlength=n_names))


# ---------------------------------------------------------------------------
# seams
# ---------------------------------------------------------------------------

class _DenseProxy:
    """Dense-output segment that records each evaluation.

    OdeSolution and the executor read t_min/t_max, so they are kept.
    """

    def __init__(self, inner, tracer):
        self._inner = inner
        self._tracer = tracer
        self.t_old = inner.t_old
        self.t = inner.t
        self.t_min = inner.t_min
        self.t_max = inner.t_max

    def __call__(self, t):
        tr = self._tracer
        idx = tr.open("hybrid.dense")
        try:
            return self._inner(t)
        finally:
            tr.close(idx)


def _traced_rk45(base, tracer):
    class TracedRK45(base):
        def __init__(self, fun, *args, **kwargs):
            idx = tracer.open("hybrid.arc_start")
            try:
                super().__init__(tracer.wrap("lagrangian.rhs", fun),
                                 *args, **kwargs)
            finally:
                tracer.close(idx)

        def step(self):
            nfev = self.nfev
            idx = tracer.open("hybrid.step")
            try:
                return super().step()
            finally:
                tracer.close(idx)
                # every Dormand-Prince attempt costs n_stages RHS calls;
                # attempts beyond the accepted one were rejected
                attempts = (self.nfev - nfev) // self.n_stages
                tracer.count("hybrid.steps_rejected", max(attempts - 1, 0))

        def dense_output(self):
            return _DenseProxy(super().dense_output(), tracer)

    return TracedRK45


def _traced_brentq(brentq, tracer):
    def traced(f, a, b, *args, **kwargs):
        def counted(x, *fargs):
            tracer.count("hybrid.refine_evals")
            return f(x, *fargs)
        idx = tracer.open("hybrid.refine")
        try:
            return brentq(counted, a, b, *args, **kwargs)
        finally:
            tracer.close(idx)
    return traced


def _traced_hybrid(hs, tracer, layer):
    guard = dataclasses.replace(
        hs.guard,
        surface=tracer.wrap(f"{layer}.guard", hs.guard.surface),
        direction=tracer.wrap(f"{layer}.guard", hs.guard.direction))
    reset = dataclasses.replace(
        hs.reset, apply=tracer.wrap(f"{layer}.reset", hs.reset.apply))
    return dataclasses.replace(hs, guard=guard, reset=reset)


def _traced_build_model(build_model, tracer):
    def traced(model_id, params=None):
        bundle = tracer.wrap("billiard.model_build", build_model)(model_id,
                                                                  params)
        hs = _traced_hybrid(bundle.hybrid, tracer, "billiard")
        cyc = bundle.cyclic
        if cyc is not None:
            solver = cyc.cyclic_velocity_solver
            cyc = dataclasses.replace(
                cyc, full=_traced_hybrid(cyc.full, tracer, "billiard"),
                cyclic_velocity_solver=(
                    None if solver is None
                    else tracer.wrap("reduction.cyclic_solve", solver)))
        return dataclasses.replace(bundle, hybrid=hs, system=hs.system,
                                   cyclic=cyc)
    return traced


def _traced_reduce(reduce, tracer):
    def traced(cs, mu, *args, **kwargs):
        red = tracer.wrap("reduction.reduce", reduce)(cs, mu, *args, **kwargs)
        return dataclasses.replace(
            red, shape=_traced_hybrid(red.shape, tracer, "reduction"))
    return traced


class Instrumentation:
    """Installs the tracing wrappers on the package's seams.

    Use as a context manager; every patched attribute is restored on
    exit, so untraced passes run the package exactly as shipped.
    """

    def __init__(self, tracer):
        self.tracer = tracer
        self._saved = []

    def _patch(self, module, name, replacement):
        self._saved.append((module, name, getattr(module, name)))
        setattr(module, name, replacement)

    def __enter__(self):
        from hybridlag import cli, hybrid, reduction

        tr = self.tracer
        for module, name, span in (
                (cli, "main", "cli"),
                (cli, "simulate", "hybrid.simulate"),
                (reduction, "simulate", "hybrid.simulate"),
                (cli, "simulate_resequenced", "reduction.resequenced"),
                (reduction, "_reconstruct_arcs", "reduction.reconstruct"),
                (cli, "write_trajectory_csv", "io.write"),
                (cli, "write_events_csv", "io.write"),
                (cli, "write_json", "io.write")):
            self._patch(module, name, tr.wrap(span, getattr(module, name)))
        self._patch(hybrid, "RK45", _traced_rk45(hybrid.RK45, tr))
        self._patch(hybrid, "brentq", _traced_brentq(hybrid.brentq, tr))
        self._patch(cli, "build_model",
                    _traced_build_model(cli.build_model, tr))
        for module in (cli, reduction):
            self._patch(module, "reduce", _traced_reduce(module.reduce, tr))
        return self

    def __exit__(self, *exc):
        while self._saved:
            module, name, original = self._saved.pop()
            setattr(module, name, original)
        return False
