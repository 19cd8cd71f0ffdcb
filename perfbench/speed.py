"""Machine-speed probe that puts timings on a fixed reference speed.

On a shared host the speed of one core drifts. In a 2-vCPU container on
a shared Intel Xeon host, the same ten hybridlag runs took anywhere from
0.57 to 0.95 s from one second to the next, with the process on CPU the
whole time (CPU time tracks wall time, so it is the core that slows, not
a wait), and whole benchmark runs moved by +-20%. A fixed calibration
unit run right beside the work slows down with it. In 200 alternations
of one hybridlag CLI run with the solver unit below, the raw run times
spread by 16% (quartile distance over median) and their ratio to the
unit by 8%; over successive windows of 25 runs the raw medians moved by
+-9% and the ratio medians by +-2%.

The probe samples the unit right before a timed piece of work, every
SAMPLE_EVERY_CPU_S of CPU time during it (from a SIGPROF handler, so no
thread is started) and right after it. It cuts the work at the samples
and scales each piece by reference / (local unit time), so the result is
the time the work would have taken at the speed where the unit takes
`reference` seconds; the time spent sampling is left out. Scaling piece
by piece rather than by one median over the whole work brought repeats
of one 2-4 s run from a +-10% to a +-2.5% spread. The units use none of
hybridlag, so a change to the package cannot move them.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

SAMPLE_EVERY_CPU_S = 0.05

_clock = time.perf_counter


def interpreter_unit():
    """Float arithmetic, math calls and list indexing in pure Python, so
    the set-up probe can run it before numpy is imported."""
    acc = 0.0
    ys = [0.0, 0.0, 0.0, 0.0]
    for i in range(700):
        ys[i & 3] = math.exp(-i * 1e-3) * ((i * 0.5) % 7.0)
        acc += ys[(i + 1) & 3] * 0.5 + ys[i & 3]
    return acc


def solver_unit():
    """Eight Dormand-Prince steps with a dense-output evaluation each, on
    a fixed linear 4-D system: the mix of scipy stepping, small-array
    numpy work and Python calls that the executor's hot loop does."""
    import numpy as np
    from scipy.integrate import RK45

    a = np.array([[0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0],
                  [-1.0, 0.0, -0.1, 0.0], [0.0, -2.0, 0.0, -0.1]])
    solver = RK45(lambda t, y: a @ y, 0.0, np.array([1.0, 0.0, 0.0, 1.0]),
                  1e9, rtol=1e-10, atol=1e-10)
    for _ in range(8):
        solver.step()
        solver.dense_output()(0.5 * (solver.t + solver.t_old))


# each unit with its duration at the reference speed (about its median
# on the machine the first baseline was taken on)
SOLVER = (solver_unit, 7.5e-4)
INTERPRETER = (interpreter_unit, 2.5e-4)


class SpeedProbe:
    """Samples a calibration unit around and during timed work."""

    def __init__(self, unit=SOLVER):
        self._unit, self._reference_s = unit
        self._samples = []          # (start, duration) in time order
        signal.signal(signal.SIGPROF, self._on_prof)

    def _take(self):
        t0 = _clock()
        self._unit()
        self._samples.append((t0, _clock() - t0))

    def _on_prof(self, signum, frame):
        self._take()

    def begin(self):
        """Sample, start sampling during the work, and return the work's
        start time. Call right before the timed work."""
        self._samples = []
        self._take()
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_CPU_S,
                         SAMPLE_EVERY_CPU_S)
        self._start = _clock()
        return self._start

    def end(self):
        """Call right after the timed work; returns (time at the
        reference speed, wall time).

        The work is cut at the samples taken during it; each piece is
        scaled by the median of the four samples nearest to it, so a
        change of speed within the work is followed and the time spent
        sampling is left out."""
        stop = _clock()
        signal.setitimer(signal.ITIMER_PROF, 0)
        self._take()
        samples = self._samples
        durations = [d for _, d in samples]
        normalized = 0.0
        piece_start = self._start
        for j in range(len(samples) - 1):
            piece_end = min(samples[j + 1][0], stop)
            local = statistics.median(durations[max(j - 1, 0):j + 3])
            normalized += max(piece_end - piece_start, 0.0) / local
            piece_start = samples[j + 1][0] + samples[j + 1][1]
        return normalized * self._reference_s, stop - self._start
