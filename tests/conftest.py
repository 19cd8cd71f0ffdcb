import contextlib
import signal

import numpy as np
import pytest

import hybridlag as hl


@pytest.fixture(scope="session")
def scenario_c025():
    return hl.get_scenario("paper-c025")


@pytest.fixture(scope="session")
def scenario_c010():
    return hl.get_scenario("paper-c010")


@pytest.fixture(scope="session")
def params_c025(scenario_c025):
    return scenario_c025.params


@pytest.fixture()
def rng():
    return np.random.default_rng(4257)


def sample_states(rng, model_id, count, dim=2):
    """Random states inside each model's sensible box."""
    out = []
    for _ in range(count):
        t = float(rng.uniform(0.0, 4.0))
        if model_id == "billiard-polar":
            q = np.array([rng.uniform(0.3, 1.3), rng.uniform(-3.0, 3.0)])
        elif model_id == "harmonic-1d":
            q = rng.uniform(-1.5, 1.5, size=1)
        else:
            q = rng.uniform(-1.5, 1.5, size=dim)
        v = rng.uniform(-3.0, 3.0, size=q.size)
        out.append(hl.State(t, q, v))
    return out


def reset_state(reset, s):
    """The post-impact State of `reset` applied at the State s, whose q
    and v it gets as lists of floats (`hl.ResetMap`)."""
    return hl.State(s.t, *reset.apply(s.t, s.q.tolist(), s.v.tolist()))


@contextlib.contextmanager
def no_hang(seconds):
    """Fail the enclosed block if it runs longer than `seconds` of wall
    time, so that a regression into an endless loop fails the test
    instead of stalling the suite (main thread, POSIX only)."""
    def expire(signum, frame):
        pytest.fail(f"still running after {seconds} s", pytrace=False)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
