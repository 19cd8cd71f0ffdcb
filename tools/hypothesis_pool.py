"""Print the constants Hypothesis draws from when the test suite runs.

Hypothesis (6.155.2, the version the `test` extra pins) mines every
local non-test module imported when a test runs, and draws some of its
examples from what it finds there: floats, ints with |v| >= 100,
negated numeric literals, and strings of at most 20 characters that are
not docstrings (f-strings are not mined). So a change to the literals of
`src/` or of the perfbench modules that the suite imports can change the
examples of the derandomized property tests, such as the closing-wall
tests of `tests/test_hybrid.py`.

This tool collects the suite in its own process (`pytest --collect-only`
from the current directory, with a small plugin) and prints Hypothesis's
own pool once collection is done, one constant a line as `<type> <repr>`,
sorted by type and then value, without the constants of this file. Run
it from the root of a checkout, before and after a change, and diff:

    PYTHONPATH=src python tools/hypothesis_pool.py > pool.txt

`tools/hypothesis_pool.txt` holds its output for the committed tree, and
the tier-1 workflow diffs the tool's output against it, so a change that
moves the pool commits the new output with it. pytest's own output goes
to standard error. The exit status is pytest's.
"""

import contextlib
import sys

import pytest


class _PoolAfterCollection:
    """A pytest plugin that reads the pool once the suite is collected.
    It imports Hypothesis only once pytest has loaded its plugins, so that
    pytest can still rewrite Hypothesis's plugin modules."""

    constants = ()

    def pytest_sessionstart(self, session):
        from hypothesis.internal.conjecture import providers

        # this module is local too: mark it as seen, so that its
        # constants stay out of the pool
        providers._seen_modules.add(id(sys.modules[__name__]))

    def pytest_collection_finish(self, session):
        from hypothesis.internal.conjecture import providers

        self.constants = list(providers._get_local_constants())


def main():
    plugin = _PoolAfterCollection()
    with contextlib.redirect_stdout(sys.stderr):
        status = pytest.main(["--collect-only", "-q", "-p", "no:cacheprovider"],
                             plugins=[plugin])
    pool = sorted(plugin.constants, key=lambda v: (type(v).__name__, v))
    for value in pool:
        print(type(value).__name__, repr(value))
    counts = {}
    for value in pool:
        counts[type(value).__name__] = counts.get(type(value).__name__, 0) + 1
    print(", ".join(f"{n} {name}" for name, n in sorted(counts.items())),
          file=sys.stderr)
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
