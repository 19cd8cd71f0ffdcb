"""Set-up probe for setup_s, run by run.py in a fresh process.

    python3 perfbench/setup_probe.py <workload> <seed>

Imports hybridlag from the checkout's src/ and builds the workload's
models, scenarios and reduced systems, then prints one JSON line with
the wall time of that and the same time at the reference speed.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import speed  # noqa: E402  (pure Python: imports nothing being timed)

probe = speed.SpeedProbe(speed.INTERPRETER)
probe.begin()
import workloads  # noqa: E402

workloads.build_models(sys.argv[1], int(sys.argv[2]))
seconds, wall = probe.end()
print(json.dumps({"wall": wall, "seconds": seconds}))
