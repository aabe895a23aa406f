"""Set-up as a fresh interpreter pays it: import twrelay and build the inputs.

    python3 perfbench/setup_probe.py <workload> <seed> <rounds>

The caller times the whole process.
"""

import sys

import workloads

name, seed, rounds = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
workloads.WORKLOADS[name].build(seed, rounds)
