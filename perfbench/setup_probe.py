"""Set-up probe: a fresh interpreter that does what run.py does before its
first timed field (imports, then the inputs of the first round) and prints
"ready". run.py times it from spawn to that line.

    python3 perfbench/setup_probe.py WORKLOAD SEED    (with src on PYTHONPATH)
"""

import sys

import workloads

workloads.WORKLOADS[sys.argv[1]]().inputs(int(sys.argv[2]), 0)
print("ready", flush=True)
