"""Write the glue workload's JSON inputs.

Usage: python3 perfbench/glue_inputs.py WORKDIR SEED

Runs in its own process, so the process that times the CLI never imports
fibrelab and its resident size stays below the CLI's (a child's peak RSS
as the kernel reports it includes its parent's).
"""
import random
import sys

from workloads import write_glue_inputs

if __name__ == "__main__":
    write_glue_inputs(sys.argv[1], random.Random(int(sys.argv[2])))
