"""Set-up probe: python3 specbench/probe.py <workload> <seed> <spawn time>.

A fresh interpreter imports specvol, builds the workload and runs its warm-up
(design resolution and the cold first call per geometry).  It prints the
seconds from the parent's `time.perf_counter()` reading taken just before the
spawn to the end of the warm-up, so interpreter start-up counts too.
"""

import os
import sys
import time


def main():
    name, seed, spawned = sys.argv[1], int(sys.argv[2]), float(sys.argv[3])
    import workloads

    workloads.WORKLOADS[name](seed, len(os.sched_getaffinity(0))).warm_up()
    print(time.perf_counter() - spawned)


if __name__ == "__main__":
    main()
