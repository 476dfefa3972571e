"""Time one workload's set-up in a fresh interpreter and print the seconds,
scaled to the reference speed (see ``speed.py``).

    python3 perfbench/setup_probe.py --workload risk-wide --seed 0

Set-up is importing optstab, building the workload's configs and generating
and splitting its data.  numpy, which the speed probe needs, is imported
before the clock starts, so its own import time is not counted.  ``run.py``
runs this several times and reports the median as setup_s.
"""

import argparse
import os
import sys
import time


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    args = p.parse_args()
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path[:0] = [os.path.join(root, "src"), root]
    from perfbench.speed import SpeedProbe

    with SpeedProbe(interval=0.01) as probe:
        start = time.perf_counter()
        from perfbench import workloads

        workloads.WORKLOADS[args.workload].setup(args.seed)
        wall_s = time.perf_counter() - start
    print(probe.reference_seconds(wall_s))
    return 0


if __name__ == "__main__":
    sys.exit(main())
