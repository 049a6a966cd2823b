"""Print all seven end-to-end figures, by name and unit, for every workload.

    python3 perfbench/table.py [--seed N] [--seconds S]

Runs ``run.py`` once per workload with tracing off and reads the record line
it prints before its result line.
"""
from __future__ import annotations

import argparse
import sys

from run import invoke
from workloads import WORKLOADS

NAMES = ("workload_s", "op_ms_p50", "op_ms_tail", "setup_s", "peak_rss_mb",
         "converged_frac", "fail_frac")


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    args = parser.parse_args(argv)
    correct = True
    print(f"{'workload':12s} {'metric':15s} {'value':>14s}  unit")
    for workload in WORKLOADS:
        record, result = invoke(workload, args.seed, args.seconds, trace=0)
        correct &= result["correct"]
        for name in NAMES:
            item = record["end_to_end"][name]
            value = "n/a" if item["value"] is None else f"{item['value']:.6g}"
            note = (f"  (p{record['tail_percentile']} of {record['ops_timed']} ops)"
                    if name == "op_ms_tail" else "")
            print(f"{workload:12s} {name:15s} {value:>14s}  {item['unit']}{note}")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
