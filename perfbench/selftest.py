"""Self-test of the tracer's exact counts: two traced runs of each workload
with the same seed must give identical counts.

    python3 perfbench/selftest.py [--seed N] [--seconds S]
"""
from __future__ import annotations

import argparse
import sys

from run import invoke
from workloads import WORKLOADS

EXACT = ("model.interference_calls", "waterfill.calls", "waterfill.best_response_calls",
         "dynamics.iterations", "dynamics.useful_iter_frac", "analysis.norm_calls",
         "analysis.cert_passed_frac", "cli.output_bytes")


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=2)
    args = parser.parse_args(argv)
    failures = 0
    for workload in WORKLOADS:
        first, second = (invoke(workload, args.seed, args.seconds, trace=1)[1]
                         for _ in range(2))
        for name in EXACT:
            a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
            same = a == b
            failures += not same
            print(f"{workload:12s} {name:30s} {a!r:>22} {b!r:>22} "
                  f"{'same' if same else 'DIFFERENT'}")
    print("counts repeat exactly" if not failures else f"{failures} counts differ")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
