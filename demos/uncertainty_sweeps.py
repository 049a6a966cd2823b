"""Social utility as the uncertainty budget grows.

Two sweeps over randomly drawn weakly coupled channels:

* worst-case hedging along an eps grid: utility can only fall, and the
  mean falls strictly, because every user protects against interference
  that is not actually there;

* the probabilistic model along a delta0 grid at fixed eps: delta0 is
  the chance the interference comes in high, so 0.5 cancels the hedge
  exactly (nominal play), 1.0 is full worst case, and values below 0.5
  gamble on a friendly channel. Utility at the true channel peaks at
  the nominal setting and falls off on both sides.

Run:  python3 demos/uncertainty_sweeps.py [--realizations N] [--out DIR]
"""
import argparse
import pathlib

import numpy as np

from riwfa import (
    ENSEMBLES,
    SweepResult,
    UncertaintySpec,
    random_scenario,
    sweep_reports,
    write_sweep_csv,
)


def print_sweep(result, parameter: str) -> None:
    print(f"  {parameter:>7}   mean utility   converged")
    for value, mean, done in zip(result.grid, result.mean_social_utility,
                                 result.num_converged):
        print(f"  {value:7.2f}   {mean:12.4f}   {done}/{result.num_total}")
    print()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--realizations", type=int, default=5)
    parser.add_argument("--users", type=int, default=3)
    parser.add_argument("--subchannels", type=int, default=16)
    parser.add_argument("--out", metavar="DIR",
                        help="also write the sweep CSVs here")
    args = parser.parse_args()
    if args.realizations < 1:
        parser.error("--realizations must be >= 1")

    # every grid point replays the same channels, so the curves pair pointwise
    channels = [random_scenario(args.users, args.subchannels, seed=seed, **ENSEMBLES["low"])
                for seed in range(7, 7 + args.realizations)]

    print(f"worst-case sweep, {args.realizations} channels per point:")
    eps_grid = np.linspace(0.0, 2.0, 6)
    specs = [UncertaintySpec.uniform(args.users, args.subchannels, eps) for eps in eps_grid]
    eps_result = SweepResult.from_reports("epsilon", eps_grid,
                                          sweep_reports(channels, specs))
    print_sweep(eps_result, "eps")

    print("probabilistic sweep at eps = 0.8:")
    d0_grid = np.linspace(0.0, 1.0, 5)
    specs = [UncertaintySpec.uniform(args.users, args.subchannels, 0.8,
                                     mode="probabilistic", delta0=d0) for d0 in d0_grid]
    d0_result = SweepResult.from_reports("delta0", d0_grid,
                                         sweep_reports(channels, specs))
    print_sweep(d0_result, "delta0")

    peak = d0_result.grid[int(np.argmax(d0_result.mean_social_utility))]
    print(f"the delta0 curve peaks at {peak} (the nominal point), the eps")
    print("curve is monotone: hedging is a pure cost on these channels.")

    if args.out:
        out = pathlib.Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        paths = [out / f"{label}_sweep.csv" for label in ("eps", "delta0")]
        for path, result in zip(paths, (eps_result, d0_result)):
            write_sweep_csv(result, path)
        print(f"wrote {paths[0]} and {paths[1]}")


if __name__ == "__main__":
    main()
