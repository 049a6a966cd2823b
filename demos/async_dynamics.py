"""Best-response play without a referee.

Sequential and simultaneous updates assume everyone takes turns or moves
in lockstep. Real networks do neither: users update when they feel like
it and measure interference that is several ticks old. This demo draws
random asynchronous schedules (per-tick update probability, bounded
staleness) on a weakly coupled channel and shows that they all land on
the same equilibrium, just along different paths.

Run:  python3 demos/async_dynamics.py [--staleness D] [--prob P]
"""
import argparse

import numpy as np

from riwfa import (
    RunConfig,
    Schedule,
    UncertaintySpec,
    random_scenario,
    run,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--staleness", type=int, default=5,
                        help="oldest usable profile snapshot (default 5)")
    parser.add_argument("--prob", type=float, default=0.5,
                        help="per-tick update probability (default 0.5)")
    parser.add_argument("--schedules", type=int, default=5)
    args = parser.parse_args()

    sc = random_scenario(3, 8, direct_range=(0.05, 0.1),
                         cross_range=(0.0, 0.002),
                         noise_range=(0.001, 0.005), seed=5)
    sc = sc.with_uncertainty(UncertaintySpec.uniform(3, 8, 0.1))
    config = RunConfig(tol=1e-8)

    baseline = run(sc, Schedule(kind="sequential"), config)
    print(f"sequential baseline: {baseline.iterations} iterations, "
          f"residual {baseline.residual:.1e}")
    print()

    print(f"random schedules, update probability {args.prob}, "
          f"staleness up to {args.staleness}:")
    for seed in range(args.schedules):
        schedule = Schedule("asynchronous", update_probability=args.prob,
                            max_staleness=args.staleness, seed=seed)
        report = run(sc, schedule, config)
        gap = float(np.abs(report.profile - baseline.profile).max())
        print(f"  seed {seed}: {report.iterations:>3} ticks, "
              f"converged = {report.converged}, "
              f"distance to baseline equilibrium = {gap:.1e}")
    print()

    dull = Schedule("asynchronous", update_probability=1.0, max_staleness=0, seed=0)
    traj_config = RunConfig(tol=1e-8, record_trajectory=True)
    a = run(sc, dull, traj_config)
    b = run(sc, Schedule(kind="simultaneous"), traj_config)
    same = all(np.array_equal(x, y) for x, y in zip(a.trajectory, b.trajectory))
    print("a schedule with probability 1 and staleness 0 is simultaneous")
    print(f"play in disguise: trajectories bitwise identical = {same}")


if __name__ == "__main__":
    main()
