"""The four workloads: the scenario files each writes from the seed, the CLI
argument lists of one pass, and the checks each op's output must pass.

A pass is a fixed list of ops.  Every pass of a run repeats the same list,
so the ops of a run are drawn from one fixed composition, and the draws are
picked so that the composition is the same for every seed:

- low-sweep: 16 low-interference draws whose worst-case runs at eps = 0,
  0.25, 0.5, 1 take exactly 4, 4, 4, 5 rounds; each op sweeps one of them.
- high-cycle: 12 high-interference draws in the order converging,
  converging, cycling.  Converging draws converge in 19 to 21 rounds;
  cycling ones repeat an earlier profile exactly by round 40 and then run
  to the cap of 100.  The median op then falls among the converging third
  of ops away from the boundary, and the tail percentile among the cycling
  third.
- async-stale: 8 low-interference draws, each run once with its own
  asynchronous schedule seed.
- certify: 4 low and 4 high draws, each checked under 4 uncertainty
  settings.

The reference module picks the draws; the program never sees anything but
the scenario files.
"""
from __future__ import annotations

import csv
import io
import json
import math
import os

import numpy as np

import reference as ref

WORKLOADS = ("low-sweep", "high-cycle", "async-stale", "certify")

RUN_TOL = 1e-8  # the CLI's default --tol
EPS_GRID = (0.0, 0.25, 0.5, 1.0)
LOW_SWEEP_DRAWS = 16
LOW_SWEEP_ROUNDS = (4, 4, 4, 5)

HIGH_MAX_ITER = 100
HIGH_CONVERGING = 8
HIGH_CYCLING = 4
CONVERGE_ROUNDS = (19, 21)
CYCLE_BY = 40
# A cycle whose steps are this large cannot pass the run's 1e-8 stopping
# rule under any rounding, so the program must not converge on it either.
CYCLE_MIN_STEP = 1e-6

ASYNC_DRAWS = 8
ASYNC_EPS = 0.5
ASYNC_UPDATE_PROB = 0.5
ASYNC_MAX_STALENESS = 3

CERTIFY_DRAWS_PER_ENSEMBLE = 4
CERTIFY_SETTINGS = (
    ("nominal", 0.0, None),
    ("worstcase", 0.1, None),
    ("worstcase", 0.5, None),
    ("probabilistic", 0.8, 0.75),
)

MAX_DRAWS = 2000
MONOTONE_TOL = 1e-9
# A run stops once a round moves no power by more than RUN_TOL; an
# asynchronous run's rows answer snapshots up to a few ticks old, so its
# gap to the exact reply can exceed what one round of RUN_TOL explains.
KKT_ATOL = 10 * RUN_TOL
UTILITY_RTOL = 1e-6
MARGIN_RTOL = 1e-8

# Independent random streams for the two ensembles.
STREAM_LOW, STREAM_HIGH = 1, 2


def _draws(ensemble: str, seed: int, stream: int):
    for index in range(MAX_DRAWS):
        yield ref.draw_scenario(ensemble, seed, stream, index)
    raise RuntimeError(f"no suitable {ensemble} draws in {MAX_DRAWS} tries")


def _write(doc: dict, input_dir: str, name: str) -> str:
    path = os.path.join(input_dir, f"{name}.json")
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return path


def _low_sweep(seed, input_dir):
    ops, draws = [], _draws("low", seed, STREAM_LOW)
    while len(ops) < LOW_SWEEP_DRAWS:
        doc = next(draws)
        game, utilities = ref.Game(doc), []
        for eps, rounds in zip(EPS_GRID, LOW_SWEEP_ROUNDS):
            mult = ref.multiplier("worstcase", eps, None, game.mask.shape)
            profile, converged, iterations, _, _ = ref.play(game, mult, RUN_TOL, rounds + 1)
            if not (converged and iterations == rounds):
                break
            utilities.append(game.social_utility(profile))
        else:
            path = _write(doc, input_dir, f"low-{len(ops):02d}")
            ops.append({"kind": "sweep", "expect": 0, "scenario": path,
                        "utilities": utilities,
                        "argv": ["sweep", "--scenario", path,
                                 "--eps-grid", ",".join(str(e) for e in EPS_GRID),
                                 "--realizations", "1", "--jobs", "1"]})
    return ops


def _high_cycle(seed, input_dir):
    converging, cycling = [], []
    draws = _draws("high", seed, STREAM_HIGH)
    while len(converging) < HIGH_CONVERGING or len(cycling) < HIGH_CYCLING:
        doc = next(draws)
        game = ref.Game(doc)
        _, converged, iterations, repeat, delta = ref.play(
            game, np.ones_like(game.mask), RUN_TOL, CYCLE_BY)
        if converged and CONVERGE_ROUNDS[0] <= iterations <= CONVERGE_ROUNDS[1]:
            group, expect = converging, 0
        elif repeat is not None and delta >= CYCLE_MIN_STEP:
            group, expect = cycling, 2
        else:
            continue
        if len(group) == (HIGH_CONVERGING if expect == 0 else HIGH_CYCLING):
            continue
        name = f"high-{'conv' if expect == 0 else 'cycle'}-{len(group):02d}"
        path = _write(doc, input_dir, name)
        group.append({"kind": "run", "expect": expect, "scenario": path,
                      "mode": "nominal", "eps": 0.0, "delta0": None,
                      "replay": {"scenario": path, "max_iter": HIGH_MAX_ITER},
                      "argv": ["run", "--scenario", path,
                               "--max-iter", str(HIGH_MAX_ITER)]})
    ops = []
    for third in range(HIGH_CYCLING):
        ops += converging[2 * third:2 * third + 2] + [cycling[third]]
    return ops


def _async_stale(seed, input_dir):
    ops, draws = [], _draws("low", seed, STREAM_LOW)
    for index in range(ASYNC_DRAWS):
        path = _write(next(draws), input_dir, f"low-{index:02d}")
        ops.append({"kind": "run", "expect": 0, "scenario": path,
                    "mode": "worstcase", "eps": ASYNC_EPS, "delta0": None,
                    "argv": ["run", "--scenario", path, "--eps", str(ASYNC_EPS),
                             "--schedule", "asynchronous",
                             "--update-prob", str(ASYNC_UPDATE_PROB),
                             "--max-staleness", str(ASYNC_MAX_STALENESS),
                             "--schedule-seed", str(1000 * seed + index)]})
    return ops


def _certify(seed, input_dir):
    paths = []
    for ensemble, stream in (("low", STREAM_LOW), ("high", STREAM_HIGH)):
        draws = _draws(ensemble, seed, stream)
        paths += [_write(next(draws), input_dir, f"{ensemble}-{index:02d}")
                  for index in range(CERTIFY_DRAWS_PER_ENSEMBLE)]
    ops = []
    for path in paths:
        for mode, eps, delta0 in CERTIFY_SETTINGS:
            argv = ["check", "--scenario", path, "--mode", mode]
            if mode != "nominal":
                argv += ["--eps", str(eps)]
            if delta0 is not None:
                argv += ["--delta0", str(delta0)]
            ops.append({"kind": "check", "expect": 0, "scenario": path,
                        "mode": mode, "eps": eps, "delta0": delta0, "argv": argv})
    return ops


BUILDERS = {"low-sweep": _low_sweep, "high-cycle": _high_cycle,
            "async-stale": _async_stale, "certify": _certify}


def build_ops(workload: str, seed: int, input_dir: str) -> list[dict]:
    """The ops of one pass, with their scenario files written to input_dir."""
    os.makedirs(input_dir, exist_ok=True)
    return BUILDERS[workload](seed, input_dir)


# ---------------------------------------------------------------------------
# Output checks.  Each returns (problems, runs, converged runs).
# ---------------------------------------------------------------------------

def _check_sweep(op, text, game):
    rows = [row for row in csv.reader(io.StringIO(text)) if row and not row[0].startswith("#")]
    header, body = rows[0], rows[1:]
    problems = []
    if header != ["epsilon", "mean_social_utility", "std", "num_converged", "num_total"]:
        problems.append(f"unexpected header {header}")
        return problems, 0, 0
    grid = [float(row[0]) for row in body]
    if grid != list(EPS_GRID):
        problems.append(f"grid {grid}")
    converged = sum(int(row[3]) for row in body)
    total = sum(int(row[4]) for row in body)
    if converged != total:
        problems.append(f"{total - converged} of {total} grid points did not converge")
        return problems, total, converged
    utilities = [float(row[1]) for row in body]
    steps = np.diff(utilities)
    if np.any(steps > MONOTONE_TOL):
        problems.append(f"utility rises along the eps grid: {utilities}")
    for got, want in zip(utilities, op["utilities"]):
        if abs(got - want) > UTILITY_RTOL * max(1.0, abs(want)):
            problems.append(f"utility {got!r} differs from the reference {want!r}")
    return problems, total, converged


def _check_run(op, text, game):
    report = json.loads(text)["report"]
    profile = np.array(report["profile"], dtype=float)
    problems = []
    converged = bool(report["converged"])
    if converged != (op["expect"] == 0):
        problems.append(f"converged={converged}, expected {op['expect'] == 0}")
    if not game.feasible(profile):
        problems.append("profile infeasible")
        return problems, 1, int(converged)
    utility = game.social_utility(profile)
    if abs(report["social_utility"] - utility) > UTILITY_RTOL * max(1.0, abs(utility)):
        problems.append(f"social utility {report['social_utility']!r}, "
                        f"reference {utility!r}")
    if converged:
        mult = ref.multiplier(op["mode"], op["eps"], op["delta0"], game.mask.shape)
        gap = game.kkt_gap(profile, mult)
        bound = np.maximum(KKT_ATOL, game.kkt_tolerance(RUN_TOL, mult))
        if np.any(gap > bound):
            worst = int(np.argmax(gap - bound))
            problems.append(f"KKT gap {gap[worst]:.3e} > {bound[worst]:.3e} (user {worst})")
    elif report["iterations"] > HIGH_MAX_ITER:
        problems.append(f"{report['iterations']} iterations past the cap")
    return problems, 1, int(converged)


def _close(got, want) -> bool:
    return abs(got - want) <= MARGIN_RTOL * max(1.0, abs(want))


def _check_certificate(op, text, game):
    payload = json.loads(text)
    eps_eff = ref.effective_eps(op["eps"], op["mode"], op["delta0"])
    uniqueness, asynchronous = ref.certificate_margins(game, eps_eff)
    problems = []
    got = payload["uniqueness"]["per_subchannel_margins"]
    bad = [k for k, (g, w) in enumerate(zip(got, uniqueness)) if not _close(g, w)]
    if len(got) != len(uniqueness) or bad:
        problems.append(f"uniqueness margins differ on sub-channels {bad[:5]}")
    if not _close(payload["uniqueness"]["margin"], float(uniqueness.max())):
        problems.append("uniqueness margin differs")
    if not _close(payload["async_convergence"]["margin"], asynchronous):
        problems.append(f"async margin {payload['async_convergence']['margin']!r}, "
                        f"reference {asynchronous!r}")
    for key, margin in (("uniqueness", float(uniqueness.max())),
                        ("async_convergence", asynchronous)):
        decided = abs(margin) > MARGIN_RTOL * max(1.0, abs(margin))
        if decided and payload[key]["passed"] != (margin < 0):
            problems.append(f"{key} verdict {payload[key]['passed']}")
    return problems, 0, 0


CHECKS = {"sweep": _check_sweep, "run": _check_run, "check": _check_certificate}


def check_output(op: dict, code, text: str, games: dict) -> tuple[list[str], int, int]:
    """Problems with one op's exit code and output, and its (runs,
    converged runs) for converged_frac."""
    if code != op["expect"]:
        return [f"exit code {code}, expected {op['expect']}"], 0, 0
    game = games.get(op["scenario"])
    if game is None:
        with open(op["scenario"]) as fh:
            game = games[op["scenario"]] = ref.Game(json.load(fh))
    try:
        return CHECKS[op["kind"]](op, text, game)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unreadable output: {exc!r}"], 0, 0


def tail_percentile(count: int) -> int:
    """The highest whole percentile with at least ten of ``count`` samples
    beyond it (100 when there are ten or fewer)."""
    if count <= 10:
        return 100
    return math.floor(100 * (count - 10) / count)
