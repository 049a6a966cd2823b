"""End-to-end acceptance checks.

Each test prints exactly one verdict line (visible with ``pytest -s``); the
multi-part benchmark test also prints one line per sub-check.

One test fails by design rather than by accident: the bundled benchmark
ships reference tables claiming the robust equilibrium uses pairwise
disjoint supports. Re-deriving the equilibrium from the bundled channel
data gives an orthogonality index of 5/7, and the shipped reference
profiles are not fixed points of the best-response map (see the regression
tests in test_dynamics.py). test_acceptance_05 asserts the claimed value
anyway and therefore stays red.
"""
import time

import numpy as np

from riwfa import (
    ENSEMBLES,
    ChannelRealization,
    GridSpec,
    PowerConstraints,
    RunConfig,
    Scenario,
    Schedule,
    UncertaintySpec,
    best_response,
    brute_force_best_response,
    check_async_convergence,
    check_rne_uniqueness,
    load_bundled_scenario,
    operator_norm_2,
    profile_feasible,
    random_scenario,
    run,
    uniform_profile,
    waterfill,
)
from riwfa.cli import TABLE4_SUPPORTS, TABLE4_UTILITIES


def _verdict(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"acceptance {num:02d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _sub(tier: str, name: str, ok: bool, detail: str = "") -> bool:
    line = f"  [{tier}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    return ok


def test_acceptance_01_worstcase_zero_eps_identity():
    """eps=0 worst-case hedging is bitwise the nominal game, end to end."""
    start = time.monotonic()
    checked = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 6))
        k = int(rng.integers(1, 13))
        sc = random_scenario(m, k, direct_range=(0.05, 0.1),
                             cross_range=(0.0, 0.005),
                             noise_range=(0.001, 0.01), seed=seed)
        nominal = sc.with_uncertainty(UncertaintySpec.nominal(m, k))
        hedged = sc.with_uncertainty(UncertaintySpec.uniform(m, k, 0.0))

        probe = uniform_profile(sc.constraints)
        for user in range(m):
            br_a = best_response(nominal, user, probe)
            br_b = best_response(hedged, user, probe)
            assert np.array_equal(br_a.p, br_b.p)

        rep_a = run(nominal, Schedule(kind="sequential"), RunConfig(tol=1e-8))
        rep_b = run(hedged, Schedule(kind="sequential"), RunConfig(tol=1e-8))
        assert rep_a.converged and rep_b.converged
        assert np.array_equal(rep_a.profile, rep_b.profile)
        checked += 1
    elapsed = time.monotonic() - start
    _verdict(1, "worst-case eps=0 is bitwise identical to nominal",
             checked == 100 and elapsed < 30,
             f"{checked} scenarios, best responses and equilibria exact, "
             f"{elapsed:.2f} s")


def test_acceptance_02_waterfill_closed_form():
    sol = waterfill(np.array([0.1, 0.3]), 1.0, np.array([10.0, 10.0]))
    interior_ok = bool(np.all(np.abs(sol.p - np.array([0.6, 0.4])) <= 1e-9))

    binding = waterfill(np.array([0.1, 0.3]), 1.0, np.array([0.4, 0.4]))
    binding_ok = binding.p.tolist() == [0.4, 0.4]

    _verdict(2, "water-filling closed-form cases", interior_ok and binding_ok,
             f"interior p={sol.p.tolist()}, mask-bound p={binding.p.tolist()}")


def test_acceptance_03_grid_oracle_agreement():
    """The analytic water-filler matches a brute-force grid search."""
    start = time.monotonic()
    resolution = 1e-3
    grid = GridSpec(resolution=resolution)
    rng = np.random.default_rng(0)
    worst_gap = -np.inf
    for _ in range(100):
        k = int(rng.integers(1, 7))
        s = rng.uniform(0.05, 1.0, size=k)
        p_max = float(rng.uniform(0.2, 1.0))
        mask = rng.uniform(0.3, 1.2, size=k)
        analytic = waterfill(s, p_max, mask)
        gridded = brute_force_best_response(s, p_max, mask, grid)
        u_analytic = float(np.sum(np.log1p(analytic.p / s)))
        u_grid = float(np.sum(np.log1p(np.asarray(gridded) / s)))
        bound = 2 * k * resolution / float(np.min(s))
        assert u_analytic >= u_grid - bound
        assert u_grid >= u_analytic - bound  # grid is genuinely near-optimal
        worst_gap = max(worst_gap, abs(u_analytic - u_grid))
    elapsed = time.monotonic() - start
    _verdict(3, "water-filling matches the grid oracle", elapsed < 60,
             f"100 instances, worst utility gap {worst_gap:.2e}, "
             f"{elapsed:.2f} s")


def test_acceptance_04_probabilistic_endpoint_identities():
    """delta0=0.5 reproduces nominal and delta0=1 reproduces worst case."""
    eps = 0.8
    worst_diff = 0.0
    for seed in range(20):
        sc = random_scenario(3, 8, direct_range=(0.05, 0.1),
                             cross_range=(0.0, 0.002),
                             noise_range=(0.001, 0.005), seed=seed)
        config = RunConfig(tol=1e-8)
        schedule = Schedule(kind="sequential")

        nominal = run(sc.with_uncertainty(UncertaintySpec.nominal(3, 8)),
                      schedule, config)
        neutral = run(sc.with_uncertainty(UncertaintySpec.uniform(
            3, 8, eps, mode="probabilistic", delta0=0.5)), schedule, config)
        hedged = run(sc.with_uncertainty(UncertaintySpec.uniform(3, 8, eps)),
                     schedule, config)
        pinned = run(sc.with_uncertainty(UncertaintySpec.uniform(
            3, 8, eps, mode="probabilistic", delta0=1.0)), schedule, config)

        assert nominal.converged and hedged.converged
        diff_nominal = float(np.abs(neutral.profile - nominal.profile).max())
        diff_worst = float(np.abs(pinned.profile - hedged.profile).max())
        assert diff_nominal <= 1e-12
        assert diff_worst <= 1e-12
        worst_diff = max(worst_diff, diff_nominal, diff_worst)
    _verdict(4, "probabilistic endpoints match nominal and worst case",
             True, f"20 shared-seed scenarios, eps={eps}, "
             f"largest deviation {worst_diff:.1e}")


def test_acceptance_05_bundled_benchmark_tables():
    """Re-derive the bundled benchmark's reference equilibria.

    Expected to fail: the robust equilibrium computed from the bundled
    channel data keeps two shared sub-channels (orthogonality index 5/7),
    not the pairwise disjoint supports the reference tables record.
    """
    start = time.monotonic()
    base = load_bundled_scenario()
    schedule = Schedule(kind="sequential")
    config = RunConfig(init="zero", tol=1e-8, max_iter=10_000)
    nominal = run(base.with_uncertainty(UncertaintySpec.nominal(3, 6)),
                  schedule, config)
    robust = run(base.with_uncertainty(UncertaintySpec.uniform(3, 6, 3.0)),
                 schedule, config)
    elapsed = time.monotonic() - start

    musts = [
        _sub("must", "nominal run converged with residual <= 1e-6",
             nominal.converged and nominal.residual <= 1e-6,
             f"residual={nominal.residual:.2e} iters={nominal.iterations}"),
        _sub("must", "robust run converged with residual <= 1e-6",
             robust.converged and robust.residual <= 1e-6,
             f"residual={robust.residual:.2e} iters={robust.iterations}"),
        _sub("must", "both equilibria feasible",
             profile_feasible(nominal.profile, base.constraints)
             and profile_feasible(robust.profile, base.constraints)),
        _sub("must", "robust supports pairwise disjoint (index == 1)",
             robust.orthogonality_index == 1.0,
             f"measured index {robust.orthogonality_index:.6f}"),
        _sub("must", "robust social utility >= nominal",
             robust.social_utility >= nominal.social_utility,
             f"{robust.social_utility:.4f} vs {nominal.social_utility:.4f}"),
        _sub("must", "finished in under 1 s", elapsed < 1.0,
             f"{elapsed:.3f} s"),
    ]

    supports = [set(s) for s in robust.supports]
    _sub("should", "robust per-user utilities within 0.1 of the reference",
         bool(np.all(np.abs(robust.per_user_utility
                            - np.array(TABLE4_UTILITIES)) <= 0.1)),
         f"measured {np.round(robust.per_user_utility, 4).tolist()} "
         f"reference {list(TABLE4_UTILITIES)}")
    _sub("should", "robust supports match the reference partition",
         supports == [set(s) for s in TABLE4_SUPPORTS],
         f"measured {[sorted(s) for s in supports]} "
         f"reference {[sorted(s) for s in TABLE4_SUPPORTS]}")

    failed = sum(not ok for ok in musts)
    _verdict(5, "bundled benchmark reference tables", failed == 0,
             f"{failed} of {len(musts)} required checks failed")


def test_acceptance_06_utility_monotone_under_uncertainty():
    """More protection never helps: social utility falls as eps grows."""
    start = time.monotonic()
    eps_grid = (0.0, 0.25, 0.5, 1.0)
    scenarios, seed = [], 100
    while len(scenarios) < 20:
        sc = random_scenario(8, 64, seed=seed, **ENSEMBLES["low"])
        if check_rne_uniqueness(sc).passed:
            scenarios.append(sc)
        seed += 1
    config = RunConfig(tol=1e-8)
    utilities = np.empty((len(eps_grid), len(scenarios)))
    for r, sc in enumerate(scenarios):
        for g, eps in enumerate(eps_grid):
            spec = UncertaintySpec.uniform(sc.num_users, sc.num_subchannels, eps)
            rep = run(sc.with_uncertainty(spec), Schedule(kind="sequential"),
                      config)
            assert rep.converged
            utilities[g, r] = rep.social_utility
    steps = np.diff(utilities, axis=0)
    pointwise = bool(np.all(steps <= 1e-9))
    means = utilities.mean(axis=1)
    mean_strict = bool(np.all(np.diff(means) < 0))
    elapsed = time.monotonic() - start
    _verdict(6, "social utility nonincreasing in the uncertainty budget",
             pointwise and mean_strict and elapsed < 120,
             f"20 certificate-passing channels, worst step "
             f"{steps.max():+.4f}, means {np.round(means, 2).tolist()}, "
             f"{elapsed:.1f} s")


def _symmetric_scenario(alpha: float, eps: float) -> Scenario:
    gains = np.zeros((2, 2, 2))
    gains[0, 0] = gains[1, 1] = 1.0
    gains[0, 1] = gains[1, 0] = alpha
    return Scenario(
        channel=ChannelRealization(gains=gains,
                                   noise=np.array([[0.2, 0.4], [0.3, 0.5]])),
        constraints=PowerConstraints.uniform(2, 2, 1.0),
        uncertainty=UncertaintySpec.uniform(2, 2, eps))


def test_acceptance_07_uniqueness_certificate():
    """Closed-form certificate values, and the equilibrium it promises."""
    passing = _symmetric_scenario(0.3, 0.4)
    failing = _symmetric_scenario(0.3, 0.6)
    cert_pass = check_rne_uniqueness(passing)
    cert_fail = check_rne_uniqueness(failing)
    lhs_pass = cert_pass.margin + 1.0
    lhs_fail = cert_fail.margin + 1.0
    values_ok = (cert_pass.passed and not cert_fail.passed
                 and abs(lhs_pass - 0.8656854249492381) <= 1e-12
                 and abs(lhs_fail - 1.148528137423857) <= 1e-12)

    rng = np.random.default_rng(7)
    finals = []
    for _ in range(3):
        raw = rng.uniform(0.0, 1.0, size=(2, 2))
        raw *= (rng.uniform(0.1, 1.0, size=2) / raw.sum(axis=1))[:, None]
        rep = run(passing, Schedule(kind="sequential"),
                  RunConfig(init=raw, tol=1e-8))
        assert rep.converged
        finals.append(rep.profile)
    spread = max(float(np.abs(p - finals[0]).max()) for p in finals[1:])
    unique_ok = spread <= 10 * 1e-8

    _verdict(7, "uniqueness certificate closed form and uniqueness",
             values_ok and unique_ok,
             f"certificate values {lhs_pass:.4f} / {lhs_fail:.4f}, "
             f"3 inits spread {spread:.1e}")


def test_acceptance_08_asynchronous_convergence():
    """Stale, partial updates still reach the same equilibrium."""
    sc = random_scenario(3, 8, direct_range=(0.05, 0.1),
                         cross_range=(0.0, 0.002),
                         noise_range=(0.001, 0.005), seed=5)
    sc = sc.with_uncertainty(UncertaintySpec.uniform(3, 8, 0.1))
    cert = check_async_convergence(sc)
    assert cert.passed, "scenario must satisfy the asynchronous certificate"

    config = RunConfig(tol=1e-8)
    finals = []
    for seed in range(5):
        schedule = Schedule("asynchronous", update_probability=0.5, max_staleness=5,
                            seed=seed)
        rep = run(sc, schedule, config)
        assert rep.converged
        finals.append(rep.profile)
    spread = max(float(np.abs(p - finals[0]).max()) for p in finals[1:])
    agree_ok = spread <= 10 * 1e-8

    traj_config = RunConfig(tol=1e-8, record_trajectory=True)
    degenerate = Schedule("asynchronous", update_probability=1.0, max_staleness=0,
                          seed=0)
    async_rep = run(sc, degenerate, traj_config)
    sync_rep = run(sc, Schedule(kind="simultaneous"), traj_config)
    identical = (len(async_rep.trajectory) == len(sync_rep.trajectory)
                 and all(np.array_equal(a, b) for a, b in
                         zip(async_rep.trajectory, sync_rep.trajectory)))

    _verdict(8, "asynchronous updates converge to the same equilibrium",
             agree_ok and identical,
             f"5 schedules spread {spread:.1e}, degenerate schedule "
             f"bitwise equals simultaneous: {identical}")


def test_acceptance_09_operator_norm_bounds():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        m = int(rng.integers(1, 17))
        w = rng.uniform(-1.0, 1.0, size=(m, m))
        assert operator_norm_2(w) <= np.linalg.norm(w, "fro") + 1e-12

    hand_ok = (
        abs(operator_norm_2(np.array([[0.0, 1.0], [0.0, 0.0]])) - 1.0) <= 1e-10
        and abs(operator_norm_2(np.array([[3.0, 0.0], [0.0, 4.0]])) - 4.0) <= 1e-10
        and abs(operator_norm_2(np.array([[1.0, 1.0], [1.0, 1.0]])) - 2.0) <= 1e-10
        and abs(operator_norm_2(np.array([[0.0, 0.3], [0.3, 0.0]])) - 0.3) <= 1e-10
    )
    _verdict(9, "spectral norm below Frobenius norm",
             hand_ok, "1000 random matrices up to 16x16, hand cases to 1e-10")
