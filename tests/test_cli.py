"""Command-line interface tests: exit codes, output formats, reproducibility."""
import json
import os
import resource
import subprocess
import sys
import warnings
from importlib import resources

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import riwfa
from riwfa import (
    ENSEMBLES,
    ChannelRealization,
    DegenerateUncertaintyWarning,
    PowerConstraints,
    Scenario,
    Schedule,
    UncertaintySpec,
    check_rne_uniqueness,
    fixed_point_residual,
    load_bundled_scenario,
    random_scenario,
    run,
    save_scenario,
)
from riwfa import cli
from riwfa.cli import EXIT_FAILED, EXIT_INPUT, EXIT_OK, main
from riwfa.model import DEGENERATE_MESSAGE

BUNDLED_SCENARIO = str(resources.files("riwfa") / "data" / "table2.json")


@pytest.fixture
def table2_file(tmp_path):
    path = tmp_path / "table2.json"
    save_scenario(load_bundled_scenario(), path)
    return str(path)


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_run_single_user_exits_zero(capsys):
    code, out, _ = run_cli(capsys, [
        "run", "--generate", "low", "--users", "1", "--subchannels", "4",
        "--seed", "3"])
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["report"]["converged"]
    assert payload["report"]["iterations"] <= 2
    assert payload["config"]["generate"] == "low"


def test_run_bundled_nominal_report(capsys, table2_file):
    code, out, _ = run_cli(capsys, [
        "run", "--scenario", table2_file, "--mode", "nominal"])
    assert code == EXIT_OK
    report = json.loads(out)["report"]
    assert np.allclose(report["per_user_utility"], [3.1902, 7.8387, 7.9867],
                       atol=1e-3)
    assert report["residual"] <= 1e-6


def test_run_bundled_robust_orthogonality(capsys, table2_file):
    code, out, _ = run_cli(capsys, [
        "run", "--scenario", table2_file, "--eps", "3"])
    assert code == EXIT_OK
    report = json.loads(out)["report"]
    # measured equilibrium of the bundled data: supports still share two
    # sub-channels at eps=3 (index 5/7; the reproduce preset checks the
    # bundled reference claim of full orthogonality and fails honestly)
    assert abs(report["orthogonality_index"] - 5 / 7) < 1e-12
    assert report["supports"] == [[0, 5], [1, 2, 3], [1, 4, 5]]


def test_run_writes_report_and_trajectory(capsys, tmp_path):
    out_file = tmp_path / "report.json"
    traj_file = tmp_path / "traj.csv"
    code, out, _ = run_cli(capsys, [
        "run", "--generate", "low", "--users", "2", "--subchannels", "6",
        "--out", str(out_file), "--trajectory", str(traj_file)])
    assert code == EXIT_OK
    assert out == ""
    payload = json.loads(out_file.read_text())
    assert payload["report"]["converged"]
    lines = traj_file.read_text().splitlines()
    assert lines[0].startswith("# {")  # embedded resolved config
    assert lines[1] == "iteration,user,subchannel,power"


def test_run_nonconvergence_exits_two_but_writes(capsys, tmp_path):
    out_file = tmp_path / "report.json"
    code, _, _ = run_cli(capsys, [
        "run", "--generate", "high", "--seed", "900", "--max-iter", "3",
        "--out", str(out_file)])
    assert code == EXIT_FAILED
    assert not json.loads(out_file.read_text())["report"]["converged"]


def test_run_summary_of_a_cycling_run(capsys, tmp_path):
    # sequential play on this draw repeats a tick-start profile with period 5
    # and is fast-forwarded to the cap; its logs still cover all 60 ticks
    out, traj, summary = (tmp_path / name for name in ("r.json", "t.csv", "s.csv"))
    code, _, _ = run_cli(capsys, [
        "run", "--generate", "high", "--users", "6", "--subchannels", "8", "--seed", "35",
        "--max-iter", "60", "--out", str(out), "--trajectory", str(traj),
        "--summary", str(summary)])
    assert code == EXIT_FAILED
    report = json.loads(out.read_text())["report"]
    assert not report["converged"] and report["iterations"] == 60
    assert report["stop_reason"] == "cycle" and report["cycle_period"] == 5
    assert report["best_responses"] == 10 * 6
    traj_lines, lines = traj.read_text().splitlines(), summary.read_text().splitlines()
    assert lines[0] == traj_lines[0]  # the same embedded config
    assert lines[1] == "iteration,residual,social_utility"
    assert [int(line.split(",")[0]) for line in lines[2:]] == list(range(1, 61))
    powers = np.array([float(row.split(",")[3]) for row in traj_lines[2:]]).reshape(61, 6, 8)
    steps = np.abs(np.diff(powers, axis=0)).max(axis=(1, 2))
    assert [float(line.split(",")[1]) for line in lines[2:]] == steps.tolist()
    assert float(lines[-1].split(",")[2]) == report["social_utility"]


def test_run_report_holds_exactly_its_summary_keys(capsys, tmp_path):
    # a recorded run keeps its per-tick log out of the JSON report
    code, out, _ = run_cli(capsys, [
        "run", "--generate", "low", "--users", "2", "--subchannels", "3",
        "--trajectory", str(tmp_path / "t.csv"), "--summary", str(tmp_path / "s.csv")])
    assert code == EXIT_OK
    assert set(json.loads(out)["report"]) == {
        "converged", "iterations", "residual", "per_user_utility", "social_utility",
        "orthogonality_index", "degenerate_uncertainty", "stop_reason", "cycle_period",
        "best_responses", "supports", "profile"}


def test_run_reports_stop_reason_of_a_converging_run(capsys, tmp_path):
    summary = tmp_path / "s.csv"
    code, out, _ = run_cli(capsys, [
        "run", "--generate", "low", "--users", "3", "--subchannels", "8",
        "--summary", str(summary)])
    assert code == EXIT_OK
    report = json.loads(out)["report"]
    assert report["stop_reason"] == "converged" and report["cycle_period"] is None
    assert report["best_responses"] == 3 * report["iterations"]
    assert len(summary.read_text().splitlines()) == 2 + report["iterations"]


def test_async_run_does_not_depend_on_max_iter_past_the_stop(capsys):
    # the schedule's ticks do not depend on the cap, so a run that stops
    # before the shorter cap reports the same equilibrium
    argv = ["run", "--generate", "low", "--users", "3", "--subchannels", "8",
            "--eps", "0.5", "--schedule", "asynchronous", "--update-prob", "0.5",
            "--max-staleness", "3", "--schedule-seed", "7"]
    code_long, out_long, _ = run_cli(capsys, argv + ["--max-iter", "10000"])
    code_short, out_short, _ = run_cli(capsys, argv + ["--max-iter", "200"])
    assert code_long == code_short == EXIT_OK
    assert json.loads(out_long)["report"] == json.loads(out_short)["report"]


def test_async_run_with_a_huge_cap_draws_only_the_ticks_it_plays(capsys):
    # the schedule is drawn tick by tick, so a cap of 1e12 costs no memory
    code, out, err = run_cli(capsys, [
        "run", "--generate", "low", "--users", "2", "--subchannels", "2",
        "--schedule", "asynchronous", "--max-iter", "1000000000000"])
    assert code == EXIT_OK and err == ""
    report = json.loads(out)["report"]
    assert report["converged"] and report["stop_reason"] == "converged"


def test_cycling_run_with_a_huge_cap_keeps_no_per_tick_log(tmp_path):
    # past a detected cycle an unrecorded run keeps nothing per tick, so a cap
    # of 1e12 fits in a 2 GiB address space
    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    src = os.path.dirname(os.path.dirname(riwfa.__file__))
    done = subprocess.run(
        [sys.executable, "-m", "riwfa", "run", "--generate", "high", "--users", "6",
         "--subchannels", "8", "--seed", "35", "--max-iter", "1000000000000",
         "--out", "r.json"],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": src}, preexec_fn=cap_address_space,
        capture_output=True, text=True, timeout=120)
    assert done.returncode == EXIT_FAILED
    assert "Traceback" not in done.stderr
    report = json.loads((tmp_path / "r.json").read_text())["report"]
    assert report["stop_reason"] == "cycle" and report["cycle_period"] == 5
    assert report["iterations"] == 10**12


def test_recorded_cycling_run_with_a_huge_cap_is_an_input_error(tmp_path):
    # a per-tick log of 1e12 rows cannot fit in a 2 GiB address space: the run
    # says so in an error line and writes none of its files
    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    src = os.path.dirname(os.path.dirname(riwfa.__file__))
    done = subprocess.run(
        [sys.executable, "-m", "riwfa", "run", "--generate", "high", "--users", "6",
         "--subchannels", "8", "--seed", "35", "--max-iter", "1000000000000",
         "--out", "r.json", "--summary", "s.csv"],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": src}, preexec_fn=cap_address_space,
        capture_output=True, text=True, timeout=120)
    assert done.returncode == EXIT_INPUT
    assert done.stderr.startswith("error: ") and "Traceback" not in done.stderr
    assert "--max-iter" in done.stderr and "--trajectory/--summary" in done.stderr
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["run", "--generate", "low", "--users", "100000", "--subchannels", "100000"],
    ["check", "--generate", "low", "--users", "2000", "--subchannels", "2000"],
    ["sweep", "--generate", "low", "--users", "2000", "--subchannels", "2000",
     "--eps-grid", "0"],
])
def test_a_draw_too_large_for_memory_is_an_input_error(tmp_path, argv):
    # the first channel array alone needs tens of GiB, far past a 2 GiB
    # address space: numpy's MemoryError becomes an error line naming the size
    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    src = os.path.dirname(os.path.dirname(riwfa.__file__))
    done = subprocess.run(
        [sys.executable, "-m", "riwfa", *argv],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": src}, preexec_fn=cap_address_space,
        capture_output=True, text=True, timeout=120)
    assert done.returncode == EXIT_INPUT
    assert done.stderr.startswith("error: ") and "Traceback" not in done.stderr
    assert "GiB" in done.stderr and done.stderr.count("\n") == 1
    assert done.stdout == "" and list(tmp_path.iterdir()) == []


def test_importing_the_cli_loads_no_process_pool():
    # only a sweep with more than one worker imports concurrent.futures
    src = os.path.dirname(os.path.dirname(riwfa.__file__))
    done = subprocess.run(
        [sys.executable, "-c", "import sys, riwfa.cli; print('concurrent.futures' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120)
    assert done.stdout == "False\n"


def test_run_requires_exactly_one_source(capsys, table2_file):
    code, _, err = run_cli(capsys, ["run"])
    assert code == EXIT_INPUT and "exactly one" in err
    code, _, err = run_cli(capsys, [
        "run", "--scenario", table2_file, "--generate", "low"])
    assert code == EXIT_INPUT


def test_run_eps_flag_implies_worstcase(capsys, table2_file):
    code_a, out_a, _ = run_cli(capsys, [
        "run", "--scenario", table2_file, "--eps", "0"])
    code_b, out_b, _ = run_cli(capsys, [
        "run", "--scenario", table2_file, "--mode", "nominal"])
    assert code_a == code_b == EXIT_OK
    profile_a = json.loads(out_a)["report"]["profile"]
    profile_b = json.loads(out_b)["report"]["profile"]
    assert profile_a == profile_b


def test_malformed_scenario_diagnostics(capsys, tmp_path):
    from riwfa import scenario_to_dict

    missing = tmp_path / "missing.json"
    data = scenario_to_dict(load_bundled_scenario())
    del data["gains"]
    missing.write_text(json.dumps(data))
    code, _, err = run_cli(capsys, ["run", "--scenario", str(missing)])
    assert code == EXIT_INPUT
    assert "gains" in err

    broken = tmp_path / "broken.json"
    broken.write_text("{oops")
    code, _, err = run_cli(capsys, ["run", "--scenario", str(broken)])
    assert code == EXIT_INPUT and "JSON" in err

    code, _, err = run_cli(capsys, ["run", "--scenario", str(tmp_path / "nope.json")])
    assert code == EXIT_INPUT and "cannot read" in err


def test_scenario_whose_interference_overflows_is_malformed(capsys, tmp_path):
    # every number is finite, but noise / direct gain is not
    from riwfa import scenario_to_dict

    data = scenario_to_dict(random_scenario(2, 3, seed=4))
    data["noise"][0][1] = 1e300
    data["gains"][0][0][1] = 1e-300
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(data))
    for command in ("run", "check"):
        code, out, err = run_cli(capsys, [command, "--scenario", str(path)])
        assert code == EXIT_INPUT and out == ""
        assert err.startswith("error: malformed scenario file: ") and "overflows" in err
        assert err.count("\n") == 1


RATIO_OVERFLOW = {"M": 2, "K": 1, "gains": [[[1e-300], [1e10]], [[1e10], [1e-300]]],
                  "noise": [[0.0], [0.0]], "p_max": [1.0, 1.0], "mask": [[1e-10], [1e-10]],
                  "eps": [[0.0], [0.0]], "mode": "nominal", "seed": None}


@pytest.mark.parametrize("command", ["run", "check"])
def test_scenario_whose_gain_ratio_overflows_is_malformed(tmp_path, command):
    # the tiny mask keeps the interference finite; the ratio 1e10 / 1e-300 is not
    path = tmp_path / "ratio.json"
    path.write_text(json.dumps(RATIO_OVERFLOW))
    src = os.path.dirname(os.path.dirname(riwfa.__file__))
    done = subprocess.run(
        [sys.executable, "-m", "riwfa", command, "--scenario", str(path)],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=120)
    assert done.returncode == EXIT_INPUT and done.stdout == ""
    assert done.stderr.startswith("error: malformed scenario file: ")
    assert "gain ratios" in done.stderr and done.stderr.count("\n") == 1


def riwfa_subprocess(tmp_path, argv):
    src = os.path.dirname(os.path.dirname(riwfa.__file__))
    return subprocess.run([sys.executable, "-m", "riwfa", *argv], cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120)


def test_check_norms_of_a_huge_eps_are_finite_or_an_input_error(tmp_path):
    # eps = 1e200 squares past float64, but each norm is about sqrt(8) * 1e200
    done = riwfa_subprocess(tmp_path, ["check", "--generate", "low", "--eps", "1e200"])
    assert done.returncode == EXIT_OK and done.stderr == ""
    payload = json.loads(done.stdout)
    assert "Infinity" not in done.stdout
    eps_norm = payload["uniqueness"]["components"]["eps_norm"]
    assert eps_norm == pytest.approx([8 ** 0.5 * 1e200] * 64, rel=1e-15)
    assert 0 < payload["async_convergence"]["components"]["staleness_term"] < 1e201
    # at eps = 1e308 the interference still fits, but sqrt(8) * 1e308 does not
    done = riwfa_subprocess(tmp_path, ["check", "--generate", "low", "--eps", "1e308"])
    assert done.returncode == EXIT_INPUT and done.stdout == ""
    assert done.stderr == "error: a certificate term exceeds float64\n"


def test_degenerate_uncertainty_warns_once_per_command():
    # eps = 2.5 at delta0 = 0.1 scales interference by 1 + 2.5 * (0.2 - 1) = -1
    src = os.path.dirname(os.path.dirname(riwfa.__file__))
    degenerate = ["--mode", "probabilistic", "--eps", "2.5"]
    small = ["--generate", "low", "--users", "3", "--subchannels", "4", "--seed", "1"]
    sweep = ["sweep", *small, *degenerate, "--delta0-grid", "0.1,0.9", "--realizations", "2"]
    stderr = []
    for argv in (["run", *small, *degenerate, "--delta0", "0.1"], sweep, [*sweep, "--jobs", "2"]):
        done = subprocess.run([sys.executable, "-m", "riwfa", *argv],
                              env={**os.environ, "PYTHONPATH": src},
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == EXIT_OK
        assert done.stderr == f"warning: {DEGENERATE_MESSAGE}\n", done.stderr
        stderr.append(done.stderr)
    # the sweep warns in its own process, not in each worker
    assert stderr[2] == stderr[1]
    sc = random_scenario(3, 4, seed=1)
    bad = sc.with_uncertainty(UncertaintySpec.uniform(3, 4, 2.5, "probabilistic", delta0=0.1))
    with pytest.warns(DegenerateUncertaintyWarning):
        run(bad, Schedule("sequential"))
    with pytest.warns(DegenerateUncertaintyWarning):
        fixed_point_residual(np.zeros((3, 4)), bad)
    safe = sc.with_uncertainty(UncertaintySpec.uniform(3, 4, 0.5, "probabilistic", delta0=0.1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        run(safe, Schedule("sequential"))
        fixed_point_residual(np.zeros((3, 4)), safe)


def test_cli_warning_is_one_line_with_no_source_path(capsys):
    # main() shows a warning as one line, without the path of the code that
    # warned; library callers keep Python's own format
    shown = warnings.showwarning
    code, _, err = run_cli(capsys, [
        "sweep", "--generate", "low", "--users", "3", "--subchannels", "4", "--seed", "1",
        "--mode", "probabilistic", "--eps", "2.5", "--delta0-grid", "0.1,0.9",
        "--realizations", "2"])
    assert code == EXIT_OK
    assert err == f"warning: {DEGENERATE_MESSAGE}\n"
    assert ".py" not in err and os.sep not in err
    assert warnings.showwarning is shown


def test_run_byte_identical_reruns(capsys, tmp_path):
    args = ["run", "--generate", "low", "--users", "3", "--subchannels", "8",
            "--seed", "11", "--eps", "0.5"]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(args + ["--out", str(a)]) == EXIT_OK
    assert main(args + ["--out", str(b)]) == EXIT_OK
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_check_decoupled_and_bundled(capsys, tmp_path, table2_file):
    gains = np.zeros((2, 2, 3))
    gains[0, 0] = gains[1, 1] = 1.0
    decoupled = Scenario(
        channel=ChannelRealization(gains=gains, noise=np.full((2, 3), 0.1)),
        constraints=PowerConstraints.uniform(2, 3, 1.0),
        uncertainty=UncertaintySpec.nominal(2, 3))
    dec_file = tmp_path / "decoupled.json"
    save_scenario(decoupled, dec_file)

    code, out, _ = run_cli(capsys, ["check", "--scenario", str(dec_file)])
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["uniqueness"]["passed"]
    assert payload["async_convergence"]["passed"]

    # the bundled benchmark sits in the strongly coupled regime
    code, out, _ = run_cli(capsys, ["check", "--scenario", table2_file])
    assert code == EXIT_OK
    payload = json.loads(out)
    assert not payload["uniqueness"]["passed"]


def test_check_two_user_margin(capsys, tmp_path):
    gains = np.zeros((2, 2, 2))
    gains[0, 0] = gains[1, 1] = 1.0
    gains[0, 1] = gains[1, 0] = 0.3
    sc = Scenario(
        channel=ChannelRealization(gains=gains,
                                   noise=np.array([[0.2, 0.4], [0.3, 0.5]])),
        constraints=PowerConstraints.uniform(2, 2, 1.0),
        uncertainty=UncertaintySpec.uniform(2, 2, 0.4))
    path = tmp_path / "sym.json"
    save_scenario(sc, path)
    code, out, _ = run_cli(capsys, ["check", "--scenario", str(path)])
    assert code == EXIT_OK
    margin = json.loads(out)["uniqueness"]["margin"]
    assert abs(margin - (-0.1343)) < 1e-4


def test_sweep_csv_schema_and_exit(capsys, tmp_path):
    out_file = tmp_path / "sweep.csv"
    code, _, _ = run_cli(capsys, [
        "sweep", "--generate", "low", "--users", "2", "--subchannels", "8",
        "--eps-grid", "0,0.5,1", "--realizations", "3", "--seed", "40",
        "--out", str(out_file)])
    assert code == EXIT_OK
    lines = out_file.read_text().splitlines()
    config = json.loads(lines[0][2:])
    assert config["command"] == "sweep"
    assert config["grid"] == [0.0, 0.5, 1.0]
    assert lines[1] == "epsilon,mean_social_utility,std,num_converged,num_total"
    rows = [line.split(",") for line in lines[2:]]
    means = [float(row[1]) for row in rows]
    assert means[0] > means[1] > means[2]
    assert all(row[3] == "3" and row[4] == "3" for row in rows)


def test_sweep_delta0_identities(capsys, tmp_path):
    common = ["--generate", "low", "--users", "2", "--subchannels", "8",
              "--realizations", "2", "--seed", "41"]
    prob_file = tmp_path / "prob.csv"
    eps_file = tmp_path / "eps.csv"
    assert main(["sweep", *common, "--delta0-grid", "0,0.5,1", "--eps", "0.8",
                 "--out", str(prob_file)]) == EXIT_OK
    assert main(["sweep", *common, "--eps-grid", "0,0.8",
                 "--out", str(eps_file)]) == EXIT_OK
    capsys.readouterr()
    prob_rows = [line.split(",") for line in prob_file.read_text().splitlines()[2:]]
    eps_rows = [line.split(",") for line in eps_file.read_text().splitlines()[2:]]
    assert prob_rows[0][0] == "0.0" and eps_rows[0][0] == "0.0"
    # delta0 = 0.5 reproduces the nominal mean, delta0 = 1 the worst-case one
    assert prob_rows[1][1] == eps_rows[0][1]
    assert prob_rows[2][1] == eps_rows[1][1]


def test_sweep_scenario_is_one_realization(capsys, tmp_path, table2_file):
    out_file = tmp_path / "sweep.csv"
    code, _, _ = run_cli(capsys, [
        "sweep", "--scenario", table2_file, "--eps-grid", "0,1,3",
        "--out", str(out_file)])
    assert code == EXIT_OK
    lines = out_file.read_text().splitlines()
    assert json.loads(lines[0][2:])["realizations"] == 1
    rows = [line.split(",") for line in lines[2:]]
    assert len(rows) == 3
    assert all(row[2] == "0.0" and row[3] == "1" and row[4] == "1" for row in rows)


def test_sweep_grid_validation(capsys):
    base = ["sweep", "--generate", "low", "--users", "2", "--subchannels", "4"]
    code, _, err = run_cli(capsys, base)
    assert code == EXIT_INPUT and "eps-grid" in err
    code, _, _ = run_cli(capsys, base + ["--eps-grid", "0.1",
                                         "--delta0-grid", "0.5", "--eps", "1"])
    assert code == EXIT_INPUT
    code, _, err = run_cli(capsys, base + ["--eps-grid", " , "])
    assert code == EXIT_INPUT and "empty" in err
    code, _, err = run_cli(capsys, base + ["--delta0-grid", "0,1"])
    assert code == EXIT_INPUT and "--eps" in err
    code, _, _ = run_cli(capsys, base + ["--eps-grid", "0.1,abc"])
    assert code == EXIT_INPUT
    code, _, _ = run_cli(capsys, base + ["--eps-grid", "0.1",
                                         "--realizations", "0"])
    assert code == EXIT_INPUT


@pytest.mark.parametrize("with_fixed", [False, True])
@pytest.mark.parametrize("mode", [None, "nominal", "worstcase", "probabilistic"])
@pytest.mark.parametrize("grid_flag", ["--eps-grid", "--delta0-grid"])
def test_sweep_grid_obeys_the_rules_of_its_flag(capsys, grid_flag, mode, with_fixed):
    # a grid stands for --eps (or --delta0) at each of its points: the sweep
    # is an input error exactly when some point's check would be one
    base = ["--generate", "low", "--users", "2", "--subchannels", "3"]
    if grid_flag == "--eps-grid":
        grid, point_flag, fixed = ["0.2", "0.6"], "--eps", ["--delta0", "0.5"]
        check_mode = mode
    else:
        grid, point_flag, fixed = ["0.25", "1"], "--delta0", ["--eps", "0.8"]
        check_mode = mode or "probabilistic"
    flags = (["--mode", mode] if mode else []) + (fixed if with_fixed else [])
    check_flags = (["--mode", check_mode] if check_mode else []) + (fixed if with_fixed else [])
    point_errors = [run_cli(capsys, ["check", *base, *check_flags, point_flag, g])[0] == EXIT_INPUT
                    for g in grid]
    code, _, _ = run_cli(capsys, ["sweep", *base, *flags, grid_flag, ",".join(grid)])
    assert code == (EXIT_INPUT if any(point_errors) else EXIT_OK)


def test_sweep_parallel_jobs_byte_identical(capsys, tmp_path):
    common = ["sweep", "--generate", "low", "--users", "2", "--subchannels",
              "8", "--eps-grid", "0,1", "--realizations", "2", "--seed", "42"]
    serial, parallel = tmp_path / "serial.csv", tmp_path / "parallel.csv"
    assert main(common + ["--jobs", "1", "--out", str(serial)]) == EXIT_OK
    assert main(common + ["--jobs", "2", "--out", str(parallel)]) == EXIT_OK
    capsys.readouterr()
    assert serial.read_bytes() == parallel.read_bytes()


def test_reproduce_table3_passes(capsys, tmp_path):
    code, out, _ = run_cli(capsys, [
        "reproduce", "table3", "--out-dir", str(tmp_path)])
    assert code == EXIT_OK
    assert "preset table3: OK" in out
    assert "[MUST] nominal run converged: PASS" in out
    report = json.loads((tmp_path / "table3_report.json").read_text())
    assert all(item["passed"] for item in report["checks"]
               if item["tier"] == "must")


def test_reproduce_table4_fails_honestly(capsys, tmp_path):
    # the bundled reference claims pairwise-disjoint supports at eps=3; the
    # measured equilibrium has index 5/7, so the preset must exit 2
    code, out, _ = run_cli(capsys, [
        "reproduce", "table4", "--out-dir", str(tmp_path)])
    assert code == EXIT_FAILED
    assert "preset table4: FAILED" in out
    assert "disjoint supports: FAIL" in out
    report = json.loads((tmp_path / "table4_report.json").read_text())
    failed = [item for item in report["checks"]
              if item["tier"] == "must" and not item["passed"]]
    assert len(failed) == 1
    assert "disjoint" in failed[0]["name"]
    # the outputs are still written and carry the measured data
    assert report["data"]["robust"]["orthogonality_index"] == pytest.approx(5 / 7)


def assert_jobs_invariant(capsys, preset, out_dir, out, names):
    """Rerun ``preset`` with two workers: same stdout, same files."""
    parallel = out_dir / "jobs2"
    code, parallel_out, _ = run_cli(capsys, [
        "reproduce", preset, "--out-dir", str(parallel), "--realizations", "2",
        "--jobs", "2"])
    assert code == EXIT_OK
    assert parallel_out == out
    for name in names:
        assert (parallel / name).read_bytes() == (out_dir / name).read_bytes()


def test_reproduce_fig1_smoke(capsys, tmp_path):
    code, out, _ = run_cli(capsys, [
        "reproduce", "fig1", "--out-dir", str(tmp_path), "--realizations", "2"])
    assert code == EXIT_OK
    lines = (tmp_path / "fig1_data.csv").read_text().splitlines()
    config = json.loads(lines[0][2:])
    assert config["accepted_seeds"] == [100, 101]
    assert lines[1].startswith("epsilon,")
    assert len(lines) == 2 + 4  # four grid points
    assert (tmp_path / "fig1_report.json").exists()
    assert_jobs_invariant(capsys, "fig1", tmp_path, out,
                          ["fig1_data.csv", "fig1_report.json"])


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@example(seed=100)
@given(seed=st.integers(0, 2**32 - 1))
def test_every_low_interference_draw_passes_the_uniqueness_certificate(seed):
    # fig1 needs a unique equilibrium and plays its low draws unfiltered: the
    # ensemble bounds every gain ratio, so the certificate holds on any draw
    m, k = cli.FIG_USERS, cli.FIG_SUBCHANNELS
    low = ENSEMBLES["low"]
    bound = np.sqrt(m * (m - 1)) * low["cross_range"][1] / low["direct_range"][0]
    sc = random_scenario(m, k, seed=seed, **low)
    result = check_rne_uniqueness(sc)
    assert result.passed
    assert result.margin + 1.0 <= bound


def test_reproduce_fig3_smoke(capsys, tmp_path):
    code, out, _ = run_cli(capsys, [
        "reproduce", "fig3", "--out-dir", str(tmp_path), "--realizations", "2"])
    assert code == EXIT_OK
    assert "delta0=0.5 run identical to nominal run: PASS" in out
    assert (tmp_path / "fig3_data.csv").exists()
    assert_jobs_invariant(capsys, "fig3", tmp_path, out,
                          ["fig3_data.csv", "fig3_report.json"])


def test_reproduce_fig2_counts_runs_by_stop_reason(capsys, tmp_path):
    code, _, _ = run_cli(capsys, [
        "reproduce", "fig2", "--out-dir", str(tmp_path), "--realizations", "3"])
    assert code == EXIT_OK
    data = json.loads((tmp_path / "fig2_report.json").read_text())["data"]
    assert data["num_converged"] == [2, 2, 3, 3]
    assert data["stop_reasons"] == [{"converged": 2, "cycle": 1, "max_iter": 0}] * 2 \
        + [{"converged": 3, "cycle": 0, "max_iter": 0}] * 2


def test_reproduce_creates_out_dir(capsys, tmp_path):
    target = tmp_path / "nested" / "dir"
    code, _, _ = run_cli(capsys, [
        "reproduce", "table3", "--out-dir", str(target)])
    assert code == EXIT_OK
    assert (target / "table3_report.json").exists()


def test_reproduce_input_errors(capsys, tmp_path):
    code, _, _ = run_cli(capsys, ["reproduce", "fig9"])
    assert code == EXIT_INPUT
    code, _, _ = run_cli(capsys, [
        "reproduce", "table3", "--out-dir", str(tmp_path),
        "--realizations", "0"])
    assert code == EXIT_INPUT
    not_a_dir = tmp_path / "file"
    not_a_dir.write_text("")
    code, _, err = run_cli(capsys, ["reproduce", "table3", "--out-dir", str(not_a_dir)])
    assert code == EXIT_INPUT
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["run", "--generate", "low", "--tol", "-1"],
    ["run", "--generate", "low", "--users", "0"],
    ["run", "--generate", "low", "--schedule", "asynchronous",
     "--update-prob", "0"],
    ["run", "--generate", "low", "--eps", "nan"],
    ["check", "--generate", "low", "--eps", "-1"],
    ["sweep", "--generate", "low", "--eps-grid", "0", "--jobs", "0"],
    ["reproduce", "table3", "--jobs", "0"],
    # flags the chosen mode ignores, which the output config would echo
    ["run", "--generate", "low", "--eps", "0.5", "--delta0", "0.9"],
    ["run", "--generate", "low", "--mode", "nominal", "--eps", "0.5"],
    ["check", "--generate", "low", "--mode", "worstcase", "--eps", "0.5",
     "--delta0", "0.9"],
    ["check", "--generate", "low", "--mode", "nominal", "--eps", "0.5"],
    ["sweep", "--generate", "low", "--eps-grid", "0,1", "--eps", "0.5"],
    ["sweep", "--generate", "low", "--eps-grid", "0,1", "--delta0", "0.9"],
    ["sweep", "--generate", "low", "--delta0-grid", "0,1", "--eps", "0.8",
     "--delta0", "0.5"],
    ["sweep", "--generate", "low", "--delta0-grid", "0,1", "--eps", "0.8",
     "--mode", "worstcase"],
    # a scenario file is one realization
    ["sweep", "--scenario", BUNDLED_SCENARIO, "--eps-grid", "0",
     "--realizations", "3"],
    # eps has no effect in nominal mode, so a nominal eps grid sweeps nothing
    ["sweep", "--generate", "low", "--users", "2", "--subchannels", "4",
     "--mode", "nominal", "--eps-grid", "0,1,3", "--realizations", "2"],
    # asynchronous-only flags with another schedule, or given to sweep
    ["run", "--generate", "low", "--users", "2", "--subchannels", "4",
     "--eps", "0.5", "--max-staleness", "3"],
    ["run", "--generate", "low", "--schedule", "simultaneous", "--update-prob", "0.3"],
    ["run", "--generate", "low", "--schedule-seed", "4"],
    ["sweep", "--generate", "low", "--eps-grid", "0,1", "--update-prob", "0.3"],
    ["sweep", "--generate", "low", "--eps-grid", "0,1", "--max-staleness", "2"],
    ["sweep", "--generate", "low", "--eps-grid", "0,1", "--schedule-seed", "4"],
    ["sweep", "--generate", "low", "--eps-grid", "0,1", "--schedule", "asynchronous"],
    # an output path that cannot be written
    ["run", "--generate", "low", "--users", "2", "--subchannels", "4",
     "--out", "missing/x.json"],
    ["run", "--generate", "low", "--users", "2", "--subchannels", "4",
     "--trajectory", "missing/t.csv"],
    ["sweep", "--generate", "low", "--users", "2", "--subchannels", "4",
     "--eps-grid", "0", "--realizations", "1", "--out", "missing/x.csv"],
    ["check", "--generate", "low", "--users", "2", "--subchannels", "4",
     "--out", "missing/c.json"],
    # flags the source or the preset ignores
    ["run", "--scenario", BUNDLED_SCENARIO, "--users", "3", "--subchannels", "2",
     "--seed", "5"],
    ["check", "--scenario", BUNDLED_SCENARIO, "--seed", "5"],
    ["sweep", "--scenario", BUNDLED_SCENARIO, "--eps-grid", "0", "--subchannels", "2"],
    ["reproduce", "table3", "--realizations", "5"],
    ["reproduce", "table4", "--realizations", "1"],
    # one good and one bad output path: neither file is written
    ["run", "--generate", "low", "--users", "2", "--subchannels", "4",
     "--out", "ok.json", "--trajectory", "missing/t.csv"],
    ["run", "--generate", "low", "--users", "2", "--subchannels", "4",
     "--out", "ok.json", "--trajectory", "."],
    # an output path that names a directory
    ["sweep", "--generate", "low", "--users", "2", "--subchannels", "4",
     "--eps-grid", "0", "--realizations", "1", "--out", "."],
    ["check", "--generate", "low", "--users", "2", "--subchannels", "4", "--out", "."],
    # the per-iteration summary is checked like the other outputs
    ["run", "--generate", "low", "--users", "2", "--subchannels", "4",
     "--summary", "missing/s.csv"],
    ["run", "--generate", "low", "--users", "2", "--subchannels", "4",
     "--out", "ok.json", "--trajectory", "t.csv", "--summary", "."],
    # a seed numpy cannot take is rejected before the first tick is drawn
    ["run", "--generate", "low", "--schedule", "asynchronous", "--schedule-seed", "-1"],
    # an eps whose worst-case interference overflows float64
    ["run", "--generate", "high", "--users", "2", "--subchannels", "2", "--eps", "1e308"],
    ["sweep", "--generate", "high", "--users", "2", "--subchannels", "2",
     "--eps-grid", "0,1e308", "--realizations", "1"],
    ["check", "--generate", "high", "--users", "2", "--subchannels", "2", "--eps", "1e308"],
])
def test_bad_flag_values_are_input_errors(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    code, _, err = run_cli(capsys, argv)
    assert code == EXIT_INPUT
    assert err.startswith("error: ")
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["sweep", "--generate", "high", "--seed", "900", "--eps-grid", "0",
     "--realizations", "4", "--out", "missing/x.csv"],
    ["check", "--generate", "low", "--out", "missing/c.json"],
])
def test_unwritable_out_is_rejected_before_any_game(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)

    def refuse(*args, **kwargs):
        raise AssertionError("a game was played before --out was checked")

    for name in ("sweep_reports", "check_rne_uniqueness"):
        monkeypatch.setattr(cli, name, refuse)
    code, _, err = run_cli(capsys, argv)
    assert code == EXIT_INPUT
    assert err == f"error: cannot write {argv[-1]}: not a file in an existing directory\n"


def test_unknown_command_is_input_error(capsys):
    code, _, _ = run_cli(capsys, ["frobnicate"])
    assert code == EXIT_INPUT
    code, _, _ = run_cli(capsys, ["--help"])
    assert code == EXIT_OK
