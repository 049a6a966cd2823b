"""Command-line interface tests: exit codes, output formats, reproducibility."""
import json

import numpy as np
import pytest

from riwfa import (
    ChannelRealization,
    PowerConstraints,
    Scenario,
    UncertaintySpec,
    load_bundled_scenario,
    save_scenario,
)
from riwfa.cli import EXIT_FAILED, EXIT_INPUT, EXIT_OK, main


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


def test_reproduce_fig3_smoke(capsys, tmp_path):
    code, out, _ = run_cli(capsys, [
        "reproduce", "fig3", "--out-dir", str(tmp_path), "--realizations", "1"])
    assert code == EXIT_OK
    assert "delta0=0.5 run identical to nominal run: PASS" in out
    assert (tmp_path / "fig3_data.csv").exists()


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


@pytest.mark.parametrize("argv", [
    ["run", "--generate", "low", "--tol", "-1"],
    ["run", "--generate", "low", "--users", "0"],
    ["run", "--generate", "low", "--schedule", "asynchronous",
     "--update-prob", "0"],
    ["run", "--generate", "low", "--eps", "nan"],
    ["check", "--generate", "low", "--eps", "-1"],
    ["sweep", "--generate", "low", "--eps-grid", "0", "--jobs", "0"],
    ["reproduce", "table3", "--jobs", "0"],
])
def test_bad_flag_values_are_input_errors(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    code, _, err = run_cli(capsys, argv)
    assert code == EXIT_INPUT
    assert err.startswith("error: ")
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_unknown_command_is_input_error(capsys):
    code, _, _ = run_cli(capsys, ["frobnicate"])
    assert code == EXIT_INPUT
    code, _, _ = run_cli(capsys, ["--help"])
    assert code == EXIT_OK
