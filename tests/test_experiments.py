import csv
import json
import os

import numpy as np
import pytest

from vacuum_refine import (
    ConfigError,
    cmd_diag,
    cmd_filter_run,
    cmd_refine,
    cmd_sweep,
    parse_config,
)
from vacuum_refine.cli import main

SMALL = """
schedule.T = 2
schedule.dt = 0.25
schedule.hold_time = 1
"""


def _config(tmp_path, extra=""):
    return parse_config(SMALL + f"output.prefix = {tmp_path}/run\n" + extra)


def _read_csv(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


def test_sweep_outputs(tmp_path):
    result = cmd_sweep(_config(tmp_path))
    trajectory = _read_csv(tmp_path / "run_trajectory.csv")
    assert trajectory[0] == ["t", "expval_Z", "std_error", "fidelity", "energy"]
    # 8 ramp steps + start record, then 4 hold records
    assert len(trajectory) == 1 + 9 + 4
    assert float(trajectory[1][0]) == 0.0
    assert float(trajectory[-1][0]) == pytest.approx(3.0)
    summary = _read_csv(tmp_path / "run_summary.csv")
    assert summary[0][:3] == ["prep_quality", "prep_quality_reference", "prep_quality_difference"]
    # CSV floats carry 9 significant digits
    prep = float(summary[1][0])
    assert prep == pytest.approx(2 * result.summary["final_fidelity"] - 1, rel=1e-8)
    manifest = json.loads((tmp_path / "run_manifest.json").read_text())
    assert manifest["command"] == "sweep"
    assert manifest["seed"] == 11
    assert "duration_seconds" in manifest
    assert str(tmp_path / "run_trajectory.csv") in manifest["outputs"]
    # config echo parses back to the exact config used
    assert parse_config(manifest["config"]) == _config(tmp_path)


def test_sweep_shot_mode_is_deterministic(tmp_path):
    extra = "estimation.method = shots\nestimation.shots = 400\n"
    cmd_sweep(_config(tmp_path / "a", extra))
    cmd_sweep(_config(tmp_path / "b", extra))
    first = (tmp_path / "a" / "run_trajectory.csv").read_bytes()
    second = (tmp_path / "b" / "run_trajectory.csv").read_bytes()
    assert first == second
    cmd_sweep(_config(tmp_path / "c", extra + "estimation.seed = 12\n"))
    assert (tmp_path / "c" / "run_trajectory.csv").read_bytes() != first


def test_csv_files_use_lf_endings(tmp_path):
    cmd_sweep(_config(tmp_path))
    blob = (tmp_path / "run_trajectory.csv").read_bytes()
    assert b"\r" not in blob


def test_filter_run_correction_is_consistent(tmp_path):
    result = cmd_filter_run(_config(tmp_path))
    s = result.summary
    assert s["corrected"] == pytest.approx(s["raw"] / s["two_p0_minus_1"], abs=1e-12)
    # tagging converts the interference term into a jump of the mixed value
    assert s["discontinuity"] == pytest.approx(s["cross_term"], abs=1e-12)
    assert not np.isnan(s["postselected_expval"])
    trajectory = _read_csv(tmp_path / "run_trajectory.csv")
    # ramp start + 8 steps, then 5 hold records (t=T appears twice: the
    # tagged value right after post-selection restarts the trajectory)
    assert len(trajectory) == 1 + 9 + 5
    times = [float(row[0]) for row in trajectory[1:]]
    assert times.count(2.0) == 2


def test_filter_run_keep_mode(tmp_path):
    result = cmd_filter_run(_config(tmp_path, "filter.discard = false\n"))
    assert np.isnan(result.summary["postselected_expval"])
    summary_row = _read_csv(tmp_path / "run_summary.csv")[1]
    assert summary_row[-1] == "nan"


def test_filter_run_shot_mode(tmp_path):
    extra = "estimation.method = shots\nestimation.shots = 20000\n"
    result = cmd_filter_run(_config(tmp_path, extra))
    s = result.summary
    exact = cmd_filter_run(_config(tmp_path / "exact")).summary
    assert s["raw"] == pytest.approx(exact["raw"], abs=5 * max(s["raw_std_error"], 1e-4))
    assert s["raw_std_error"] > 0
    assert s["p0_std_error"] > 0


def test_filter_run_rejects_multi_qubit_model(tmp_path):
    config = _config(tmp_path, "model.hamiltonian = tfim2\n")
    with pytest.raises(ConfigError, match="one-qubit"):
        cmd_filter_run(config)


def test_refine_converges_on_pair_model(tmp_path):
    extra = (
        "model.hamiltonian = tfim2\n"
        "schedule.T = 8\nschedule.dt = 0.125\nschedule.hold_time = 0\n"
        "filter.ancillas = 3\n"
    )
    config = parse_config(extra + f"output.prefix = {tmp_path}/run\n")
    result = cmd_refine(config)
    assert result.summary["status"] == "converged"
    assert result.summary["start_fidelity"] > 0.9
    assert result.summary["final_excited_weight"] <= 1e-8
    table = _read_csv(tmp_path / "run_refinement.csv")
    assert table[0] == [
        "iteration",
        "E0_prime",
        "theta",
        "success_probability",
        "fidelity",
        "excited_weight",
        "status",
    ]
    assert all(row[-1] == "ok" for row in table[1:])
    assert int(table[-1][0]) == result.summary["passes"]


def test_refine_records_aborted_pass(tmp_path):
    # theta = -8 with powers (1, 2) puts both levels of the one-qubit model
    # on a rejection zero, so the first post-selection is impossible and the
    # pass must land in the table with the abort reason
    config = _config(
        tmp_path,
        "filter.theta_mode = fixed\nfilter.theta = -8\n",
    )
    result = cmd_refine(config)
    assert result.summary["status"].startswith("aborted")
    table = _read_csv(tmp_path / "run_refinement.csv")
    assert len(table) == 2
    row = table[1]
    assert float(row[2]) == -8.0
    assert float(row[3]) == 0.0
    assert row[-1].startswith("aborted")


def test_refine_cli_runtime_error_is_exit_1(tmp_path, capsys):
    # a degenerate operator cannot be refined; through the CLI that is a
    # runtime failure, not a config problem
    op_file = tmp_path / "flip.txt"
    op_file.write_text("1.0 ZZ\n")
    cfg_path = tmp_path / "degenerate.cfg"
    cfg_path.write_text(
        f"model.hamiltonian = {op_file}\noutput.prefix = {tmp_path}/run\n" + SMALL
    )
    assert main(["refine", "--config", str(cfg_path)]) == 1
    assert "runtime error" in capsys.readouterr().err


def test_diag_builtin_pair(tmp_path):
    config = _config(tmp_path, "model.hamiltonian = tfim2\n")
    result = cmd_diag(config)
    j = np.pi / 4
    expected = sorted([-j * np.sqrt(5), -j, j, j * np.sqrt(5)])
    assert result.summary["eigenvalues"] == pytest.approx(expected, abs=1e-12)
    assert result.summary["degenerate"] is False
    assert os.path.exists(tmp_path / "run_diag.txt")
    # symmetric pair: both sites share one ground <Z>
    assert result.summary["ground_z"][0] == pytest.approx(
        result.summary["ground_z"][1], abs=1e-12
    )


def test_diag_state_file_cross_term(tmp_path):
    # balanced superposition of the one-qubit levels: cross term -1/sqrt(2)
    state_path = tmp_path / "state.txt"
    amps = np.array([np.cos(np.pi / 8) - np.sin(np.pi / 8), np.sin(np.pi / 8) + np.cos(np.pi / 8)])
    amps = amps / np.linalg.norm(amps)
    state_path.write_text("".join(f"{a} 0.0\n" for a in amps))
    config = _config(tmp_path, f"diag.state_file = {state_path}\n")
    result = cmd_diag(config)
    assert result.summary["cross_term"] == pytest.approx(-1 / np.sqrt(2), abs=1e-12)


def test_diag_state_file_errors(tmp_path):
    config = _config(tmp_path, "diag.state_file = /nonexistent/state.txt\n")
    with pytest.raises(ConfigError):
        cmd_diag(config)
    bad = tmp_path / "bad.txt"
    bad.write_text("1.0\n0.0 0.0\n")
    with pytest.raises(ConfigError, match="line 1"):
        cmd_diag(_config(tmp_path, f"diag.state_file = {bad}\n"))
    short = tmp_path / "short.txt"
    short.write_text("1.0 0.0\n")
    with pytest.raises(ConfigError, match="amplitudes"):
        cmd_diag(_config(tmp_path, f"diag.state_file = {short}\n"))
    unnormalized = tmp_path / "unnorm.txt"
    unnormalized.write_text("1.0 0.0\n1.0 0.0\n")
    with pytest.raises(ConfigError, match="norm"):
        cmd_diag(_config(tmp_path, f"diag.state_file = {unnormalized}\n"))


def test_cli_success_and_overrides(tmp_path, capsys):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(SMALL + f"output.prefix = {tmp_path}/base\n")
    code = main(
        [
            "sweep",
            "--config",
            str(cfg_path),
            "--seed",
            "77",
            "--out",
            str(tmp_path / "override"),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "prep quality" in out
    manifest = json.loads((tmp_path / "override_manifest.json").read_text())
    assert manifest["seed"] == 77
    assert not os.path.exists(tmp_path / "base_manifest.json")


def test_cli_config_errors(tmp_path, capsys):
    bad_cfg = tmp_path / "bad.cfg"
    bad_cfg.write_text("model.coupling = 2\n")
    assert main(["sweep", "--config", str(bad_cfg)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err
    assert "model.coupling" in err
    assert main(["sweep", "--config", str(tmp_path / "missing.cfg")]) == 2


@pytest.mark.parametrize(
    "command, setting, message",
    [
        ("diag", "model.J = nan", "finite"),
        ("sweep", "schedule.T = inf", "finite"),
        ("sweep", "schedule.dt = nan", "finite"),
        ("diag", "model.hamiltonian = {operator_file}", "finite"),
        ("diag", "diag.state_file = {state_file}", "norm nan"),
    ],
)
def test_cli_rejects_non_finite_numbers(tmp_path, capsys, command, setting, message):
    operator_file = tmp_path / "chain.txt"
    operator_file.write_text("nan ZZ\n")
    state_file = tmp_path / "state.txt"
    state_file.write_text("nan 0\n0 0\n")
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(
        f"output.prefix = {tmp_path}/run\n"
        + setting.format(operator_file=operator_file, state_file=state_file)
        + "\n"
    )
    assert main([command, "--config", str(cfg_path)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, extra",
    [
        (cmd_sweep, ""),
        (cmd_filter_run, ""),
        (cmd_filter_run, "filter.discard = false\n"),
        (cmd_refine, ""),
    ],
)
def test_each_operator_diagonalized_once(tmp_path, count_calls, command, extra):
    config = _config(tmp_path, extra)
    diagonalized = count_calls("hamiltonian.exact_diagonalize")
    command(config)
    operators = [args[0] for args in diagonalized]
    assert len(set(operators)) == len(operators)
    # h0, one operator per ramp step, the target; keep mode also holds
    # under the target embedded beside the ancilla
    embedded = 1 if extra else 0
    assert len(operators) == config.schedule.num_ramp_steps + 2 + embedded


def test_output_prefix_directory_created(tmp_path):
    config = parse_config(SMALL + f"output.prefix = {tmp_path}/deep/nested/run\n")
    cmd_sweep(config)
    assert os.path.exists(tmp_path / "deep" / "nested" / "run_summary.csv")


def test_manifest_has_no_duration_in_csvs(tmp_path):
    cmd_sweep(_config(tmp_path))
    for name in ("run_trajectory.csv", "run_summary.csv"):
        assert "duration" not in (tmp_path / name).read_text()
