import csv
import functools
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from vacuum_refine import (
    ConfigError,
    DomainError,
    EstimationConfig,
    ImpossibleOutcomeError,
    PauliSum,
    cmd_diag,
    cmd_filter_run,
    cmd_refine,
    cmd_sweep,
    initial_hamiltonian,
    load_config,
    parse_config,
    with_overrides,
)
from vacuum_refine import adiabatic, cli, experiments, statevector
from vacuum_refine.config import build_model
from vacuum_refine.cli import main

from oracles import pauli_sum_matrix, seeded_chain_text

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
    # the benchmark ramp and its target have non-degenerate ground levels
    assert manifest["warnings"] == []


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
    identity_model = tmp_path / "identity_term.txt"
    identity_model.write_text("0.3 I\n-0.8 X\n-0.5 Z\n")
    cases = [
        # the default target, whose ground <Z> is 1/sqrt(2)
        ("default", SMALL, 1 / np.sqrt(2)),
        # an identity term shifts both levels, so theta = pi / E0 would not
        # separate them; the tag's reference phase exp(i E0 theta / 2) does
        (
            "identity_term",
            f"model.hamiltonian = {identity_model}\n"
            "schedule.T = 6\nschedule.dt = 0.125\nschedule.hold_time = 1\n",
            0.5 / np.sqrt(0.89),
        ),
    ]
    for name, settings, ground_z in cases:
        config = parse_config(settings + f"output.prefix = {tmp_path}/{name}\n")
        s = cmd_filter_run(config).summary
        assert s["corrected"] == pytest.approx(s["raw"] / s["two_p0_minus_1"], abs=1e-12)
        # on one qubit <E1|Z|E1> = -<E0|Z|E0>, so the correction is the exact ground value
        assert s["corrected"] == pytest.approx(ground_z, abs=1e-9)
        # tagging converts the interference term into a jump of the mixed value
        assert s["discontinuity"] == pytest.approx(s["cross_term"], abs=1e-12)
        assert not np.isnan(s["postselected_expval"])
        trajectory = _read_csv(tmp_path / f"{name}_trajectory.csv")
        # ramp start + its steps, then the hold's records from t=T (t=T appears
        # twice: the tagged value right after post-selection restarts the trajectory)
        schedule = config.schedule
        assert len(trajectory) == 1 + schedule.num_ramp_steps + schedule.num_hold_steps + 2
        times = [float(row[0]) for row in trajectory[1:]]
        assert times.count(schedule.total_time) == 2


def test_filter_run_refuses_an_impossible_postselection(tmp_path, capsys):
    # ramping -Z to +Z keeps the register in |0>, the excited level of +Z,
    # so the tag leaves the ancilla's |0> branch a rounding residue
    model = tmp_path / "model.txt"
    model.write_text("1.0 Z\n")
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(SMALL + f"model.hamiltonian = {model}\noutput.prefix = {tmp_path}/run\n")
    with pytest.raises(ImpossibleOutcomeError):
        cmd_filter_run(load_config(str(cfg_path)))
    assert main(["filter-run", "--config", str(cfg_path)]) == 1
    assert "runtime error" in capsys.readouterr().err
    assert list(tmp_path.glob("*.csv")) == []
    # keep mode post-selects nothing, and its correction is the ground <Z> of +Z
    keep = cmd_filter_run(_config(tmp_path, f"model.hamiltonian = {model}\nfilter.discard = false\n"))
    assert keep.summary["corrected"] == pytest.approx(-1.0, abs=1e-12)


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


def test_filter_run_refuses_multi_qubit_model_before_the_ramp(tmp_path, monkeypatch):
    def no_ramp(*args, **kwargs):
        raise AssertionError("the ramp ran before the model was checked")

    monkeypatch.setattr(experiments, "run_adiabatic", no_ramp)
    with pytest.raises(ConfigError, match="one-qubit"):
        cmd_filter_run(_config(tmp_path, "model.hamiltonian = tfim2\n"))


def test_refine_rejects_shot_estimation(tmp_path, capsys):
    # refine estimates E0' exactly; a shots setting must not be ignored
    extra = "model.hamiltonian = tfim2\nestimation.method = shots\nestimation.shots = 10\n"
    with pytest.raises(ConfigError, match="estimation.method"):
        cmd_refine(_config(tmp_path, extra))
    assert not (tmp_path / "run_refinement.csv").exists()
    cfg = tmp_path / "refine.cfg"
    cfg.write_text(SMALL + extra + f"output.prefix = {tmp_path}/cli\n")
    assert main(["refine", "--config", str(cfg)]) == 2
    assert "estimation.method" in capsys.readouterr().err


def test_refine_refuses_a_model_above_the_dense_cap(tmp_path, capsys, count_calls):
    # 11 system qubits are one above DEFAULT_DENSE_CAP; the refusal comes before the ramp
    ramps = count_calls("adiabatic.run_adiabatic")
    model = tmp_path / "chain11.txt"
    model.write_text(_chain_text(11))
    cfg = tmp_path / "refine.cfg"
    cfg.write_text(SMALL + f"model.hamiltonian = {model}\noutput.prefix = {tmp_path}/cli\n")
    assert main(["refine", "--config", str(cfg)]) == 2
    assert "refinement supports 1 to 10 system qubits, got 11" in capsys.readouterr().err
    assert ramps == []


def test_sweep_refuses_a_model_above_the_dense_cap_before_any_state(tmp_path, capsys, monkeypatch):
    # at 20 qubits |0...0> alone is 16 MiB; the refusal comes before it exists
    def no_state(*args):
        raise AssertionError("a 2^n state was built before the cap was checked")

    monkeypatch.setattr(adiabatic, "basis_state", no_state)
    model = tmp_path / "one_term20.txt"
    model.write_text("1.0 Z" + "I" * 19 + "\n")
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(SMALL + f"model.hamiltonian = {model}\noutput.prefix = {tmp_path}/cli\n")
    assert main(["sweep", "--config", str(cfg)]) == 1
    assert "dense matrix for 20 qubit(s) exceeds the cap of 10" in capsys.readouterr().err


@pytest.mark.parametrize(
    "extra, accepted",
    [
        ("filter.ancillas = 54\n", True),
        ("filter.ancillas = 55\n", False),
        ("filter.ancillas = 2\nfilter.powers = 1,9007199254740992\n", True),
        ("filter.ancillas = 2\nfilter.powers = 1,9007199254740993\n", False),
    ],
)
def test_refine_refuses_powers_above_2_to_53_before_the_ramp(tmp_path, monkeypatch, extra, accepted):
    # a larger power has no exact float64, so its phase p * theta / 2 would be wrong
    class Reached(Exception):
        pass

    def ramp(*args, **kwargs):
        raise Reached

    monkeypatch.setattr(experiments, "run_adiabatic", ramp)
    expected = Reached if accepted else ConfigError
    with pytest.raises(expected):
        cmd_refine(_config(tmp_path, "model.hamiltonian = tfim2\n" + extra))


@pytest.mark.parametrize("n", [6, 8])
def test_refine_runs_a_chain_beyond_four_qubits(tmp_path, n):
    model = tmp_path / f"chain{n}.txt"
    model.write_text(_chain_text(n))
    config = parse_config(
        f"model.hamiltonian = {model}\nschedule.T = 2\nschedule.dt = 0.25\n"
        f"schedule.hold_time = 0\nfilter.ancillas = 3\noutput.prefix = {tmp_path}/run\n"
    )
    result = cmd_refine(config)
    rows = _read_csv(tmp_path / "run_refinement.csv")[1:]
    assert len(rows) == config.refine.max_iters == result.summary["passes"]
    for row in rows:
        assert row[-1] == "ok"
        assert float(row[4]) + float(row[5]) == pytest.approx(1.0, abs=1e-9)


FORMATTED = [
    -0.0,
    float("nan"),
    float("inf"),
    float("-inf"),
    1e16,
    5e-324,
    0.1,
    -1.0 / 3.0,
    np.float64(2.0 / 3.0),
    np.float64(-0.0),
]


@pytest.mark.parametrize("value", FORMATTED, ids=repr)
def test_floats_are_written_with_nine_significant_digits(tmp_path, value):
    expected = format(float(value), ".9g")
    assert experiments._fmt(value) == expected
    path = tmp_path / "value.csv"
    experiments._write_csv(str(path), ["v"], [(value,)])
    assert path.read_text() == f"v\n{expected}\n"


def test_integers_and_strings_are_written_as_they_are(tmp_path):
    values = (7, np.int64(-12), 2**60, "ok")
    assert [experiments._fmt(v) for v in values] == ["7", "-12", str(2**60), "ok"]
    path = tmp_path / "values.csv"
    experiments._write_csv(str(path), list("abcd"), [values])
    assert path.read_text() == f"a,b,c,d\n7,-12,{2**60},ok\n"


def _csv_writer_bytes(header, rows) -> bytes:
    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([experiments._fmt(v) for v in row])
    return expected.getvalue().encode("utf-8")


def test_float_rows_are_written_as_csv_writer_writes_them(tmp_path):
    rng = np.random.default_rng(9)
    floats = [float(v) for v in rng.normal(size=40) * 10.0 ** rng.integers(-300, 300, 40)]
    floats += [-0.0, 0.0, float("nan"), float("inf"), float("-inf"), 5e-324, 1e16, 0.1]
    table = [tuple(floats[i : i + 4]) for i in range(0, len(floats), 4)]
    rows = table + [
        (1.5, 2, 0.25, -3.0),
        (np.int64(4), 0.5, np.float64(0.1), 1.0),
        (True, False, 0.5, 1.0),
        ("a,b", 'say "hi"', 1e-3, 2.0),
        (0.5, 1.5, 2.5),
    ]
    header = ["a", "b", "c", "d"]
    path = tmp_path / "rows.csv"
    experiments._write_csv(str(path), header, rows)
    assert path.read_bytes() == _csv_writer_bytes(header, rows)
    # a table of floats whose last row alone holds another value, or is
    # of another width: every value decides how the table is written
    for last in [(0.5, 2**60, 1.0, 2.0), (0.5, True, 1.0, 2.0), (0.5, "a,b", 1.0, 2.0), (0.5,)]:
        experiments._write_csv(str(path), header, table + [last])
        assert path.read_bytes() == _csv_writer_bytes(header, table + [last]), last
    experiments._write_csv(str(path), header, [])
    assert path.read_bytes() == b"a,b,c,d\n"


def test_sweep_shot_mode_without_hold_records(tmp_path):
    # an empty hold leaves an empty state stack; the ramp's rows remain
    text = "schedule.T = 2\nschedule.dt = 0.25\nschedule.hold_time = 0\nestimation.method = shots\n"
    cmd_sweep(parse_config(text + f"output.prefix = {tmp_path}/run\n"))
    table = _read_csv(tmp_path / "run_trajectory.csv")
    assert len(table) == 1 + 9
    assert all(float(row[2]) >= 0.0 for row in table[1:])


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


@pytest.mark.parametrize(
    "command, text, message",
    [
        (cmd_refine, "1.0 ZZ\n", "iterative refinement needs a non-degenerate ground level"),
        (cmd_filter_run, "1.0 I\n", "cannot tag against a degenerate spectrum"),
    ],
    ids=["refine", "filter-run"],
)
def test_a_degenerate_target_is_refused_before_the_ramp(
    tmp_path, count_calls, command, text, message
):
    # the commands diagonalize the target first, so the ramp never runs
    model = tmp_path / "degenerate.txt"
    model.write_text(text)
    ramps = count_calls("adiabatic.run_adiabatic")
    with pytest.raises(DomainError, match=message):
        command(_config(tmp_path, f"model.hamiltonian = {model}\n"))
    assert ramps == []
    assert not (tmp_path / "run_manifest.json").exists()
    # through the CLI it stays a runtime failure, with the same message
    cfg_path = tmp_path / "degenerate.cfg"
    cfg_path.write_text(f"model.hamiltonian = {model}\noutput.prefix = {tmp_path}/run\n" + SMALL)
    name = "refine" if command is cmd_refine else "filter-run"
    assert main([name, "--config", str(cfg_path)]) == 1
    assert ramps == []


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


@pytest.mark.parametrize(
    "content, qubits, message",
    [
        (None, 1, "state file not found"),
        ("1.0\n0.0 0.0\n", 1, "line 1: expected '<re> <im>'"),
        # above the dense cap the state file is refused first, with exit 2
        (None, 11, "state file not found"),
    ],
    ids=["missing", "malformed", "missing-above-the-cap"],
)
def test_diag_refuses_an_unusable_state_file_before_diagonalizing(
    tmp_path, capsys, count_calls, content, qubits, message
):
    diagonalized = count_calls("hamiltonian.exact_diagonalize")
    state = tmp_path / "state.txt"
    if content is not None:
        state.write_text(content)
    model = tmp_path / "model.txt"
    model.write_text(f"-1 {'Z' * qubits}\n-1 {'X' * qubits}\n")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        SMALL + f"model.hamiltonian = {model}\noutput.prefix = {tmp_path}/run\n"
        f"diag.state_file = {state}\n"
    )
    assert main(["diag", "--config", str(cfg)]) == 2
    assert message in capsys.readouterr().err
    assert diagonalized == []


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


@pytest.mark.parametrize("command", ["sweep", "filter-run", "refine", "diag"])
@pytest.mark.parametrize("text", ["1 X\n-1 X\n", "0 Z\n"], ids=["opposite", "zero"])
def test_cli_refuses_an_operator_whose_terms_cancel(tmp_path, capsys, command, text):
    # the zero operator has no ground state to prepare; sweep used to
    # report a quality of 1 and filter-run and refine to fail at run time
    model = tmp_path / "zero.txt"
    model.write_text(text)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SMALL + f"model.hamiltonian = {model}\noutput.prefix = {tmp_path}/run\n")
    assert main([command, "--config", str(cfg)]) == 2
    assert "terms cancel" in capsys.readouterr().err
    assert not list(tmp_path.glob("run_*"))


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
def test_each_operator_diagonalized_once(tmp_path, count_diagonalized, command, extra):
    config = _config(tmp_path, extra)
    command(config)
    operators = [(m.shape, m.tobytes()) for m in count_diagonalized]
    assert len(set(operators)) == len(operators)
    # h0, one operator per ramp step, the target; keep mode holds under the
    # target's spectrum beside the ancilla, which is built, not diagonalized
    assert len(operators) == config.schedule.num_ramp_steps + 2


@pytest.mark.parametrize(
    "command, extra, files",
    [
        ("sweep", "", ["trajectory.csv", "summary.csv"]),
        ("filter-run", "", ["trajectory.csv", "summary.csv"]),
        ("filter-run", "filter.discard = false\n", ["trajectory.csv", "summary.csv"]),
        ("refine", "model.hamiltonian = tfim2\n", ["refinement.csv"]),
        ("diag", "model.hamiltonian = tfim2\n", ["diag.txt"]),
    ],
    ids=["sweep", "filter-run-discard", "filter-run-keep", "refine", "diag"],
)
def test_the_manifest_lists_the_data_files_written(
    tmp_path, capsys, monkeypatch, command, extra, files
):
    # through the CLI, keeping the command's result: the manifest lists the
    # data files in the order written, the result adds the manifest, and
    # the last printed line names it
    results = []
    run = cli._COMMANDS[command]

    @functools.wraps(run)
    def recorded(config):
        results.append(run(config))
        return results[-1]

    monkeypatch.setitem(cli._COMMANDS, command, recorded)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SMALL + extra + f"output.prefix = {tmp_path}/out/run\n")
    assert main([command, "--config", str(cfg)]) == 0
    written = [str(tmp_path / "out" / f"run_{name}") for name in files]
    manifest_path = str(tmp_path / "out" / "run_manifest.json")
    manifest = json.loads(Path(manifest_path).read_text())
    assert manifest["outputs"] == written
    assert sorted(map(str, (tmp_path / "out").iterdir())) == sorted(written + [manifest_path])
    assert results[0].outputs == written + [manifest_path]
    assert capsys.readouterr().out.splitlines()[-1] == f"manifest written to {manifest_path}"
    assert manifest["stages"]["writing"] > 0


def test_output_prefix_directory_created(tmp_path):
    config = parse_config(SMALL + f"output.prefix = {tmp_path}/deep/nested/run\n")
    cmd_sweep(config)
    assert os.path.exists(tmp_path / "deep" / "nested" / "run_summary.csv")


def test_manifest_has_no_duration_in_csvs(tmp_path):
    cmd_sweep(_config(tmp_path))
    for name in ("run_trajectory.csv", "run_summary.csv"):
        assert "duration" not in (tmp_path / name).read_text()


LOCKED_ON_EXCITED = [
    f"pass {i}: E0' = 1 lies nearer excited level 1 (E = 1) than the ground level (E = -1)"
    for i in range(1, 6)
]


@pytest.mark.parametrize(
    "command, operator, extra, expected",
    [
        # -ZZ: the held target's ground level |00>, |11> is degenerate
        (cmd_sweep, "-1 ZZ", "", ["ground level of the held operator is degenerate"]),
        # ramping -Z to +Z: the middle step's operator is exactly zero
        (cmd_sweep, "1 Z", "", ["degenerate instantaneous ground level at step 1 (s=0.5)"]),
        (
            cmd_filter_run,
            "1 Z",
            "filter.discard = false\n",
            ["degenerate instantaneous ground level at step 1 (s=0.5)"],
        ),
        # the ramp ends in |0>, the excited level of Z, and every pass's
        # E0' = 1 sits on that level
        (
            cmd_refine,
            "1 Z",
            "",
            ["degenerate instantaneous ground level at step 1 (s=0.5)"] + LOCKED_ON_EXCITED,
        ),
    ],
    ids=["sweep_degenerate_target", "sweep_crossing", "filter_run_crossing", "refine_crossing"],
)
def test_manifest_records_run_warnings(tmp_path, command, operator, extra, expected):
    model = tmp_path / "model.txt"
    model.write_text(operator + "\n")
    config = parse_config(
        f"model.hamiltonian = {model}\nmodel.J = 1\n"
        "schedule.T = 3\nschedule.dt = 1\nschedule.hold_time = 1\n"
        + extra
        + f"output.prefix = {tmp_path}/run\n"
    )
    result = command(config)
    manifest = json.loads((tmp_path / "run_manifest.json").read_text())
    assert manifest["warnings"] == expected
    # warnings live in the manifest alone
    for path in result.outputs:
        if not path.endswith("_manifest.json"):
            assert "degenerate" not in Path(path).read_text(encoding="utf-8")


def test_refine_locked_on_excited_level_is_reported(tmp_path, capsys):
    model = tmp_path / "model.txt"
    model.write_text("1 Z\n")
    cfg_path = tmp_path / "refine.cfg"
    cfg_path.write_text(
        f"model.hamiltonian = {model}\nmodel.J = 1\nschedule.T = 3\nschedule.dt = 1\n"
        f"output.prefix = {tmp_path}/run\n"
    )
    assert main(["refine", "--config", str(cfg_path)]) == 0
    assert "(max_iterations)" in capsys.readouterr().out
    # the CSV is unchanged: five plausible-looking rows at fidelity 0
    rows = _read_csv(tmp_path / "run_refinement.csv")[1:]
    assert rows == [[str(i), "1", "3.14159265", "1", "0", "1", "ok"] for i in range(1, 6)]
    manifest = json.loads((tmp_path / "run_manifest.json").read_text())
    assert manifest["warnings"][1:] == LOCKED_ON_EXCITED


def test_refine_names_the_first_index_of_a_degenerate_excited_level(tmp_path):
    # the ramp keeps the open Heisenberg chain in |0000>, one of the five
    # states of its E = 3 level, levels 11 to 15; argmin alone named 14 or 11
    # as rounding broke the tie
    model = tmp_path / "heisenberg.txt"
    bonds = ["XX", "YY", "ZZ"]
    model.write_text(
        "".join(f"1.0 {'I' * i}{b}{'I' * (2 - i)}\n" for i in range(3) for b in bonds)
    )
    cmd_refine(
        parse_config(
            f"model.hamiltonian = {model}\nschedule.T = 4\nschedule.dt = 0.125\n"
            f"schedule.hold_time = 0\nfilter.ancillas = 3\noutput.prefix = {tmp_path}/run\n"
        )
    )
    warnings = json.loads((tmp_path / "run_manifest.json").read_text())["warnings"]
    excited = [w for w in warnings if w.startswith("pass ")]
    assert len(excited) == 5
    assert all("nearer excited level 11 (E = 3)" in w for w in excited)


def test_refine_on_the_ground_level_warns_nothing(tmp_path):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "configs", "pair_refine.cfg"), encoding="utf-8") as handle:
        lines = [line for line in handle if not line.startswith("output.prefix")]
    cmd_refine(parse_config("".join(lines) + f"output.prefix = {tmp_path}/run\n"))
    manifest = json.loads((tmp_path / "run_manifest.json").read_text())
    assert manifest["warnings"] == []


@pytest.mark.parametrize(
    "command", [cmd_sweep, cmd_filter_run, cmd_refine, cmd_diag], ids=lambda c: c.__name__
)
def test_manifest_records_the_blas_threads(tmp_path, command):
    command(_config(tmp_path))
    manifest = json.loads((tmp_path / "run_manifest.json").read_text())
    threads = manifest["blas_threads"]
    assert threads == experiments._blas_threads()
    assert threads == "unknown" or (isinstance(threads, int) and threads >= 1)
    assert "diagonalization_workers" not in manifest


def _chain_text(n):
    words = ["I" * i + "ZZ" + "I" * (n - i - 2) for i in range(n - 1)]
    words += ["I" * i + "X" + "I" * (n - i - 1) for i in range(n)]
    return "".join(f"-0.8 {word}\n" for word in words)


SHOTS_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "benchmark_shots.cfg"


def _shipped_shots(tmp_path, seed=None, extra=""):
    """The shipped 10^6-shot config writing under ``tmp_path``; ``extra`` keys replace its own."""
    given = {line.split("=")[0].strip() for line in extra.splitlines()}
    text = SHOTS_CONFIG.read_text(encoding="utf-8")
    kept = [line for line in text.splitlines() if line.split("=")[0].strip() not in given]
    config = parse_config("\n".join(kept) + "\n" + extra)
    return with_overrides(config, seed=seed, out=f"{tmp_path}/run")


def _counters(manifest_path):
    return json.loads(manifest_path.read_text())["counters"]


def _counts(
    matrices,
    dim,
    steps,
    streams=0,
    estimates=0,
    shots=0,
    passes=0,
    terms=0,
    products=0,
    checks=0,
    built=None,
):
    """The manifest's counters for ``matrices`` real dim x dim eigendecompositions.

    ``built`` real dim x dim matrices or buffers are built in all,
    ``matrices`` unless given.
    """
    return {
        "matrices_diagonalized": matrices,
        "diagonalized_d3": matrices * dim**3,
        "steps": steps,
        "streams": streams,
        "estimates": estimates,
        "shots_drawn": estimates * shots,
        "dense_bytes": (matrices if built is None else built) * dim**2 * 8,
        "filter_passes": passes,
        "chebyshev_terms": terms,
        "krylov_products": products,
        "krylov_checks": checks,
    }


# 865 ramp operators and the target; 864 ramp steps and 288 hold steps,
# the hold taken in closed form
_QUBIT_SHOTS = _counts(866, 2, 1152)


@pytest.mark.parametrize(
    "extra, expected",
    [
        # raw, z_ancilla and post_z, then 1154 trajectory records of one term
        ("", {**_QUBIT_SHOTS, "streams": 5, "estimates": 1157, "shots_drawn": 1157 * 10**6}),
        # keep mode's hold diagonalizes nothing: it holds under the target, with its spectrum
        (
            "filter.discard = false\n",
            {
                **_QUBIT_SHOTS,
                "streams": 4,
                "estimates": 1156,
                "shots_drawn": 1156 * 10**6,
            },
        ),
        ("estimation.method = exact\n", _QUBIT_SHOTS),
    ],
)
def test_manifest_counts_the_shot_streams_and_draws(tmp_path, extra, expected):
    cmd_filter_run(_shipped_shots(tmp_path, extra=extra))
    assert _counters(tmp_path / "run_manifest.json") == expected


def test_manifest_counts_a_sweep_stream_per_term(tmp_path):
    # the mean Z of two qubits has two terms: two streams on the ramp, two
    # on the hold, and 9 + 4 records each; 9 ramp operators and the
    # target, 8 ramp and 4 hold steps
    extra = "model.hamiltonian = tfim2\nestimation.method = shots\nestimation.shots = 100\n"
    cmd_sweep(_config(tmp_path, extra))
    expected = _counts(10, 4, 12, streams=4, estimates=26, shots=100)
    assert _counters(tmp_path / "run_manifest.json") == expected


@pytest.mark.parametrize("command", [cmd_refine, cmd_diag])
def test_manifest_counts_nothing_for_exact_commands(tmp_path, command):
    # no estimate is sampled; refine counts its 9 ramp operators, 8 steps,
    # the target and its 5 passes, diag the target alone
    command(_config(tmp_path, "model.hamiltonian = tfim2\n"))
    expected = _counts(10, 4, 8, passes=5) if command is cmd_refine else _counts(1, 4, 0)
    assert _counters(tmp_path / "run_manifest.json") == expected


def test_manifest_counts_complex_dense_bytes(tmp_path):
    # XYZ has one Y letter, so the 8 x 8 matrix is complex: 16 bytes an entry
    model = Path(__file__).resolve().parent / "golden" / "chain3y.txt"
    cmd_diag(_config(tmp_path, f"model.hamiltonian = {model}\n"))
    assert _counters(tmp_path / "run_manifest.json")["dense_bytes"] == 64 * 16


@pytest.mark.parametrize(
    "command, n, hold_time, expected",
    [
        # 33 ramp operators and the target; 32 ramp steps and 8 hold steps;
        # 1,572,864 and 69,632 dense bytes; refine's 5 passes.  The 8-qubit
        # ramp diagonalizes nothing: 965 block products and 51 checks give
        # its levels and ground vectors, and it steps by Chebyshev
        # expansion, 514 terms in its 32 steps; only the target goes
        # through eigh.  Its 9 X masks size its stacks at 28 operators, so
        # it builds its matrices in 2 buffers.  The 4-qubit ramp steps from
        # eigenvectors.
        (cmd_sweep, 8, 1, _counts(1, 256, 40, terms=514, products=965, checks=51, built=3)),
        (cmd_refine, 4, 0, _counts(34, 16, 32, passes=5)),
    ],
    ids=["chain-sweep", "chain-refine"],
)
def test_manifest_counts_the_chain_workloads(tmp_path, command, n, hold_time, expected):
    model = tmp_path / "chain.txt"
    model.write_text(seeded_chain_text(n, seed=7))
    config = parse_config(
        f"model.hamiltonian = {model}\nschedule.T = 4\nschedule.dt = 0.125\n"
        f"schedule.hold_time = {hold_time}\nfilter.ancillas = 3\nrefine.max_iters = 5\n"
        f"output.prefix = {tmp_path}/run\n"
    )
    command(config)
    assert _counters(tmp_path / "run_manifest.json") == expected


def _oracle_min_gap(config):
    """The smallest E1 - E0 over the ramp's s grid by dense eigvalsh, and its s."""
    h1 = build_model(config)
    n = h1.num_qubits
    m0 = pauli_sum_matrix(initial_hamiltonian(config.model.J, n).terms, n)
    m1 = pauli_sum_matrix(h1.terms, n)
    schedule = config.schedule
    grid = [0.0] + [
        (k + 0.5) * schedule.dt / schedule.total_time for k in range(schedule.num_ramp_steps)
    ]
    gaps = [np.diff(np.linalg.eigvalsh((1 - s) * m0 + s * m1)[:2])[0] for s in grid]
    k = int(np.argmin(gaps))
    return gaps[k], grid[k]


@pytest.mark.parametrize(
    "command, make_config",
    [
        (cmd_sweep, lambda tmp_path: _config(tmp_path, "model.hamiltonian = tfim2\n")),
        (cmd_refine, lambda tmp_path: _config(tmp_path, "model.hamiltonian = tfim2\n")),
        (cmd_filter_run, _shipped_shots),
    ],
    ids=["sweep", "refine", "filter-run"],
)
def test_manifest_notes_the_smallest_ramp_gap(tmp_path, command, make_config, monkeypatch):
    config = make_config(tmp_path)
    command(config)
    diagnostics = json.loads((tmp_path / "run_manifest.json").read_text())["diagnostics"]
    gap, s = _oracle_min_gap(config)
    assert diagnostics["min_ramp_gap"] == pytest.approx(gap, abs=1e-12)
    assert diagnostics["min_ramp_gap_s"] == s
    assert 0.0 < s < 1.0
    # the same with one operator per stack
    monkeypatch.setattr(statevector, "_STACK_ENTRIES", 1)
    command(config)
    stacked = json.loads((tmp_path / "run_manifest.json").read_text())["diagnostics"]
    assert stacked == diagnostics


def test_manifest_notes_no_ramp_gap_without_a_ramp(tmp_path):
    cmd_diag(_config(tmp_path, "model.hamiltonian = tfim2\n"))
    diagnostics = json.loads((tmp_path / "run_manifest.json").read_text())["diagnostics"]
    assert diagnostics == {"min_ramp_gap": None, "min_ramp_gap_s": None}


def _ramp_expval(tmp_path, seed=None, extra=""):
    """expval_Z of the ramp records of the shipped shots run, as an array."""
    cmd_filter_run(_shipped_shots(tmp_path, seed=seed, extra=extra))
    rows = _read_csv(tmp_path / "run_trajectory.csv")[1:]
    # the hold starts with a second record at t = T, where the ramp ended
    ramp = next(i for i in range(1, len(rows)) if rows[i][0] == rows[i - 1][0])
    return np.array([float(row[1]) for row in rows[:ramp]])


def test_adjacent_seeds_draw_independent_noise(tmp_path):
    # With a seed per estimate, base + counter, seed s + 1 drew for row r
    # what seed s drew for row r + 1, and their residuals correlated at
    # 0.996; a stream per term, spawned from the seed, draws unrelated noise.
    exact = _ramp_expval(tmp_path / "exact", extra="estimation.method = exact\n")
    first = _ramp_expval(tmp_path / "first", seed=11) - exact
    second = _ramp_expval(tmp_path / "second", seed=12) - exact
    assert np.std(first) > 0 and np.std(second) > 0
    assert abs(np.corrcoef(first[1:], second[:-1])[0, 1]) < 0.2
    assert abs(np.corrcoef(first, second)[0, 1]) < 0.2


def test_seeds_a_multiple_of_2_32_apart_share_no_stream():
    # default_rng([s + 2**32, 0]) draws what default_rng([s, 1]) draws;
    # spawned streams keep the seed's words apart from the stream number
    fair = np.full((40, 2), np.sqrt(0.5), dtype=np.complex128)
    z = PauliSum(1, ((1.0, "Z"),))
    values = {}
    for seed, streams in [(11, 2), (11 + 2**32, 1)]:
        settings = EstimationConfig(method="shots", shots=1000, seed=seed)
        estimator = experiments._Estimator(settings, experiments._Counters())
        for _ in range(streams):
            values[seed] = estimator.evaluate_rows(fair, z)[0]
    assert values[11] != values[11 + 2**32]


CONFIGS = Path(__file__).resolve().parent.parent / "configs"
# the stages each command runs; the others stay at zero
_RUN_STAGES = {
    "sweep": {"ramp", "hold", "writing"},
    "filter-run": {"ramp", "filter", "estimation", "hold", "writing"},
    "refine": {"ramp", "filter", "writing"},
    "diag": {"writing"},
}


@pytest.mark.parametrize(
    "name, command",
    [
        ("benchmark", "sweep"),
        ("benchmark", "filter-run"),
        ("benchmark", "diag"),
        ("benchmark_shots", "sweep"),
        ("benchmark_shots", "filter-run"),
        ("pair_refine", "refine"),
        ("pair_refine", "sweep"),
    ],
)
def test_shipped_manifests_record_the_stage_times(tmp_path, name, command):
    config = with_overrides(load_config(str(CONFIGS / f"{name}.cfg")), out=f"{tmp_path}/run")
    commands = {"sweep": cmd_sweep, "filter-run": cmd_filter_run, "refine": cmd_refine}
    commands.get(command, cmd_diag)(config)
    manifest = json.loads((tmp_path / "run_manifest.json").read_text())
    stages = manifest["stages"]
    assert list(stages) == ["ramp", "hold", "filter", "estimation", "writing"]
    ran = _RUN_STAGES[command] | ({"estimation"} if name == "benchmark_shots" else set())
    assert {stage for stage, seconds in stages.items() if seconds > 0} == ran
    assert all(isinstance(seconds, float) and seconds >= 0 for seconds in stages.values())
    assert sum(stages.values()) <= manifest["duration_seconds"]
    assert "stages" not in manifest["counters"]


def test_chain_sweep_csvs_do_not_depend_on_the_blas_threads(tmp_path):
    # the seed-7 8-qubit chain sweep, whose ramp takes its levels by block
    # Lanczos and steps by Chebyshev expansion, in fresh processes on one
    # and on two OpenBLAS threads: the bits of a product may depend on the
    # threads, and with them the block at which Lanczos stops
    model = tmp_path / "chain.txt"
    model.write_text(seeded_chain_text(8, seed=7))
    config = tmp_path / "chain.cfg"
    config.write_text(
        f"model.hamiltonian = {model}\nschedule.T = 4\nschedule.dt = 0.125\n"
        "schedule.hold_time = 1\n"
    )
    source = str(Path(__file__).resolve().parent.parent / "src")
    outputs = {}
    for threads in ("1", "2"):
        path = os.pathsep.join([source, os.environ.get("PYTHONPATH", "")])
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": path}
        prefix = f"{tmp_path}/threads{threads}"
        command = ["sweep", "--config", str(config), "--out", prefix]
        code = "import sys; from vacuum_refine.cli import main; sys.exit(main(sys.argv[1:]))"
        subprocess.run([sys.executable, "-c", code, *command], env=env, check=True)
        manifest = json.loads(Path(f"{prefix}_manifest.json").read_text())
        assert manifest["blas_threads"] in (int(threads), "unknown")
        outputs[threads] = [
            Path(f"{prefix}_{suffix}.csv").read_bytes() for suffix in ("trajectory", "summary")
        ]
    assert outputs["1"] == outputs["2"]
