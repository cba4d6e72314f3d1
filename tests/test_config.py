import math
from pathlib import Path

import numpy as np
import pytest

from vacuum_refine import (
    ConfigError,
    EvolutionMode,
    ExperimentConfig,
    build_model,
    config_to_text,
    load_config,
    parse_config,
    with_overrides,
)
from vacuum_refine import config as config_module
from vacuum_refine.cli import main

KEYS = config_module._KEYS
README = Path(__file__).resolve().parent.parent / "README.md"


def test_empty_config_gives_benchmark_defaults():
    config = parse_config("")
    assert config.model.J == pytest.approx(math.pi / 4)
    assert config.model.hamiltonian == "hadamard"
    assert config.schedule.total_time == 36.0
    assert config.schedule.dt == pytest.approx(1.0 / 24.0)
    assert config.schedule.hold_time == 12.0
    assert config.mode is EvolutionMode.EXACT_STEP
    assert config.filter.ancillas == 2
    assert config.filter.theta_mode == "auto"
    assert config.filter.discard is True
    assert config.estimation.method == "exact"
    assert config.estimation.shots == 1_000_000
    assert config.estimation.seed == 11
    assert config.refine.max_iters == 5
    assert config.output_prefix == "out/run"


def test_assignments_and_comments():
    text = """
# benchmark variant
model.J = 0.5
schedule.T = 8
schedule.dt = 0.125
schedule.hold_time = 0
mode = trotter1
filter.ancillas = 3
estimation.method = shots
estimation.shots = 250
estimation.seed = 99
output.prefix = /tmp/somewhere/run
"""
    config = parse_config(text)
    assert config.model.J == 0.5
    assert config.schedule.total_time == 8.0
    assert config.schedule.num_ramp_steps == 64
    assert config.mode is EvolutionMode.TROTTER1
    assert config.filter.ancillas == 3
    assert config.estimation.method == "shots"
    assert config.estimation.shots == 250
    assert config.estimation.seed == 99
    assert config.output_prefix == "/tmp/somewhere/run"


def test_round_trip_is_lossless():
    text = """
model.hamiltonian = tfim2
schedule.T = 8
schedule.dt = 0.125
schedule.hold_time = 0.5
filter.ancillas = 3
filter.powers = 1,2,4
filter.discard = false
refine.max_iters = 7
refine.target_infidelity = 1e-10
"""
    config = parse_config(text)
    assert parse_config(config_to_text(config)) == config


def test_round_trip_default_config():
    config = parse_config("")
    assert parse_config(config_to_text(config)) == config


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="model.coupling"):
        parse_config("model.coupling = 1.0")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="model.J"):
        parse_config("model.J = 1.0\nmodel.J = 2.0")


def test_malformed_line_reports_line_number():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config("model.J = 1.0\nnot an assignment\n")


def test_type_errors_name_the_key():
    with pytest.raises(ConfigError, match="model.J"):
        parse_config("model.J = abc")
    with pytest.raises(ConfigError, match="estimation.shots"):
        parse_config("estimation.shots = 1.5")
    with pytest.raises(ConfigError, match="filter.discard"):
        parse_config("filter.discard = maybe")
    with pytest.raises(ConfigError, match="mode"):
        parse_config("mode = rk4")
    with pytest.raises(ConfigError, match="estimation.method"):
        parse_config("estimation.method = dice")


def test_bad_schedule_becomes_config_error():
    with pytest.raises(ConfigError):
        parse_config("schedule.T = 1\nschedule.dt = 0.3")
    with pytest.raises(ConfigError):
        parse_config("schedule.T = -1")


def test_fixed_theta_mode_requires_theta():
    with pytest.raises(ConfigError, match="filter.theta"):
        parse_config("filter.theta_mode = fixed")
    config = parse_config("filter.theta_mode = fixed\nfilter.theta = -4.0")
    assert config.filter.theta == -4.0


def test_theta_without_fixed_mode_rejected(tmp_path, capsys):
    # auto mode picks theta = pi/E0' each pass, so a given theta would be ignored
    for text in ("filter.theta = 0.5", "filter.theta_mode = auto\nfilter.theta = 0.5"):
        with pytest.raises(ConfigError, match="filter.theta"):
            parse_config(text)
    cfg = tmp_path / "theta.cfg"
    cfg.write_text(f"filter.theta = 0.5\noutput.prefix = {tmp_path}/run\n")
    assert main(["refine", "--config", str(cfg)]) == 2
    assert "filter.theta" in capsys.readouterr().err


def test_powers_must_match_ancilla_count():
    with pytest.raises(ConfigError, match="filter.powers"):
        parse_config("filter.ancillas = 2\nfilter.powers = 1,2,4")
    config = parse_config("filter.ancillas = 3\nfilter.powers = 1,2,4")
    assert config.filter.powers == (1, 2, 4)
    with pytest.raises(ConfigError, match="filter.powers"):
        parse_config("filter.ancillas = 1\nfilter.powers = zero")


def test_with_overrides():
    config = parse_config("estimation.seed = 3")
    bumped = with_overrides(config, seed=17, out="custom/prefix")
    assert bumped.estimation.seed == 17
    assert bumped.output_prefix == "custom/prefix"
    untouched = with_overrides(config)
    assert untouched == config


def test_negative_seed_rejected():
    # shot estimates seed np.random.default_rng, which refuses a negative seed
    with pytest.raises(ConfigError, match="estimation.seed"):
        parse_config("estimation.seed = -1")
    with pytest.raises(ConfigError, match="estimation.seed"):
        with_overrides(parse_config(""), seed=-5)
    assert with_overrides(parse_config(""), seed=0).estimation.seed == 0


def test_negative_seed_is_a_config_error_before_the_ramp(tmp_path, capsys, count_calls):
    ramps = count_calls("adiabatic.run_adiabatic")
    cfg = tmp_path / "shots.cfg"
    cfg.write_text(
        "estimation.method = shots\nestimation.shots = 10\n"
        f"output.prefix = {tmp_path}/run\n"
    )
    for command in ("filter-run", "sweep"):
        assert main([command, "--config", str(cfg), "--seed", "-5"]) == 2
        assert "estimation.seed" in capsys.readouterr().err
    (tmp_path / "seed.cfg").write_text(cfg.read_text() + "estimation.seed = -5\n")
    assert main(["sweep", "--config", str(tmp_path / "seed.cfg")]) == 2
    assert "estimation.seed" in capsys.readouterr().err
    assert ramps == []
    assert not any(tmp_path.glob("run_*"))


def test_build_model_builtins():
    hadamard = build_model(parse_config("model.J = 1.0"))
    assert hadamard.num_qubits == 1
    w = -1.0 / np.sqrt(2.0)
    assert hadamard.terms == ((w, "X"), (w, "Z"))
    pair = build_model(parse_config("model.hamiltonian = tfim2\nmodel.J = 1.0"))
    assert pair.num_qubits == 2
    assert pair.terms == ((-1.0, "IX"), (-1.0, "XI"), (-1.0, "ZZ"))


def test_build_model_from_operator_file(tmp_path):
    op_file = tmp_path / "custom.txt"
    op_file.write_text("0.5 ZZ\n-0.25 XI\n")
    config = parse_config(f"model.hamiltonian = {op_file}")
    model = build_model(config)
    assert model.num_qubits == 2
    assert model.terms == ((-0.25, "XI"), (0.5, "ZZ"))


def test_build_model_missing_file():
    with pytest.raises(ConfigError):
        build_model(parse_config("model.hamiltonian = /nonexistent/file.txt"))


def test_load_config(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("model.J = 2.0\n")
    assert load_config(str(path)).model.J == 2.0
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "missing.cfg"))


# key -> (a value other than its default, as config_to_text writes it;
#         the lines of other keys that value needs)
NON_DEFAULT = {
    "model.J": ("0.5", ""),
    "model.hamiltonian": ("tfim2", ""),
    "schedule.T": ("48.0", ""),
    "schedule.dt": ("0.125", ""),
    "schedule.hold_time": ("0.5", ""),
    "mode": ("trotter1", ""),
    "filter.ancillas": ("3", ""),
    "filter.theta_mode": ("fixed", "filter.theta = -1.3"),
    "filter.theta": ("-1.3", "filter.theta_mode = fixed"),
    "filter.powers": ("1,3", ""),
    "filter.discard": ("false", ""),
    "estimation.method": ("shots", ""),
    "estimation.shots": ("250", ""),
    "estimation.seed": ("0", ""),
    "refine.max_iters": ("7", ""),
    "refine.target_infidelity": ("0.0", ""),
    "diag.state_file": ("states/psi.txt", ""),
    "output.prefix": ("runs/x", ""),
}


@pytest.mark.parametrize("key", list(KEYS))
def test_every_key_round_trips(key):
    value, needs = NON_DEFAULT[key]
    line = f"{key} = {value}"
    config = parse_config(f"{line}\n{needs}")
    assert KEYS[key].get(config) != KEYS[key].get(ExperimentConfig())
    text = config_to_text(config)
    assert line in text.splitlines()
    assert parse_config(text) == config


def test_overrides_go_through_the_key_table(monkeypatch):
    base = parse_config("")
    seen = []
    check = config_module._Key.check

    def spy(entry, key, value):
        seen.append(key)
        return check(entry, key, value)

    monkeypatch.setattr(config_module._Key, "check", spy)
    bumped = with_overrides(base, seed=17, out="runs/y")
    assert seen == ["estimation.seed", "output.prefix"]
    assert bumped == parse_config("estimation.seed = 17\noutput.prefix = runs/y")
    # the bound applied to --seed is the one the table gives estimation.seed
    tighter = KEYS["estimation.seed"]._replace(bound=">= 100")
    monkeypatch.setitem(KEYS, "estimation.seed", tighter)
    with pytest.raises(ConfigError, match="estimation.seed: must be >= 100, got 50"):
        with_overrides(base, seed=50)


def test_readme_lists_the_keys_of_the_table():
    section = README.read_text(encoding="utf-8").split("## Config format", 1)[1]
    section = section.split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("| `")]
    assert [row.split("`")[1] for row in rows] == list(KEYS)


# every key, each set to a value other than its default, as config_to_text writes it
EVERY_KEY = """\
model.J = 0.5
model.hamiltonian = tfim2
schedule.T = 48.0
schedule.dt = 0.125
schedule.hold_time = 0.5
mode = trotter1
filter.ancillas = 3
filter.theta_mode = fixed
filter.theta = -1.3
filter.powers = 1,2,4
filter.discard = false
estimation.method = shots
estimation.shots = 250
estimation.seed = 0
refine.max_iters = 7
refine.target_infidelity = 0.0
diag.state_file = states/psi 1.txt
output.prefix = runs/x=1/run
"""


def test_config_setting_every_key_round_trips():
    assert [line.split(" = ")[0] for line in EVERY_KEY.splitlines()] == list(KEYS)
    config = parse_config(EVERY_KEY)
    assert config_to_text(config) == EVERY_KEY
    assert parse_config(config_to_text(config)) == config


@pytest.mark.parametrize(
    "prefix",
    ["runs/#1", " runs/x", "runs/x ", "runs/\nx", "runs/\rx", "runs/x\n", ""],
    ids=["hash", "leading", "trailing", "newline", "carriage", "final_newline", "empty"],
)
def test_text_that_cannot_be_written_back_is_refused(prefix):
    # config_to_text writes text raw, and the parser would cut or strip such
    # a value: "runs/#1" would read back as "runs/"
    with pytest.raises(ConfigError, match="output.prefix"):
        with_overrides(parse_config(""), out=prefix)
    with pytest.raises(ConfigError, match="model.hamiltonian"):
        KEYS["model.hamiltonian"].kind.parse("model.hamiltonian", prefix)


def test_cli_refuses_an_out_that_cannot_be_written_back(tmp_path, capsys, count_calls):
    ramps = count_calls("adiabatic.run_adiabatic")
    path = tmp_path / "run.cfg"
    path.write_text("schedule.T = 1\nschedule.dt = 0.5\n")
    assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "#1")]) == 2
    assert "output.prefix" in capsys.readouterr().err
    assert ramps == []
    assert list(tmp_path.iterdir()) == [path]
