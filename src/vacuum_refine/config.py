"""Flat key/value experiment configuration.

The on-disk format is one ``section.key = value`` assignment per line,
with ``#`` comments and blank lines allowed.  Floats use ``.`` as the
decimal separator, booleans are ``true``/``false``, and every key is
optional: an empty file describes the default single-qubit benchmark
(J = pi/4, ramp 36 at dt = 1/24, hold 12, exact steps).

Recognized keys:

    model.J                coupling strength, > 0
    model.hamiltonian      ``hadamard`` | ``tfim2`` | path to operator text
    schedule.T             ramp duration
    schedule.dt            step size (T/dt and hold_time/dt integral)
    schedule.hold_time     fixed-operator evolution after the ramp
    mode                   ``exact_step`` | ``trotter1``
    filter.ancillas        ancilla count m for filtering passes
    filter.theta_mode      ``auto`` | ``fixed``
    filter.theta           phase parameter, required when mode is fixed
                           and refused otherwise
    filter.powers          comma list of propagator powers (default 2^j)
    filter.discard         post-select the ancillas (true) or keep the
                           joint state for mixed estimation (false)
    estimation.method      ``exact`` | ``shots``
    estimation.shots       samples per estimate in shot mode
    estimation.seed        base RNG seed, >= 0 (the CLI --seed overrides it)
    refine.max_iters       pass limit for iterative refinement
    refine.target_infidelity   stop threshold on the excited weight
    diag.state_file        amplitude text file analyzed by the diag command
    output.prefix          path prefix for CSV/report/manifest files
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, replace

from .adiabatic import EvolutionMode, Schedule
from .errors import ConfigError, DomainError
from .hamiltonian import (
    PauliSum,
    hadamard_hamiltonian,
    parse_pauli_text,
    transverse_ising_pair,
)

_BUILTIN_MODELS = ("hadamard", "tfim2")


@dataclass(frozen=True)
class ModelConfig:
    J: float = math.pi / 4.0
    hamiltonian: str = "hadamard"


@dataclass(frozen=True)
class FilterSettings:
    ancillas: int = 2
    theta_mode: str = "auto"
    theta: float | None = None
    powers: tuple[int, ...] | None = None
    discard: bool = True


@dataclass(frozen=True)
class EstimationConfig:
    method: str = "exact"
    shots: int = 1_000_000
    seed: int = 11


@dataclass(frozen=True)
class RefineSettings:
    max_iters: int = 5
    target_infidelity: float = 1e-8


@dataclass(frozen=True)
class ExperimentConfig:
    model: ModelConfig = field(default_factory=ModelConfig)
    schedule: Schedule = field(default_factory=lambda: Schedule(36.0, 1.0 / 24.0, 12.0))
    mode: EvolutionMode = EvolutionMode.EXACT_STEP
    filter: FilterSettings = field(default_factory=FilterSettings)
    estimation: EstimationConfig = field(default_factory=EstimationConfig)
    refine: RefineSettings = field(default_factory=RefineSettings)
    state_file: str | None = None
    output_prefix: str = "out/run"


def _parse_float(key: str, value: str) -> float:
    try:
        number = float(value)
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {value!r}") from None
    if not math.isfinite(number):
        raise ConfigError(f"{key}: expected a finite number, got {value!r}")
    return number


def _parse_int(key: str, value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {value!r}") from None


def _parse_bool(key: str, value: str) -> bool:
    if value == "true":
        return True
    if value == "false":
        return False
    raise ConfigError(f"{key}: expected true or false, got {value!r}")


def _parse_powers(key: str, value: str) -> tuple[int, ...]:
    try:
        powers = tuple(int(part.strip()) for part in value.split(","))
    except ValueError:
        raise ConfigError(f"{key}: expected a comma list of integers, got {value!r}") from None
    if not powers or any(p < 1 for p in powers):
        raise ConfigError(f"{key}: powers must be positive integers, got {value!r}")
    return powers


def _parse_choice(key: str, value: str, choices: tuple[str, ...]) -> str:
    if value not in choices:
        raise ConfigError(f"{key}: expected one of {', '.join(choices)}, got {value!r}")
    return value


def _check_seed(seed: int) -> None:
    # shot estimates seed np.random.default_rng, which refuses negative seeds
    if seed < 0:
        raise ConfigError(f"estimation.seed: must be >= 0, got {seed}")


def parse_config(text: str) -> ExperimentConfig:
    """Parse config text, rejecting unknown or repeated keys by name."""
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if not key or not value:
            raise ConfigError(f"line {lineno}: empty key or value in {line!r}")
        if key in raw:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        raw[key] = value

    known = {
        "model.J",
        "model.hamiltonian",
        "schedule.T",
        "schedule.dt",
        "schedule.hold_time",
        "mode",
        "filter.ancillas",
        "filter.theta_mode",
        "filter.theta",
        "filter.powers",
        "filter.discard",
        "estimation.method",
        "estimation.shots",
        "estimation.seed",
        "refine.max_iters",
        "refine.target_infidelity",
        "diag.state_file",
        "output.prefix",
    }
    for key in raw:
        if key not in known:
            raise ConfigError(f"unknown config key {key!r}")

    defaults = ExperimentConfig()
    model = ModelConfig(
        J=_parse_float("model.J", raw["model.J"]) if "model.J" in raw else defaults.model.J,
        hamiltonian=raw.get("model.hamiltonian", defaults.model.hamiltonian),
    )
    if model.J <= 0:
        raise ConfigError(f"model.J: must be positive, got {model.J!r}")

    try:
        schedule = Schedule(
            total_time=_parse_float("schedule.T", raw["schedule.T"])
            if "schedule.T" in raw
            else defaults.schedule.total_time,
            dt=_parse_float("schedule.dt", raw["schedule.dt"])
            if "schedule.dt" in raw
            else defaults.schedule.dt,
            hold_time=_parse_float("schedule.hold_time", raw["schedule.hold_time"])
            if "schedule.hold_time" in raw
            else defaults.schedule.hold_time,
        )
    except DomainError as exc:
        raise ConfigError(f"schedule: {exc}") from exc

    try:
        mode = EvolutionMode.parse(raw.get("mode", defaults.mode.value))
    except DomainError as exc:
        raise ConfigError(f"mode: {exc}") from exc

    filter_settings = FilterSettings(
        ancillas=_parse_int("filter.ancillas", raw["filter.ancillas"])
        if "filter.ancillas" in raw
        else defaults.filter.ancillas,
        theta_mode=_parse_choice(
            "filter.theta_mode", raw.get("filter.theta_mode", "auto"), ("auto", "fixed")
        ),
        theta=_parse_float("filter.theta", raw["filter.theta"]) if "filter.theta" in raw else None,
        powers=_parse_powers("filter.powers", raw["filter.powers"])
        if "filter.powers" in raw
        else None,
        discard=_parse_bool("filter.discard", raw["filter.discard"])
        if "filter.discard" in raw
        else defaults.filter.discard,
    )
    if filter_settings.ancillas < 1:
        raise ConfigError(f"filter.ancillas: must be >= 1, got {filter_settings.ancillas}")
    if filter_settings.theta_mode == "fixed" and filter_settings.theta is None:
        raise ConfigError("filter.theta: required when filter.theta_mode = fixed")
    if filter_settings.theta_mode != "fixed" and filter_settings.theta is not None:
        raise ConfigError("filter.theta: set only with filter.theta_mode = fixed")
    if (
        filter_settings.powers is not None
        and len(filter_settings.powers) != filter_settings.ancillas
    ):
        raise ConfigError(
            f"filter.powers: {len(filter_settings.powers)} power(s) listed for "
            f"{filter_settings.ancillas} ancilla(s)"
        )

    estimation = EstimationConfig(
        method=_parse_choice(
            "estimation.method", raw.get("estimation.method", "exact"), ("exact", "shots")
        ),
        shots=_parse_int("estimation.shots", raw["estimation.shots"])
        if "estimation.shots" in raw
        else defaults.estimation.shots,
        seed=_parse_int("estimation.seed", raw["estimation.seed"])
        if "estimation.seed" in raw
        else defaults.estimation.seed,
    )
    if estimation.shots < 1:
        raise ConfigError(f"estimation.shots: must be >= 1, got {estimation.shots}")
    _check_seed(estimation.seed)

    refine = RefineSettings(
        max_iters=_parse_int("refine.max_iters", raw["refine.max_iters"])
        if "refine.max_iters" in raw
        else defaults.refine.max_iters,
        target_infidelity=_parse_float(
            "refine.target_infidelity", raw["refine.target_infidelity"]
        )
        if "refine.target_infidelity" in raw
        else defaults.refine.target_infidelity,
    )
    if refine.max_iters < 1:
        raise ConfigError(f"refine.max_iters: must be >= 1, got {refine.max_iters}")
    if refine.target_infidelity < 0:
        raise ConfigError(
            f"refine.target_infidelity: must be >= 0, got {refine.target_infidelity}"
        )

    return ExperimentConfig(
        model=model,
        schedule=schedule,
        mode=mode,
        filter=filter_settings,
        estimation=estimation,
        refine=refine,
        state_file=raw.get("diag.state_file"),
        output_prefix=raw.get("output.prefix", defaults.output_prefix),
    )


def load_config(path: str) -> ExperimentConfig:
    """Read and parse a config file."""
    if not os.path.isfile(path):
        raise ConfigError(f"config file not found: {path}")
    with open(path, "r", encoding="utf-8") as handle:
        return parse_config(handle.read())


def config_to_text(config: ExperimentConfig) -> str:
    """Serialize a config to canonical text; parsing it back is lossless."""
    lines = [
        f"model.J = {config.model.J!r}",
        f"model.hamiltonian = {config.model.hamiltonian}",
        f"schedule.T = {config.schedule.total_time!r}",
        f"schedule.dt = {config.schedule.dt!r}",
        f"schedule.hold_time = {config.schedule.hold_time!r}",
        f"mode = {config.mode.value}",
        f"filter.ancillas = {config.filter.ancillas}",
        f"filter.theta_mode = {config.filter.theta_mode}",
    ]
    if config.filter.theta is not None:
        lines.append(f"filter.theta = {config.filter.theta!r}")
    if config.filter.powers is not None:
        lines.append(f"filter.powers = {','.join(str(p) for p in config.filter.powers)}")
    lines.extend(
        [
            f"filter.discard = {'true' if config.filter.discard else 'false'}",
            f"estimation.method = {config.estimation.method}",
            f"estimation.shots = {config.estimation.shots}",
            f"estimation.seed = {config.estimation.seed}",
            f"refine.max_iters = {config.refine.max_iters}",
            f"refine.target_infidelity = {config.refine.target_infidelity!r}",
        ]
    )
    if config.state_file is not None:
        lines.append(f"diag.state_file = {config.state_file}")
    lines.append(f"output.prefix = {config.output_prefix}")
    return "\n".join(lines) + "\n"


def with_overrides(
    config: ExperimentConfig, seed: int | None = None, out: str | None = None
) -> ExperimentConfig:
    """Apply CLI-level seed and output-prefix overrides."""
    if seed is not None:
        _check_seed(seed)
        config = replace(config, estimation=replace(config.estimation, seed=seed))
    if out is not None:
        config = replace(config, output_prefix=out)
    return config


def build_model(config: ExperimentConfig) -> PauliSum:
    """Resolve the configured target operator (builtin name or file path)."""
    name = config.model.hamiltonian
    if name == "hadamard":
        return hadamard_hamiltonian(config.model.J)
    if name == "tfim2":
        return transverse_ising_pair(config.model.J)
    if not os.path.isfile(name):
        raise ConfigError(
            f"model.hamiltonian: {name!r} is neither a builtin "
            f"({', '.join(_BUILTIN_MODELS)}) nor an existing file"
        )
    with open(name, "r", encoding="utf-8") as handle:
        return parse_pauli_text(handle.read())
