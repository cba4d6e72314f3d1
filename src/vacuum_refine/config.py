"""Flat key/value experiment configuration.

The on-disk format is one ``section.key = value`` assignment per line,
with ``#`` comments and blank lines allowed.  Floats use ``.`` as the
decimal separator and must be finite, booleans are ``true``/``false``,
and every key is optional: an empty file describes the default
single-qubit benchmark (J = pi/4, ramp 36 at dt = 1/24, hold 12, exact
steps).

The key table ``_KEYS`` is the one description of the format: for each
key, in the order ``config_to_text`` writes them, the ``ExperimentConfig``
field it sets, how its value is parsed and written, and its bound.
Defaults come from the dataclasses.  Only the rules joining several keys
are written out: ``filter.theta`` goes with ``filter.theta_mode = fixed``
alone, ``filter.powers`` lists one power per ancilla, and ``Schedule``
needs T/dt and hold_time/dt integral.
"""

from __future__ import annotations

import math
import operator
import os
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Iterable, NamedTuple

from .adiabatic import EvolutionMode, Schedule
from .errors import ConfigError, DomainError
from .estimation import MAX_SHOTS
from .hamiltonian import (
    PauliSum,
    hadamard_hamiltonian,
    parse_pauli_text,
    transverse_ising_pair,
)


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
    if any(p < 1 for p in powers):
        raise ConfigError(f"{key}: powers must be positive integers, got {value!r}")
    return powers


def _parse_text(key: str, value: str) -> str:
    # config_to_text writes the value raw after "key = ", so it must read back whole
    if not value or value != value.strip() or "#" in value or len(value.splitlines()) > 1:
        raise ConfigError(
            f"{key}: expected text without '#', line breaks or leading or trailing "
            f"blanks, got {value!r}"
        )
    return value


class _Kind(NamedTuple):
    """How a value is read from its config text and written back."""

    parse: Callable[[str, str], Any]
    show: Callable[[Any], str]


_FLOAT = _Kind(_parse_float, repr)
_INT = _Kind(_parse_int, str)
_BOOL = _Kind(_parse_bool, lambda flag: "true" if flag else "false")
_TEXT = _Kind(_parse_text, str)
_POWERS = _Kind(_parse_powers, lambda powers: ",".join(str(p) for p in powers))


def _choice(values: Iterable[Any]) -> _Kind:
    """One of ``values``: strings, or the members of an enum, named by their values."""
    by_name = {getattr(v, "value", v): v for v in values}

    def parse(key: str, value: str) -> Any:
        if value not in by_name:
            raise ConfigError(f"{key}: expected one of {', '.join(by_name)}, got {value!r}")
        return by_name[value]

    return _Kind(parse, lambda v: getattr(v, "value", v))


_COMPARE = {">": operator.gt, ">=": operator.ge, "<=": operator.le}


class _Key(NamedTuple):
    """A key's field path in ``ExperimentConfig`` (``"schedule.dt"``, ``"mode"``),
    the kind of its value and its bound: operator-limit pairs (``"> 0"``) joined by " and "."""

    path: str
    kind: _Kind
    bound: str | None = None

    def check(self, key: str, value: Any) -> Any:
        """Return ``value``, refusing it by key name when it breaks a limit, read as its type."""
        for part in self.bound.split(" and ") if self.bound is not None else []:
            op, limit = part.split()
            if not _COMPARE[op](value, type(value)(limit)):
                raise ConfigError(f"{key}: must be {self.bound}, got {value!r}")
        return value

    def get(self, config: ExperimentConfig) -> Any:
        value = config
        for name in self.path.split("."):
            value = getattr(value, name)
        return value


# Every key, in the order config_to_text writes them.  A value that is None
# (an optional key left unset) is not written.
_KEYS = {
    "model.J": _Key("model.J", _FLOAT, "> 0"),
    "model.hamiltonian": _Key("model.hamiltonian", _TEXT),
    "schedule.T": _Key("schedule.total_time", _FLOAT),
    "schedule.dt": _Key("schedule.dt", _FLOAT),
    "schedule.hold_time": _Key("schedule.hold_time", _FLOAT),
    "mode": _Key("mode", _choice(EvolutionMode)),
    "filter.ancillas": _Key("filter.ancillas", _INT, ">= 1"),
    "filter.theta_mode": _Key("filter.theta_mode", _choice(("auto", "fixed"))),
    "filter.theta": _Key("filter.theta", _FLOAT),
    "filter.powers": _Key("filter.powers", _POWERS),
    "filter.discard": _Key("filter.discard", _BOOL),
    "estimation.method": _Key("estimation.method", _choice(("exact", "shots"))),
    "estimation.shots": _Key("estimation.shots", _INT, f">= 1 and <= {MAX_SHOTS}"),
    # shot estimates seed np.random.default_rng, which refuses negative seeds
    "estimation.seed": _Key("estimation.seed", _INT, ">= 0"),
    "refine.max_iters": _Key("refine.max_iters", _INT, ">= 1"),
    "refine.target_infidelity": _Key("refine.target_infidelity", _FLOAT, ">= 0"),
    "diag.state_file": _Key("state_file", _TEXT),
    "output.prefix": _Key("output_prefix", _TEXT),
}


def _assign(config: ExperimentConfig, values: dict[str, Any]) -> ExperimentConfig:
    """A copy of ``config`` with each key of ``values`` set to its checked value.

    The fields of one section are replaced together, so a section's own
    checks (``Schedule``'s) see its final values; their ``DomainError``
    becomes a ``ConfigError`` naming the section.
    """
    top: dict[str, Any] = {}
    sections: dict[str, dict[str, Any]] = {}
    for key, value in values.items():
        name, _, sub = _KEYS[key].path.partition(".")
        if sub:
            sections.setdefault(name, {})[sub] = value
        else:
            top[name] = value
    for name, fields in sections.items():
        try:
            top[name] = replace(getattr(config, name), **fields)
        except DomainError as exc:
            raise ConfigError(f"{name}: {exc}") from exc
    return replace(config, **top)


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
    for key in raw:
        if key not in _KEYS:
            raise ConfigError(f"unknown config key {key!r}")

    values = {
        key: entry.check(key, entry.kind.parse(key, raw[key]))
        for key, entry in _KEYS.items()
        if key in raw
    }
    config = _assign(ExperimentConfig(), values)

    settings = config.filter
    if settings.theta_mode == "fixed" and settings.theta is None:
        raise ConfigError("filter.theta: required when filter.theta_mode = fixed")
    if settings.theta_mode != "fixed" and settings.theta is not None:
        raise ConfigError("filter.theta: set only with filter.theta_mode = fixed")
    if settings.powers is not None and len(settings.powers) != settings.ancillas:
        raise ConfigError(
            f"filter.powers: {len(settings.powers)} power(s) listed for "
            f"{settings.ancillas} ancilla(s)"
        )
    return config


def load_config(path: str) -> ExperimentConfig:
    """Read and parse a config file."""
    if not os.path.isfile(path):
        raise ConfigError(f"config file not found: {path}")
    with open(path, "r", encoding="utf-8") as handle:
        return parse_config(handle.read())


def config_to_text(config: ExperimentConfig) -> str:
    """Serialize a config to canonical text; parsing it back is lossless."""
    lines = []
    for key, entry in _KEYS.items():
        value = entry.get(config)
        if value is not None:
            lines.append(f"{key} = {entry.kind.show(value)}")
    return "\n".join(lines) + "\n"


def with_overrides(
    config: ExperimentConfig, seed: int | None = None, out: str | None = None
) -> ExperimentConfig:
    """Apply CLI-level seed and output-prefix overrides, read as their keys' text is."""
    given = {"estimation.seed": seed, "output.prefix": out}
    return _assign(
        config,
        {
            key: _KEYS[key].check(key, _KEYS[key].kind.parse(key, str(value)))
            for key, value in given.items()
            if value is not None
        },
    )


_MODELS = {"hadamard": hadamard_hamiltonian, "tfim2": transverse_ising_pair}


def build_model(config: ExperimentConfig) -> PauliSum:
    """Resolve the configured target operator (builtin name or file path)."""
    name = config.model.hamiltonian
    if name in _MODELS:
        return _MODELS[name](config.model.J)
    if not os.path.isfile(name):
        raise ConfigError(
            f"model.hamiltonian: {name!r} is neither a builtin "
            f"({', '.join(_MODELS)}) nor an existing file"
        )
    with open(name, "r", encoding="utf-8") as handle:
        return parse_pauli_text(handle.read())
