"""Discrete-time evolution under slowly interpolated Hamiltonians.

The total ramp time T is split into N = T / dt equal steps.  Step k
evolves under the interpolated operator frozen at the midpoint parameter
s_k = (k + 1/2) * dt / T, which keeps the discretization error of the
schedule at second order in dt.  Steps themselves are taken either
exactly, by applying exp(-i * h * dt) straight from the step operator's
spectrum (``apply_evolution``), or with a first-order splitting that
applies Z-type factors before X-type factors, lexicographically within
each class.

Every ramp operator is known before the first step, so ``run_adiabatic``
takes all their spectra from ``ramp_spectra``: one (steps x words)
coefficient array, dense matrices built as stacks, one ``eigh`` per stack
and the Hermiticity, orthonormality and residual guards vectorized over
it.  Each spectrum is bit-identical to diagonalizing the interpolated
operator on its own, and each recorded energy combines per-word
expectation values with the step's coefficient row, so no operator is
built per step in exact mode.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .errors import DomainError
from .hamiltonian import (
    PauliSum,
    Spectrum,
    apply_evolution,
    exact_diagonalize,
    interpolate,
    ramp_coefficients,
    ramp_spectra,
)
from .pauli import apply_word
from .statevector import StateVector, basis_state
from .statevector import expectation_observable, fidelity, weighted_expectation

_GRID_ATOL = 1e-9
_ENERGY_KEY = "energy"


class EvolutionMode(enum.Enum):
    """How a single time step is realized."""

    EXACT_STEP = "exact_step"
    TROTTER1 = "trotter1"

    @classmethod
    def parse(cls, name: str) -> "EvolutionMode":
        for mode in cls:
            if mode.value == name:
                return mode
        raise DomainError(f"unknown evolution mode {name!r}")


@dataclass(frozen=True)
class Schedule:
    """Ramp duration, step size and optional fixed-operator hold time."""

    total_time: float
    dt: float
    hold_time: float = 0.0

    def __post_init__(self) -> None:
        if self.total_time <= 0:
            raise DomainError(f"total_time must be positive, got {self.total_time!r}")
        if self.dt <= 0 or self.dt > self.total_time:
            raise DomainError(f"dt={self.dt!r} must lie in (0, total_time]")
        if abs(self.total_time / self.dt - round(self.total_time / self.dt)) > _GRID_ATOL:
            raise DomainError(
                f"total_time/dt = {self.total_time / self.dt!r} is not an integer"
            )
        if self.hold_time < 0:
            raise DomainError(f"hold_time must be >= 0, got {self.hold_time!r}")
        if abs(self.hold_time / self.dt - round(self.hold_time / self.dt)) > _GRID_ATOL:
            raise DomainError(
                f"hold_time/dt = {self.hold_time / self.dt!r} is not an integer"
            )

    @property
    def num_ramp_steps(self) -> int:
        return int(round(self.total_time / self.dt))

    @property
    def num_hold_steps(self) -> int:
        return int(round(self.hold_time / self.dt))


@dataclass(frozen=True)
class TrajectoryRecord:
    t: float
    observables: dict[str, float]
    fidelity: float
    snapshot: StateVector | None = None


@dataclass
class Trajectory:
    """Time-ordered records plus run metadata (warnings, schedule echo)."""

    records: list[TrajectoryRecord] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    def append(self, record: TrajectoryRecord) -> None:
        if self.records and record.t <= self.records[-1].t:
            raise DomainError(
                f"record times must increase, got {record.t} after {self.records[-1].t}"
            )
        self.records.append(record)


def _split_key(term: tuple[float, str]) -> tuple[int, str]:
    letters = set(term[1])
    if letters <= {"I", "Z"}:
        rank = 0
    elif letters <= {"I", "X"}:
        rank = 1
    else:
        rank = 2
    return rank, term[1]


def evolve_step(
    state: StateVector,
    h: PauliSum,
    dt: float,
    mode: EvolutionMode,
    spectrum: Spectrum | None = None,
) -> StateVector:
    """Advance the state by one step of duration ``dt`` under a fixed operator.

    In ``exact_step`` mode the step is applied from ``spectrum``, which
    must be the caller's ``exact_diagonalize(h)``: only its size is
    checked here.  Without it ``h`` is diagonalized here.  ``trotter1``
    mode ignores it.
    """
    if h.num_qubits != state.num_qubits:
        raise DomainError(
            f"operator acts on {h.num_qubits} qubit(s), state has {state.num_qubits}"
        )
    if dt <= 0:
        raise DomainError(f"dt must be positive, got {dt!r}")
    if mode is EvolutionMode.EXACT_STEP:
        if spectrum is None:
            spectrum = exact_diagonalize(h)
        return StateVector(state.num_qubits, apply_evolution(spectrum, dt, state.amplitudes))
    if mode is EvolutionMode.TROTTER1:
        amps = state.amplitudes
        for (coeff, _), word in sorted(zip(h.terms, h.words), key=lambda tw: _split_key(tw[0])):
            angle = coeff * dt
            amps = np.cos(angle) * amps - 1j * np.sin(angle) * apply_word(word, amps)
        return StateVector(state.num_qubits, amps)
    raise DomainError(f"unsupported evolution mode {mode!r}")


def _clamped_fidelity(state: StateVector, target: StateVector) -> float:
    return min(fidelity(state, target), 1.0)


def _record(
    trajectory: Trajectory,
    t: float,
    state: StateVector,
    energy: float,
    observables: Mapping[str, PauliSum],
    target: StateVector,
    keep_snapshot: bool,
) -> None:
    values = {name: expectation_observable(state, obs) for name, obs in observables.items()}
    values[_ENERGY_KEY] = energy
    trajectory.append(
        TrajectoryRecord(
            t=t,
            observables=values,
            fidelity=_clamped_fidelity(state, target),
            snapshot=state if keep_snapshot else None,
        )
    )


def _check_observables(observables: Mapping[str, PauliSum], num_qubits: int) -> None:
    for name, obs in observables.items():
        if name == _ENERGY_KEY:
            raise DomainError(f"observable name {_ENERGY_KEY!r} is reserved")
        if obs.num_qubits != num_qubits:
            raise DomainError(
                f"observable {name!r} acts on {obs.num_qubits} qubit(s), expected {num_qubits}"
            )


def run_adiabatic(
    h0: PauliSum,
    h1: PauliSum,
    schedule: Schedule,
    mode: EvolutionMode,
    observables: Mapping[str, PauliSum] | None = None,
    record_snapshots: bool = False,
    records: bool = True,
) -> tuple[StateVector, Trajectory]:
    """Ramp from the preparation operator to the target operator.

    Starts from |0...0>, takes ``schedule.num_ramp_steps`` midpoint steps
    and records observables, instantaneous energy and fidelity to the
    instantaneous ground state at the start and after each step; with
    ``records`` false nothing is recorded.  A degenerate instantaneous
    ground level is recorded as a metadata warning, not an error.

    Every operator of the ramp, h0 (s = 0) and each step's, is known
    before the first step, so their spectra come from one stacked
    computation (``ramp_spectra``), and each energy combines per-word
    expectation values with that step's coefficient row.
    """
    if h0.num_qubits != h1.num_qubits:
        raise DomainError(
            f"operators act on different registers: {h0.num_qubits} vs {h1.num_qubits}"
        )
    observables = dict(observables or {})
    _check_observables(observables, h0.num_qubits)
    n = h0.num_qubits
    state = basis_state(n, 0)
    trajectory = Trajectory(
        metadata={
            "mode": mode.value,
            "schedule": {
                "total_time": schedule.total_time,
                "dt": schedule.dt,
                "hold_time": schedule.hold_time,
            },
            "interpolation_rule": "midpoint",
            "warnings": [],
        }
    )
    warnings = trajectory.metadata["warnings"]
    s_values = [0.0] + [
        (k + 0.5) * schedule.dt / schedule.total_time for k in range(schedule.num_ramp_steps)
    ]
    words, coeffs = ramp_coefficients(h0, h1, s_values)
    spectra = ramp_spectra(h0, h1, s_values)
    for k, (s_k, row, spectrum) in enumerate(zip(s_values, coeffs, spectra)):
        if k == 0:
            if spectrum.degenerate:
                warnings.append("degenerate ground level at s=0")
        else:
            if mode is EvolutionMode.EXACT_STEP:
                amplitudes = apply_evolution(spectrum, schedule.dt, state.amplitudes)
                state = StateVector(n, amplitudes)
            else:
                state = evolve_step(state, interpolate(h0, h1, s_k), schedule.dt, mode)
            if spectrum.degenerate:
                warnings.append(
                    f"degenerate instantaneous ground level at step {k - 1} (s={s_k!r})"
                )
        if records:
            _record(
                trajectory,
                k * schedule.dt,
                state,
                weighted_expectation(state, row.tolist(), words),
                observables,
                spectrum.ground_state,
                record_snapshots,
            )
    return state, trajectory


def run_hold(
    state: StateVector,
    h: PauliSum,
    schedule: Schedule,
    mode: EvolutionMode,
    observables: Mapping[str, PauliSum] | None = None,
    record_snapshots: bool = False,
    start_time: float = 0.0,
    include_initial: bool = False,
    fidelity_target: StateVector | None = None,
    spectrum: Spectrum | None = None,
) -> tuple[StateVector, Trajectory]:
    """Evolve under a fixed operator for ``schedule.hold_time``.

    Record times are offset by ``start_time`` so a hold can continue a
    ramp trajectory.  Fidelity is taken against ``fidelity_target`` when
    given, otherwise against the ground state of ``h``.  ``spectrum``
    must be the caller's ``exact_diagonalize(h)``, since only its size is
    checked; without it ``h`` is diagonalized here, at most once, and
    only when needed.  Every exact
    hold step is applied from that one spectrum.
    """
    observables = dict(observables or {})
    _check_observables(observables, state.num_qubits)
    if h.num_qubits != state.num_qubits:
        raise DomainError(
            f"operator acts on {h.num_qubits} qubit(s), state has {state.num_qubits}"
        )
    trajectory = Trajectory(
        metadata={"mode": mode.value, "hold_time": schedule.hold_time, "warnings": []}
    )
    exact = mode is EvolutionMode.EXACT_STEP and schedule.num_hold_steps > 0
    if spectrum is None and (fidelity_target is None or exact):
        spectrum = exact_diagonalize(h)
    if fidelity_target is None:
        if spectrum.degenerate:
            trajectory.metadata["warnings"].append(
                "ground level of the held operator is degenerate"
            )
        fidelity_target = spectrum.ground_state
    if include_initial:
        _record(
            trajectory,
            start_time,
            state,
            expectation_observable(state, h),
            observables,
            fidelity_target,
            record_snapshots,
        )
    for j in range(schedule.num_hold_steps):
        state = evolve_step(state, h, schedule.dt, mode, spectrum)
        _record(
            trajectory,
            start_time + (j + 1) * schedule.dt,
            state,
            expectation_observable(state, h),
            observables,
            fidelity_target,
            record_snapshots,
        )
    return state, trajectory
