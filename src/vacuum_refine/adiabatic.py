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
operator on its own, and both step modes read each step's coefficient
row, so no operator is built per step.

The step loops of ``run_adiabatic`` and ``run_hold`` only advance
amplitudes.  Each recorded state is copied into a (rows, d) block of at
most ``_STACK_ENTRIES`` amplitudes, and each block is read out with
stacked calls: the norm check, one ``apply_word`` per word for the
energies and observables, and the overlaps with the rows' fidelity
targets.  Each value is bit-identical to reading out the state alone.
With ``record_states`` the trajectory keeps the recorded amplitudes as
one (records, d) stack, from which shot-mode estimates are drawn.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .errors import DomainError
from .hamiltonian import (
    PauliSum,
    Spectrum,
    apply_evolution,
    exact_diagonalize,
    ramp_coefficients,
    ramp_spectra,
)
from .pauli import PauliWord, apply_word
from .statevector import (
    _STACK_ENTRIES,
    StateVector,
    _coefficient_row,
    basis_state,
    check_normalized,
    expectations,
    fidelities,
)

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


@dataclass
class Trajectory:
    """Time-ordered records plus run metadata (warnings, schedule echo).

    ``states`` holds the amplitudes of the recorded states, one row per
    record, when the run was asked to keep them, and is None otherwise.
    """

    records: list[TrajectoryRecord] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)
    states: np.ndarray | None = None

    def append(self, record: TrajectoryRecord) -> None:
        if self.records and record.t <= self.records[-1].t:
            raise DomainError(
                f"record times must increase, got {record.t} after {self.records[-1].t}"
            )
        self.records.append(record)


def _split_rank(word: PauliWord) -> int:
    """Z-type words (I and Z letters) first, then X-type, then the rest."""
    if word.x_mask == 0:
        return 0
    if word.z_mask == 0:
        return 1
    return 2


def _trotter_order(words: Sequence[PauliWord]) -> list[int]:
    """Term indices in splitting order; words given sorted by string stay so within a class."""
    return sorted(range(len(words)), key=lambda t: _split_rank(words[t]))


def _advance(
    amplitudes: np.ndarray,
    mode: EvolutionMode,
    dt: float,
    spectrum: Spectrum | None,
    words: Sequence[PauliWord],
    coeffs: np.ndarray,
    order: Sequence[int],
) -> np.ndarray:
    """One step of duration ``dt`` under sum_t coeffs[t] * words[t], as new amplitudes.

    ``exact_step`` applies exp(-i h dt) from ``spectrum``; ``trotter1``
    applies exp(-i c_t P_t dt) = cos(c_t dt) - i sin(c_t dt) P_t for each
    word in ``order``, skipping exact-zero coefficients.
    """
    if mode is EvolutionMode.EXACT_STEP:
        return apply_evolution(spectrum, dt, amplitudes)
    if mode is EvolutionMode.TROTTER1:
        for t in order:
            if coeffs[t] != 0.0:
                angle = coeffs[t] * dt
                amplitudes = np.cos(angle) * amplitudes - 1j * np.sin(angle) * apply_word(
                    words[t], amplitudes
                )
        return amplitudes
    raise DomainError(f"unsupported evolution mode {mode!r}")


def evolve_step(
    state: StateVector,
    h: PauliSum,
    dt: float,
    mode: EvolutionMode,
    spectrum: Spectrum | None = None,
) -> StateVector:
    """Advance the state by one step of duration ``dt`` under a fixed operator.

    In ``exact_step`` mode the step is applied from ``spectrum``, which
    must be ``exact_diagonalize(h)``: only its size is checked here, and
    a missing one is refused.  ``trotter1`` mode ignores it.
    """
    if h.num_qubits != state.num_qubits:
        raise DomainError(
            f"operator acts on {h.num_qubits} qubit(s), state has {state.num_qubits}"
        )
    if dt <= 0:
        raise DomainError(f"dt must be positive, got {dt!r}")
    if mode is EvolutionMode.EXACT_STEP and spectrum is None:
        raise DomainError("an exact step needs the spectrum of its operator")
    coeffs = _coefficient_row(h)[0]
    amplitudes = _advance(
        state.amplitudes, mode, dt, spectrum, h.words, coeffs, _trotter_order(h.words)
    )
    return StateVector(state.num_qubits, amplitudes)


class _Recorder:
    """Turns ``count`` recorded states into trajectory records, a block of rows at a time.

    ``add`` copies a state, its energy coefficient row and its fidelity
    target into the current block.  A full block is read out with stacked
    calls: the norm check of every row, each observable, the energies,
    and the fidelities, clamped to 1.

    A block has as many rows as a stack of ramp spectra has matrices
    (``_STACK_ENTRIES`` // d^2, at least one), and never more than the
    records still to come, so it holds at most ``_STACK_ENTRIES``
    amplitudes.  At one qubit that is 16384 states, a whole shipped run;
    from 8 qubits on a block is one state, read out before the next
    spectrum is computed, so recording adds nothing to the ramp's peak
    memory.
    """

    def __init__(
        self,
        trajectory: Trajectory,
        count: int,
        num_qubits: int,
        energy_words: Sequence[PauliWord],
        observables: Mapping[str, PauliSum],
        keep_states: bool,
    ):
        self.trajectory = trajectory
        self.remaining = count
        self.dim = 2**num_qubits
        self.energy_words = energy_words
        self.observables = {
            name: (_coefficient_row(obs), obs.words) for name, obs in observables.items()
        }
        self.kept: list[np.ndarray] | None = [] if keep_states else None
        self._new_block()

    def _new_block(self) -> None:
        rows = min(self.remaining, max(1, _STACK_ENTRIES // self.dim**2))
        self.times: list[float] = []
        self.states = np.empty((rows, self.dim), dtype=np.complex128)
        self.targets = np.empty((rows, self.dim), dtype=np.complex128)
        self.energy = np.empty((rows, len(self.energy_words)))

    def add(self, t: float, amplitudes: np.ndarray, energy_coeffs: np.ndarray, target: np.ndarray) -> None:
        row = len(self.times)
        self.times.append(t)
        self.states[row] = amplitudes
        self.energy[row] = energy_coeffs
        self.targets[row] = target
        self.remaining -= 1
        if row + 1 == len(self.states):
            self._flush()
            self._new_block()

    def _flush(self) -> None:
        states = self.states
        check_normalized(states)
        columns = {
            name: expectations(states, coeffs, words).tolist()
            for name, (coeffs, words) in self.observables.items()
        }
        energies = expectations(states, self.energy, self.energy_words).tolist()
        overlaps = fidelities(states, self.targets)
        for row, t in enumerate(self.times):
            values = {name: column[row] for name, column in columns.items()}
            values[_ENERGY_KEY] = energies[row]
            self.trajectory.append(TrajectoryRecord(t, values, min(overlaps[row], 1.0)))
        if self.kept is not None:
            self.kept.append(states)

    def finish(self) -> None:
        """Hand the recorded states to the trajectory, if they are kept."""
        if self.kept is not None:
            self.trajectory.states = np.concatenate(self.kept or [self.states])


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
    record_states: bool = False,
    records: bool = True,
) -> tuple[StateVector, Trajectory]:
    """Ramp from the preparation operator to the target operator.

    Starts from |0...0>, takes ``schedule.num_ramp_steps`` midpoint steps
    and records observables, instantaneous energy and fidelity to the
    instantaneous ground state at the start and after each step; with
    ``records`` false nothing is recorded, and with ``record_states`` the
    trajectory keeps the recorded amplitudes.  A degenerate instantaneous
    ground level is recorded as a metadata warning, not an error.

    Every operator of the ramp, h0 (s = 0) and each step's, is known
    before the first step, so their spectra come from one stacked
    computation (``ramp_spectra``), and both step modes and the energies
    read the same (steps x words) coefficient array.  The step loop only
    advances amplitudes; the records are read out in blocks (``_Recorder``).
    """
    if h0.num_qubits != h1.num_qubits:
        raise DomainError(
            f"operators act on different registers: {h0.num_qubits} vs {h1.num_qubits}"
        )
    observables = dict(observables or {})
    _check_observables(observables, h0.num_qubits)
    n = h0.num_qubits
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
    order = _trotter_order(words)
    recorder = None
    if records:
        recorder = _Recorder(trajectory, len(s_values), n, words, observables, record_states)
    amplitudes = basis_state(n, 0).amplitudes
    for k, (s_k, row, spectrum) in enumerate(zip(s_values, coeffs, spectra)):
        if k == 0:
            if spectrum.degenerate:
                warnings.append("degenerate ground level at s=0")
        else:
            amplitudes = _advance(amplitudes, mode, schedule.dt, spectrum, words, row, order)
            if spectrum.degenerate:
                warnings.append(
                    f"degenerate instantaneous ground level at step {k - 1} (s={s_k!r})"
                )
        if recorder is not None:
            recorder.add(k * schedule.dt, amplitudes, row, spectrum.eigenvectors[:, 0])
    if recorder is not None:
        recorder.finish()
    return StateVector(n, amplitudes), trajectory


def run_hold(
    state: StateVector,
    h: PauliSum,
    schedule: Schedule,
    mode: EvolutionMode,
    observables: Mapping[str, PauliSum] | None = None,
    record_states: bool = False,
    start_time: float = 0.0,
    include_initial: bool = False,
    fidelity_target: StateVector | None = None,
    spectrum: Spectrum | None = None,
) -> tuple[StateVector, Trajectory]:
    """Evolve under a fixed operator for ``schedule.hold_time``.

    Record times are offset by ``start_time`` so a hold can continue a
    ramp trajectory.  Fidelity is taken against ``fidelity_target`` when
    given, otherwise against the ground state of ``h``.  ``spectrum``
    must be ``exact_diagonalize(h)``, since only its size is checked.
    Without it ``h`` is diagonalized here, once, and only when exact
    steps or the fidelity target need it: an operator that exists only
    for the hold, such as an ancilla-embedded one, has no spectrum
    elsewhere.  Every exact hold step is applied from that one spectrum;
    as on the ramp, the step loop only advances amplitudes and the
    records are read out in blocks.
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
    coeffs = _coefficient_row(h)[0]
    order = _trotter_order(h.words)
    recorder = _Recorder(
        trajectory,
        schedule.num_hold_steps + include_initial,
        state.num_qubits,
        h.words,
        observables,
        record_states,
    )
    target = fidelity_target.amplitudes
    amplitudes = state.amplitudes
    if include_initial:
        recorder.add(start_time, amplitudes, coeffs, target)
    for j in range(schedule.num_hold_steps):
        amplitudes = _advance(amplitudes, mode, schedule.dt, spectrum, h.words, coeffs, order)
        recorder.add(start_time + (j + 1) * schedule.dt, amplitudes, coeffs, target)
    recorder.finish()
    return StateVector(state.num_qubits, amplitudes), trajectory
