"""Discrete-time evolution under slowly interpolated Hamiltonians.

The total ramp time T is split into N = T / dt equal steps.  Step k
evolves under the interpolated operator frozen at the midpoint parameter
s_k = (k + 1/2) * dt / T, which keeps the discretization error of the
schedule at second order in dt.  Steps themselves are taken either
exactly, by applying exp(-i * h * dt) straight from the step operator's
eigendecomposition, or with a first-order splitting that applies Z-type
factors before X-type factors, lexicographically within each class.

Every ramp operator is known before the first step, so ``run_adiabatic``
writes them all as one (steps x words) coefficient array
(``ramp_coefficients``) and takes their eigendecompositions stack by
stack: dense matrices built as a stack, one ``eigh`` per stack and the
Hermiticity, orthonormality and residual guards vectorized over it.  The
stacks are diagonalized on up to one thread per core of the process's
affinity at once, as many as a fixed budget of matrix entries in flight
allows, each eigendecomposition on one BLAS thread, and arrive in order
(``_SpectrumStacks``); the trajectory's metadata records how many threads
they used (``diagonalization_workers``).  Both step modes read each step's
coefficient row, so no operator is built per step.

The ramp and the hold work a block of states at a time.  For each stack
of the ramp, one ``np.exp`` gives every step's phases and one comparison
every step's degeneracy flag; the step loop only applies the propagator
kernel (``_propagate``) and writes each new state into the block's
(rows, d) array.  The hold computes its phases once and fills blocks of
the same size.  Each block is read out with stacked calls
(``_Recorder``): the norm check, one ``apply_word`` per word for the
energies and observables, the overlaps with the fidelity targets and the
time-order check of its records.  Each value is bit-identical to stepping
and reading out the state alone.  With ``record_states`` the trajectory
keeps the recorded amplitudes as one (records, d) stack, from which
shot-mode estimates are drawn.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .errors import DomainError
from .hamiltonian import (
    DEGENERACY_TOL,
    PauliSum,
    Spectrum,
    _SpectrumStacks,
    _check_spectrum_dim,
    _propagate,
    apply_evolution,
    exact_diagonalize,
    ramp_coefficients,
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


@dataclass(frozen=True)
class Schedule:
    """Ramp duration, step size and optional fixed-operator hold time."""

    total_time: float
    dt: float
    hold_time: float = 0.0

    def __post_init__(self) -> None:
        for name in ("total_time", "dt", "hold_time"):
            value = getattr(self, name)
            if not np.isfinite(value):
                raise DomainError(f"{name} must be finite, got {value!r}")
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

    def extend(self, records: Sequence[TrajectoryRecord]) -> None:
        """Append records, refusing them unless every time exceeds the one before.

        The times are compared as one array, the last record already held
        included; a NaN time is refused.
        """
        times = np.array([r.t for r in self.records[-1:]] + [r.t for r in records])
        later = times[1:] > times[:-1]
        if not later.all():
            bad = int(np.argmin(later))
            raise DomainError(
                f"record times must increase, got {times[bad + 1]} after {times[bad]}"
            )
        self.records.extend(records)


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


def _trotter_step(
    amplitudes: np.ndarray,
    dt: float,
    words: Sequence[PauliWord],
    coeffs: np.ndarray,
    order: Sequence[int],
) -> np.ndarray:
    """One ``trotter1`` step of duration ``dt`` under sum_t coeffs[t] * words[t].

    Applies exp(-i c_t P_t dt) = cos(c_t dt) - i sin(c_t dt) P_t for each
    word in ``order``, skipping exact-zero coefficients.
    """
    for t in order:
        if coeffs[t] != 0.0:
            angle = coeffs[t] * dt
            amplitudes = np.cos(angle) * amplitudes - 1j * np.sin(angle) * apply_word(
                words[t], amplitudes
            )
    return amplitudes


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
    if mode is EvolutionMode.EXACT_STEP:
        if spectrum is None:
            raise DomainError("an exact step needs the spectrum of its operator")
        amplitudes = apply_evolution(spectrum, dt, state.amplitudes)
    elif mode is EvolutionMode.TROTTER1:
        coeffs = _coefficient_row(h)[0]
        amplitudes = _trotter_step(state.amplitudes, dt, h.words, coeffs, _trotter_order(h.words))
    else:
        raise DomainError(f"unsupported evolution mode {mode!r}")
    return StateVector(state.num_qubits, amplitudes)


class _Recorder:
    """Turns blocks of recorded states into trajectory records.

    ``read`` takes a (rows, d) block of states with their record times,
    their energy coefficient rows and their fidelity targets; a block
    whose states share one operator passes one (1, words) row and one
    (1, d) target.  The block is read out with stacked calls: the norm
    check of every row, each observable, the energies, the fidelities,
    clamped to 1, and the time-order check of its records.

    The caller sizes the blocks.  A ramp block is one stack of
    eigendecompositions and a hold block has as many rows as such a
    stack (``_STACK_ENTRIES`` // d^2, at least one), so a block holds at
    most ``_STACK_ENTRIES`` amplitudes.  At one qubit the whole shipped
    ramp is one block; from 8 qubits on a block is one state, read out
    before the next eigendecomposition, so recording adds nothing to the
    ramp's peak memory.
    """

    def __init__(
        self,
        trajectory: Trajectory,
        dim: int,
        energy_words: Sequence[PauliWord],
        observables: Mapping[str, PauliSum],
        keep_states: bool,
    ):
        self.trajectory = trajectory
        self.dim = dim
        self.energy_words = energy_words
        self.observables = {
            name: (_coefficient_row(obs), obs.words) for name, obs in observables.items()
        }
        self.kept: list[np.ndarray] | None = [] if keep_states else None

    def read(
        self,
        times: Sequence[float],
        states: np.ndarray,
        energy_coeffs: np.ndarray,
        targets: np.ndarray,
    ) -> None:
        check_normalized(states)
        columns = {
            name: expectations(states, coeffs, words).tolist()
            for name, (coeffs, words) in self.observables.items()
        }
        energies = expectations(states, energy_coeffs, self.energy_words).tolist()
        overlaps = fidelities(states, targets)
        records = []
        for row, t in enumerate(times):
            values = {name: column[row] for name, column in columns.items()}
            values[_ENERGY_KEY] = energies[row]
            records.append(TrajectoryRecord(t, values, min(overlaps[row], 1.0)))
        self.trajectory.extend(records)
        if self.kept is not None:
            self.kept.append(states)

    def finish(self) -> None:
        """Hand the recorded states to the trajectory, if they are kept."""
        if self.kept is not None:
            self.trajectory.states = np.concatenate(
                self.kept or [np.empty((0, self.dim), dtype=np.complex128)]
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
    before the first step, so both step modes and the energies read one
    (steps x words) coefficient array, and the eigendecompositions come
    stack by stack from it.  Each stack's phases and degeneracy flags are
    taken at once, the step loop only advances amplitudes into the
    stack's block of states, and the block is read out at once
    (``_Recorder``).
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
    dt = schedule.dt
    s_values = [0.0] + [
        (k + 0.5) * dt / schedule.total_time for k in range(schedule.num_ramp_steps)
    ]
    words, coeffs = ramp_coefficients(h0, h1, s_values)
    exact = mode is EvolutionMode.EXACT_STEP
    order = _trotter_order(words)
    recorder = None
    if records:
        recorder = _Recorder(trajectory, 2**n, words, observables, record_states)
    amplitudes = basis_state(n, 0).amplitudes
    stacks = _SpectrumStacks(n, words, coeffs)
    for start, values, vectors in stacks:
        stop = start + len(values)
        if exact:
            phases = np.exp(-1j * values * dt)
        states = np.empty((len(values), 2**n), dtype=np.complex128)
        for r, k in enumerate(range(start, stop)):
            if k:
                if exact:
                    amplitudes = _propagate(vectors[r], phases[r], amplitudes)
                else:
                    amplitudes = _trotter_step(amplitudes, dt, words, coeffs[k], order)
            states[r] = amplitudes
        degenerate = values[:, 1] - values[:, 0] < DEGENERACY_TOL
        for k in (start + np.flatnonzero(degenerate)).tolist():
            warnings.append(
                f"degenerate instantaneous ground level at step {k - 1} (s={s_values[k]!r})"
                if k
                else "degenerate ground level at s=0"
            )
        if recorder is not None:
            times = [k * dt for k in range(start, stop)]
            targets = np.ascontiguousarray(vectors[:, :, 0])
            recorder.read(times, states, coeffs[start:stop], targets)
        del values, vectors  # free before the next stack is diagonalized
    trajectory.metadata["diagonalization_workers"] = stacks.workers
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
    elsewhere.  Every exact hold step is applied from that one spectrum,
    with phases computed once; as on the ramp, the step loop only
    advances amplitudes into a block of states, and each block is read
    out at once.
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
    dt = schedule.dt
    dim = 2**state.num_qubits
    exact = mode is EvolutionMode.EXACT_STEP and schedule.num_hold_steps > 0
    if exact or fidelity_target is None:
        if spectrum is None:
            spectrum = exact_diagonalize(h)
        _check_spectrum_dim(spectrum, dim)
    if fidelity_target is None:
        if spectrum.degenerate:
            trajectory.metadata["warnings"].append(
                "ground level of the held operator is degenerate"
            )
        fidelity_target = spectrum.ground_state
    if exact:
        phases = np.exp(-1j * spectrum.eigenvalues * dt)
    coeffs = _coefficient_row(h)
    order = _trotter_order(h.words)
    recorder = _Recorder(trajectory, dim, h.words, observables, record_states)
    target = fidelity_target.amplitudes[np.newaxis]
    times = [start_time] * include_initial + [
        start_time + (j + 1) * dt for j in range(schedule.num_hold_steps)
    ]
    block = max(1, _STACK_ENTRIES // dim**2)
    amplitudes = state.amplitudes
    for start in range(0, len(times), block):
        states = np.empty((min(block, len(times) - start), dim), dtype=np.complex128)
        for r in range(len(states)):
            if start + r >= include_initial:
                if exact:
                    amplitudes = _propagate(spectrum.eigenvectors, phases, amplitudes)
                else:
                    amplitudes = _trotter_step(amplitudes, dt, h.words, coeffs[0], order)
            states[r] = amplitudes
        recorder.read(times[start : start + len(states)], states, coeffs, target)
    recorder.finish()
    return StateVector(state.num_qubits, amplitudes), trajectory
