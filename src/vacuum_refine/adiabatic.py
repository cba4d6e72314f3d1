"""Discrete-time evolution under slowly interpolated Hamiltonians.

The total ramp time T is split into N = T / dt equal steps.  Step k
evolves under the interpolated operator frozen at the midpoint parameter
s_k = (k + 1/2) * dt / T, which keeps the discretization error of the
schedule at second order in dt.  Steps themselves are taken either
exactly, by applying exp(-i * h * dt) to the state, or with a
first-order splitting that applies Z-type factors before X-type factors,
lexicographically within each class (``pauli.split_order``).

Every ramp operator is known before the first step, so ``run_adiabatic``
writes them all as one (steps x words) coefficient array
(``ramp_coefficients``) and takes their spectra stack by stack
(``_ramp_stacks``, the one walk of the ramp's stacks).  Each stack is
held as its operators' X-group entries (``hamiltonian._GroupedStack``,
the one dense build), with the Hermiticity guard vectorized over it.
The stacks are built one after another as the ramp consumes them, so
one is held at a time.  Up to 6 qubits each stack is at most
``_STACK_ENTRIES`` matrix entries; its matrices are written as one
stack and diagonalized, one ``eigh`` per stack with the orthonormality
and residual guards vectorized over it.  From ``_CHEBYSHEV_QUBITS`` (7)
qubits on, a ramp record needs only the two lowest levels (gap,
degeneracy warning) and the ground vector (fidelity target), and an
exact step only exp(-i h dt) psi, so a stack holds as many operators as
fit their X-group entries in ``_STACK_ENTRIES`` (28 on the 8-qubit
chains), bounds all their spectra from above at once and builds each
matrix in turn in one buffer, where it gets E0, E1 and its ground
vector by block Lanczos, warm-started from the operator before
(``chebyshev._lowest_levels``).
Both step modes read each step's coefficient row against the one word
table, so no operator is built per step.

The ramp and the hold work a block of states at a time.  For each stack
of the ramp one comparison gives every step's degeneracy flag.  Up to 6
qubits one ``np.exp`` gives every step's phases, and the step loop
writes each new state straight into its row of the block's (rows, d)
array.  Up to ``_STEP_MATRIX_QUBITS`` (3) qubits, where a step's few
products cost less than the calls that make them, the stack's row-form
step propagators M_k = V_k^* diag(e^{-i E_k dt}) V_k^T are built at once
in batched products (``_step_matrices``), as many entries as the
eigenvectors, and each step is one ``dot`` with M_k.  From 4 qubits a
step applies the propagator kernel (``_propagate``: one ``dot`` with
V^*, one in-place phase multiplication, one ``dot`` with V^T), whose 2
d^2 a step beat the d^3 of building M_k; its complex operands are cast
once per slice of the stack (``_operands``), within the stack's entry
budget or one matrix at a time.  From 7 qubits the step loop walks the
stack's operators instead, their matrices rebuilt in the stack's
buffer, and each step is a Chebyshev expansion of exp(-i h dt) between
the operator's E0 and its upper bound (``chebyshev._chebyshev_stack``:
one product with the matrix per term, about 15 terms a step on the
8-qubit chains at dt = 1/8), which keeps the norm to the unitarity
tolerance.
The stack is released before the next one is computed.  An exact hold
is not stepped: under one operator exp(-i h t) psi =
V (exp(-i E t) * V^H psi) for any t, so with c = V^H psi taken once,
each block of records is one phase array over the records' elapsed
times and one batched product with V^T, cast once for the hold, and a
record's bits do not depend on the block size.  A ``trotter1`` hold
steps.  Each block is read out with stacked calls (``_Recorder``): the
norm check, ``expectations`` for the energies (one ``apply_words`` per
chunk of words), the overlaps with the fidelity targets and the
time-order check of its records.  The values go straight into the
trajectory's columns (``Trajectory``: times, energies and fidelities),
with no object built per record, and the recorded amplitudes are kept as
one (records, d) stack, ``Trajectory.states``, from which every other
observable is read.  Each value is bit-identical to reading out the
state alone, and each ramp state to stepping it alone.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from . import statevector
from .counters import _Counters
from .errors import DomainError
from .hamiltonian import (
    DEGENERACY_TOL,
    PauliSum,
    Spectrum,
    _GroupedStack,
    _check_spectrum_dim,
    _conjugated,
    _diagonalize_stack,
    _operands,
    _propagate,
    _real_rows,
    _refuse_dense,
    _step_matrices,
    _transposed,
    apply_evolution,
    ramp_coefficients,
)
from .pauli import apply_words, split_order, x_masks
from .statevector import (
    StateVector,
    basis_state,
    check_normalized,
    expectations,
    fidelities,
)

_GRID_ATOL = 1e-9
# From this many qubits on, a ramp operator is not diagonalized: its two
# lowest levels and ground vector (block Lanczos), an upper bound on its
# spectrum and its matrix serve its records and its Chebyshev step.
# Measured on the seed-7 chains (T = 4, dt = 1/8, minima of 15 in-process
# ramps), the Chebyshev ramp loses to the eigenvector ramp at 4-6 qubits
# (27 against 14-20 ms at 6), wins at 7 (41 against 49 ms on one BLAS
# thread, 74 ms by default; 54-56 ms while each operator was built, bound
# and read out alone) and wins by half from 8 on.
_CHEBYSHEV_QUBITS = 7
# Up to this many qubits, an exact ramp step is one product with its
# prebuilt row-form propagator; above, the three-call kernel
# (``_step_stack``).  Measured on one ramp stack, stepped whole (minima
# of 200 runs, 2-vCPU host): the shipped one-qubit ramp (864 steps)
# 1.51 -> 0.68 ms; 32 steps of the seed-7 chains at dt = 1/8, 0.070 ->
# 0.045 ms at 2 qubits, 0.077 -> 0.055 ms at 3 and 0.094 -> 0.097 ms at
# 4, and 16 steps at 6 qubits 0.92 -> 1.37 ms.
_STEP_MATRIX_QUBITS = 3


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


@dataclass
class Trajectory:
    """Time-ordered records, as columns, plus what the run noticed.

    Record r is ``times[r]``, ``energy[r]``, the energy under the
    operator it evolved by, and ``fidelity[r]``; every value is a Python
    float.  ``states`` holds the amplitudes of the recorded states, one
    row per record, from which any observable is read, and is None when
    the run recorded nothing.  ``warnings`` lists the degenerate ground
    levels met on the way.
    """

    times: list[float] = field(default_factory=list)
    energy: list[float] = field(default_factory=list)
    fidelity: list[float] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    states: np.ndarray | None = None

    def extend(
        self, times: Sequence[float], energy: Sequence[float], fidelity: Sequence[float]
    ) -> None:
        """Append records, refusing them unless every time exceeds the one before.

        The times are compared as one array, the last time already held
        included; a NaN time is refused.  Every column must hold one value
        per time, and a refused block appends nothing.
        """
        if len(energy) != len(times) or len(fidelity) != len(times):
            raise DomainError(f"each column needs one value per time, {len(times)} in all")
        stamps = np.array(self.times[-1:] + list(times))
        later = stamps[1:] > stamps[:-1]
        if not later.all():
            bad = int(np.argmin(later))
            raise DomainError(
                f"record times must increase, got {stamps[bad + 1]} after {stamps[bad]}"
            )
        self.times.extend(times)
        self.energy.extend(energy)
        self.fidelity.extend(fidelity)


def _trotter_step(
    amplitudes: np.ndarray,
    dt: float,
    words: np.ndarray,
    coeffs: np.ndarray,
    order: Sequence[int],
) -> np.ndarray:
    """One ``trotter1`` step of duration ``dt`` under sum_t coeffs[t] * words[t].

    Applies exp(-i c_t P_t dt) = cos(c_t dt) - i sin(c_t dt) P_t for each
    word of the table in ``order`` (``pauli.split_order``), skipping
    exact-zero coefficients.
    """
    for t in order:
        if coeffs[t] != 0.0:
            angle = coeffs[t] * dt
            applied = apply_words(words[t : t + 1], amplitudes)[0]
            amplitudes = np.cos(angle) * amplitudes - 1j * np.sin(angle) * applied
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
        order = split_order(h.words)
        amplitudes = _trotter_step(state.amplitudes, dt, h.words, h.coeffs[0], order)
    else:
        raise DomainError(f"unsupported evolution mode {mode!r}")
    return StateVector(state.num_qubits, amplitudes)


class _Recorder:
    """Turns blocks of recorded states into the trajectory's columns.

    ``read`` takes a (rows, d) block of states with their record times,
    their energy coefficient rows and their fidelity targets; a block
    whose states share one operator passes one (1, words) row and one
    (1, d) target.  The block is read out with stacked calls: the norm
    check of every row, the energies, the fidelities, clamped to 1, and
    the time-order check of its times; their values are appended to the
    columns, no per-record object is built, and the block is kept.
    ``finish`` hands the kept blocks to the trajectory as one stack.

    The caller sizes the blocks.  A ramp block is one stack of ramp
    operators (``_ramp_stacks``), read out before the next stack is
    computed, and a hold block holds at most ``_STACK_ENTRIES``
    amplitudes (at least one state).  At one qubit the whole shipped ramp
    is one block; the 8-qubit benchmark ramp is two, of 28 and 5 states,
    and its hold one.  The readout gathers a few words and rows at a time
    (``statevector.word_overlaps``), so recording adds less to the peak
    memory than the stack does.
    """

    def __init__(self, trajectory: Trajectory, dim: int, energy_words: np.ndarray):
        self.trajectory = trajectory
        self.dim = dim
        self.energy_words = energy_words
        self.kept: list[np.ndarray] = []

    def read(
        self,
        times: Sequence[float],
        states: np.ndarray,
        energy_coeffs: np.ndarray,
        targets: np.ndarray,
    ) -> None:
        check_normalized(states)
        energy = expectations(states, energy_coeffs, self.energy_words).tolist()
        clamped = [min(f, 1.0) for f in fidelities(states, targets)]
        self.trajectory.extend(times, energy, clamped)
        self.kept.append(states)

    def finish(self) -> None:
        """Hand the recorded states to the trajectory as one (records, d) stack."""
        self.trajectory.states = np.concatenate(
            self.kept or [np.empty((0, self.dim), dtype=np.complex128)]
        )


def _step_stack(
    vectors: np.ndarray, phases: np.ndarray, states: np.ndarray, amplitudes: np.ndarray
) -> np.ndarray:
    """Step ``amplitudes`` through a stack's eigenvectors and phases, into the rows of ``states``.

    Step k applies V_k (phases_k * (V_k^H x)) to the row before it and
    writes row k.  Up to ``_STEP_MATRIX_QUBITS`` qubits every step's
    row-form propagator M_k = V_k^* diag(phases_k) V_k^T is built at
    once (``_step_matrices``: batched products, as many entries as the
    eigenvectors) and a step is one ``dot`` with M_k.  Above, building
    M_k costs d^3 a step against the kernel's 2 d^2, so a step is the
    kernel (``_propagate``), its operands cast once per slice of the
    stack (``_operands``).  Returns the last row; no reference to the
    stack outlives the call.
    """
    if vectors.shape[-1] <= 2**_STEP_MATRIX_QUBITS:
        for matrix, row in zip(_step_matrices(vectors, phases), states):
            amplitudes = amplitudes.dot(matrix, out=row)
        return amplitudes
    for operands, step_phases, row in zip(_operands(vectors), phases, states):
        amplitudes = _propagate(operands, step_phases, amplitudes, out=row)
    return amplitudes


def _ramp_stacks(
    num_qubits: int, words: np.ndarray, coeffs: np.ndarray, counters: _Counters | None
) -> Iterator[tuple[int, np.ndarray, np.ndarray, _GroupedStack]]:
    """(first row, values, vectors, grouped stack) of each stack of rows of ``coeffs``.

    A stack holds consecutive rows of one dtype (``_real_rows``), held as
    their X-group entries (``_GroupedStack``).  Below
    ``_CHEBYSHEV_QUBITS`` qubits a stack is at most ``_STACK_ENTRIES``
    matrix entries or one matrix; its matrices are built as one (k, d, d)
    stack and diagonalized (``_diagonalize_stack``), which yields (k, d)
    eigenvalues and (k, d, d) eigenvectors.  From ``_CHEBYSHEV_QUBITS``
    qubits on a stack is as many rows as fit their X-group entries
    (k G d for G X masks) in ``_STACK_ENTRIES``, or one, and yields
    (k, 3) rows [E0, E1, upper] and the (k, d, 1) ground vectors
    (``chebyshev._lowest_levels``), each operator warm-started from the
    one before; the caller steps with the stack's matrices.  Either way
    columns 0 and 1 of the values are the two lowest levels and column 0
    of the vectors the ground vector.

    The stacks are built as they are consumed, so at most one is held at
    a time.  Each is added to ``counters``, when given, as it is yielded:
    the bytes of its matrices (of its one buffer, from
    ``_CHEBYSHEV_QUBITS`` qubits on), and the number and summed d^3 of
    those diagonalized.
    """
    chebyshev = num_qubits >= _CHEBYSHEV_QUBITS
    if chebyshev:
        # imported here: only the ramps of 7 qubits and more need it
        from .chebyshev import _lowest_levels
    real = _real_rows(words, coeffs).tolist()
    # the entries a row takes: its X groups' or its matrix's
    row = len(x_masks(words)) * 2**num_qubits if chebyshev else 4**num_qubits
    chunk = max(1, statevector._STACK_ENTRIES // row)
    # runs of rows of one dtype, each split every ``chunk`` rows
    bounds = [0, *(np.flatnonzero(np.diff(real)) + 1).tolist(), len(coeffs)]
    starts = [start for run in zip(bounds, bounds[1:]) for start in range(*run, chunk)]
    warm = None  # from the operator before
    for start, stop in zip(starts, starts[1:] + [len(coeffs)]):
        stack = _GroupedStack(num_qubits, words, coeffs[start:stop], real[start])
        if chebyshev:
            values, vectors, warm = _lowest_levels(stack, warm, counters)
        else:
            values, vectors = _diagonalize_stack(stack.matrices())
        if counters is not None:
            built = 1 if chebyshev else stop - start  # one buffer, or every matrix
            counters.dense_bytes += built * 4**num_qubits * stack.entries.itemsize
            if not chebyshev:
                counters.matrices_diagonalized += built
                counters.diagonalized_d3 += built * 8**num_qubits
        yield start, values, vectors, stack
        # the consumer's references are then the last ones, so the
        # stack is freed before the next one is built
        del stack, values, vectors


def run_adiabatic(
    h0: PauliSum,
    h1: PauliSum,
    schedule: Schedule,
    mode: EvolutionMode,
    records: bool = True,
    counters: _Counters | None = None,
) -> tuple[StateVector, Trajectory]:
    """Ramp from the preparation operator to the target operator.

    Starts from |0...0>, takes ``schedule.num_ramp_steps`` midpoint steps
    and records the state, its instantaneous energy and its fidelity to
    the instantaneous ground state at the start and after each step; with
    ``records`` false nothing is recorded.  A degenerate instantaneous
    ground level is recorded as a trajectory warning, not an error.

    Every operator of the ramp, h0 (s = 0) and each step's, is known
    before the first step, so both step modes and the energies read one
    (steps x words) coefficient array, and the spectra come stack by
    stack from it (``_ramp_stacks``).  Up to 6 qubits they are full
    eigendecompositions and an exact step applies its operator's
    eigenvectors; from ``_CHEBYSHEV_QUBITS`` qubits on they are the rows
    [E0, E1, upper] (block Lanczos and a Gershgorin bound) and the ground
    vector of each operator, with the stack's grouped operators, and an
    exact step is a Chebyshev expansion between E0 and upper
    (``chebyshev._chebyshev_stack``).  Either way the gaps, degeneracy
    warnings and fidelity targets come from the first two values and the
    ground vectors, in both step modes.  Each stack's degeneracy
    flags are taken at once, the step loop only advances amplitudes into
    the stack's block of states, and the block is read out at once
    (``_Recorder``).  ``counters``, when given, count the matrices built
    and diagonalized, the block products and checks, the steps and the
    Chebyshev terms, and note the
    smallest gap between the two lowest levels of any ramp operator, with
    its s.
    """
    n = h0.num_qubits
    trajectory = Trajectory()
    dt = schedule.dt
    s_values = [0.0] + [
        (k + 0.5) * dt / schedule.total_time for k in range(schedule.num_ramp_steps)
    ]
    words, coeffs = ramp_coefficients(h0, h1, s_values)
    exact = mode is EvolutionMode.EXACT_STEP
    order = split_order(words)
    recorder = _Recorder(trajectory, 2**n, words) if records else None
    # a register above the dense cap is refused before |0...0> exists
    _refuse_dense(n)
    chebyshev = n >= _CHEBYSHEV_QUBITS
    if chebyshev:
        # imported here: only the ramps of 7 qubits and more need it
        from .chebyshev import _chebyshev_stack
    amplitudes = basis_state(n, 0).amplitudes
    for start, values, vectors, stack in _ramp_stacks(n, words, coeffs, counters):
        stop = start + len(values)
        states = np.empty((len(values), 2**n), dtype=np.complex128)
        # row 0 of the first stack is the initial state; every other row
        # is one step from the row before it
        first = 1 if start == 0 else 0
        if first:
            states[0] = amplitudes
        if exact and chebyshev:
            amplitudes = _chebyshev_stack(stack, values, dt, states, amplitudes, first, counters)
        elif exact:
            phases = np.exp(-1j * values[first:] * dt)
            amplitudes = _step_stack(vectors[first:], phases, states[first:], amplitudes)
        else:
            for row, k in zip(states[first:], range(start + first, stop)):
                amplitudes = _trotter_step(amplitudes, dt, words, coeffs[k], order)
                row[:] = amplitudes
        gaps = values[:, 1] - values[:, 0]
        degenerate = gaps < DEGENERACY_TOL
        for k in (start + np.flatnonzero(degenerate)).tolist():
            trajectory.warnings.append(
                f"degenerate instantaneous ground level at step {k - 1} (s={s_values[k]!r})"
                if k
                else "degenerate ground level at s=0"
            )
        if counters is not None:
            k = int(np.argmin(gaps))
            counters.note_gap(float(gaps[k]), s_values[start + k])
        if recorder is not None:
            times = [k * dt for k in range(start, stop)]
            targets = np.ascontiguousarray(vectors[:, :, 0])
            recorder.read(times, states, coeffs[start:stop], targets)
        del values, vectors, stack  # free before the next stack is built
    if counters is not None:
        counters.steps += schedule.num_ramp_steps
    if recorder is not None:
        recorder.finish()
    # the last step wrote into a row of a block, which the recorder keeps
    return StateVector(n, amplitudes.copy()), trajectory


def run_hold(
    state: StateVector,
    h: PauliSum,
    schedule: Schedule,
    mode: EvolutionMode,
    spectrum: Spectrum,
    include_initial: bool = False,
    counters: _Counters | None = None,
) -> tuple[StateVector, Trajectory]:
    """Evolve under a fixed operator for ``schedule.hold_time``, after the ramp.

    A state wider than ``h`` holds under I (x) h: its leading qubits are
    ancillas that the hold leaves alone, as an n-qubit word table acts on
    the trailing n qubits (``pauli.apply_words``); a narrower state is
    refused.  Record times continue the ramp's, from
    ``schedule.total_time``.  Fidelity is taken against |0...0> (x) |E0>,
    the ground state of ``h`` when there are no ancillas.  ``spectrum``
    must be ``exact_diagonalize(h)``; only its size is checked.

    An exact hold is not stepped.  With c = V^H psi taken once from that
    spectrum for each ancilla row, the record j steps in is
    exp(-i h j dt) psi = V (exp(-i E j dt) * c), exact for any j.  Each
    block of records is one phase array and one batched (records, rows,
    d) product with V^T, so a row's bits do not depend on the block size.
    The initial record, with ``include_initial``, is ``state`` itself.
    A ``trotter1`` hold steps as the ramp does.  Each block is read out
    at once; ``counters`` count the steps.
    """
    if h.num_qubits > state.num_qubits:
        raise DomainError(
            f"operator acts on {h.num_qubits} qubit(s), state has {state.num_qubits}"
        )
    _check_spectrum_dim(spectrum, 2**h.num_qubits)
    trajectory = Trajectory()
    dt = schedule.dt
    dim = 2**state.num_qubits
    if spectrum.degenerate:
        trajectory.warnings.append("ground level of the held operator is degenerate")
    # |0...0> (x) |E0>
    target = np.pad(spectrum.ground_state.amplitudes, (0, dim - spectrum.dim))[np.newaxis]
    exact = mode is EvolutionMode.EXACT_STEP and schedule.num_hold_steps > 0
    if exact:
        # c = V^H psi of each ancilla row; V^T, cast once, serves every block
        rows = state.amplitudes.reshape(-1, spectrum.dim)
        overlaps = rows.dot(_conjugated(spectrum.eigenvectors))
        transposed = _transposed(spectrum.eigenvectors)
        exponents = -1j * spectrum.eigenvalues
    order = split_order(h.words)
    recorder = _Recorder(trajectory, dim, h.words)
    # record r holds the state after steps[r] steps of dt
    steps = list(range(1 - include_initial, schedule.num_hold_steps + 1))
    times = [schedule.total_time + j * dt for j in steps]
    block = max(1, statevector._STACK_ENTRIES // dim)
    amplitudes = state.amplitudes
    for start in range(0, len(steps), block):
        part = steps[start : start + block]
        if exact:
            phases = np.exp(np.multiply.outer(np.multiply(part, dt), exponents))
            phases = phases[:, np.newaxis] * overlaps
            states = np.matmul(phases, transposed).reshape(len(part), dim)
            if part[0] == 0:
                states[0] = state.amplitudes  # the initial record is the state itself
        else:
            states = np.empty((len(part), dim), dtype=np.complex128)
            for r, j in enumerate(part):
                if j:
                    amplitudes = _trotter_step(amplitudes, dt, h.words, h.coeffs[0], order)
                states[r] = amplitudes
        recorder.read(times[start : start + len(part)], states, h.coeffs, target)
    if exact:
        amplitudes = states[-1].copy()
    recorder.finish()
    if counters is not None:
        counters.steps += schedule.num_hold_steps
    return StateVector(state.num_qubits, amplitudes), trajectory
