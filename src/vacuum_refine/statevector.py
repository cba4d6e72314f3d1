"""Dense statevector simulation for small qubit registers.

Conventions used throughout the package:

* Qubit 0 is the leftmost symbol in ket notation and the most significant
  bit of the amplitude index, so ``|q0 q1 ... q(n-1)>`` lives at index
  ``sum(bit_k * 2**(n-1-k))``.  Reshaping the amplitude vector to
  ``[2] * num_qubits`` therefore puts qubit ``k`` on axis ``k``.
* Multi-qubit gates read their target list the same way: the first listed
  target is the most significant bit of the gate's own matrix index.
* Operations never mutate their inputs; they return new ``StateVector``
  instances.  Amplitude arrays are treated as read-only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from .errors import (
    DomainError,
    ImpossibleOutcomeError,
    NumericalConsistencyError,
    UnitarityError,
)
from .pauli import apply_word, compile_word

if TYPE_CHECKING:
    from .hamiltonian import PauliSum

_NORM_ATOL = 1e-8
_UNITARY_ATOL = 1e-12
_MIN_POSTSELECT_PROB = 1e-12
_IMAG_RESIDUE_LIMIT = 1e-8

PAULI_MATRICES: dict[str, np.ndarray] = {
    "I": np.eye(2, dtype=np.complex128),
    "X": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    "Z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
}


@dataclass(frozen=True, eq=False)
class GateMatrix:
    """A unitary acting on ``arity`` qubits, stored as a dense matrix."""

    arity: int
    entries: np.ndarray

    def __post_init__(self) -> None:
        if not isinstance(self.arity, int) or self.arity < 1:
            raise DomainError(f"gate arity must be a positive integer, got {self.arity!r}")
        entries = np.asarray(self.entries, dtype=np.complex128)
        dim = 2**self.arity
        if entries.shape != (dim, dim):
            raise DomainError(
                f"gate on {self.arity} qubit(s) needs a {dim}x{dim} matrix, got shape {entries.shape}"
            )
        residue = np.max(np.abs(entries.conj().T @ entries - np.eye(dim)))
        if not residue <= _UNITARY_ATOL:
            raise UnitarityError(f"matrix is not unitary (max residue {residue:.3e})")
        object.__setattr__(self, "entries", entries)


def _gate(matrix: Iterable[Iterable[complex]]) -> GateMatrix:
    m = np.asarray(matrix, dtype=np.complex128)
    arity = int(round(np.log2(m.shape[0])))
    return GateMatrix(arity, m)


X = _gate(PAULI_MATRICES["X"])
Y = _gate(PAULI_MATRICES["Y"])
Z = _gate(PAULI_MATRICES["Z"])
HADAMARD = _gate(np.array([[1, 1], [1, -1]]) / np.sqrt(2.0))
S = _gate([[1, 0], [0, 1j]])
S_DAG = _gate([[1, 0], [0, -1j]])


def rz(theta: float) -> GateMatrix:
    """Rotation about Z: exp(-i * theta * Z / 2)."""
    half = 0.5 * theta
    return _gate([[np.exp(-1j * half), 0], [0, np.exp(1j * half)]])


def rx(theta: float) -> GateMatrix:
    """Rotation about X: exp(-i * theta * X / 2)."""
    half = 0.5 * theta
    c, s = np.cos(half), -1j * np.sin(half)
    return _gate([[c, s], [s, c]])


@dataclass(frozen=True, eq=False)
class StateVector:
    """Normalized amplitudes of an ``num_qubits``-qubit register."""

    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        if not isinstance(self.num_qubits, int) or self.num_qubits < 1:
            raise DomainError(f"num_qubits must be a positive integer, got {self.num_qubits!r}")
        amps = np.asarray(self.amplitudes, dtype=np.complex128).reshape(-1)
        if amps.shape != (2**self.num_qubits,):
            raise DomainError(
                f"expected {2**self.num_qubits} amplitudes for {self.num_qubits} qubit(s), "
                f"got {amps.shape[0]}"
            )
        norm_sq = float(np.sum(np.abs(amps) ** 2))
        if not abs(norm_sq - 1.0) <= _NORM_ATOL:
            raise DomainError(f"amplitudes are not normalized (|psi|^2 = {norm_sq!r})")
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def normalized(cls, amplitudes: Iterable[complex]) -> "StateVector":
        """Build a state from raw amplitudes, rescaling them to unit norm."""
        amps = np.asarray(list(amplitudes), dtype=np.complex128).reshape(-1)
        n = int(round(np.log2(amps.shape[0]))) if amps.shape[0] > 1 else 0
        if amps.shape[0] < 2 or amps.shape[0] != 2**n:
            raise DomainError(f"amplitude count {amps.shape[0]} is not a power of two >= 2")
        norm = float(np.linalg.norm(amps))
        if norm < 1e-12:
            raise DomainError("cannot normalize a zero vector")
        return cls(n, amps / norm)


def basis_state(num_qubits: int, index: int = 0) -> StateVector:
    """The computational basis state |index> on ``num_qubits`` qubits."""
    if not isinstance(num_qubits, int) or num_qubits < 1:
        raise DomainError(f"num_qubits must be a positive integer, got {num_qubits!r}")
    dim = 2**num_qubits
    if not isinstance(index, int) or not 0 <= index < dim:
        raise DomainError(f"basis index {index!r} out of range for {num_qubits} qubit(s)")
    amps = np.zeros(dim, dtype=np.complex128)
    amps[index] = 1.0
    return StateVector(num_qubits, amps)


def _check_qubits(num_qubits: int, qubits: Sequence[int], label: str) -> list[int]:
    qs = list(qubits)
    if not qs:
        raise DomainError(f"{label} list must not be empty")
    for q in qs:
        if not isinstance(q, (int, np.integer)) or not 0 <= q < num_qubits:
            raise DomainError(f"{label} index {q!r} out of range for {num_qubits} qubit(s)")
    if len(set(qs)) != len(qs):
        raise DomainError(f"{label} indices must be distinct, got {qs}")
    return [int(q) for q in qs]


def _coerce_gate(gate: GateMatrix | np.ndarray) -> GateMatrix:
    if isinstance(gate, GateMatrix):
        return gate
    return _gate(np.asarray(gate, dtype=np.complex128))


def _apply_matrix_nd(psi: np.ndarray, matrix: np.ndarray, axes: Sequence[int]) -> np.ndarray:
    """Apply ``matrix`` to the listed axes of a [2]*n shaped array."""
    k = len(axes)
    n = psi.ndim
    moved = np.moveaxis(psi, axes, range(k))
    tail = moved.shape[k:]
    block = moved.reshape(2**k, -1)
    block = matrix @ block
    moved = block.reshape((2,) * k + tail)
    return np.moveaxis(moved, range(k), axes)


def apply_gate(
    state: StateVector, gate: GateMatrix | np.ndarray, targets: Sequence[int]
) -> StateVector:
    """Apply a unitary to the listed target qubits."""
    g = _coerce_gate(gate)
    ts = _check_qubits(state.num_qubits, targets, "target")
    if len(ts) != g.arity:
        raise DomainError(f"gate arity {g.arity} does not match {len(ts)} target(s)")
    psi = state.amplitudes.reshape((2,) * state.num_qubits)
    psi = _apply_matrix_nd(psi, g.entries, ts)
    return StateVector(state.num_qubits, psi.reshape(-1))


def apply_controlled(
    state: StateVector,
    controls: Sequence[int],
    gate: GateMatrix | np.ndarray,
    targets: Sequence[int],
) -> StateVector:
    """Apply a gate to the targets only on the all-controls-one subspace.

    The gate matrix is applied literally, so a global phase baked into it
    becomes a physical relative phase between the control branches.
    """
    g = _coerce_gate(gate)
    cs = _check_qubits(state.num_qubits, controls, "control")
    ts = _check_qubits(state.num_qubits, targets, "target")
    if set(cs) & set(ts):
        raise DomainError(f"controls {cs} and targets {ts} overlap")
    if len(ts) != g.arity:
        raise DomainError(f"gate arity {g.arity} does not match {len(ts)} target(s)")
    n = state.num_qubits
    psi = state.amplitudes.reshape((2,) * n).copy()
    selector = tuple(1 if q in cs else slice(None) for q in range(n))
    remaining = [q for q in range(n) if q not in cs]
    sub_axes = [remaining.index(t) for t in ts]
    psi[selector] = _apply_matrix_nd(psi[selector], g.entries, sub_axes)
    return StateVector(n, psi.reshape(-1))


def _normalize_outcome(outcome: str | Sequence[int], count: int) -> list[int]:
    if isinstance(outcome, str):
        bits = [int(c) for c in outcome if not c.isspace()]
    else:
        bits = [int(b) for b in outcome]
    if len(bits) != count or any(b not in (0, 1) for b in bits):
        raise DomainError(f"outcome {outcome!r} is not a bit pattern of length {count}")
    return bits


def postselect(
    state: StateVector, qubits: Sequence[int], outcome: str | Sequence[int]
) -> tuple[float, StateVector]:
    """Project the listed qubits onto an outcome and drop them.

    Returns the outcome probability and the renormalized state of the
    remaining register.  Measuring every qubit is not supported because
    the collapsed register would be empty.
    """
    qs = _check_qubits(state.num_qubits, qubits, "measured qubit")
    if len(qs) >= state.num_qubits:
        raise DomainError("postselect must leave at least one qubit in the register")
    bits = _normalize_outcome(outcome, len(qs))
    n = state.num_qubits
    psi = state.amplitudes.reshape((2,) * n)
    selector = [slice(None)] * n
    for q, b in zip(qs, bits):
        selector[q] = b
    sub = psi[tuple(selector)]
    prob = float(np.sum(np.abs(sub) ** 2))
    if prob < _MIN_POSTSELECT_PROB:
        raise ImpossibleOutcomeError(
            f"outcome {''.join(map(str, bits))} on qubits {qs} has probability {prob:.3e}"
        )
    collapsed = StateVector(n - len(qs), sub.reshape(-1) / np.sqrt(prob))
    return prob, collapsed


def measure_sample(
    state: StateVector, qubits: Sequence[int], shots: int, rng_seed: int
) -> dict[str, int]:
    """Sample measurement outcomes of the listed qubits in the Z basis.

    Returns a histogram mapping bitstrings (first listed qubit leftmost)
    to counts.  Counts follow the joint distribution of ``shots``
    independent Born-rule draws and are reproducible for a fixed seed.
    """
    qs = _check_qubits(state.num_qubits, qubits, "measured qubit")
    if not isinstance(shots, int) or shots < 1:
        raise DomainError(f"shots must be a positive integer, got {shots!r}")
    n = state.num_qubits
    probs = np.abs(state.amplitudes.reshape((2,) * n)) ** 2
    other = tuple(q for q in range(n) if q not in qs)
    marginal = probs.sum(axis=other) if other else probs
    order = sorted(qs)
    marginal = np.transpose(marginal, [order.index(q) for q in qs]).reshape(-1)
    marginal = np.clip(marginal, 0.0, None)
    marginal = marginal / marginal.sum()
    rng = np.random.default_rng(rng_seed)
    counts = rng.multinomial(shots, marginal)
    k = len(qs)
    return {format(i, f"0{k}b"): int(c) for i, c in enumerate(counts) if c > 0}


def apply_pauli_string(state: StateVector, string: str) -> StateVector:
    """Apply a tensor product of Pauli operators given as an I/X/Y/Z word."""
    if len(string) != state.num_qubits:
        raise DomainError(
            f"Pauli string {string!r} does not match register size {state.num_qubits}"
        )
    return StateVector(state.num_qubits, apply_word(compile_word(string), state.amplitudes))


def expectation_observable(state: StateVector, observable: "PauliSum") -> float:
    """Exact expectation value of a real-weighted Pauli-string operator."""
    if observable.num_qubits != state.num_qubits:
        raise DomainError(
            f"observable acts on {observable.num_qubits} qubit(s), state has {state.num_qubits}"
        )
    psi = state.amplitudes
    total = 0.0 + 0.0j
    for (coeff, _), word in zip(observable.terms, observable.words):
        total += coeff * np.vdot(psi, apply_word(word, psi))
    if abs(total.imag) > _IMAG_RESIDUE_LIMIT:
        raise NumericalConsistencyError(
            f"expectation value has imaginary residue {total.imag:.3e}"
        )
    return float(total.real)


def fidelity(a: StateVector, b: StateVector) -> float:
    """Squared overlap |<a|b>|^2 of two pure states."""
    if a.num_qubits != b.num_qubits:
        raise DomainError(f"register sizes differ: {a.num_qubits} vs {b.num_qubits}")
    return float(abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)
