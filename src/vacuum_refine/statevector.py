"""Dense statevector simulation for small qubit registers.

Conventions used throughout the package:

* Qubit 0 is the leftmost symbol in ket notation and the most significant
  bit of the amplitude index, so ``|q0 q1 ... q(n-1)>`` lives at index
  ``sum(bit_k * 2**(n-1-k))``.  Reshaping the amplitude vector to
  ``[2] * num_qubits`` therefore puts qubit ``k`` on axis ``k``.
* A gate is a plain 2^k x 2^k unitary array for k targets, checked once
  when it is applied.  Multi-qubit gates read their target list the same
  way as kets: the first listed target is the most significant bit of the
  gate's own matrix index.  One elementwise kernel (``_apply_matrix``)
  applies every dense gate.
* Operations never mutate their inputs; they return new ``StateVector``
  instances.  Amplitude arrays are treated as read-only.
* Readouts (norm check, expectation values, overlaps, sampling) work on a
  (rows, d) stack of amplitude vectors, one state per row, and the
  single-state functions are their one-row case.  Each row's result is
  the same bit for bit however many rows share the stack; sampling draws
  the rows in order from one generator, as one row after another would.
* Every reading of an operator, exact or sampled, starts from one kernel,
  ``word_overlaps``: <psi_r|P_t|psi_r> for each row r of a stack and each
  word t of a word table (``pauli.compile_words``).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import (
    DomainError,
    ImpossibleOutcomeError,
    NumericalConsistencyError,
    UnitarityError,
)
from .pauli import apply_words, compile_words

if TYPE_CHECKING:
    from .hamiltonian import PauliSum

_NORM_ATOL = 1e-8
_UNITARY_ATOL = 1e-12
_MIN_POSTSELECT_PROB = 1e-12
_IMAG_RESIDUE_LIMIT = 1e-8
# At most about this many entries go into one stack built at once: state
# amplitudes or applied words here, matrix entries in ``hamiltonian``.
_STACK_ENTRIES = 2**16


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
        check_normalized(amps[np.newaxis])
        object.__setattr__(self, "amplitudes", amps)


def check_normalized(amplitudes: np.ndarray) -> None:
    """Refuse a (rows, d) stack unless every row has unit norm within 1e-8.

    A row holding NaN is refused too.  ``StateVector`` runs this on its
    one row.
    """
    # the largest deviation is NaN when any row holds NaN
    worst = np.abs((np.abs(amplitudes) ** 2).sum(axis=-1) - 1.0).max(initial=0.0)
    if not worst <= _NORM_ATOL:
        raise DomainError(f"amplitudes are not normalized (||psi|^2 - 1| = {worst:.3e})")


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


def _checked_gate(gate: np.ndarray, arity: int) -> np.ndarray:
    """``gate`` as a complex matrix, refused unless it is unitary on ``arity`` qubits."""
    matrix = np.asarray(gate, dtype=np.complex128)
    dim = 2**arity
    if matrix.shape != (dim, dim):
        raise DomainError(
            f"gate on {arity} qubit(s) needs a {dim}x{dim} matrix, got shape {matrix.shape}"
        )
    residue = np.max(np.abs(matrix.conj().T @ matrix - np.eye(dim)))
    if not residue <= _UNITARY_ATOL:  # NaN fails too
        raise UnitarityError(f"matrix is not unitary (max residue {residue:.3e})")
    return matrix


def _apply_matrix(psi: np.ndarray, matrix: np.ndarray, axes: Sequence[int]) -> np.ndarray:
    """Apply a 2^k x 2^k matrix to the k listed axes of an array of 2-wide axes.

    The first listed axis is the most significant bit of the matrix index.
    Output index i is ``matrix[i, 0] * block[0]``, then ``matrix[i, j] *
    block[j]`` added in column order: elementwise products, not a matmul,
    so that each row of a stack of states comes out the same, bit for bit,
    however many rows share the stack.
    """
    k = len(axes)
    moved = np.moveaxis(psi, axes, range(k))
    block = moved.reshape((2**k,) + moved.shape[k:])
    out = []
    for row in matrix:
        total = row[0] * block[0]
        for j in range(1, len(block)):
            total = total + row[j] * block[j]
        out.append(total)
    return np.moveaxis(np.stack(out).reshape(moved.shape), range(k), axes)


def apply_gate(state: StateVector, gate: np.ndarray, targets: Sequence[int]) -> StateVector:
    """Apply a unitary matrix to the listed target qubits."""
    ts = _check_qubits(state.num_qubits, targets, "target")
    matrix = _checked_gate(gate, len(ts))
    psi = state.amplitudes.reshape((2,) * state.num_qubits)
    return StateVector(state.num_qubits, _apply_matrix(psi, matrix, ts).reshape(-1))


def apply_controlled(
    state: StateVector, controls: Sequence[int], gate: np.ndarray, targets: Sequence[int]
) -> StateVector:
    """Apply a gate to the targets only on the all-controls-one subspace.

    The gate matrix is applied literally, so a global phase baked into it
    becomes a physical relative phase between the control branches.
    """
    cs = _check_qubits(state.num_qubits, controls, "control")
    ts = _check_qubits(state.num_qubits, targets, "target")
    if set(cs) & set(ts):
        raise DomainError(f"controls {cs} and targets {ts} overlap")
    matrix = _checked_gate(gate, len(ts))
    n = state.num_qubits
    psi = state.amplitudes.reshape((2,) * n).copy()
    selector = tuple(1 if q in cs else slice(None) for q in range(n))
    remaining = [q for q in range(n) if q not in cs]
    sub_axes = [remaining.index(t) for t in ts]
    psi[selector] = _apply_matrix(psi[selector], matrix, sub_axes)
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


def sample_counts(
    amplitudes: np.ndarray,
    num_qubits: int,
    qubits: Sequence[int],
    shots: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Z-basis outcome counts of the listed qubits for each row of a stack.

    Row r of the (rows, 2^k) result holds ``shots`` Born-rule draws from
    the marginal of state r; column i counts outcome i, whose bits read
    the listed qubits with the first one leftmost.  The marginals are
    summed and normalized for the whole stack at once, and the rows draw
    ``multinomial`` from ``rng`` in order, so a stack draws what its rows
    would draw one after another on the same generator.  A stack of no
    rows gives a (0, 2^k) array and draws nothing.
    """
    qs = _check_qubits(num_qubits, qubits, "measured qubit")
    if not isinstance(shots, int) or shots < 1:
        raise DomainError(f"shots must be a positive integer, got {shots!r}")
    rows = amplitudes.shape[0]
    probs = np.abs(amplitudes.reshape((rows,) + (2,) * num_qubits)) ** 2
    other = tuple(1 + q for q in range(num_qubits) if q not in qs)
    marginal = probs.sum(axis=other) if other else probs
    order = sorted(qs)
    axes = [0] + [1 + order.index(q) for q in qs]
    marginal = np.transpose(marginal, axes).reshape(rows, 2 ** len(qs))
    return rng.multinomial(shots, marginal / marginal.sum(axis=-1, keepdims=True))


def measure_sample(
    state: StateVector, qubits: Sequence[int], shots: int, rng_seed: int
) -> dict[str, int]:
    """Sample measurement outcomes of the listed qubits in the Z basis.

    Returns a histogram mapping bitstrings (first listed qubit leftmost)
    to counts.  Counts follow the joint distribution of ``shots``
    independent Born-rule draws and are reproducible for a fixed seed.
    This is the one-row case of ``sample_counts``, drawn from
    ``np.random.default_rng(rng_seed)``; a seed that is not an integer,
    None included, raises ``TypeError``, since numpy would seed None from
    fresh entropy.
    """
    rng = np.random.default_rng(operator.index(rng_seed))
    counts = sample_counts(state.amplitudes[np.newaxis], state.num_qubits, qubits, shots, rng)
    k = len(qubits)
    return {format(i, f"0{k}b"): int(c) for i, c in enumerate(counts[0]) if c > 0}


def apply_pauli_string(state: StateVector, string: str) -> StateVector:
    """Apply a tensor product of Pauli operators given as an I/X/Y/Z word."""
    if len(string) != state.num_qubits:
        raise DomainError(
            f"Pauli string {string!r} does not match register size {state.num_qubits}"
        )
    return StateVector(state.num_qubits, apply_words(compile_words([string]), state.amplitudes)[0])


def expectation_observable(state: StateVector, observable: "PauliSum") -> float:
    """Exact expectation value of a real-weighted Pauli-string operator.

    The terms are summed in order; this is the one-row case of
    ``expectations`` with the observable's coefficient row.
    """
    if observable.num_qubits != state.num_qubits:
        raise DomainError(
            f"observable acts on {observable.num_qubits} qubit(s), state has {state.num_qubits}"
        )
    amplitudes = state.amplitudes[np.newaxis]
    return float(expectations(amplitudes, observable.coeffs, observable.words)[0])


def row_overlaps(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """<a_r|b_r> for each row r of two (rows, d) stacks; ``b`` may be one row.

    For C-ordered stacks a batched matmul computes each row as ``np.vdot``
    does on that row, bit for bit; ``np.einsum`` and a summed elementwise
    product order the additions differently and move the last bit, and so
    does a strided row.
    """
    return (a.conj()[:, np.newaxis, :] @ b[:, :, np.newaxis])[:, 0, 0]


def word_overlaps(amplitudes: np.ndarray, words: np.ndarray) -> np.ndarray:
    """<psi_r|P_t|psi_r>, as (rows, words), for each row r of a stack and word t of a table.

    Each block of rows and words is one gather (``apply_words``) of at
    most ``_STACK_ENTRIES`` // 16 amplitudes, or of one word on one row,
    and one batched matmul, which computes each overlap as ``np.vdot``
    does, bit for bit; so no value depends on the blocks.  A gather takes
    its 16 bytes an amplitude and at most numpy's 128 KiB ufunc buffer
    more.  While it peaked at four times its bytes, on the 8-qubit
    benchmark sweep, gathers of the whole budget raised the command's
    resident peak by about 2 MB and gathers of an eighth its traced peak
    by 0.2 MB, where a sixteenth left both as reading one state at a time
    had them.  The stack must be C-ordered, as in ``row_overlaps``.
    """
    rows, dim = amplitudes.shape
    out = np.empty((rows, len(words)), dtype=np.complex128)
    gather = _STACK_ENTRIES // 16
    row_step = max(1, min(rows, gather // dim))
    word_step = max(1, gather // (row_step * dim))
    for r in range(0, rows, row_step):
        states = amplitudes[r : r + row_step]
        bras = states.conj()[:, np.newaxis, np.newaxis, :]
        for t in range(0, len(words), word_step):
            applied = apply_words(words[t : t + word_step], states)
            out[r : r + row_step, t : t + word_step] = (bras @ applied[..., np.newaxis])[..., 0, 0]
    return out


def expectations(amplitudes: np.ndarray, coeffs: np.ndarray, words: np.ndarray) -> np.ndarray:
    """<psi_r| sum_t coeffs[r, t] * words[t] |psi_r> for each row r, as floats.

    ``words`` is a word table (``pauli.compile_words``) and ``coeffs``
    (rows, terms), or one (1, terms) row shared by every state.  Each row
    sums coefficient times overlap (``word_overlaps``) word by word in
    order, starting from 0 + 0j; a coefficient of exactly zero adds an
    exact zero, which moves no bit of a finite sum.  A stack of no rows
    gives an empty array.
    """
    total = np.zeros(amplitudes.shape[0], dtype=np.complex128)
    for term in (coeffs * word_overlaps(amplitudes, words)).T:
        total = total + term
    worst = np.abs(total.imag).max(initial=0.0)  # NaN when any row is NaN
    if not worst <= _IMAG_RESIDUE_LIMIT:
        raise NumericalConsistencyError(f"expectation value has imaginary residue {worst:.3e}")
    return total.real


def fidelities(a: np.ndarray, b: np.ndarray) -> list[float]:
    """Squared overlaps |<a_r|b_r>|^2 of the rows of two stacks (``b`` may be one row).

    The modulus is Python's ``abs`` of each complex overlap, which rounds
    as ``abs`` of a numpy complex scalar does; the vectorized ``np.abs``
    can differ in the last bit.
    """
    return [abs(z) ** 2 for z in row_overlaps(a, b).tolist()]


def fidelity(a: StateVector, b: StateVector) -> float:
    """Squared overlap |<a|b>|^2 of two pure states."""
    if a.num_qubits != b.num_qubits:
        raise DomainError(f"register sizes differ: {a.num_qubits} vs {b.num_qubits}")
    return fidelities(a.amplitudes[np.newaxis], b.amplitudes[np.newaxis])[0]
