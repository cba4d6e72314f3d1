"""Expectation-value estimation: eigenbasis overlaps, shot noise, correction.

Shot estimates rotate each X or Y letter to Z with the plain basis-change
arrays ``HADAMARD`` and ``S_DAG``, applied to a whole stack of states by
``statevector._apply_matrix``.  <P> is the mean parity of the measured
bits, so each state's shots are one binomial draw of even parities.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .errors import CorrectionError, DomainError, NumericalConsistencyError
from .hamiltonian import PauliSum, Spectrum, to_matrix
from .statevector import HADAMARD, S_DAG, StateVector, _apply_matrix

_MIN_CORRECTION_DENOM = 1e-6
# Basis changes that turn the eigenbasis of a letter into the Z basis, in order.
_TO_Z_BASIS = {"X": (HADAMARD,), "Y": (S_DAG, HADAMARD)}


@dataclass(frozen=True, eq=False)
class EigenOverlaps:
    """Complex overlaps <E_j|psi> of a state with an eigenbasis."""

    coefficients: np.ndarray

    def __post_init__(self) -> None:
        coeffs = np.asarray(self.coefficients, dtype=np.complex128).reshape(-1)
        object.__setattr__(self, "coefficients", coeffs)
        total = float(np.sum(np.abs(coeffs) ** 2))
        if not abs(total - 1.0) <= 1e-10:
            raise NumericalConsistencyError(
                f"overlap weights sum to {total!r}, expected 1 within 1e-10"
            )

    @property
    def weights(self) -> np.ndarray:
        """Populations |<E_j|psi>|^2, summing to one."""
        return np.abs(self.coefficients) ** 2


@dataclass(frozen=True)
class EstimateResult:
    """A sampled expectation value with its standard error."""

    value: float
    std_error: float
    shots: int
    seed: int

    def __post_init__(self) -> None:
        if self.std_error < 0:
            raise DomainError(f"std_error must be >= 0, got {self.std_error!r}")


def eigen_overlaps(state: StateVector, spectrum: Spectrum) -> EigenOverlaps:
    """Decompose a state in the eigenbasis of a diagonalized operator."""
    if spectrum.dim != state.amplitudes.shape[0]:
        raise DomainError(
            f"spectrum dimension {spectrum.dim} does not match state dimension "
            f"{state.amplitudes.shape[0]}"
        )
    return EigenOverlaps(spectrum.eigenvectors.conj().T @ state.amplitudes)


def corrected_expectation(raw: float, p0: float) -> float:
    """Undo the known contamination of a tagged mixed value.

    A raw value measured on the unfiltered register mixes the wanted
    component (weight p0) with its orthogonal partner (weight 1 - p0) of
    opposite sign, so dividing by 2*p0 - 1 restores the clean value.
    """
    denom = 2.0 * p0 - 1.0
    if abs(denom) < _MIN_CORRECTION_DENOM:
        raise CorrectionError(f"correction denominator 2*p0-1 = {denom!r} is unusable")
    return raw / denom


def shot_estimates(
    amplitudes: np.ndarray, pauli_string: str, shots: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Sampled <P> and its standard error for each row of a (rows, d) state stack.

    Row r draws its number of even-parity shots as one
    ``rng.binomial(shots, p_even[r])`` (``_even_parity``), the rows in
    order in one call, so a stack draws what its rows would draw one
    after another on the same generator, however the rows are split into
    stacks.  A word of I letters alone draws nothing and reads exactly 1;
    a stack of no rows gives two empty arrays.
    """
    num_qubits = len(pauli_string)
    if amplitudes.shape[-1] != 2**num_qubits:
        raise DomainError(
            f"Pauli string {pauli_string!r} does not match register dimension "
            f"{amplitudes.shape[-1]}"
        )
    if any(ch not in "IXYZ" for ch in pauli_string):
        raise DomainError(f"bad Pauli string {pauli_string!r}")
    if not isinstance(shots, int) or shots < 1:
        raise DomainError(f"shots must be a positive integer, got {shots!r}")
    rows = amplitudes.shape[0]
    if not pauli_string.strip("I"):
        return np.ones(rows), np.zeros(rows)
    mean = (2 * rng.binomial(shots, _even_parity(amplitudes, pauli_string)) - shots) / shots
    return mean, np.sqrt(np.maximum(0.0, 1.0 - mean * mean) / shots)


def _even_parity(amplitudes: np.ndarray, pauli_string: str) -> np.ndarray:
    """Probability of an even parity of the word's non-I letters, per row of a stack.

    X and Y letters are rotated to Z for the whole stack by the
    elementwise ``_apply_matrix``; each row then sums the Born
    probabilities of the outcomes whose measured bits have even parity,
    clipped to [0, 1].  So 2 * p_even - 1 is <P>.
    """
    num_qubits = len(pauli_string)
    psi = amplitudes.reshape((amplitudes.shape[0],) + (2,) * num_qubits)
    for q, ch in enumerate(pauli_string):
        for gate in _TO_Z_BASIS.get(ch, ()):
            psi = _apply_matrix(psi, gate, [1 + q])
    mask = sum(1 << (num_qubits - 1 - q) for q, ch in enumerate(pauli_string) if ch != "I")
    even = np.bitwise_count(np.arange(2**num_qubits) & mask) & 1 == 0
    probs = np.abs(psi.reshape(amplitudes.shape)) ** 2
    return np.clip(probs[:, even].sum(axis=-1), 0.0, 1.0)


def shot_expectation(state: StateVector, pauli_string: str, shots: int, seed: int) -> EstimateResult:
    """Estimate <P> for one Pauli word by sampling rotated Z measurements.

    This is the one-row case of ``shot_estimates``, drawn from
    ``np.random.default_rng(seed)``; as in ``measure_sample``, a seed that
    is not an integer raises ``TypeError``.
    """
    if len(pauli_string) != state.num_qubits:
        raise DomainError(
            f"Pauli string {pauli_string!r} does not match register size {state.num_qubits}"
        )
    rng = np.random.default_rng(operator.index(seed))
    values, errors = shot_estimates(state.amplitudes[np.newaxis], pauli_string, shots, rng)
    return EstimateResult(value=float(values[0]), std_error=float(errors[0]), shots=shots, seed=seed)


def cross_term(state: StateVector, spectrum: Spectrum, observable: PauliSum) -> float:
    """Interference contribution of off-diagonal eigenbasis pairs to <O>.

    Equals sum_{j<k} 2 Re(conj(c_j) c_k <E_j|O|E_k>); adding it to the
    weighted diagonal matrix elements reproduces the full expectation.
    """
    if observable.num_qubits != state.num_qubits:
        raise DomainError(
            f"observable acts on {observable.num_qubits} qubit(s), state has {state.num_qubits}"
        )
    overlaps = eigen_overlaps(state, spectrum)
    c = overlaps.coefficients
    m_eig = spectrum.eigenvectors.conj().T @ to_matrix(observable) @ spectrum.eigenvectors
    full = float(np.real(c.conj() @ m_eig @ c))
    diagonal = float(np.sum(overlaps.weights * np.real(np.diag(m_eig))))
    return full - diagonal
