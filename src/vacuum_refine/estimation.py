"""Expectation-value estimation: eigenbasis overlaps, shot noise, correction."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CorrectionError, DomainError, NumericalConsistencyError
from .hamiltonian import PauliSum, Spectrum, to_matrix
from .statevector import HADAMARD, S_DAG, StateVector, apply_gate, measure_sample

_MIN_CORRECTION_DENOM = 1e-6


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


def shot_expectation(state: StateVector, pauli_string: str, shots: int, seed: int) -> EstimateResult:
    """Estimate <P> for one Pauli word by sampling rotated Z measurements."""
    if len(pauli_string) != state.num_qubits:
        raise DomainError(
            f"Pauli string {pauli_string!r} does not match register size {state.num_qubits}"
        )
    if any(ch not in "IXYZ" for ch in pauli_string):
        raise DomainError(f"bad Pauli string {pauli_string!r}")
    if not isinstance(shots, int) or shots < 1:
        raise DomainError(f"shots must be a positive integer, got {shots!r}")
    measured = [q for q, ch in enumerate(pauli_string) if ch != "I"]
    if not measured:
        return EstimateResult(value=1.0, std_error=0.0, shots=shots, seed=seed)
    rotated = state
    for q, ch in enumerate(pauli_string):
        if ch == "X":
            rotated = apply_gate(rotated, HADAMARD, [q])
        elif ch == "Y":
            rotated = apply_gate(rotated, S_DAG, [q])
            rotated = apply_gate(rotated, HADAMARD, [q])
    histogram = measure_sample(rotated, measured, shots, seed)
    acc = 0
    for bits, count in histogram.items():
        sign = -1 if bits.count("1") % 2 else 1
        acc += sign * count
    mean = acc / shots
    std_error = math.sqrt(max(0.0, 1.0 - mean * mean) / shots)
    return EstimateResult(value=float(mean), std_error=float(std_error), shots=shots, seed=seed)


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
