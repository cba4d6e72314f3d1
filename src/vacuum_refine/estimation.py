"""Expectation-value estimation: eigenbasis overlaps, shot noise, correction.

A shot of a Pauli word P measures its parity, +1 or -1, and <P> is the
mean parity, so the even parities of a state's shots are one binomial
draw with p = (1 + <P>) / 2.  Shot estimates and the cross term both
read the per-word overlaps of a word table (``statevector.word_overlaps``,
``statevector.expectations``); no operator is rotated or built densely.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import CorrectionError, DomainError, NumericalConsistencyError
from .hamiltonian import PauliSum, Spectrum, _check_spectrum_dim
from .pauli import compile_words, identity_words
from .statevector import StateVector, expectations, word_overlaps

_MIN_CORRECTION_DENOM = 1e-6
# the most shots numpy's binomial draws: its count is a C long (int64)
MAX_SHOTS = 2**63 - 1


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
    _check_spectrum_dim(spectrum, state.amplitudes.shape[0])
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
    amplitudes: np.ndarray, words: np.ndarray, shots: int, rngs: Sequence[np.random.Generator]
) -> tuple[np.ndarray, np.ndarray]:
    """Sampled <P_t> and its standard error for each row of a (rows, d) state stack and word t.

    ``words`` is a word table (``pauli.compile_words``) and ``rngs`` holds
    one generator per word.  Word t's rows draw their even-parity counts
    as one ``rngs[t].binomial(shots, p)`` call, in order, with p =
    clip((1 + Re <P_t>) / 2, 0, 1) from ``word_overlaps``: so a stack draws
    what its rows would draw one after another on the same generators.
    An identity word draws nothing and reads exactly 1.  Returns two
    (rows, words) arrays.  Up to ``MAX_SHOTS`` the int64 wrap of 2k - shots cancels.
    """
    if not isinstance(shots, int) or not 1 <= shots <= MAX_SHOTS:
        raise DomainError(f"shots must be an integer from 1 to 2^63 - 1, got {shots!r}")
    even = np.clip((1.0 + word_overlaps(amplitudes, words).real) / 2.0, 0.0, 1.0)
    mean = np.ones(even.shape)
    for t in np.flatnonzero(~identity_words(words)).tolist():
        mean[:, t] = (2 * rngs[t].binomial(shots, even[:, t]) - shots) / shots
    return mean, np.sqrt(np.maximum(0.0, 1.0 - mean * mean) / shots)


def shot_expectation(state: StateVector, pauli_string: str, shots: int, seed: int) -> EstimateResult:
    """Estimate <P> for one Pauli word by sampling its parity.

    This is the one-row, one-word case of ``shot_estimates``, drawn from
    ``np.random.default_rng(seed)``; as in ``measure_sample``, a seed that
    is not an integer raises ``TypeError``.
    """
    if len(pauli_string) != state.num_qubits:
        raise DomainError(
            f"Pauli string {pauli_string!r} does not match register size {state.num_qubits}"
        )
    words = compile_words([pauli_string])
    rng = np.random.default_rng(operator.index(seed))
    values, errors = shot_estimates(state.amplitudes[np.newaxis], words, shots, [rng])
    return EstimateResult(
        value=float(values[0, 0]), std_error=float(errors[0, 0]), shots=shots, seed=seed
    )


def cross_term(state: StateVector, spectrum: Spectrum, observable: PauliSum) -> float:
    """Interference contribution of off-diagonal eigenbasis pairs to <O>.

    Equals sum_{j<k} 2 Re(conj(c_j) c_k <E_j|O|E_k>), which is <psi|O|psi>
    less the weighted diagonal sum_j |c_j|^2 <E_j|O|E_j>; both are read
    word by word (``expectations``), the eigenvectors as rows of a stack.
    """
    if observable.num_qubits != state.num_qubits:
        raise DomainError(
            f"observable acts on {observable.num_qubits} qubit(s), state has {state.num_qubits}"
        )
    weights = eigen_overlaps(state, spectrum).weights
    eigenstates = np.ascontiguousarray(spectrum.eigenvectors.T, dtype=np.complex128)
    full = expectations(state.amplitudes[np.newaxis], observable.coeffs, observable.words)[0]
    diagonal = expectations(eigenstates, observable.coeffs, observable.words)
    return float(full - np.sum(weights * diagonal))
