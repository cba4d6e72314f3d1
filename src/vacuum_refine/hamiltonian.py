"""Real-weighted Pauli-string operators and their dense-matrix analysis."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigError,
    DomainError,
    NumericalConsistencyError,
    ResourceLimitError,
)
from .pauli import PauliWord, column_phases, compile_word
from .statevector import GateMatrix, StateVector

DEFAULT_DENSE_CAP = 10
DEGENERACY_TOL = 1e-10
_CHECK_ATOL = 1e-10


@dataclass(frozen=True)
class PauliSum:
    """A Hermitian operator written as a real combination of Pauli words.

    Terms are validated, merged by string, stripped of exact-zero
    coefficients and stored sorted, so two operators built from the same
    content compare equal.  ``words`` holds each term's compiled X/Z
    bitmask form, in the order of ``terms``; every dense build and every
    application of the operator reads it.
    """

    num_qubits: int
    terms: tuple[tuple[float, str], ...]
    words: tuple[PauliWord, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.num_qubits, int) or self.num_qubits < 1:
            raise DomainError(f"num_qubits must be a positive integer, got {self.num_qubits!r}")
        merged: dict[str, float] = {}
        for coeff, string in self.terms:
            if isinstance(coeff, complex):
                raise DomainError(f"coefficient {coeff!r} must be real")
            if not isinstance(string, str) or len(string) != self.num_qubits:
                raise DomainError(
                    f"Pauli string {string!r} must have length {self.num_qubits}"
                )
            if any(ch not in "IXYZ" for ch in string):
                raise DomainError(f"Pauli string {string!r} contains letters outside IXYZ")
            merged[string] = merged.get(string, 0.0) + float(coeff)
        for string, coeff in merged.items():
            if not math.isfinite(coeff):
                raise DomainError(f"coefficient of {string!r} is not finite ({coeff!r})")
        cleaned = tuple(
            (coeff, string) for string, coeff in sorted(merged.items()) if coeff != 0.0
        )
        object.__setattr__(self, "terms", cleaned)
        object.__setattr__(self, "words", tuple(compile_word(s) for _, s in cleaned))

    def scaled(self, factor: float) -> "PauliSum":
        """Multiply every coefficient by a real factor."""
        return PauliSum(self.num_qubits, tuple((factor * c, s) for c, s in self.terms))


def hadamard_hamiltonian(J: float, num_qubits: int = 1) -> PauliSum:
    """The single-qubit target operator -J * (Z + X) / sqrt(2).

    Its eigenvalues are -J and +J and the ground state has <Z> = 1/sqrt(2).
    Only one qubit is supported; larger registers have no analogue with
    this normalization.
    """
    if J <= 0:
        raise DomainError(f"coupling J must be positive, got {J!r}")
    if num_qubits != 1:
        raise DomainError("the Hadamard-axis model is defined on exactly one qubit")
    w = -J / np.sqrt(2.0)
    return PauliSum(1, ((w, "X"), (w, "Z")))


def initial_hamiltonian(J: float, num_qubits: int) -> PauliSum:
    """The preparation operator -J * sum_q Z_q, whose ground state is |0...0>."""
    if J <= 0:
        raise DomainError(f"coupling J must be positive, got {J!r}")
    if not isinstance(num_qubits, int) or num_qubits < 1:
        raise DomainError(f"num_qubits must be a positive integer, got {num_qubits!r}")
    terms = tuple(
        (-J, "I" * q + "Z" + "I" * (num_qubits - q - 1)) for q in range(num_qubits)
    )
    return PauliSum(num_qubits, terms)


def transverse_ising_pair(J: float, transverse: float = 1.0) -> PauliSum:
    """A two-qubit demo target: -J * (Z0 Z1 + g * (X0 + X1))."""
    if J <= 0:
        raise DomainError(f"coupling J must be positive, got {J!r}")
    return PauliSum(2, ((-J, "ZZ"), (-J * transverse, "XI"), (-J * transverse, "IX")))


def interpolate(h0: PauliSum, h1: PauliSum, s: float) -> PauliSum:
    """The convex combination (1 - s) * h0 + s * h1 with merged terms."""
    if h0.num_qubits != h1.num_qubits:
        raise DomainError(
            f"operators act on different registers: {h0.num_qubits} vs {h1.num_qubits}"
        )
    if not 0.0 <= s <= 1.0:
        raise DomainError(f"interpolation parameter s={s!r} outside [0, 1]")
    terms = tuple(((1.0 - s) * c, p) for c, p in h0.terms) + tuple(
        (s * c, p) for c, p in h1.terms
    )
    return PauliSum(h0.num_qubits, terms)


def to_matrix(h: PauliSum, cap: int = DEFAULT_DENSE_CAP) -> np.ndarray:
    """Dense Hermitian matrix of the operator, refused above ``cap`` qubits.

    The matrix is float64 when every word has an even number of Y letters
    (an even power of i, so every phase is +1 or -1) and complex128
    otherwise.  Entry ``[c ^ x, c]`` of each word is its coefficient times
    its phase, and the words are summed in the order of ``h.terms``.
    """
    if h.num_qubits > cap:
        raise ResourceLimitError(
            f"dense matrix for {h.num_qubits} qubit(s) exceeds the cap of {cap}"
        )
    dim = 2**h.num_qubits
    columns = np.arange(dim)
    coeffs = np.array([coeff for coeff, _ in h.terms]).reshape(-1, 1)
    masks = np.array(
        [(w.x_mask, w.z_mask, w.i_power) for w in h.words], dtype=np.int64
    ).reshape(-1, 3)
    real = all(w.i_power % 2 == 0 for w in h.words)
    out = np.zeros((dim, dim), dtype=np.float64 if real else np.complex128)
    # Blocks of at most max(dim, 64) terms keep the (term, column) grid and
    # its temporaries within a few times the matrix's size for any number
    # of terms; np.add.at sums in term order within and across blocks.
    step = max(dim, 64)
    for start in range(0, len(masks), step):
        block = masks[start : start + step]
        phases = column_phases(block[:, 1:2], block[:, 2:], columns)
        if real:
            phases = phases.real
        np.add.at(out, (columns ^ block[:, :1], columns), coeffs[start : start + step] * phases)
    if not np.max(np.abs(out - out.conj().T)) <= 1e-12:
        raise NumericalConsistencyError("dense matrix is not Hermitian")
    return out


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Eigenvalues (ascending) and phase-fixed eigenvector columns.

    For a real operator the eigenvectors are float64 and sign-fixed real;
    otherwise they are complex128.
    """

    num_qubits: int
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]

    @property
    def gap(self) -> float:
        """Energy difference between the two lowest levels."""
        return float(self.eigenvalues[1] - self.eigenvalues[0])

    @property
    def degenerate(self) -> bool:
        """True when the ground level is degenerate within tolerance."""
        return self.gap < DEGENERACY_TOL

    @property
    def ground_state(self) -> StateVector:
        return StateVector(self.num_qubits, self.eigenvectors[:, 0].copy())


def _fix_phases(vectors: np.ndarray) -> np.ndarray:
    """Rotate each column so its largest-magnitude entry is real positive.

    For real vectors the factor is the pivot's sign, so this is a sign fix
    and the columns stay real.
    """
    pivots = vectors[np.argmax(np.abs(vectors), axis=0), np.arange(vectors.shape[1])]
    # np.hypot rounds the modulus as abs() of a complex scalar does; np.abs
    # can differ in the last bit, which would move digits of the outputs.
    return vectors * (pivots.conj() / np.hypot(pivots.real, pivots.imag))


def exact_diagonalize(h: PauliSum, cap: int = DEFAULT_DENSE_CAP) -> Spectrum:
    """Full eigendecomposition of the operator with deterministic phases.

    A real operator's float64 matrix goes through real ``eigh`` and real
    checks; the dtype of ``to_matrix`` selects the arithmetic throughout.
    """
    matrix = to_matrix(h, cap)
    try:
        values, vectors = np.linalg.eigh(matrix)
    except np.linalg.LinAlgError as exc:
        raise NumericalConsistencyError(f"eigensolver failed to converge: {exc}") from exc
    vectors = _fix_phases(vectors)
    ortho = np.max(np.abs(vectors.conj().T @ vectors - np.eye(vectors.shape[0])))
    if not ortho <= _CHECK_ATOL:
        raise NumericalConsistencyError(f"eigenvectors not orthonormal ({ortho:.3e})")
    residual = np.max(np.abs(matrix @ vectors - vectors * values))
    if not residual <= _CHECK_ATOL:
        raise NumericalConsistencyError(f"eigenpair residual {residual:.3e} too large")
    return Spectrum(h.num_qubits, values, vectors)


def evolution_unitary(
    h: PauliSum,
    duration: float,
    cap: int = DEFAULT_DENSE_CAP,
    spectrum: Spectrum | None = None,
) -> GateMatrix:
    """The full-register propagator exp(-i * h * duration).

    ``spectrum`` is the caller's ``exact_diagonalize(h)``; without it the
    operator is diagonalized here.
    """
    if spectrum is None:
        spectrum = exact_diagonalize(h, cap)
    phases = np.exp(-1j * spectrum.eigenvalues * duration)
    v = spectrum.eigenvectors
    return GateMatrix(h.num_qubits, (v * phases) @ v.conj().T)


def parse_pauli_text(text: str) -> PauliSum:
    """Parse the one-term-per-line ``<coeff> <string>`` operator format.

    Blank lines and ``#`` comments are allowed.  Raises ``ConfigError``
    with the offending line number otherwise.
    """
    entries: list[tuple[float, str]] = []
    width: int | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ConfigError(f"line {lineno}: expected '<coeff> <string>', got {raw!r}")
        try:
            coeff = float(parts[0])
        except ValueError:
            raise ConfigError(f"line {lineno}: bad coefficient {parts[0]!r}") from None
        if not math.isfinite(coeff):
            raise ConfigError(f"line {lineno}: coefficient {parts[0]!r} is not finite")
        string = parts[1].upper()
        if any(ch not in "IXYZ" for ch in string):
            raise ConfigError(f"line {lineno}: bad Pauli string {parts[1]!r}")
        if width is None:
            width = len(string)
        elif len(string) != width:
            raise ConfigError(
                f"line {lineno}: string length {len(string)} differs from {width}"
            )
        entries.append((coeff, string))
    if not entries or width is None:
        raise ConfigError("operator text contains no terms")
    return PauliSum(width, tuple(entries))


def format_pauli_text(h: PauliSum) -> str:
    """Serialize an operator to the text format; round-trips losslessly."""
    return "\n".join(f"{coeff!r} {string}" for coeff, string in h.terms) + "\n"
