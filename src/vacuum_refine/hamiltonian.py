"""Real-weighted Pauli-string operators and their dense-matrix analysis."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from .errors import (
    ConfigError,
    DomainError,
    NumericalConsistencyError,
    ResourceLimitError,
)
from .pauli import PauliWord, column_phases, compile_word, word_masks
from .statevector import _STACK_ENTRIES, _UNITARY_ATOL, GateMatrix, StateVector, _coefficient_row

DEFAULT_DENSE_CAP = 10
DEGENERACY_TOL = 1e-10
_CHECK_ATOL = 1e-10
# At most about _STACK_ENTRIES matrix entries are built and diagonalized in
# one stack: every one-qubit ramp step fits in one, while at 8 qubits and
# more a stack is a single matrix, so peak memory does not grow with the
# steps.


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


def hadamard_hamiltonian(J: float) -> PauliSum:
    """The single-qubit target operator -J * (Z + X) / sqrt(2).

    Its eigenvalues are -J and +J and the ground state has <Z> = 1/sqrt(2).
    """
    if J <= 0:
        raise DomainError(f"coupling J must be positive, got {J!r}")
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


def transverse_ising_pair(J: float) -> PauliSum:
    """A two-qubit demo target: -J * (Z0 Z1 + X0 + X1)."""
    if J <= 0:
        raise DomainError(f"coupling J must be positive, got {J!r}")
    return PauliSum(2, ((-J, "ZZ"), (-J, "XI"), (-J, "IX")))


def _check_ramp(h0: PauliSum, h1: PauliSum, s_values: Sequence[float]) -> None:
    if h0.num_qubits != h1.num_qubits:
        raise DomainError(
            f"operators act on different registers: {h0.num_qubits} vs {h1.num_qubits}"
        )
    for s in s_values:
        if not 0.0 <= s <= 1.0:
            raise DomainError(f"interpolation parameter s={s!r} outside [0, 1]")


def interpolate(h0: PauliSum, h1: PauliSum, s: float) -> PauliSum:
    """The convex combination (1 - s) * h0 + s * h1 with merged terms."""
    _check_ramp(h0, h1, (s,))
    terms = tuple(((1.0 - s) * c, p) for c, p in h0.terms) + tuple(
        (s * c, p) for c, p in h1.terms
    )
    return PauliSum(h0.num_qubits, terms)


def ramp_coefficients(
    h0: PauliSum, h1: PauliSum, s_values: Sequence[float]
) -> tuple[tuple[PauliWord, ...], np.ndarray]:
    """The words and coefficients of (1 - s) * h0 + s * h1 for every s at once.

    The words are the union of both operators' strings, sorted by string,
    as ``interpolate`` sorts them.  Row k of the (steps x words) array is
    (1 - s_k) * c0 + s_k * c1, with 0 for a string an operator lacks: the
    coefficients of ``interpolate(h0, h1, s_k)``, except that a
    coefficient which vanishes stays in place as an exact zero.
    """
    _check_ramp(h0, h1, s_values)
    words = {p: w for h in (h0, h1) for (_, p), w in zip(h.terms, h.words)}
    strings = sorted(words)
    position = {p: i for i, p in enumerate(strings)}
    c0 = np.zeros(len(strings))
    c1 = np.zeros(len(strings))
    for coeff, string in h0.terms:
        c0[position[string]] = coeff
    for coeff, string in h1.terms:
        c1[position[string]] = coeff
    s = np.asarray(s_values, dtype=np.float64)
    return tuple(words[p] for p in strings), np.outer(1.0 - s, c0) + np.outer(s, c1)


def _real_rows(words: Sequence[PauliWord], coeffs: np.ndarray) -> np.ndarray:
    """Whether each row's operator is real: no nonzero coefficient on an odd-Y word.

    Such an operator has only phases +1 and -1, so its matrix is float64.
    """
    odd = np.array([w.i_power % 2 == 1 for w in words], dtype=bool)
    return ~np.any((coeffs != 0.0) & odd, axis=1)


def _dense_stack(
    num_qubits: int,
    words: Sequence[PauliWord],
    coeffs: np.ndarray,
    real: bool,
) -> np.ndarray:
    """Dense matrices of sum_t coeffs[k, t] * words[t], one per row k, as one stack.

    Entry ``[k, c ^ x, c]`` of each word is its coefficient in row k times
    its phase, and each entry sums the words in order, starting from zero.
    Registers above ``DEFAULT_DENSE_CAP`` qubits are refused.
    """
    if num_qubits > DEFAULT_DENSE_CAP:
        raise ResourceLimitError(
            f"dense matrix for {num_qubits} qubit(s) exceeds the cap of {DEFAULT_DENSE_CAP}"
        )
    dim = 2**num_qubits
    rows = coeffs.shape[0]
    columns = np.arange(dim)
    masks = word_masks(words)
    out = np.zeros((rows, dim, dim), dtype=np.float64 if real else np.complex128)
    stack = np.arange(rows).reshape(-1, 1, 1)
    # Blocks of terms keep the (matrix, term, column) grid and its
    # temporaries within the larger of the stack's size and _STACK_ENTRIES
    # for any number of terms; np.add.at sums in term order within and
    # across blocks.
    step = max(dim, _STACK_ENTRIES // (rows * dim))
    for start in range(0, len(masks), step):
        block = masks[start : start + step]
        phases = column_phases(block[:, 1:2], block[:, 2:], columns)
        if real:
            phases = phases.real
        np.add.at(
            out,
            (stack, columns ^ block[:, :1], columns),
            coeffs[:, start : start + step, None] * phases,
        )
    asymmetry = np.max(np.abs(out - out.conj().swapaxes(-1, -2)), axis=(-2, -1))
    _refuse_above(asymmetry, 1e-12, "dense matrix is not Hermitian")
    return out


def _refuse_above(values: np.ndarray, tol: float, message: str) -> None:
    """Raise for the first value that is not <= tol, NaN included."""
    passed = values <= tol
    if not passed.all():
        raise NumericalConsistencyError(message.format(values[~passed][0]))


def to_matrix(h: PauliSum) -> np.ndarray:
    """Dense Hermitian matrix of the operator, refused above ``DEFAULT_DENSE_CAP`` qubits.

    The matrix is float64 when every word has an even number of Y letters
    (an even power of i, so every phase is +1 or -1) and complex128
    otherwise.  Entry ``[c ^ x, c]`` of each word is its coefficient times
    its phase, and the words are summed in the order of ``h.terms``.  This
    is the one-operator case of the stacked build, ``_dense_stack``.
    """
    coeffs = _coefficient_row(h)
    return _dense_stack(h.num_qubits, h.words, coeffs, _real_rows(h.words, coeffs)[0])[0]


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

    Works on one matrix or a stack of them.  For real vectors the factor
    is the pivot's sign, so this is a sign fix and the columns stay real.
    """
    dim = vectors.shape[-1]
    stack = vectors.reshape(-1, dim, dim)
    rows = np.argmax(np.abs(stack), axis=-2)
    pivots = stack[np.arange(len(stack))[:, np.newaxis], rows, np.arange(dim)]
    pivots = pivots.reshape(vectors.shape[:-2] + (1, dim))
    # np.hypot rounds the modulus as abs() of a complex scalar does; np.abs
    # can differ in the last bit, which would move digits of the outputs.
    return vectors * (pivots.conj() / np.hypot(pivots.real, pivots.imag))


def _diagonalize_stack(matrices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecompose a (k, d, d) stack of Hermitian matrices with one ``eigh``.

    Returns the (k, d) eigenvalues and the (k, d, d) phase-fixed
    eigenvectors.  Every guard runs on every matrix of the stack.  The
    eigenvectors must be orthonormal to the unitarity tolerance of a gate,
    because every propagator is applied straight from them
    (``apply_evolution``) and is never checked as a matrix.
    """
    try:
        values, vectors = np.linalg.eigh(matrices)
    except np.linalg.LinAlgError as exc:
        raise NumericalConsistencyError(f"eigensolver failed to converge: {exc}") from exc
    vectors = _fix_phases(vectors)
    identity = np.eye(matrices.shape[-1])
    ortho = np.max(np.abs(vectors.conj().swapaxes(-1, -2) @ vectors - identity), axis=(-2, -1))
    _refuse_above(ortho, _UNITARY_ATOL, "eigenvectors not orthonormal ({:.3e})")
    residual = np.max(
        np.abs(matrices @ vectors - vectors * values[:, np.newaxis, :]), axis=(-2, -1)
    )
    _refuse_above(residual, _CHECK_ATOL, "eigenpair residual {:.3e} too large")
    return values, vectors


def _spectrum_stacks(
    num_qubits: int, words: Sequence[PauliWord], coeffs: np.ndarray
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """(first row, eigenvalues, eigenvectors) of each stack of rows of ``coeffs``.

    A stack holds consecutive rows of one dtype (``_real_rows``), at most
    ``_STACK_ENTRIES`` matrix entries or a single matrix.  Its rows
    ``first`` to ``first + k`` are built (``_dense_stack``) and
    diagonalized (``_diagonalize_stack``) as one (k, d, d) stack, giving
    (k, d) eigenvalues and (k, d, d) eigenvectors.  Stacks are built as
    they are consumed, so memory stays at one stack however many rows.
    Every diagonalization in the package runs here.
    """
    real = _real_rows(words, coeffs).tolist()
    chunk = max(1, _STACK_ENTRIES // 4**num_qubits)
    start = 0
    while start < len(coeffs):
        stop = start + 1
        while stop < min(start + chunk, len(coeffs)) and real[stop] == real[start]:
            stop += 1
        matrices = _dense_stack(num_qubits, words, coeffs[start:stop], real[start])
        values, vectors = _diagonalize_stack(matrices)
        yield start, values, vectors
        start = stop


def exact_diagonalize(h: PauliSum) -> Spectrum:
    """Full eigendecomposition of the operator with deterministic phases.

    A real operator's float64 matrix goes through real ``eigh`` and real
    checks; the dtype of the matrix selects the arithmetic throughout.
    This is the one-operator case of the stacked path, ``_spectrum_stacks``.
    """
    _, values, vectors = next(_spectrum_stacks(h.num_qubits, h.words, _coefficient_row(h)))
    return Spectrum(h.num_qubits, values[0], vectors[0])


def _check_spectrum_dim(spectrum: Spectrum, dim: int) -> None:
    """Refuse a spectrum whose dimension is not the state dimension ``dim``."""
    if spectrum.dim != dim:
        raise DomainError(
            f"spectrum dimension {spectrum.dim} does not match state dimension {dim}"
        )


def _propagate(vectors: np.ndarray, phases: np.ndarray, amplitudes: np.ndarray) -> np.ndarray:
    """V (phases * (V^H x)) for each row x of ``amplitudes``, with V = ``vectors``.

    The kernel of every propagator the package applies: with ``phases`` =
    exp(-i * eigenvalues * t) it applies exp(-i h t).  Nothing is checked
    here; the callers check the sizes once.
    """
    return ((amplitudes.conj() @ vectors).conj() * phases) @ vectors.T


def apply_evolution(
    spectrum: Spectrum, duration: float, amplitudes: np.ndarray, phase: complex = 1.0
) -> np.ndarray:
    """Apply ``phase * exp(-i * h * duration)`` to amplitudes, from h's spectrum.

    The last axis of ``amplitudes`` is the system axis, so this takes a
    single vector or a stack of rows, one per branch of other registers.
    Each row x becomes V (phases * (V^H x)) (``_propagate``): two O(d^2)
    products, with no d x d matrix built.  The spectrum must come from
    ``exact_diagonalize``, whose orthonormality guard is the only
    unitarity check the result gets; only its size is checked here.
    """
    _check_spectrum_dim(spectrum, amplitudes.shape[-1])
    phases = phase * np.exp(-1j * spectrum.eigenvalues * duration)
    return _propagate(spectrum.eigenvectors, phases, amplitudes)


def evolution_unitary(spectrum: Spectrum, duration: float) -> GateMatrix:
    """The full-register propagator exp(-i * h * duration) as a dense gate.

    ``spectrum`` is ``exact_diagonalize(h)``.  This is ``apply_evolution``
    applied to the identity, for callers that need the matrix itself; the
    commands never build it.
    """
    # Row r of the result is the propagator applied to basis vector r,
    # i.e. column r of the propagator, hence the transpose.
    identity = np.eye(spectrum.dim)
    return GateMatrix(spectrum.num_qubits, apply_evolution(spectrum, duration, identity).T)


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
