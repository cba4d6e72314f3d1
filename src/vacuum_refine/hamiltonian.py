"""Real-weighted Pauli-string operators and their dense-matrix analysis."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from . import statevector
from .counters import _Counters
from .errors import (
    ConfigError,
    DomainError,
    NumericalConsistencyError,
    ResourceLimitError,
)
from .pauli import compile_words, odd_words, x_groups, x_masks
from .statevector import _UNITARY_ATOL, StateVector

DEFAULT_DENSE_CAP = 10
DEGENERACY_TOL = 1e-10
_CHECK_ATOL = 1e-10


@dataclass(frozen=True)
class PauliSum:
    """A Hermitian operator written as a real combination of Pauli words.

    Terms are validated, merged by string, stripped of exact-zero
    coefficients and stored sorted, so two operators built from the same
    content compare equal.  The operator's compiled form is built once,
    here, in the order of ``terms``: ``words`` is its read-only (words, 3)
    word table (``pauli.compile_words``) and ``coeffs`` the read-only
    (1, words) float64 row of its coefficients.  Every dense build, every
    application and every readout of the operator reads these two.
    """

    num_qubits: int
    terms: tuple[tuple[float, str], ...]
    words: np.ndarray = field(init=False, repr=False, compare=False)
    coeffs: np.ndarray = field(init=False, repr=False, compare=False)

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
        coeffs = np.array([coeff for coeff, _ in cleaned], dtype=np.float64).reshape(1, -1)
        coeffs.setflags(write=False)
        object.__setattr__(self, "terms", cleaned)
        object.__setattr__(self, "words", compile_words(string for _, string in cleaned))
        object.__setattr__(self, "coeffs", coeffs)


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
) -> tuple[np.ndarray, np.ndarray]:
    """The word table and coefficients of (1 - s) * h0 + s * h1 for every s at once.

    The words are the union of both operators' strings, sorted by string,
    as ``interpolate`` sorts them, and their read-only table takes its
    rows from the tables of h0 and h1.  Row k of the (steps x words)
    array is (1 - s_k) * c0 + s_k * c1, with 0 for a string an operator
    lacks: the coefficients of ``interpolate(h0, h1, s_k)``, except that
    a coefficient which vanishes stays in place as an exact zero.
    """
    _check_ramp(h0, h1, s_values)
    strings = sorted({string for h in (h0, h1) for _, string in h.terms})
    position = {string: i for i, string in enumerate(strings)}
    words = np.empty((len(strings), 3), dtype=np.int64)
    c0, c1 = np.zeros(len(strings)), np.zeros(len(strings))
    for h, c in ((h0, c0), (h1, c1)):
        rows = [position[string] for _, string in h.terms]
        words[rows] = h.words
        c[rows] = h.coeffs[0]
    words.setflags(write=False)
    s = np.asarray(s_values, dtype=np.float64)
    return words, np.outer(1.0 - s, c0) + np.outer(s, c1)


def _real_rows(words: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Whether each row's operator is real: no nonzero coefficient on an odd-Y word.

    Such an operator has only phases +1 and -1, so its matrix is float64.
    """
    return ~np.any((coeffs != 0.0) & odd_words(words), axis=1)


def _max_entry(buffer: np.ndarray) -> np.ndarray:
    """Largest entry modulus of each matrix of a stack, 0 if empty; a real stack is overwritten."""
    magnitudes = np.abs(buffer, out=buffer) if buffer.dtype == np.float64 else np.abs(buffer)
    return np.max(magnitudes, axis=(-2, -1), initial=0.0)


class _GroupedStack:
    """The operators sum_t coeffs[k, t] * words[t] of a stack, held as their X-group entries.

    This is the one dense build of the package.  The words that share an
    X mask x fill entries ``[k, c ^ x, c]`` and no others, so
    ``entries[k]`` holds the (G, d) summed entries D_x of operator k's G
    groups (``pauli.x_groups``: each entry sums its words in table order,
    starting from zero) and ``rows`` the (G, d) rows c ^ x at which they
    stand in column c, groups in ascending x.  The mirror entry
    ``[k, c, c ^ x]`` of each entry is in the same group, at column c ^ x,
    so the Hermiticity guard reads |H - H^dagger| of every operator once,
    from the entries, with the values of the dense difference.
    ``matrices()`` writes every operator's dense matrix into a new
    (k, d, d) stack; ``matrix(k)`` writes operator k's into one (d, d)
    buffer, made at the first call, and returns the buffer, which the next
    call for another operator overwrites.  Every operator of one word
    table fills the same entries, so the buffer is zeroed once, and both
    give the same bits.  Registers above ``DEFAULT_DENSE_CAP`` qubits are
    refused.
    """

    def __init__(self, num_qubits: int, words: np.ndarray, coeffs: np.ndarray, real: bool):
        _refuse_dense(num_qubits)
        dim = 2**num_qubits
        groups = len(x_masks(words))
        dtype = np.float64 if real else np.complex128
        self.entries = np.empty((coeffs.shape[0], groups, dim), dtype=dtype)
        self.rows = np.empty((groups, dim), dtype=np.int64)
        for g, (flipped, entries) in enumerate(x_groups(words, coeffs, dim, real)):
            self.rows[g] = flipped
            self.entries[:, g] = entries
        mirror = np.take_along_axis(self.entries, self.rows[np.newaxis], axis=2)
        if not real:
            np.conjugate(mirror, out=mirror)
        np.subtract(self.entries, mirror, out=mirror)
        _refuse_above(_max_entry(mirror), 1e-12, "dense matrix is not Hermitian")
        self._positions = self.rows * dim + np.arange(dim)
        self._matrix: np.ndarray | None = None
        self._written: int | None = None

    def matrices(self) -> np.ndarray:
        """The dense matrix of every operator, as a new (k, d, d) stack."""
        count, _, dim = self.entries.shape
        out = np.zeros((count, dim, dim), dtype=self.entries.dtype)
        out.reshape(count, dim * dim)[:, self._positions] = self.entries
        return out

    def matrix(self, k: int) -> np.ndarray:
        """The dense matrix of operator k, in the stack's one buffer."""
        if self._matrix is None:
            dim = self.rows.shape[1]
            self._matrix = np.zeros((dim, dim), dtype=self.entries.dtype)
        if self._written != k:
            self._matrix.reshape(-1)[self._positions] = self.entries[k]
            self._written = k
        return self._matrix


def _refuse_dense(num_qubits: int) -> None:
    """Refuse a register above ``DEFAULT_DENSE_CAP`` qubits, before any dense array exists."""
    if num_qubits > DEFAULT_DENSE_CAP:
        raise ResourceLimitError(
            f"dense matrix for {num_qubits} qubit(s) exceeds the cap of {DEFAULT_DENSE_CAP}"
        )


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
    is the one-operator case of the one dense build, ``_GroupedStack``.
    """
    real = _real_rows(h.words, h.coeffs)[0]
    return _GroupedStack(h.num_qubits, h.words, h.coeffs, real).matrices()[0]


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
    """Rotate each column, in place, so its largest-magnitude entry is real positive.

    Works on one matrix or a stack of them, and returns it.  For real
    vectors the factor is the pivot's sign, so this is a sign fix and the
    columns stay real.
    """
    dim = vectors.shape[-1]
    stack = vectors.reshape(-1, dim, dim)
    rows = np.argmax(np.abs(stack), axis=-2)
    pivots = stack[np.arange(len(stack))[:, np.newaxis], rows, np.arange(dim)]
    pivots = pivots.reshape(vectors.shape[:-2] + (1, dim))
    # np.hypot rounds the modulus as abs() of a complex scalar does; np.abs
    # can differ in the last bit, which would move digits of the outputs.
    vectors *= pivots.conj() / np.hypot(pivots.real, pivots.imag)
    return vectors


def _diagonalize_stack(matrices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecompose a (k, d, d) stack of Hermitian matrices with one ``eigh``.

    Returns the (k, d) eigenvalues and the (k, d, d) phase-fixed
    eigenvectors.  Every guard runs on every matrix of the stack.  The
    eigenvectors must be orthonormal to the unitarity tolerance of a gate,
    because every propagator is applied straight from them
    (``apply_evolution``) and is never checked as a matrix.  Both guards
    are computed in one reused (k, d, d) buffer.
    """
    try:
        values, vectors = np.linalg.eigh(matrices)
    except np.linalg.LinAlgError as exc:
        raise NumericalConsistencyError(f"eigensolver failed to converge: {exc}") from exc
    vectors = _fix_phases(vectors)
    k, dim = values.shape
    adjoint = vectors.swapaxes(-1, -2)
    if vectors.dtype != np.float64:
        adjoint = adjoint.conj()
    buffer = np.matmul(adjoint, vectors)
    buffer.reshape(k, dim * dim)[:, :: dim + 1] -= 1.0
    _refuse_above(_max_entry(buffer), _UNITARY_ATOL, "eigenvectors not orthonormal ({:.3e})")
    np.matmul(matrices, vectors, out=buffer)
    buffer -= vectors * values[:, np.newaxis, :]
    _refuse_above(_max_entry(buffer), _CHECK_ATOL, "eigenpair residual {:.3e} too large")
    return values, vectors


def exact_diagonalize(h: PauliSum, counters: _Counters | None = None) -> Spectrum:
    """Full eigendecomposition of the operator with deterministic phases.

    A real operator's float64 matrix goes through real ``eigh`` and real
    checks; the dtype of the matrix selects the arithmetic throughout.
    The matrix comes from the one dense build (``_GroupedStack``) and is
    diagonalized with every guard of a ramp stack (``_diagonalize_stack``).
    ``counters``, when given, count the matrix built and diagonalized.
    """
    real = _real_rows(h.words, h.coeffs)[0]
    matrices = _GroupedStack(h.num_qubits, h.words, h.coeffs, real).matrices()
    values, vectors = _diagonalize_stack(matrices)
    if counters is not None:
        counters.matrices_diagonalized += 1
        counters.diagonalized_d3 += 8**h.num_qubits
        counters.dense_bytes += matrices.nbytes
    return Spectrum(h.num_qubits, values[0], vectors[0])


def _check_spectrum_dim(spectrum: Spectrum, dim: int) -> None:
    """Refuse a spectrum whose dimension is not the state dimension ``dim``."""
    if spectrum.dim != dim:
        raise DomainError(
            f"spectrum dimension {spectrum.dim} does not match state dimension {dim}"
        )


def _conjugated(vectors: np.ndarray) -> np.ndarray:
    """V^* of one matrix or a stack of them, as a complex128 operand.

    A real V is cast, which is V^* and the copy numpy's implicit cast
    makes; a complex V is conjugated.
    """
    return vectors.conj() if np.iscomplexobj(vectors) else vectors.astype(np.complex128)


def _transposed(vectors: np.ndarray) -> np.ndarray:
    """V^T of one matrix or of each matrix of a stack, as a complex128 operand.

    A real V's is cast to a C-ordered copy, the copy numpy's implicit
    cast makes, so products with it have the bits of products with the
    real V.T, where BLAS on an F-ordered cast would not.  A complex V's is
    the transposed view, as the products have always taken it.
    """
    flipped = vectors.swapaxes(-1, -2)
    if np.iscomplexobj(vectors):
        return flipped
    return flipped.astype(np.complex128, order="C")


def _complex_pair(vectors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(V^*, V^T): the kernel's operands for one matrix or a stack, cast at once.

    Steps that share eigenvectors share the cast: the ramp casts each
    slice of a stack once (``_operands``), not each step.  The pair of a
    real V holds four times the bytes of V.
    """
    return _conjugated(vectors), _transposed(vectors)


def _operands(vectors: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """An iterator over the kernel's operand pairs for each matrix of a (k, d, d) stack.

    Consecutive matrices are cast in slices whose pairs hold at most
    ``statevector._STACK_ENTRIES`` entries between them, or one matrix,
    and each matrix's pair comes from its slice.
    """
    dim = vectors.shape[-1]
    rows = max(1, statevector._STACK_ENTRIES // (2 * dim * dim))
    # chain drops each slice's pairs before it casts the next slice
    return itertools.chain.from_iterable(
        zip(*_complex_pair(vectors[start : start + rows])) for start in range(0, len(vectors), rows)
    )


def _propagate(
    operands: tuple[np.ndarray, np.ndarray] | np.ndarray,
    phases: np.ndarray,
    amplitudes: np.ndarray,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """V (phases * (V^H x)) for each row x of ``amplitudes``: the one propagator kernel.

    With ``phases`` = exp(-i * eigenvalues * t) it applies exp(-i h t).
    In row form that is ((x @ V^*) * phases) @ V^T: one ``ndarray.dot``,
    one in-place phase multiplication and one ``ndarray.dot`` into
    ``out``, when given.  ``operands`` is the pair (V^*, V^T) of
    ``_complex_pair``, or the eigenvectors V themselves, whose operands
    are then made here one at a time, each freed before the next is made.
    The amplitudes are one vector or a (rows, d) stack; ``out`` must be
    complex128, C-ordered and of their shape.  Either form gives the bits
    of ((x^* @ V)^* * phases) @ V.T with numpy's implicit casts, for real
    and complex V.  Nothing is checked here; the callers check the sizes
    once.
    """
    pair = isinstance(operands, tuple)
    # the method form skips np.dot's dispatch, which costs more than a 2x2 product
    rotated = amplitudes.dot(operands[0] if pair else _conjugated(operands))
    rotated *= phases
    return rotated.dot(operands[1] if pair else _transposed(operands), out=out)


def apply_evolution(
    spectrum: Spectrum, duration: float, amplitudes: np.ndarray, phase: complex = 1.0
) -> np.ndarray:
    """Apply ``phase * exp(-i * h * duration)`` to amplitudes, from h's spectrum.

    The last axis of ``amplitudes`` is the system axis, so this takes a
    single vector or a stack of rows, one per branch of other registers.
    Each row x becomes V (phases * (V^H x)) (``_propagate``): two O(d^2)
    products, with no propagator built.  One application uses each
    operand once, so the kernel casts them one at a time; only steps that
    share eigenvectors share a cast pair.  The spectrum must come from
    ``exact_diagonalize``, whose orthonormality guard is the only
    unitarity check the result gets; only its size is checked here.
    """
    _check_spectrum_dim(spectrum, amplitudes.shape[-1])
    phases = phase * np.exp(-1j * spectrum.eigenvalues * duration)
    shape = amplitudes.shape
    # dot multiplies by BLAS a vector or a matrix of rows, not a deeper stack
    rows = amplitudes.reshape(-1, shape[-1]) if amplitudes.ndim > 2 else amplitudes
    return _propagate(spectrum.eigenvectors, phases, rows).reshape(shape)


def evolution_unitary(spectrum: Spectrum, duration: float) -> np.ndarray:
    """The full-register propagator exp(-i * h * duration) as a dense matrix.

    ``spectrum`` is ``exact_diagonalize(h)``.  This is ``apply_evolution``
    applied to the identity, for callers that need the matrix itself; the
    commands never build it.  As for ``apply_evolution``, the spectrum's
    orthonormality guard is the result's unitarity check.
    """
    # Row r of the result is the propagator applied to basis vector r,
    # i.e. column r of the propagator, hence the transpose.
    identity = np.eye(spectrum.dim)
    return apply_evolution(spectrum, duration, identity).T


def parse_pauli_text(text: str) -> PauliSum:
    """Parse the one-term-per-line ``<coeff> <string>`` operator format.

    Blank lines and ``#`` comments are allowed.  Raises ``ConfigError``
    with the offending line number otherwise, and for terms that merge to
    the zero operator.
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
    try:
        h = PauliSum(width, tuple(entries))
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc
    if not h.terms:
        raise ConfigError("operator text's terms cancel: it is the zero operator")
    return h
