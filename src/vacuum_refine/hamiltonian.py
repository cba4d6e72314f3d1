"""Real-weighted Pauli-string operators and their dense-matrix analysis."""

from __future__ import annotations

import contextlib
import ctypes
import fnmatch
import functools
import math
import os
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Sequence

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
# steps.  Stacks diagonalized by several threads at once hold at most
# _FLIGHT_ENTRIES matrix entries between them: two full stacks, about 3 MB
# more than one at 8 qubits, whatever the core count; from 9 qubits one
# matrix is more than half of it, so the stacks are diagonalized one at a
# time.
_FLIGHT_ENTRIES = 2 * _STACK_ENTRIES

# The thread-count getter and setter of the OpenBLAS that numpy (>= 2.0)
# wheels bundle in numpy.libs.
_BLAS_GET = "scipy_openblas_get_num_threads64_"
_BLAS_SET = "scipy_openblas_set_num_threads64_"


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


def _max_entry(buffer: np.ndarray) -> np.ndarray:
    """Largest entry modulus of each matrix of a (k, d, d) stack; a real stack is overwritten."""
    magnitudes = np.abs(buffer, out=buffer) if buffer.dtype == np.float64 else np.abs(buffer)
    return np.max(magnitudes, axis=(-2, -1))


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
    difference = np.conjugate(out.swapaxes(-1, -2))
    np.subtract(out, difference, out=difference)
    _refuse_above(_max_entry(difference), 1e-12, "dense matrix is not Hermitian")
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


class _Blas:
    """The loaded OpenBLAS's thread count, read and pinned through its C API."""

    def __init__(self, get: Callable[[], int], set_: Callable[[int], None]):
        self._get = get
        self._set = set_
        self._lock = threading.Lock()
        self._pins = 0
        self._saved = 0

    def threads(self) -> int:
        return int(self._get())

    @contextlib.contextmanager
    def one_thread(self) -> Iterator[None]:
        """Run OpenBLAS on one thread inside the block.

        The count is process-wide, so nested or overlapping blocks share
        one pin: the first saves the count and the last restores it.
        """
        with self._lock:
            if self._pins == 0:
                self._saved = self.threads()
                self._set(1)
            self._pins += 1
        try:
            yield
        finally:
            with self._lock:
                self._pins -= 1
                if self._pins == 0:
                    self._set(self._saved)


@functools.cache
def _blas() -> _Blas | None:
    """A handle on numpy's bundled OpenBLAS, or None when none is found."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    try:
        names = sorted(fnmatch.filter(os.listdir(libs), "*openblas*"))
    except OSError:
        return None
    for name in names:
        lib = ctypes.CDLL(os.path.join(libs, name))
        if hasattr(lib, _BLAS_GET) and hasattr(lib, _BLAS_SET):
            get, set_ = getattr(lib, _BLAS_GET), getattr(lib, _BLAS_SET)
            get.restype, get.argtypes = ctypes.c_int, []
            set_.restype, set_.argtypes = None, [ctypes.c_int]
            return _Blas(get, set_)
    return None


def _cores() -> int:
    """Cores this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _workers(stacks: int, stack_entries: int) -> int:
    """Threads that diagonalize ``stacks`` stacks of up to ``stack_entries`` entries.

    One per core, at most one per stack, and no more than keep
    ``_FLIGHT_ENTRIES`` entries in flight.  Several threads run only when
    each eigendecomposition can be held to one BLAS thread; otherwise it
    is one.
    """
    workers = min(stacks, _cores(), max(1, _FLIGHT_ENTRIES // stack_entries))
    if workers < 2 or _blas() is None:
        return 1
    return workers


def _in_order(count: int, compute: Callable[[int], Any], workers: int) -> Iterator[Any]:
    """Yield compute(0), ..., compute(count - 1), computed by ``workers`` threads.

    The calling thread computes items 0, workers, 2 * workers, ... and
    helper thread w the items w, w + workers, ...  An item starts only
    while it is fewer than ``workers`` places ahead of the first item the
    consumer has not finished with, so at most ``workers`` items are in
    flight; with one worker no helper starts and each item is computed as
    it is consumed.  An exception raised computing an item is raised when
    that item is due.  However the consumer stops, the helpers are stopped and
    joined before this generator returns.
    """
    results: dict[int, tuple] = {}
    ready = threading.Condition()
    finished = 0
    stopping = False

    def helper(first: int) -> None:
        for i in range(first, count, workers):
            with ready:
                ready.wait_for(lambda: stopping or i < finished + workers)
                if stopping:
                    return
            try:
                result = (compute(i), None)
            except BaseException as exc:  # raised in the consumer's thread instead
                result = (None, exc)
            with ready:
                results[i] = result
                ready.notify_all()

    helpers: list[threading.Thread] = []
    try:
        for w in range(1, workers):
            thread = threading.Thread(target=helper, args=(w,), daemon=True)
            thread.start()
            helpers.append(thread)
        for i in range(count):
            if i % workers == 0:
                item = compute(i)
            else:
                with ready:
                    ready.wait_for(lambda: i in results)
                    item, error = results.pop(i)
                if error is not None:
                    raise error
            yield item
            item = None  # the consumer's reference is then the last one
            with ready:
                finished = i + 1
                ready.notify_all()
    finally:
        with ready:
            stopping = True
            ready.notify_all()
        for thread in helpers:
            thread.join()


class _SpectrumStacks:
    """(first row, eigenvalues, eigenvectors) of each stack of rows of ``coeffs``.

    A stack holds consecutive rows of one dtype (``_real_rows``), at most
    ``_STACK_ENTRIES`` matrix entries or a single matrix.  Its rows
    ``first`` to ``first + k`` are built (``_dense_stack``) and
    diagonalized (``_diagonalize_stack``) as one (k, d, d) stack, giving
    (k, d) eigenvalues and (k, d, d) eigenvectors.  Every diagonalization
    in the package runs here.

    Iterating yields the stacks in order, computed by ``workers`` threads
    (``_workers``, ``_in_order``): one per core of the process's affinity,
    at most one stack in flight per thread and ``_FLIGHT_ENTRIES`` entries
    in flight in all.  With one worker the calling thread computes each
    stack as it is consumed.  With more, OpenBLAS is held to one thread
    for the whole process from the first stack until the iteration ends or
    is abandoned, consumer's work between stacks included; the previous
    count is then restored.  One BLAS thread per eigendecomposition is what
    makes the threads pay: OpenBLAS's own threads do not speed up ``eigh``
    at these sizes.
    """

    def __init__(self, num_qubits: int, words: Sequence[PauliWord], coeffs: np.ndarray):
        self._num_qubits = num_qubits
        self._words = words
        self._coeffs = coeffs
        self._real = real = _real_rows(words, coeffs).tolist()
        chunk = max(1, _STACK_ENTRIES // 4**num_qubits)
        self._starts = starts = [0]
        while starts[-1] < len(coeffs):
            start = starts[-1]
            stop = start + 1
            while stop < min(start + chunk, len(coeffs)) and real[stop] == real[start]:
                stop += 1
            starts.append(stop)
        self.workers = _workers(len(starts) - 1, chunk * 4**num_qubits)

    def _diagonalize(self, i: int) -> tuple[int, np.ndarray, np.ndarray]:
        start, stop = self._starts[i], self._starts[i + 1]
        matrices = _dense_stack(
            self._num_qubits, self._words, self._coeffs[start:stop], self._real[start]
        )
        values, vectors = _diagonalize_stack(matrices)
        return start, values, vectors

    def __iter__(self) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
        with _blas().one_thread() if self.workers > 1 else contextlib.nullcontext():
            yield from _in_order(len(self._starts) - 1, self._diagonalize, self.workers)


def exact_diagonalize(h: PauliSum) -> Spectrum:
    """Full eigendecomposition of the operator with deterministic phases.

    A real operator's float64 matrix goes through real ``eigh`` and real
    checks; the dtype of the matrix selects the arithmetic throughout.
    This is the one-operator case of the stacked path, ``_SpectrumStacks``.
    """
    stacks = _SpectrumStacks(h.num_qubits, h.words, _coefficient_row(h))
    _, values, vectors = next(iter(stacks))
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
