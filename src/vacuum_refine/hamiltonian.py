"""Real-weighted Pauli-string operators and their dense-matrix analysis."""

from __future__ import annotations

import contextlib
import ctypes
import fnmatch
import functools
import itertools
import math
import os
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Sequence

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
# At most about statevector._STACK_ENTRIES matrix entries are built and
# diagonalized in one stack: every one-qubit ramp step fits in one, while
# at 8 qubits and more a stack is a single matrix, so peak memory does not
# grow with the steps.  Stacks diagonalized by several threads at once hold
# at most _FLIGHT_STACKS full stacks' entries between them: about 3 MB more
# than one stack at 8 qubits, whatever the core count; from 9 qubits one
# matrix is more than half of that, so the stacks are diagonalized one at
# a time.  Both bounds read _STACK_ENTRIES when they are used.
_FLIGHT_STACKS = 2

# The thread-count getter and setter of the OpenBLAS that numpy (>= 2.0)
# wheels bundle in numpy.libs.
_BLAS_GET = "scipy_openblas_get_num_threads64_"
_BLAS_SET = "scipy_openblas_set_num_threads64_"


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
    """Largest entry modulus of each matrix of a (k, d, d) stack; a real stack is overwritten."""
    magnitudes = np.abs(buffer, out=buffer) if buffer.dtype == np.float64 else np.abs(buffer)
    return np.max(magnitudes, axis=(-2, -1))


def _checked_groups(
    words: np.ndarray, coeffs: np.ndarray, dim: int, real: bool
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """``pauli.x_groups``, and after the last group the Hermiticity guard of every row.

    The mirror entry ``[k, c, c ^ x]`` of each entry ``[k, c ^ x, c]`` is
    in the same group, at column c ^ x, so the guard reads |H - H^dagger|
    group by group, d entries per row a group, with the values of the
    dense difference.  Every dense build reads its groups here.
    """
    asymmetry = np.zeros(coeffs.shape[0])
    for flipped, entries in x_groups(words, coeffs, dim, real):
        mirror = entries[:, flipped]
        if not real:
            np.conjugate(mirror, out=mirror)
        np.subtract(entries, mirror, out=mirror)
        np.maximum(asymmetry, _max_entry(mirror[:, np.newaxis]), out=asymmetry)
        yield flipped, entries
    _refuse_above(asymmetry, 1e-12, "dense matrix is not Hermitian")


def _dense_stack(
    num_qubits: int,
    words: np.ndarray,
    coeffs: np.ndarray,
    real: bool,
) -> np.ndarray:
    """Dense matrices of sum_t coeffs[k, t] * words[t], one per row k, as one stack.

    The words that share an X mask x fill entries ``[k, c ^ x, c]`` and
    no others, so each group is one assignment of its summed entries
    (``_checked_groups``): each entry sums its words in table order,
    starting from zero.  Registers above ``DEFAULT_DENSE_CAP`` qubits are
    refused.
    """
    _refuse_dense(num_qubits)
    dim = 2**num_qubits
    out = np.zeros((coeffs.shape[0], dim, dim), dtype=np.float64 if real else np.complex128)
    columns = np.arange(dim)
    for flipped, entries in _checked_groups(words, coeffs, dim, real):
        out[:, flipped, columns] = entries
    return out


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
    is the one-operator case of the stacked build, ``_dense_stack``.
    """
    real = _real_rows(h.words, h.coeffs)[0]
    return _dense_stack(h.num_qubits, h.words, h.coeffs, real)[0]


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
    ``_FLIGHT_STACKS`` * ``_STACK_ENTRIES`` entries in flight.  Several
    threads run only when each eigendecomposition can be held to one BLAS
    thread; otherwise it is one.
    """
    flight = _FLIGHT_STACKS * statevector._STACK_ENTRIES
    workers = min(stacks, _cores(), max(1, flight // stack_entries))
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
    it is consumed.  The generator drops its reference to an item before
    it computes or waits for the next, so an item the consumer has let go
    of is freed by then.  An exception raised computing an item is raised
    when that item is due.  However the consumer stops, the helpers are
    stopped and joined before this generator returns.
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
    """(first row, values, vectors, matrices) of each stack of rows of ``coeffs``.

    A stack holds consecutive rows of one dtype (``_real_rows``); every
    spectrum in the package is computed here.  By default a stack is at
    most ``_STACK_ENTRIES`` matrix entries or one matrix, built as one
    (k, d, d) stack (``_dense_stack``) and diagonalized
    (``_diagonalize_stack``): it yields (k, d) eigenvalues, (k, d, d)
    eigenvectors and None.  A ``ground_only`` stack is as many rows as
    fit their X-group entries (k G d for G X masks) in
    ``_STACK_ENTRIES``, or one, held as a ``chebyshev._GroupedStack``,
    which builds each matrix on demand in one buffer.  It yields (k, 3)
    rows [E0, E1, upper], the (k, d, 1) ground vectors
    (``chebyshev._lowest_levels``) and the grouped stack, for a caller
    that steps with its matrices.  Either way columns 0 and 1 of the
    values are the two lowest levels and column 0 of the vectors the
    ground vector; ``run_adiabatic`` reads nothing else, bar the last
    column as the Chebyshev step's upper bound.  A register above
    ``DEFAULT_DENSE_CAP`` qubits is refused before any stack is built.

    Iterating yields the stacks in order.  ``ground_only`` stacks are
    computed on the calling thread as they are consumed, each operator
    warm-started from the one before; that state lives in the
    iteration, so iterating again gives the same bits.  Other stacks are
    computed by ``workers`` threads (``_workers``, ``_in_order``): one
    per core of the process's affinity, at most one stack in flight per
    thread and ``_FLIGHT_STACKS`` full stacks' entries in flight in all.
    With more than one, OpenBLAS is held to one thread from the first
    stack until the iteration ends or is abandoned; one BLAS thread per
    eigendecomposition is what makes the threads pay.  Each stack is
    added to ``counters``, when given, as it is yielded: the bytes of its
    matrices (of its buffer, ``ground_only``), and the number and summed
    d^3 of those diagonalized.  ``diagonalization_workers`` keeps the most
    threads any stacks of the command ran on.
    """

    def __init__(
        self,
        num_qubits: int,
        words: np.ndarray,
        coeffs: np.ndarray,
        counters: _Counters | None = None,
        ground_only: bool = False,
    ):
        _refuse_dense(num_qubits)
        self._num_qubits = num_qubits
        self._words = words
        self._coeffs = coeffs
        self._counters = counters
        self._ground_only = ground_only
        real = _real_rows(words, coeffs)
        self._real = real.tolist()
        # the entries a row takes: its X groups' (``ground_only``) or its matrix's
        row = len(x_masks(words)) * 2**num_qubits if ground_only else 4**num_qubits
        chunk = max(1, statevector._STACK_ENTRIES // row)
        # runs of rows of one dtype, each split every ``chunk`` rows
        bounds = [0, *(np.flatnonzero(real[1:] != real[:-1]) + 1).tolist(), len(coeffs)]
        self._starts = starts = [
            start for first, stop in zip(bounds, bounds[1:]) for start in range(first, stop, chunk)
        ] + [len(coeffs)]
        # a ground_only stack is warm-started from the one before, so in order
        self.workers = 1 if ground_only else _workers(len(starts) - 1, chunk * 4**num_qubits)
        if counters is not None:
            counters.diagonalization_workers = max(counters.diagonalization_workers, self.workers)

    def _diagonalize(self, i: int) -> tuple[int, np.ndarray, np.ndarray, None]:
        start, stop = self._starts[i], self._starts[i + 1]
        rows = self._coeffs[start:stop]
        matrices = _dense_stack(self._num_qubits, self._words, rows, self._real[start])
        return (start, *_diagonalize_stack(matrices), None)

    def _ground_stacks(self) -> Iterator[tuple[int, np.ndarray, np.ndarray, Any]]:
        # imported here: only the ramps of 7 qubits and more need it
        from .chebyshev import _GroupedStack, _lowest_levels

        warm = None  # from the operator before, within this iteration
        for start, stop in zip(self._starts, self._starts[1:]):
            grouped = _GroupedStack(
                self._num_qubits, self._words, self._coeffs[start:stop], self._real[start]
            )
            values, grounds, warm = _lowest_levels(grouped, warm, self._counters)
            yield start, values, grounds, grouped
            del grouped, values, grounds  # freed before the next stack is built

    def __iter__(self) -> Iterator[tuple[int, np.ndarray, np.ndarray, Any]]:
        counters = self._counters
        if self._ground_only:
            stacks = self._ground_stacks()
        else:
            stacks = _in_order(len(self._starts) - 1, self._diagonalize, self.workers)
        with _blas().one_thread() if self.workers > 1 else contextlib.nullcontext():
            for stack in stacks:
                if counters is not None:
                    matrices = len(stack[1])
                    if not self._ground_only:
                        counters.matrices_diagonalized += matrices
                        counters.diagonalized_d3 += matrices * 8**self._num_qubits
                    built = 1 if self._ground_only else matrices
                    itemsize = 8 if self._real[stack[0]] else 16
                    counters.dense_bytes += built * 4**self._num_qubits * itemsize
                yield stack
                # the consumer's references are then the last ones, so the
                # stack is freed before the next one is diagonalized
                del stack


def exact_diagonalize(h: PauliSum, counters: _Counters | None = None) -> Spectrum:
    """Full eigendecomposition of the operator with deterministic phases.

    A real operator's float64 matrix goes through real ``eigh`` and real
    checks; the dtype of the matrix selects the arithmetic throughout.
    This is the one-operator case of the stacked path, ``_SpectrumStacks``,
    and is added to ``counters`` when they are given.
    """
    stacks = _SpectrumStacks(h.num_qubits, h.words, h.coeffs, counters)
    _, values, vectors, _ = next(iter(stacks))
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
