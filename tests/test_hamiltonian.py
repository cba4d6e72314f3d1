import ast
import inspect
import itertools
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from vacuum_refine import (
    ConfigError,
    DomainError,
    NumericalConsistencyError,
    PauliSum,
    ResourceLimitError,
    apply_evolution,
    exact_diagonalize,
    evolution_unitary,
    hadamard_hamiltonian,
    initial_hamiltonian,
    interpolate,
    parse_pauli_text,
    ramp_coefficients,
    to_matrix,
    transverse_ising_pair,
)

from vacuum_refine import adiabatic, chebyshev, experiments, hamiltonian, statevector
from vacuum_refine.counters import _Counters
from vacuum_refine.hamiltonian import (
    DEGENERACY_TOL,
    _complex_pair,
    _fix_phases,
    _GroupedStack,
    _diagonalize_stack,
    _propagate,
)
from vacuum_refine.pauli import compile_words
from vacuum_refine.statevector import _STACK_ENTRIES

from oracles import haar_unitary, pauli_sum_matrix

scipy_linalg = pytest.importorskip("scipy.linalg")

J = np.pi / 4
INV_SQRT2 = 1.0 / np.sqrt(2.0)
# two Y letters per word: i^2 = -1, so the matrix is still real
REAL_WITH_YY = PauliSum(3, ((0.7, "YYI"), (-0.4, "IYY"), (0.9, "XIZ"), (-0.3, "ZZX")))


def _tfim_chain(n, seed=3):
    """Open TFIM chain -sum J_i Z_i Z_i+1 - sum g_i X_i with drawn couplings."""
    rng = np.random.default_rng(seed)
    terms = []
    for i in range(n - 1):
        terms.append((-float(rng.uniform(0.5, 1.5)), "I" * i + "ZZ" + "I" * (n - i - 2)))
    for i in range(n):
        terms.append((-float(rng.uniform(0.5, 1.5)), "I" * i + "X" + "I" * (n - i - 1)))
    return PauliSum(n, tuple(terms))


def test_pauli_sum_validation():
    with pytest.raises(DomainError):
        PauliSum(1, ((1.0, "Q"),))
    with pytest.raises(DomainError):
        PauliSum(2, ((1.0, "Z"),))
    with pytest.raises(DomainError):
        PauliSum(1, ((1.0 + 1.0j, "Z"),))
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(DomainError, match="not finite"):
            PauliSum(1, ((bad, "Z"),))
    # finite inputs whose merged sum overflows are refused as well
    with pytest.raises(DomainError, match="not finite"):
        PauliSum(1, ((1e308, "Z"), (1e308, "Z")))


def test_pauli_sum_merges_and_sorts():
    h = PauliSum(1, ((0.25, "Z"), (0.5, "X"), (0.25, "Z")))
    assert h.terms == ((0.5, "X"), (0.5, "Z"))
    zero = PauliSum(1, ((1.0, "Z"), (-1.0, "Z")))
    assert zero.terms == ()


def test_builders_have_expected_terms():
    h = hadamard_hamiltonian(J)
    w = -J * INV_SQRT2
    assert h.terms == ((w, "X"), (w, "Z"))
    h0 = initial_hamiltonian(J, 3)
    assert h0.terms == ((-J, "IIZ"), (-J, "IZI"), (-J, "ZII"))
    pair = transverse_ising_pair(J)
    assert pair.terms == ((-J, "IX"), (-J, "XI"), (-J, "ZZ"))


def test_interpolate_endpoints_and_affinity():
    h0 = initial_hamiltonian(J, 1)
    h1 = hadamard_hamiltonian(J)
    assert interpolate(h0, h1, 0.0) == h0
    assert interpolate(h0, h1, 1.0) == h1
    mid = to_matrix(interpolate(h0, h1, 0.3))
    direct = 0.7 * to_matrix(h0) + 0.3 * to_matrix(h1)
    assert np.allclose(mid, direct, atol=1e-15)
    with pytest.raises(DomainError):
        interpolate(h0, PauliSum(2, ((1.0, "ZZ"),)), 0.5)


def test_to_matrix_matches_dense_oracle():
    # Entries are sums of coeff * (1, i, -1 or -i) in term order on both
    # routes, so the bitmask build must agree with the oracle exactly.
    rng = np.random.default_rng(5)
    letters = np.array(list("IXYZ"))
    with_y = 0
    for _ in range(30):
        n = int(rng.integers(1, 7))
        terms = tuple(
            (float(rng.normal()), "".join(rng.choice(letters, size=n)))
            for _ in range(int(rng.integers(1, 5)))
        )
        h = PauliSum(n, terms)
        with_y += any("Y" in s for _, s in h.terms)
        assert np.array_equal(to_matrix(h), pauli_sum_matrix(h.terms, n))
    assert with_y >= 15
    # far more terms than columns: every 4-qubit word (256, complex; 16 X
    # masks of 16 words each) and every one without Y (81, real; 16 X
    # masks of 1 to 16 words), so every group sums many words
    for letters, dtype in (("IXYZ", np.complex128), ("IXZ", np.float64)):
        strings = ["".join(w) for w in itertools.product(letters, repeat=4)]
        h = PauliSum(4, tuple((float(rng.normal()), s) for s in strings))
        assert len(h.terms) == len(strings)
        got = to_matrix(h)
        assert got.dtype == dtype
        assert np.array_equal(got, pauli_sum_matrix(h.terms, 4))


@pytest.mark.parametrize(
    "n, letters",
    # 32 X masks of 32 words each (complex); one X mask of 64 words (real)
    [(5, "IXYZ"), (6, "IZ")],
    ids=["every-word", "diagonal"],
)
def test_dense_build_holds_a_few_matrices_beyond_its_result(n, letters):
    # a group's phases hold at most one matrix's entries and the
    # Hermiticity guard one more, whatever the number of words
    rng = np.random.default_rng(60 + n)
    strings = ["".join(w) for w in itertools.product(letters, repeat=n)]
    h = PauliSum(n, tuple((float(rng.normal()), s) for s in strings))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        matrix = to_matrix(h)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert np.array_equal(matrix, pauli_sum_matrix(h.terms, n))
    assert peak - matrix.nbytes <= 4 * matrix.nbytes


def test_to_matrix_cap():
    big = PauliSum(11, ((1.0, "Z" * 11),))
    with pytest.raises(ResourceLimitError):
        to_matrix(big)


def test_hadamard_spectrum_closed_form():
    spec = exact_diagonalize(hadamard_hamiltonian(J))
    assert spec.eigenvalues == pytest.approx([-J, J], abs=1e-14)
    assert spec.gap == pytest.approx(2 * J, abs=1e-14)
    assert not spec.degenerate
    ground = spec.ground_state
    assert ground.amplitudes == pytest.approx(
        [np.cos(np.pi / 8), np.sin(np.pi / 8)], abs=1e-14
    )


def test_interpolated_gap_closed_form():
    # at s the two couplings are z = -J(1-s) - Js/sqrt(2), x = -Js/sqrt(2)
    # so the gap is 2*sqrt(z^2 + x^2)
    s = 0.5
    h = interpolate(initial_hamiltonian(J, 1), hadamard_hamiltonian(J), s)
    spec = exact_diagonalize(h)
    z = -J * (1 - s) - J * s * INV_SQRT2
    x = -J * s * INV_SQRT2
    assert spec.gap == pytest.approx(2 * np.hypot(z, x), abs=1e-14)


def test_ising_pair_spectrum_closed_form():
    spec = exact_diagonalize(transverse_ising_pair(J))
    expected = np.sort([-J * np.sqrt(5), -J, J, J * np.sqrt(5)])
    assert spec.eigenvalues == pytest.approx(expected, abs=1e-13)
    assert spec.gap == pytest.approx(J * (np.sqrt(5) - 1), abs=1e-13)


def test_diagonalization_reconstructs_matrix():
    rng = np.random.default_rng(9)
    letters = np.array(list("IXYZ"))
    for _ in range(10):
        n = int(rng.integers(1, 4))
        terms = tuple(
            (float(rng.normal()), "".join(rng.choice(letters, size=n)))
            for _ in range(4)
        )
        h = PauliSum(n, terms)
        spec = exact_diagonalize(h)
        v = spec.eigenvectors
        rebuilt = (v * spec.eigenvalues) @ v.conj().T
        assert np.allclose(rebuilt, to_matrix(h), atol=1e-12)
        assert np.allclose(v.conj().T @ v, np.eye(spec.dim), atol=1e-12)


def test_phase_convention_is_deterministic():
    spec = exact_diagonalize(hadamard_hamiltonian(J))
    # largest-magnitude entry of each eigenvector is real and positive
    for col in spec.eigenvectors.T:
        pivot = col[np.argmax(np.abs(col))]
        assert abs(pivot.imag) < 1e-14
        assert pivot.real > 0


def _fix_phases_by_column(vectors):
    fixed = vectors.copy()
    for j in range(fixed.shape[1]):
        col = fixed[:, j]
        pivot = col[np.argmax(np.abs(col))]
        fixed[:, j] = col * (pivot.conjugate() / abs(pivot))
    return fixed


def test_fix_phases_matches_column_loop():
    rng = np.random.default_rng(8)
    for dim in (2, 4, 16, 64, 256):
        for _ in range(4):
            vectors = haar_unitary(dim, rng)
            expected = _fix_phases_by_column(vectors).tobytes()
            assert _fix_phases(vectors).tobytes() == expected


def test_degenerate_flag():
    spec = exact_diagonalize(PauliSum(2, ((1.0, "ZZ"),)))
    assert spec.degenerate
    # the lowest column is still returned deterministically; callers decide
    # whether degeneracy is fatal
    assert spec.ground_state.num_qubits == 2
    # the real path flags a degenerate ground level too
    ferro = exact_diagonalize(PauliSum(2, ((-1.0, "ZZ"),)))
    assert ferro.eigenvectors.dtype == np.float64
    assert ferro.degenerate


def test_evolution_unitary_matches_expm():
    rng = np.random.default_rng(21)
    letters = np.array(list("IXYZ"))
    operators = []
    for _ in range(10):
        n = int(rng.integers(1, 3))
        terms = tuple(
            (float(rng.normal()), "".join(rng.choice(letters, size=n)))
            for _ in range(3)
        )
        operators.append(PauliSum(n, terms))
    # propagators built from real spectra, including one with Y letters
    real = [_tfim_chain(3), _tfim_chain(5), transverse_ising_pair(J), REAL_WITH_YY]
    assert all(exact_diagonalize(h).eigenvectors.dtype == np.float64 for h in real)
    for h in operators + real:
        t = float(rng.uniform(0.1, 3.0))
        got = evolution_unitary(exact_diagonalize(h), t)
        expected = scipy_linalg.expm(-1j * t * to_matrix(h))
        assert np.max(np.abs(got - expected)) < 1e-12


@pytest.mark.parametrize(
    "h",
    [_tfim_chain(n) for n in range(1, 7)]
    + [transverse_ising_pair(J), hadamard_hamiltonian(J), REAL_WITH_YY],
    ids=[f"chain{n}" for n in range(1, 7)] + ["tfim2", "hadamard", "yy"],
)
def test_real_operator_diagonalized_in_real_arithmetic(h):
    assert to_matrix(h).dtype == np.float64
    spec = exact_diagonalize(h)
    assert spec.eigenvectors.dtype == np.float64
    oracle = pauli_sum_matrix(h.terms, h.num_qubits)
    values, vectors = np.linalg.eigh(oracle)
    assert np.max(np.abs(spec.eigenvalues - values)) < 1e-12
    # a non-degenerate level's projector does not depend on the phase fix
    spacing = np.diff(values)
    for j in range(len(values)):
        below = spacing[j - 1] if j > 0 else np.inf
        above = spacing[j] if j < len(spacing) else np.inf
        if min(below, above) < 1e-6:
            continue
        got = np.outer(spec.eigenvectors[:, j], spec.eigenvectors[:, j])
        expected = np.outer(vectors[:, j], vectors[:, j].conj())
        assert np.max(np.abs(got - expected)) < 1e-12


def test_single_y_operator_stays_complex():
    h = PauliSum(2, ((0.8, "YZ"), (-0.5, "XI"), (0.3, "ZZ")))
    assert to_matrix(h).dtype == np.complex128
    spec = exact_diagonalize(h)
    assert spec.eigenvectors.dtype == np.complex128
    values = np.linalg.eigh(pauli_sum_matrix(h.terms, 2))[0]
    assert np.max(np.abs(spec.eigenvalues - values)) < 1e-12


def test_hermiticity_guard_catches_nan():
    h = PauliSum(1, ((1.0, "X"),))
    # bypass the constructor's finiteness check to reach the guard itself;
    # the matrix is built from the operator's cached coefficient row
    object.__setattr__(h, "terms", ((float("nan"), "X"),))
    object.__setattr__(h, "coeffs", np.array([[np.nan]]))
    with pytest.raises(NumericalConsistencyError, match="Hermitian"):
        to_matrix(h)


def test_residual_guard_catches_nan(monkeypatch):
    vectors = np.array([[1.0, 1.0], [-1.0, 1.0]]) * INV_SQRT2
    # eigh sees a stack of one matrix and answers with stacked arrays
    monkeypatch.setattr(np.linalg, "eigh", lambda m: (np.array([[np.nan, 1.0]]), vectors[None]))
    with pytest.raises(NumericalConsistencyError, match="residual"):
        exact_diagonalize(PauliSum(1, ((1.0, "X"),)))


def test_orthonormality_guard_catches_nan(monkeypatch):
    vectors = np.array([[np.nan, 1.0], [1.0, 0.0]])
    monkeypatch.setattr(np.linalg, "eigh", lambda m: (np.array([[-1.0, 1.0]]), vectors[None]))
    with pytest.raises(NumericalConsistencyError, match="orthonormal"):
        exact_diagonalize(PauliSum(1, ((1.0, "X"),)))


@pytest.mark.parametrize(
    "h",
    [_tfim_chain(n) for n in range(1, 7)]
    + [transverse_ising_pair(J), PauliSum(3, ((0.6, "XYZ"), (-0.8, "ZIX"), (0.3, "IZZ")))],
    ids=[f"chain{n}" for n in range(1, 7)] + ["tfim2", "one_y"],
)
def test_apply_evolution_matches_expm(h):
    rng = np.random.default_rng(h.num_qubits)
    spec = exact_diagonalize(h)
    dim = spec.dim
    t = 0.83
    u = scipy_linalg.expm(-1j * t * pauli_sum_matrix(h.terms, h.num_qubits))
    x = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    assert np.max(np.abs(apply_evolution(spec, t, x) - u @ x)) < 1e-12
    # real amplitudes are evolved as their complex cast
    assert np.max(np.abs(apply_evolution(spec, t, x.real) - u @ x.real)) < 1e-12
    # a stack of rows, each evolved on its own, with a unit phase on top
    rows = rng.normal(size=(3, dim)) + 1j * rng.normal(size=(3, dim))
    got = apply_evolution(spec, t, rows, phase=1j)
    assert got.shape == rows.shape
    assert np.max(np.abs(got - 1j * rows @ u.T)) < 1e-12


def test_orthonormality_guard_is_tight(monkeypatch):
    # column 1 is an eigenvector of Z to within 2e-11, inside the residual
    # tolerance, but the pair is 1e-11 away from orthonormal
    vectors = np.array([[0.0, 1.0], [1.0, 1e-11]])
    monkeypatch.setattr(np.linalg, "eigh", lambda m: (np.array([[-1.0, 1.0]]), vectors[None]))
    with pytest.raises(NumericalConsistencyError, match="orthonormal"):
        exact_diagonalize(PauliSum(1, ((1.0, "Z"),)))


def test_every_spectrum_comes_from_exact_diagonalize():
    # the orthonormality guard is the only unitarity check a propagator
    # applied from a spectrum gets, so no module builds a Spectrum of its own
    calls = [
        (path.name, node.lineno)
        for path in sorted(Path(hamiltonian.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and "Spectrum" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    ]
    lines, first = inspect.getsourcelines(exact_diagonalize)
    assert [
        (name, line) for name, line in calls if not first <= line < first + len(lines)
    ] == []
    assert [name for name, _ in calls] == ["hamiltonian.py"]


def _calls(name):
    """Whether an AST node is a call of ``name``, as written in the source."""
    return lambda node: isinstance(node, ast.Call) and ast.unparse(node.func) == name


def _imports_from(*modules):
    """Whether an AST node imports from one of the package's ``modules``."""
    return lambda node: isinstance(node, ast.ImportFrom) and node.level == 1 and node.module in modules


def _homes(pattern, matches):
    """(module, enclosing class and function names) of each node that ``matches``."""
    found = []

    def visit(node, module, scope):
        for child in ast.iter_child_nodes(node):
            if matches(child):
                found.append((module, ".".join(scope)))
            named = isinstance(child, (ast.ClassDef, ast.FunctionDef))
            visit(child, module, scope + [child.name] if named else scope)

    for path in sorted(Path(hamiltonian.__file__).parent.glob(pattern)):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, [])
    return found


@pytest.mark.parametrize(
    "pattern, matches, homes",
    [
        # the one dense build reads the X groups
        ("*.py", _calls("x_groups"), [("hamiltonian", "_GroupedStack.__init__")]),
        # every spectrum, and the projected matrix of block Lanczos
        (
            "*.py",
            _calls("np.linalg.eigh"),
            [("chebyshev", "_settled"), ("hamiltonian", "_diagonalize_stack")],
        ),
        # the ramp's stacks are walked in adiabatic, which imports chebyshev
        ("hamiltonian.py", _imports_from("adiabatic", "chebyshev"), []),
    ],
    ids=["x_groups", "eigh", "hamiltonian-imports"],
)
def test_each_kernel_call_has_one_home(pattern, matches, homes):
    assert _homes(pattern, matches) == homes


def _midpoints(steps):
    return [0.0] + [(k + 0.5) / steps for k in range(steps)]


# (h0, h1, s values): TFIM chains (at n = 6, 40 steps span several stacks),
# a target with one Y letter (complex from the first step on), a Y word
# whose coefficient cancels at s = 1/2 (a real step between complex ones),
# and -Z to +Z, whose middle step is the zero operator
RAMPS = {
    "chain1": (initial_hamiltonian(J, 1), _tfim_chain(1), _midpoints(12)),
    "chain4": (initial_hamiltonian(J, 4), _tfim_chain(4), _midpoints(12)),
    "chain6": (initial_hamiltonian(J, 6), _tfim_chain(6), _midpoints(40)),
    "one_y": (
        initial_hamiltonian(J, 2),
        PauliSum(2, ((0.8, "YZ"), (-0.5, "XI"), (0.3, "ZZ"))),
        _midpoints(6) + [1.0],
    ),
    "y_cancels": (
        PauliSum(1, ((1.0, "Y"), (-1.0, "Z"))),
        PauliSum(1, ((-1.0, "Y"), (0.5, "X"))),
        [0.0, 0.25, 0.5, 0.75, 1.0],
    ),
    "zero_step": (PauliSum(1, ((-1.0, "Z"),)), PauliSum(1, ((1.0, "Z"),)), _midpoints(3)),
}


def _ramp_spectra(h0, h1, s_values):
    """(eigenvalues, eigenvectors, degenerate) per s from the ramp's stacks."""
    words, coeffs = ramp_coefficients(h0, h1, s_values)
    return [
        (values[k], vectors[k], values[k, 1] - values[k, 0] < DEGENERACY_TOL)
        for _, values, vectors, _ in adiabatic._ramp_stacks(h0.num_qubits, words, coeffs, None)
        for k in range(len(values))
    ]


@pytest.mark.parametrize("name", list(RAMPS))
def test_ramp_spectra_match_exact_diagonalize(name):
    h0, h1, s_values = RAMPS[name]
    spectra = _ramp_spectra(h0, h1, s_values)
    assert len(spectra) == len(s_values)
    for s, (values, vectors, degenerate) in zip(s_values, spectra):
        expected = exact_diagonalize(interpolate(h0, h1, s))
        assert values.tobytes() == expected.eigenvalues.tobytes()
        assert vectors.dtype == expected.eigenvectors.dtype
        assert vectors.tobytes() == expected.eigenvectors.tobytes()
        assert degenerate == expected.degenerate
    if name == "y_cancels":
        assert [v.dtype for _, v, _ in spectra] == [np.complex128] * 2 + [
            np.float64
        ] + [np.complex128] * 2
    if name == "zero_step":
        assert [d for _, _, d in spectra] == [False, False, True, False]


def test_ramp_spectra_checks_arguments():
    h0, h1 = initial_hamiltonian(J, 2), transverse_ising_pair(J)
    with pytest.raises(DomainError, match="outside"):
        ramp_coefficients(h0, h1, [0.5, 1.5])
    with pytest.raises(DomainError, match="different registers"):
        ramp_coefficients(h0, initial_hamiltonian(J, 3), [0.5])


def _duplicate_column(vectors):
    vectors[:, 1] = vectors[:, 0]


def _nan_entry(vectors):
    vectors[0, 0] = np.nan


@pytest.mark.parametrize("corrupt", [_nan_entry, _duplicate_column], ids=["nan", "duplicate"])
def test_stacked_guard_refuses_one_bad_matrix(monkeypatch, corrupt):
    eigh = np.linalg.eigh
    stacks = []

    def corrupted(m):
        values, vectors = eigh(m)
        stacks.append(len(m))
        corrupt(vectors[3])
        return values, vectors

    monkeypatch.setattr(np.linalg, "eigh", corrupted)
    with pytest.raises(NumericalConsistencyError, match="orthonormal"):
        _ramp_spectra(initial_hamiltonian(J, 2), transverse_ising_pair(J), _midpoints(8))
    # one stack held all nine operators; only the fourth was bad
    assert stacks == [9]


def _conj_form(vectors, phases, amplitudes):
    """The kernel as it was written before it took its operand pair: ((x* @ V)* phases) @ V.T."""
    return ((amplitudes.conj() @ vectors).conj() * phases) @ vectors.T


def _case(dim, rows, real):
    """Eigenvectors, phases and drawn amplitudes: one vector, ``rows`` rows, or d rows for "d"."""
    rng = np.random.default_rng(dim + (1 if rows == "d" else rows or 0))
    vectors = np.linalg.qr(rng.normal(size=(dim, dim)))[0] if real else haar_unitary(dim, rng)
    phases = np.exp(-1j * rng.normal(size=dim))
    shape = (dim,) if rows is None else (dim if rows == "d" else rows, dim)
    return vectors, phases, rng.normal(size=shape) + 1j * rng.normal(size=shape)


@pytest.mark.parametrize("dim", [2, 4, 16, 64, 256])
@pytest.mark.parametrize("rows", [None, 3, "d"])
@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
def test_kernel_matches_the_conj_form_bit_for_bit(dim, rows, real):
    # both forms of the operands: the pair cast once, and V itself, cast
    # by the kernel one operand at a time
    vectors, phases, drawn = _case(dim, rows, real)
    # the ramp starts from the real basis state |0...0>
    basis = np.zeros(drawn.shape, dtype=np.complex128)
    basis[..., 0] = 1.0
    for amplitudes in (drawn, basis):
        expected = _conj_form(vectors, phases, amplitudes).tobytes()
        for operands in (_complex_pair(vectors), vectors):
            assert _propagate(operands, phases, amplitudes).tobytes() == expected
            out = np.empty(drawn.shape, dtype=np.complex128)
            assert _propagate(operands, phases, amplitudes, out=out) is out
            assert out.tobytes() == expected


@pytest.mark.parametrize("dim", [2, 4, 16, 64, 256])
@pytest.mark.parametrize("rows", [None, 1, 3, "d"])
def test_cast_once_kernel_matches_the_implicit_cast_bit_for_bit(dim, rows):
    # V^H x and the products with V^T from the cast operands have the bits
    # of the same products with V as it is, numpy casting a real V inside
    # each product; a stack's pair is its matrices' pairs
    for real in (True, False):
        vectors, _, amplitudes = _case(dim, rows, real)
        conjugated, transposed = _complex_pair(vectors)
        assert conjugated.dtype == transposed.dtype == np.complex128
        assert transposed.flags.c_contiguous == real
        overlaps = (amplitudes.conj() @ vectors).conj()
        assert amplitudes.dot(conjugated).tobytes() == overlaps.tobytes()
        assert amplitudes.dot(transposed).tobytes() == (amplitudes @ vectors.T).tobytes()
        stacked = _complex_pair(np.stack([vectors, vectors[::-1]]))
        assert stacked[0][0].tobytes() == conjugated.tobytes()
        assert stacked[1][0].tobytes() == transposed.tobytes()
        assert stacked[1][1].tobytes() == _complex_pair(vectors[::-1])[1].tobytes()


def test_complex_eigenvectors_are_paired_as_they_are():
    # a complex V is conjugated, and its transpose is the view
    vectors = haar_unitary(4, np.random.default_rng(5))
    conjugated, transposed = _complex_pair(vectors)
    assert conjugated.tobytes() == vectors.conj().tobytes()
    assert transposed.base is vectors


@pytest.mark.parametrize("dim, rows", [(2, 8192), (16, 128), (128, 2), (256, 1)])
def test_operands_are_cast_in_slices_within_the_stack_budget(dim, rows, monkeypatch):
    # a slice's pair holds at most _STACK_ENTRIES complex entries, or the
    # pair of one matrix where that alone is larger (d = 256)
    cast = []
    monkeypatch.setattr(
        hamiltonian, "_complex_pair", lambda v: cast.append(len(v)) or _complex_pair(v)
    )
    stack = np.stack([np.eye(dim)] * 3)
    operands = list(hamiltonian._operands(stack))
    assert len(operands) == 3
    budget = max(_STACK_ENTRIES, 2 * dim * dim)
    assert 2 * rows * dim * dim <= budget < 2 * (rows + 1) * dim * dim
    assert cast == [min(rows, 3 - start) for start in range(0, 3, rows)]
    assert all(isinstance(pair, tuple) for pair in operands)


def test_evolution_unitary_group_property():
    spectrum = exact_diagonalize(transverse_ising_pair(J))
    u1 = evolution_unitary(spectrum, 0.4)
    u2 = evolution_unitary(spectrum, 0.9)
    u12 = evolution_unitary(spectrum, 1.3)
    assert np.max(np.abs(u2 @ u1 - u12)) < 1e-12
    ident = evolution_unitary(spectrum, 0.0)
    assert np.allclose(ident, np.eye(4), atol=1e-14)


def test_pauli_text_round_trip():
    h = transverse_ising_pair(J)
    text = "".join(f"{coeff!r} {string}\n" for coeff, string in h.terms)
    parsed = parse_pauli_text(text)
    assert parsed == h


def test_pauli_text_parsing_details():
    text = "# comment line\n\n0.5 ZZ\n-0.25 IX\n"
    h = parse_pauli_text(text)
    assert h.num_qubits == 2
    assert h.terms == ((-0.25, "IX"), (0.5, "ZZ"))


@pytest.mark.parametrize(
    "bad",
    ["0.5", "abc ZZ", "0.5 Z\n0.25 ZZ", "0.5 QQ", "", "nan ZZ", "inf Z", "-inf Z"]
    + ["1 " + "Z" * 64]  # longer than a word's masks hold
    + ["1 X\n-1 X", "0 Z"],  # terms that merge to the zero operator
)
def test_pauli_text_errors(bad):
    with pytest.raises(ConfigError):
        parse_pauli_text(bad)


def test_pauli_text_error_names_line():
    with pytest.raises(ConfigError, match="line 3"):
        parse_pauli_text("# ok\n0.5 ZZ\nnonsense\n")


# a 7-qubit ramp of 12 steps: 13 real operators
POOL_RAMP = ramp_coefficients(initial_hamiltonian(J, 7), _tfim_chain(7), _midpoints(12))


def _stack_starts_per_row(real, chunk):
    """Stack bounds walked row by row: a stack ends at a dtype change or after ``chunk`` rows."""
    starts = [0]
    while starts[-1] < len(real):
        start = stop = starts[-1]
        while stop < min(start + chunk, len(real)) and real[stop] == real[start]:
            stop += 1
        starts.append(stop)
    return starts


@pytest.mark.parametrize("n", [1, 7])
def test_stack_bounds_split_dtype_runs_every_chunk_rows(n, monkeypatch):
    # rows with a nonzero Y coefficient are complex; a stack is 2^16 // 4^n
    # diagonalized matrices below seven qubits, 16384 at one, and from
    # seven on 2^16 // (G * 2^n) rows for the G = 2 X masks of the table,
    # 256 rows.  The builds and spectra are stubbed: only the bounds count
    words = compile_words(["X" * n, "Y" + "I" * (n - 1)])
    rng = np.random.default_rng(70)
    row = 2 * 2**n if n >= adiabatic._CHEBYSHEV_QUBITS else 4**n
    chunk = max(1, _STACK_ENTRIES // row)
    built = []

    class Rows:
        def __init__(self, num_qubits, words, coeffs, real):
            built.append((len(coeffs), real))
            self.entries = coeffs

        def matrices(self):
            return self.entries

    def diagonalized(matrices):
        return np.zeros((len(matrices), 2)), None

    def lowest(stack, warm, counters):
        return np.zeros((len(stack.entries), 3)), None, None

    monkeypatch.setattr(adiabatic, "_GroupedStack", Rows)
    monkeypatch.setattr(adiabatic, "_diagonalize_stack", diagonalized)
    monkeypatch.setattr(chebyshev, "_lowest_levels", lowest)
    for rows in [0, 1, 2, 5, 40, 2 * chunk + 3]:
        patterns = [
            np.zeros(rows, dtype=bool),
            np.ones(rows, dtype=bool),
            rng.random(rows) < 0.5,
            np.arange(rows) // 9 % 2 == 1,  # runs of nine
        ]
        for complex_rows in patterns:
            coeffs = np.stack([np.ones(rows), np.where(complex_rows, 0.5, 0.0)], axis=1)
            built.clear()
            starts = [start for start, *_ in adiabatic._ramp_stacks(n, words, coeffs, None)]
            expected = _stack_starts_per_row((~complex_rows).tolist(), chunk)
            assert starts + [rows] == expected
            # each stack is one dtype's rows
            bounds = zip(expected, expected[1:])
            assert built == [(stop - start, not complex_rows[start]) for start, stop in bounds]


def test_stacks_are_built_one_at_a_time_on_the_calling_thread(monkeypatch):
    # a 6-qubit ramp of 41 operators is three stacks of at most 16 on the
    # eigenvector path, the third of which fails its guard: no thread
    # starts, the BLAS thread count is never set, and the error is raised
    # once the two stacks before it have been consumed
    threads = threading.active_count()
    blas = experiments._blas_threads()
    diagonalize = adiabatic._diagonalize_stack
    seen = []

    def failing_third(matrices):
        seen.append(
            (threading.current_thread(), threading.active_count(), experiments._blas_threads())
        )
        if len(seen) == 3:
            raise NumericalConsistencyError("the third stack")
        return diagonalize(matrices)

    monkeypatch.setattr(adiabatic, "_diagonalize_stack", failing_third)
    words, coeffs = ramp_coefficients(initial_hamiltonian(J, 6), _tfim_chain(6), _midpoints(40))
    yielded = []
    with pytest.raises(NumericalConsistencyError, match="the third stack"):
        for start, *_ in adiabatic._ramp_stacks(6, words, coeffs, None):
            assert threading.active_count() <= threads
            yielded.append(start)
    assert yielded == [0, 16]
    assert [thread for thread, _, _ in seen] == [threading.main_thread()] * 3
    assert max(count for _, count, _ in seen) <= threads
    assert {count for _, _, count in seen} == {blas}
    assert experiments._blas_threads() == blas


# --- the Chebyshev path: eigenvalues, a ground vector and a polynomial step ---


def _chain_with_y(n, seed=5):
    """A TFIM chain with a Y coupling on its first bond: a complex Hermitian matrix."""
    chain = _tfim_chain(n, seed)
    extra = ((0.4, "YY" + "Z" + "I" * (n - 3)), (-0.3, "Y" + "I" * (n - 1)))
    return PauliSum(n, chain.terms + extra)


def random_unit(dim, rng):
    vector = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return vector / np.linalg.norm(vector)


@pytest.mark.parametrize("z", [0.0, 1e-120, 1e-6, 0.3, 1.5, 7.0, 40.0, 150.0])
def test_bessel_j_matches_scipy(z):
    special = pytest.importorskip("scipy.special")
    for count in (1, 3, int(z) + 2, chebyshev._negligible_order(z) + 10):
        values = chebyshev._bessel_j(z, count)
        assert values.shape == (count,)
        assert np.max(np.abs(values - special.jv(np.arange(count), z))) <= 1e-14


@pytest.mark.parametrize("z", [0.0, 1e-9, 0.2, 1.5, 12.0, 90.0])
def test_chebyshev_terms_stop_at_the_first_negligible_order_above_z(z):
    special = pytest.importorskip("scipy.special")
    weights = chebyshev._chebyshev_terms(z)
    count = len(weights)
    assert count > z
    assert 2.0 * abs(special.jv(count, z)) <= 1.1 * chebyshev._CHEBYSHEV_TOL
    # the order before it is either at most z or not yet negligible
    assert count - 1 <= z or 2.0 * abs(weights[-1]) > chebyshev._CHEBYSHEV_TOL


@pytest.mark.parametrize("n", [4, 7])
@pytest.mark.parametrize("complex_matrix", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("dt", [0.125, 1.0, 6.0])
def test_chebyshev_step_matches_expm(n, complex_matrix, dt):
    h = _chain_with_y(n) if complex_matrix else _tfim_chain(n)
    matrix = to_matrix(h)
    assert (matrix.dtype == np.complex128) == complex_matrix
    values = np.linalg.eigvalsh(matrix)
    amplitudes = random_unit(2**n, np.random.default_rng(n))
    out = np.empty_like(amplitudes)
    terms = chebyshev._chebyshev_step(matrix, values[0], values[-1], dt, amplitudes, out)
    expected = scipy_linalg.expm(-1j * dt * pauli_sum_matrix(h.terms, n)) @ amplitudes
    assert np.max(np.abs(out - expected)) <= 1e-12
    assert terms == len(chebyshev._chebyshev_terms(0.5 * (values[-1] - values[0]) * dt))


def test_chebyshev_step_of_a_multiple_of_the_identity_is_a_phase():
    matrix = 0.7 * np.eye(8)
    amplitudes = random_unit(8, np.random.default_rng(1))
    out = np.empty_like(amplitudes)
    assert chebyshev._chebyshev_step(matrix, 0.7, 0.7, 0.5, amplitudes, out) == 1
    assert np.max(np.abs(out - np.exp(-0.35j) * amplitudes)) <= 1e-15


@pytest.mark.parametrize("nan", [False, True], ids=["narrow", "nan"])
def test_chebyshev_step_refuses_a_step_that_changes_the_norm(nan):
    # bounds inside the spectrum let T_k grow without limit outside [-1, 1];
    # a NaN entry, which the dense build would refuse, fails the guard too
    matrix = to_matrix(_tfim_chain(4))
    if nan:
        matrix[3, 5] = np.nan
    values = np.linalg.eigvalsh(to_matrix(_tfim_chain(4)))
    bounds = (values[0], values[-1]) if nan else (-1.0, 1.0)
    amplitudes = random_unit(16, np.random.default_rng(2))
    with pytest.raises(NumericalConsistencyError, match="norm"):
        chebyshev._chebyshev_step(matrix, *bounds, 1.0, amplitudes, np.empty(16, complex))


def _stack_of(h, s_values, grouped=False):
    """The dense matrices of the ramp operators of ``h`` at ``s_values``, all of one dtype.

    With ``grouped`` the grouped stack of the same operators instead.
    """
    words, coeffs = ramp_coefficients(initial_hamiltonian(J, h.num_qubits), h, s_values)
    real = hamiltonian._real_rows(words, coeffs)
    assert len(set(real.tolist())) == 1
    stack = _GroupedStack(h.num_qubits, words, coeffs, real[0])
    return stack if grouped else stack.matrices()


def _grouped(h):
    """The grouped stack of the one operator ``h``."""
    real = hamiltonian._real_rows(h.words, h.coeffs)[0]
    return _GroupedStack(h.num_qubits, h.words, h.coeffs, real)


def _dense(grouped):
    """Every matrix of a grouped stack, as a (k, d, d) stack of copies."""
    return np.array([grouped.matrix(k).copy() for k in range(len(grouped.entries))])


@pytest.mark.parametrize("h", [_tfim_chain(7), _chain_with_y(7)], ids=["real", "complex"])
def test_grouped_matrices_and_bounds_have_the_bits_of_the_dense_build(h):
    s_values = [0.3, 0.7, 1.0]
    grouped, dense = _stack_of(h, s_values, grouped=True), _stack_of(h, s_values)
    # each matrix overwrites the one before in the one buffer, in any order
    for k in (2, 0, 1, 1, 2):
        assert grouped.matrix(k).tobytes() == dense[k].tobytes()
    assert grouped.matrix(0) is grouped.matrix(2)
    # the Gershgorin bound and the scale, summed as the dense column sums are
    upper, scale = chebyshev._gershgorin(grouped)
    sums = np.abs(dense).sum(axis=1)
    diagonal = np.diagonal(dense, axis1=1, axis2=2).real
    assert upper.tobytes() == np.max(diagonal - np.abs(diagonal) + sums, axis=1).tobytes()
    assert scale.tobytes() == np.maximum(1.0, sums.max(axis=1)).tobytes()


def test_a_grouped_stack_refuses_what_the_dense_build_refuses():
    # a NaN coefficient in the second row, or a non-Hermitian coefficient
    # (XY is Hermitian only with a real one), reaches the one guard, run on
    # the entries before any matrix of the stack is written
    words = compile_words(["XY" + "I" * 5, "Z" * 7])
    for coeffs in (np.array([[1.0, 1.0], [np.nan, 1.0]]), np.array([[1.0, 1.0], [1j, 1.0]])):
        with pytest.raises(NumericalConsistencyError, match="not Hermitian"):
            _GroupedStack(7, words, coeffs, False)


@pytest.mark.parametrize("h", [_tfim_chain(7), _chain_with_y(7)], ids=["real", "complex"])
def test_ground_vectors_match_the_eigenvectors_and_leave_the_matrices(h):
    grouped = _stack_of(h, [0.3, 0.7, 1.0], grouped=True)
    before = grouped.entries.tobytes()
    counters = _Counters()
    levels, grounds, warm = chebyshev._lowest_levels(grouped, None, counters)
    assert levels.shape == (3, 3)
    assert grounds.shape == (3, 128, 1) and grounds.dtype == grouped.entries.dtype
    # the kernel only multiplies by the matrices
    assert grouped.entries.tobytes() == before
    matrices = _dense(grouped)
    values, vectors = np.linalg.eigh(matrices)
    assert np.max(np.abs(levels[:, :2] - values[:, :2])) <= 1e-12
    assert np.all(levels[:, 2] >= values[:, -1])
    assert 3 * chebyshev._FIRST_CHECK <= counters.krylov_products <= 3 * 64
    assert 3 <= counters.krylov_checks <= counters.krylov_products // chebyshev._CHECK_EVERY
    # the next stack starts from the last ground vector and its blocks
    assert warm[0].tobytes() == grounds[-1, :, 0].tobytes() and 0 < warm[1] <= 64
    for ground, vector in zip(grounds[:, :, 0], vectors[:, :, 0]):
        assert abs(np.linalg.norm(ground) - 1.0) <= 1e-14
        assert abs(abs(np.vdot(vector, ground)) - 1.0) <= 1e-12


def test_a_ground_vector_orthogonal_to_the_uniform_vector_is_found():
    # +sum X has the ground state |-...->, orthogonal to the uniform vector
    n = 7
    h = PauliSum(n, tuple((0.9, "I" * q + "X" + "I" * (n - q - 1)) for q in range(n)))
    levels, grounds, _ = chebyshev._lowest_levels(_grouped(h), None)
    ground = grounds[0, :, 0]
    minus = np.array([1.0, -1.0]) * INV_SQRT2
    expected = minus
    for _ in range(n - 1):
        expected = np.kron(expected, minus)
    assert np.max(np.abs(ground - np.sign(expected @ ground) * expected)) <= 1e-13
    assert abs(ground.sum()) <= 1e-12
    # E0 = -6.3 is single, E1 = -4.5 sevenfold; the bound is the top level
    assert levels[0] == pytest.approx([-6.3, -4.5, 6.3], abs=1e-12)


def test_a_degenerate_ground_level_gives_a_vector_of_its_eigenspace():
    # -Z0 Z1 on 7 qubits: every level is 64-fold degenerate, and the Krylov
    # space of any start vector is invariant after two blocks
    h = PauliSum(7, ((-1.0, "ZZIIIII"),))
    levels, grounds, _ = chebyshev._lowest_levels(_grouped(h), None)
    ground = grounds[0, :, 0]
    assert np.max(np.abs(to_matrix(h) @ ground + ground)) <= 1e-12
    assert levels[0, 1] - levels[0, 0] < DEGENERACY_TOL
    assert levels[0] == pytest.approx([-1.0, -1.0, 1.0], abs=1e-12)


def test_the_zero_operator_settles_without_dividing_by_a_vanished_block():
    # every product vanishes: each block is refilled from basis states
    grouped = _GroupedStack(7, compile_words(["Z" * 7]), np.zeros((1, 1)), True)
    counters = _Counters()
    with np.errstate(all="raise"):
        levels, grounds, _ = chebyshev._lowest_levels(grouped, None, counters)
    assert levels[0].tolist() == [0.0, 0.0, 0.0]
    assert abs(np.linalg.norm(grounds[0, :, 0]) - 1.0) <= 1e-14
    assert counters.krylov_products == chebyshev._FIRST_CHECK
    assert counters.krylov_checks == 1


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_orthonormalize_factors_the_block_in_closed_form_or_row_by_row(dtype, monkeypatch):
    # rows well apart take the closed-form Cholesky factor, nearly parallel
    # or vanished rows the row-by-row branch, the only one that calls
    # np.vdot; either way Q is orthonormal and block^T = Q^T R.  The closed
    # form keeps Q orthogonal to the basis so far to a few roundings; the
    # second row of a nearly parallel pair loses the digits its norm lost
    # (1e-3 here)
    rng = np.random.default_rng(11)
    dim, size = 64, 6

    def draw(rows):
        drawn = rng.normal(size=(rows, dim))
        return drawn + 1j * rng.normal(size=(rows, dim)) if dtype is np.complex128 else drawn

    known = np.linalg.qr(draw(size).T)[0].T
    fresh = draw(2)
    parallel = np.array([fresh[0], fresh[0] + 1e-3 * fresh[1]])
    vanished = np.array([fresh[0], 1e-15 * fresh[1]])
    vdot = np.vdot
    calls = []
    monkeypatch.setattr(np, "vdot", lambda *args: (calls.append(1), vdot(*args))[1])
    for rows, closed in ((fresh, True), (parallel, False), (vanished, False)):
        block = rows.copy()
        chebyshev._project_out(known, block)
        original = block.copy()
        basis = np.zeros((size + 2, dim), dtype=dtype)
        basis[:size] = known
        calls.clear()
        factor = chebyshev._orthonormalize(basis, size, block, 1e-13)
        assert (calls == []) == closed
        q = basis[size:]
        assert np.max(np.abs(q.conj() @ q.T - np.eye(2))) <= 1e-14
        assert np.max(np.abs(known.conj() @ q.T)) <= (1e-14 if closed else 1e-12)
        assert factor[1, 0] == 0.0
        if rows is vanished:
            assert factor[1, 1] == 0.0
        else:
            assert np.max(np.abs(q.T @ factor - original.T)) <= 1e-14 * np.abs(original).max()


def test_ground_vectors_refuse_a_residual_that_does_not_pass(monkeypatch):
    grouped = _grouped(_tfim_chain(7))
    settled = chebyshev._settled

    def rotated(*args):
        found = settled(*args)
        if found is None:
            return None
        e0, e1, vector = found
        return e0, e1, np.roll(vector, 1)

    monkeypatch.setattr(chebyshev, "_settled", rotated)
    with pytest.raises(NumericalConsistencyError, match="ground vector residual"):
        chebyshev._lowest_levels(grouped, None)
    # a ground pair that never passes is refused once the basis is complete
    checks = []

    def never(diagonal, *args):
        checks.append(len(diagonal))
        settled(diagonal, *args)

    monkeypatch.setattr(chebyshev, "_settled", never)
    with pytest.raises(NumericalConsistencyError, match="in 64 blocks"):
        chebyshev._lowest_levels(grouped, None)
    assert checks == list(range(12, 64, 3)) + [64]

    # an eigensolver failure on the projected matrix is typed
    def diverged(matrix):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(chebyshev, "_settled", settled)
    monkeypatch.setattr(np.linalg, "eigh", diverged)
    with pytest.raises(NumericalConsistencyError, match="eigensolver failed to converge"):
        chebyshev._lowest_levels(grouped, None)


def test_ground_only_stacks_yield_eigenvalues_ground_vectors_and_matrices(monkeypatch):
    # the rows of the full eigendecompositions, in stacks sized by their X
    # groups: rows [E0, E1, upper]
    words, coeffs = POOL_RAMP
    matrices = _GroupedStack(7, words, coeffs, True).matrices()
    values, vectors = _diagonalize_stack(matrices)
    # 8 X masks of 128 entries a row: 5 rows fit in 5 * 1024 entries
    monkeypatch.setattr(statevector, "_STACK_ENTRIES", 5 * 1024)
    counters = _Counters()
    ground = list(adiabatic._ramp_stacks(7, words, coeffs, counters))
    assert [start for start, *_ in ground] == [0, 5, 10]
    levels = np.concatenate([levels for _, levels, _, _ in ground])
    grounds = np.concatenate([grounds for _, _, grounds, _ in ground])
    assert levels.shape == (13, 3) and grounds.shape == (13, 128, 1)
    assert np.max(np.abs(values[:, :2] - levels[:, :2])) <= 1e-12
    assert np.all(levels[:, 2] >= values[:, -1])
    for vector, found in zip(vectors[:, :, 0], grounds[:, :, 0]):
        assert abs(abs(np.vdot(vector, found)) - 1.0) <= 1e-12
    # each grouped stack builds its rows' matrices; one buffer a stack is counted
    for start, levels_k, _, grouped in ground:
        assert _dense(grouped).tobytes() == matrices[start : start + len(levels_k)].tobytes()
    assert counters.dense_bytes == 3 * 128 * 128 * 8
    assert counters.matrices_diagonalized == 0 and counters.krylov_checks > 0
    # the warm start lives in the iteration: iterating again gives the same bits
    again = adiabatic._ramp_stacks(7, words, coeffs, None)
    for (_, levels, grounds, _), (_, levels2, grounds2, _) in zip(ground, again):
        assert levels.tobytes() == levels2.tobytes()
        assert grounds.tobytes() == grounds2.tobytes()


@pytest.mark.parametrize("n", [7, 8, 9])
@pytest.mark.parametrize("with_y", [False, True], ids=["real", "complex"])
def test_block_lanczos_levels_match_eigvalsh_on_the_chain_ramps(n, with_y):
    h = _chain_with_y(n) if with_y else _tfim_chain(n)
    s_values = [0.0, 0.3, 0.6, 0.9]
    words, coeffs = ramp_coefficients(initial_hamiltonian(J, n), h, s_values)
    for start, levels, grounds, grouped in adiabatic._ramp_stacks(n, words, coeffs, None):
        matrices = _dense(grouped)
        values = np.linalg.eigvalsh(matrices)
        assert np.max(np.abs(levels[:, :2] - values[:, :2])) <= 1e-12
        assert np.all(levels[:, 2] >= values[:, -1])
        for matrix, row, ground in zip(matrices, levels, grounds[:, :, 0]):
            assert np.max(np.abs(matrix @ ground - row[0] * ground)) <= hamiltonian._CHECK_ATOL


def _sector_ramp(n):
    """H0 = -J sum Z and H1 = sum Z - 0.3 sum X_i X_i+1, which both commute with prod Z."""
    z = [(1.0, "I" * q + "Z" + "I" * (n - q - 1)) for q in range(n)]
    xx = [(-0.3, "I" * q + "XX" + "I" * (n - q - 2)) for q in range(n - 1)]
    return initial_hamiltonian(J, n), PauliSum(n, tuple(z + xx))


def test_a_warm_start_from_another_symmetry_sector_still_finds_the_ground_level():
    # the warm vector is the ground state of the even sector of prod Z at
    # s = 0.9, which products with H never leave; H1's ground state on 7
    # qubits is odd, so only the golden-ratio vector of the start block
    # reaches it
    n = 7
    _, h1 = _sector_ramp(n)
    before, matrix = _stack_of(h1, [0.9, 1.0])
    even = np.array([bin(c).count("1") % 2 == 0 for c in range(2**n)])
    warm = np.zeros(2**n)
    warm[even] = np.linalg.eigh(before[np.ix_(even, even)])[1][:, 0]
    values, vectors = np.linalg.eigh(matrix)
    assert np.max(np.abs(vectors[even, 0])) <= 1e-12
    e0, e1, ground, *_ = chebyshev._lowest_pair(matrix, (warm, 30), 1.0)
    assert abs(e0 - values[0]) <= 1e-12 and abs(e1 - values[1]) <= 1e-12
    assert abs(abs(np.vdot(vectors[:, 0], ground)) - 1.0) <= 1e-12


def test_block_lanczos_follows_the_ground_level_into_another_symmetry_sector():
    # H0 = -J sum Z and H1 = sum Z - 0.3 sum X_i X_i+1 both commute with
    # prod Z.  The ground state starts even (|0...0>) and ends odd
    # (about |1...1> on 7 qubits), so the ground level crosses between
    # sectors; a Krylov space grown from the even ground vectors alone
    # would never reach the odd one.
    n = 7
    h0, h1 = _sector_ramp(n)
    words, coeffs = ramp_coefficients(h0, h1, _midpoints(32))
    parity = np.array([(-1) ** bin(c).count("1") for c in range(2**n)])
    sectors = []
    for _, levels, grounds, grouped in adiabatic._ramp_stacks(n, words, coeffs, None):
        values, vectors = np.linalg.eigh(_dense(grouped))
        assert np.max(np.abs(levels[:, :2] - values[:, :2])) <= 1e-12
        sectors += np.sign(np.einsum("kd,d,kd->k", vectors[:, :, 0], parity, vectors[:, :, 0])).tolist()
        found = np.einsum("kd,d,kd->k", grounds[:, :, 0], parity, grounds[:, :, 0])
        assert np.allclose(np.sign(found), np.sign(sectors[-len(found) :]))
    assert sectors[0] == 1 and sectors[-1] == -1
