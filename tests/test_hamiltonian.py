import itertools
import sys
import threading

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

from vacuum_refine import hamiltonian
from vacuum_refine.hamiltonian import (
    _FLIGHT_ENTRIES,
    DEGENERACY_TOL,
    _fix_phases,
    _in_order,
    _SpectrumStacks,
)
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
    # far more terms than columns: every 4-qubit word (256, complex) and
    # every one without Y (81, real), each built in several blocks of terms
    for letters, dtype in (("IXYZ", np.complex128), ("IXZ", np.float64)):
        strings = ["".join(w) for w in itertools.product(letters, repeat=4)]
        h = PauliSum(4, tuple((float(rng.normal()), s) for s in strings))
        assert len(h.terms) == len(strings)
        got = to_matrix(h)
        assert got.dtype == dtype
        assert np.array_equal(got, pauli_sum_matrix(h.terms, 4))


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
        got = evolution_unitary(exact_diagonalize(h), t).entries
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
    # bypass the constructor's finiteness check to reach the guard itself
    object.__setattr__(h, "terms", ((float("nan"), "X"),))
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
    """(eigenvalues, eigenvectors, degenerate) per s from the stacked path."""
    words, coeffs = ramp_coefficients(h0, h1, s_values)
    return [
        (values[k], vectors[k], values[k, 1] - values[k, 0] < DEGENERACY_TOL)
        for _, values, vectors in _SpectrumStacks(h0.num_qubits, words, coeffs)
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


def test_evolution_unitary_group_property():
    spectrum = exact_diagonalize(transverse_ising_pair(J))
    u1 = evolution_unitary(spectrum, 0.4).entries
    u2 = evolution_unitary(spectrum, 0.9).entries
    u12 = evolution_unitary(spectrum, 1.3).entries
    assert np.max(np.abs(u2 @ u1 - u12)) < 1e-12
    ident = evolution_unitary(spectrum, 0.0).entries
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
    ["0.5", "abc ZZ", "0.5 Z\n0.25 ZZ", "0.5 QQ", "", "nan ZZ", "inf Z", "-inf Z"],
)
def test_pauli_text_errors(bad):
    with pytest.raises(ConfigError):
        parse_pauli_text(bad)


def test_pauli_text_error_names_line():
    with pytest.raises(ConfigError, match="line 3"):
        parse_pauli_text("# ok\n0.5 ZZ\nnonsense\n")


# a 7-qubit ramp of 12 steps: 13 operators in stacks of at most 4, so 4 stacks
POOL_RAMP = ramp_coefficients(initial_hamiltonian(J, 7), _tfim_chain(7), _midpoints(12))


def _stacks(monkeypatch, cores=None, blas=True):
    """Every stack of POOL_RAMP, and the thread that built each with the BLAS
    thread count it saw; ``cores`` replaces the core count, and without
    ``blas`` the handle on OpenBLAS is missing."""
    if cores is not None:
        monkeypatch.setattr(hamiltonian, "_cores", lambda: cores)
    if not blas:
        monkeypatch.setattr(hamiltonian, "_blas", lambda: None)
    seen = []
    diagonalize = hamiltonian._diagonalize_stack
    handle = hamiltonian._blas()

    def recorded(matrices):
        seen.append((threading.current_thread(), handle.threads() if handle else None))
        return diagonalize(matrices)

    monkeypatch.setattr(hamiltonian, "_diagonalize_stack", recorded)
    stacks = list(_SpectrumStacks(7, *POOL_RAMP))
    return stacks, seen


def _blas_or_skip():
    blas = hamiltonian._blas()
    if blas is None:
        pytest.skip("no handle on the thread count of numpy's OpenBLAS")
    return blas


@pytest.mark.parametrize("cores", [2, 3])
def test_pooled_stacks_match_the_serial_loop_bit_for_bit(monkeypatch, cores):
    blas = _blas_or_skip()
    before = blas.threads()
    with monkeypatch.context() as serial_patch:
        serial_patch.setattr(hamiltonian, "_workers", lambda stacks, entries: 1)
        serial, serial_seen = _stacks(serial_patch)
    # a budget of one full stack per core, so that three threads can run
    monkeypatch.setattr(hamiltonian, "_FLIGHT_ENTRIES", cores * _STACK_ENTRIES)
    pooled, pooled_seen = _stacks(monkeypatch, cores)
    assert [start for start, _, _ in pooled] == [0, 4, 8, 12]
    for (s0, v0, w0), (s1, v1, w1) in zip(serial, pooled):
        assert s0 == s1
        assert v0.tobytes() == v1.tobytes()
        assert w0.tobytes() == w1.tobytes()
    assert {thread for thread, _ in serial_seen} == {threading.main_thread()}
    helpers = {thread for thread, _ in pooled_seen} - {threading.main_thread()}
    assert len(helpers) == cores - 1
    assert not any(thread.is_alive() for thread in helpers)
    # each pooled eigendecomposition ran on one BLAS thread; the count is
    # restored once the stacks are consumed
    assert {count for _, count in pooled_seen} == {1}
    assert blas.threads() == before


def test_serial_loop_without_a_handle_on_blas(monkeypatch):
    _blas_or_skip()
    with monkeypatch.context() as pooled_patch:
        pooled, _ = _stacks(pooled_patch, cores=2)
    serial, seen = _stacks(monkeypatch, cores=2, blas=False)
    assert hamiltonian._workers(4, _STACK_ENTRIES) == 1
    assert {thread for thread, _ in seen} == {threading.main_thread()}
    for (s0, v0, w0), (s1, v1, w1) in zip(pooled, serial):
        assert s0 == s1
        assert v0.tobytes() == v1.tobytes()
        assert w0.tobytes() == w1.tobytes()


def test_guard_failure_in_a_helper_surfaces_when_its_stack_is_due(monkeypatch):
    blas = _blas_or_skip()
    before = blas.threads()
    monkeypatch.setattr(hamiltonian, "_cores", lambda: 2)
    eigh = np.linalg.eigh
    helpers = []

    def corrupted(m):
        values, vectors = eigh(m)
        if threading.current_thread() is not threading.main_thread():
            helpers.append(threading.current_thread())
            vectors[0, :, 1] = vectors[0, :, 0]
        return values, vectors

    monkeypatch.setattr(np.linalg, "eigh", corrupted)
    stacks = iter(_SpectrumStacks(7, *POOL_RAMP))
    start, _, _ = next(stacks)
    assert start == 0
    # the second stack was the helper's: its error is raised when it is due
    with pytest.raises(NumericalConsistencyError, match="orthonormal"):
        next(stacks)
    assert helpers
    assert not any(thread.is_alive() for thread in helpers)
    assert blas.threads() == before


def test_abandoned_stacks_stop_the_helpers_and_restore_blas(monkeypatch):
    blas = _blas_or_skip()
    before = blas.threads()
    monkeypatch.setattr(hamiltonian, "_cores", lambda: 2)
    started = set(threading.enumerate())
    stacks = iter(_SpectrumStacks(7, *POOL_RAMP))
    next(stacks)
    # the helper has the second and fourth stacks; it waits to start the
    # fourth until the consumer is done with the second
    helpers = set(threading.enumerate()) - started
    assert len(helpers) == 1
    assert blas.threads() == 1
    # dropped after its first stack, as exact_diagonalize drops it
    del stacks
    assert not any(thread.is_alive() for thread in helpers)
    assert blas.threads() == before


def test_workers_follow_the_stacks_the_cores_and_the_entry_budget(monkeypatch):
    _blas_or_skip()
    monkeypatch.setattr(hamiltonian, "_cores", lambda: 64)
    assert _FLIGHT_ENTRIES == 2 * _STACK_ENTRIES
    # two full stacks fill the budget, whatever the cores
    assert _SpectrumStacks(7, *POOL_RAMP).workers == 2
    assert hamiltonian._workers(40, 4**8) == 2
    # from 9 qubits one matrix is more than half of the budget
    nine = ramp_coefficients(initial_hamiltonian(J, 9), _tfim_chain(9), _midpoints(3))
    assert _SpectrumStacks(9, *nine).workers == 1
    assert hamiltonian._workers(4, 4**9) == 1
    # small stacks are limited by the stacks and the cores
    assert hamiltonian._workers(3, 16) == 3
    assert hamiltonian._workers(100, 16) == 64
    monkeypatch.setattr(hamiltonian, "_cores", lambda: 1)
    assert hamiltonian._workers(100, 16) == 1
    assert hamiltonian._workers(1, 16) == 1


def test_in_order_yields_in_order_and_raises_when_due():
    squares = _in_order(7, lambda i: i * i, 3)
    assert list(squares) == [i * i for i in range(7)]

    def fails_at_four(i):
        if i == 4:
            raise DomainError("item 4")
        return i

    items = _in_order(7, fails_at_four, 3)
    assert [next(items) for _ in range(4)] == [0, 1, 2, 3]
    with pytest.raises(DomainError, match="item 4"):
        next(items)


def test_in_order_under_stress_keeps_order_and_its_window():
    # more workers than cores, and threads switched as often as possible:
    # a lost update to the window would let more than `workers` items run
    workers, count = 6, 60
    lock = threading.Lock()
    counts = {"started": 0, "consumed": 0, "most": 0}

    def compute(i):
        with lock:
            counts["started"] += 1
            counts["most"] = max(counts["most"], counts["started"] - counts["consumed"])
        return i

    got = []

    def consume():
        for item in _in_order(count, compute, workers):
            got.append(item)
            with lock:
                counts["consumed"] += 1

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        consumer = threading.Thread(target=consume)
        consumer.start()
        consumer.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not consumer.is_alive()
    assert got == list(range(count))
    assert counts["most"] <= workers


def test_nested_pins_restore_the_outer_count():
    blas = _blas_or_skip()
    before = blas.threads()
    with blas.one_thread():
        with blas.one_thread():
            assert blas.threads() == 1
        assert blas.threads() == 1
    assert blas.threads() == before
