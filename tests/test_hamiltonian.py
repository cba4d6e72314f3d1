import itertools

import numpy as np
import pytest

from vacuum_refine import (
    ConfigError,
    DomainError,
    NumericalConsistencyError,
    PauliSum,
    ResourceLimitError,
    exact_diagonalize,
    evolution_unitary,
    format_pauli_text,
    hadamard_hamiltonian,
    initial_hamiltonian,
    interpolate,
    parse_pauli_text,
    to_matrix,
    transverse_ising_pair,
)

from vacuum_refine.hamiltonian import _fix_phases

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
    # raising the cap lets it through
    assert to_matrix(big, cap=11).shape == (2048, 2048)


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
            assert _fix_phases(vectors).tobytes() == _fix_phases_by_column(vectors).tobytes()


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
        got = evolution_unitary(h, t).entries
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
    monkeypatch.setattr(np.linalg, "eigh", lambda m: (np.array([np.nan, 1.0]), vectors))
    with pytest.raises(NumericalConsistencyError, match="residual"):
        exact_diagonalize(PauliSum(1, ((1.0, "X"),)))


def test_orthonormality_guard_catches_nan(monkeypatch):
    vectors = np.array([[np.nan, 1.0], [1.0, 0.0]])
    monkeypatch.setattr(np.linalg, "eigh", lambda m: (np.array([-1.0, 1.0]), vectors))
    with pytest.raises(NumericalConsistencyError, match="orthonormal"):
        exact_diagonalize(PauliSum(1, ((1.0, "X"),)))


def test_evolution_unitary_group_property():
    h = transverse_ising_pair(J)
    u1 = evolution_unitary(h, 0.4).entries
    u2 = evolution_unitary(h, 0.9).entries
    u12 = evolution_unitary(h, 1.3).entries
    assert np.max(np.abs(u2 @ u1 - u12)) < 1e-12
    ident = evolution_unitary(h, 0.0).entries
    assert np.allclose(ident, np.eye(4), atol=1e-14)


def test_pauli_text_round_trip():
    h = transverse_ising_pair(J)
    text = format_pauli_text(h)
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


def test_scaled():
    h = hadamard_hamiltonian(J).scaled(2.0)
    w = -2 * J * INV_SQRT2
    assert h.terms == ((w, "X"), (w, "Z"))
