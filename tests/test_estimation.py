import numpy as np
import pytest

from vacuum_refine import (
    CorrectionError,
    DomainError,
    HADAMARD,
    NumericalConsistencyError,
    PauliSum,
    StateVector,
    apply_gate,
    basis_state,
    corrected_expectation,
    cross_term,
    eigen_overlaps,
    exact_diagonalize,
    expectation_observable,
    hadamard_hamiltonian,
    shot_expectation,
    transverse_ising_pair,
)

J = np.pi / 4
INV_SQRT2 = 1.0 / np.sqrt(2.0)


def test_eigen_overlaps_of_eigenstates():
    spec = exact_diagonalize(hadamard_hamiltonian(J))
    for j in range(2):
        overlaps = eigen_overlaps(StateVector(1, spec.eigenvectors[:, j]), spec)
        assert overlaps.weights[j] == pytest.approx(1.0, abs=1e-14)


def test_eigen_overlaps_mixture_weights():
    spec = exact_diagonalize(hadamard_hamiltonian(J))
    v0, v1 = spec.eigenvectors[:, 0], spec.eigenvectors[:, 1]
    state = StateVector(1, np.sqrt(0.6) * v0 + 1j * np.sqrt(0.4) * v1)
    weights = eigen_overlaps(state, spec).weights
    assert weights == pytest.approx([0.6, 0.4], abs=1e-14)


def test_eigen_overlaps_dimension_check():
    spec = exact_diagonalize(hadamard_hamiltonian(J))
    with pytest.raises(DomainError):
        eigen_overlaps(basis_state(2, 0), spec)


def test_overlaps_must_be_normalized():
    from vacuum_refine import EigenOverlaps

    with pytest.raises(NumericalConsistencyError):
        EigenOverlaps(np.array([1.0, 1.0]))
    with pytest.raises(NumericalConsistencyError):
        EigenOverlaps(np.array([np.nan, 0.0]))


def test_corrected_expectation_identity():
    # p0 = 1 means no contamination at all
    assert corrected_expectation(0.7, 1.0) == pytest.approx(0.7, abs=1e-15)
    # the mixed value (2 p0 - 1)/sqrt(2) corrects back to 1/sqrt(2)
    p0 = 0.99
    mixed = (2 * p0 - 1) * INV_SQRT2
    assert corrected_expectation(mixed, p0) == pytest.approx(INV_SQRT2, abs=1e-15)


def test_corrected_expectation_reference_arithmetic():
    # denominator 2*p0 - 1 = 0.999242, so p0 = 0.999621
    assert round(corrected_expectation(0.706760, 0.999621), 6) == 0.707296


def test_corrected_expectation_guard():
    with pytest.raises(CorrectionError):
        corrected_expectation(0.3, 0.5)
    with pytest.raises(CorrectionError):
        corrected_expectation(0.3, 0.5 + 1e-9)


def test_shot_expectation_z_basis():
    result = shot_expectation(basis_state(1, 0), "Z", 1000, seed=1)
    assert result.value == 1.0
    assert result.std_error == 0.0
    assert result.shots == 1000
    assert result.seed == 1


def test_shot_expectation_x_basis():
    plus = apply_gate(basis_state(1, 0), HADAMARD, [0])
    result = shot_expectation(plus, "X", 1000, seed=2)
    assert result.value == 1.0
    minus = apply_gate(basis_state(1, 1), HADAMARD, [0])
    assert shot_expectation(minus, "X", 1000, seed=2).value == -1.0


def test_shot_expectation_y_basis():
    # (|0> + i|1>)/sqrt(2) is the +1 eigenstate of Y
    state = StateVector.normalized([1.0, 1.0j])
    assert shot_expectation(state, "Y", 1000, seed=3).value == 1.0


def test_shot_expectation_identity_word():
    assert shot_expectation(basis_state(2, 0), "II", 50, seed=4).value == 1.0
    assert shot_expectation(basis_state(2, 0), "II", 50, seed=4).std_error == 0.0


def test_shot_expectation_statistics():
    ground = exact_diagonalize(hadamard_hamiltonian(J)).ground_state
    shots = 200_000
    result = shot_expectation(ground, "Z", shots, seed=7)
    sigma = np.sqrt((1 - 0.5) / shots)
    assert abs(result.value - INV_SQRT2) < 5 * sigma
    expected_err = np.sqrt((1 - result.value**2) / shots)
    assert result.std_error == pytest.approx(expected_err, rel=1e-12)


def test_shot_expectation_deterministic():
    ground = exact_diagonalize(hadamard_hamiltonian(J)).ground_state
    a = shot_expectation(ground, "Z", 5000, seed=42)
    b = shot_expectation(ground, "Z", 5000, seed=42)
    assert a.value == b.value
    assert shot_expectation(ground, "Z", 5000, seed=43).value != a.value


def test_shot_expectation_two_qubit_parity():
    # Bell pair: <ZZ> = 1 exactly
    from vacuum_refine import X, apply_controlled

    bell = apply_gate(basis_state(2, 0), HADAMARD, [0])
    bell = apply_controlled(bell, [0], X, [1])
    assert shot_expectation(bell, "ZZ", 2000, seed=9).value == 1.0


def test_shot_expectation_validation():
    state = basis_state(1, 0)
    with pytest.raises(DomainError):
        shot_expectation(state, "ZZ", 100, seed=0)
    with pytest.raises(DomainError):
        shot_expectation(state, "Q", 100, seed=0)
    with pytest.raises(DomainError):
        shot_expectation(state, "Z", 0, seed=0)


def test_cross_term_vanishes_for_eigenstates():
    spec = exact_diagonalize(hadamard_hamiltonian(J))
    z = PauliSum(1, ((1.0, "Z"),))
    for j in range(2):
        state = StateVector(1, spec.eigenvectors[:, j])
        assert abs(cross_term(state, spec, z)) < 1e-14


def test_cross_term_balanced_superposition():
    # for (|E0> + |E1>)/sqrt(2) the interference term is <E0|Z|E1>, which
    # equals -1/sqrt(2) under the fixed eigenvector phase convention
    spec = exact_diagonalize(hadamard_hamiltonian(J))
    v0, v1 = spec.eigenvectors[:, 0], spec.eigenvectors[:, 1]
    state = StateVector(1, (v0 + v1) * INV_SQRT2)
    z = PauliSum(1, ((1.0, "Z"),))
    assert cross_term(state, spec, z) == pytest.approx(-INV_SQRT2, abs=1e-12)


def test_cross_term_completes_the_decomposition():
    # diagonal weights plus interference reproduce the full expectation
    rng = np.random.default_rng(31)
    h = transverse_ising_pair(J)
    spec = exact_diagonalize(h)
    z = PauliSum(2, ((1.0, "ZI"), (0.5, "IX")))
    for _ in range(10):
        amps = rng.normal(size=4) + 1j * rng.normal(size=4)
        amps /= np.linalg.norm(amps)
        state = StateVector(2, amps)
        overlaps = eigen_overlaps(state, spec)
        from vacuum_refine import to_matrix

        m_eig = spec.eigenvectors.conj().T @ to_matrix(z) @ spec.eigenvectors
        diagonal = float(np.sum(overlaps.weights * np.real(np.diag(m_eig))))
        total = diagonal + cross_term(state, spec, z)
        assert total == pytest.approx(expectation_observable(state, z), abs=1e-12)


def test_cross_term_dimension_check():
    spec = exact_diagonalize(hadamard_hamiltonian(J))
    with pytest.raises(DomainError):
        cross_term(basis_state(1, 0), spec, PauliSum(2, ((1.0, "ZZ"),)))
