import numpy as np
import pytest

from vacuum_refine import (
    HADAMARD,
    DomainError,
    GateMatrix,
    ImpossibleOutcomeError,
    PauliSum,
    S,
    StateVector,
    UnitarityError,
    X,
    Z,
    apply_controlled,
    apply_gate,
    apply_pauli_string,
    basis_state,
    expectation_observable,
    fidelity,
    measure_sample,
    postselect,
    rx,
    rz,
)

from oracles import (
    embed_controlled,
    embed_gate,
    haar_unitary,
    pauli_sum_matrix,
    pauli_word_matrix,
    random_state,
)

INV_SQRT2 = 1.0 / np.sqrt(2.0)


def test_basis_state_layout():
    # qubit 0 is the most significant bit of the amplitude index
    state = basis_state(2, 0b10)
    assert state.amplitudes[2] == 1.0
    assert np.count_nonzero(state.amplitudes) == 1


def test_basis_state_rejects_bad_index():
    with pytest.raises(DomainError):
        basis_state(2, 4)
    with pytest.raises(DomainError):
        basis_state(0, 0)


def test_state_requires_normalization():
    with pytest.raises(DomainError):
        StateVector(1, np.array([1.0, 1.0]))
    with pytest.raises(DomainError, match="normalized"):
        StateVector(1, np.array([np.nan, 0.0]))
    normalized = StateVector.normalized([1.0, 1.0])
    assert normalized.amplitudes == pytest.approx([INV_SQRT2, INV_SQRT2])


def test_apply_x_flips_msb_qubit():
    state = apply_gate(basis_state(2, 0), X, [0])
    assert state.amplitudes[0b10] == 1.0


def test_apply_hadamard_then_z_gives_minus():
    state = apply_gate(basis_state(1, 0), HADAMARD, [0])
    state = apply_gate(state, Z, [0])
    assert state.amplitudes == pytest.approx([INV_SQRT2, -INV_SQRT2])


def test_rotation_gates_match_direct_matrices():
    theta = 0.73
    expected_rz = np.array(
        [[np.exp(-0.5j * theta), 0], [0, np.exp(0.5j * theta)]]
    )
    assert np.allclose(rz(theta).entries, expected_rz, atol=1e-15)
    expected_rx = np.cos(theta / 2) * np.eye(2) - 1j * np.sin(theta / 2) * np.array(
        [[0, 1], [1, 0]]
    )
    assert np.allclose(rx(theta).entries, expected_rx, atol=1e-15)


def test_apply_gate_validates_targets_and_arity():
    state = basis_state(2, 0)
    with pytest.raises(DomainError):
        apply_gate(state, X, [0, 0])
    with pytest.raises(DomainError):
        apply_gate(state, X, [2])
    with pytest.raises(DomainError):
        apply_gate(state, X, [0, 1])


def test_non_unitary_matrix_rejected():
    with pytest.raises(UnitarityError):
        GateMatrix(1, np.array([[1.0, 0.0], [0.0, 2.0]]))
    with pytest.raises(UnitarityError):
        GateMatrix(1, np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_apply_gate_matches_dense_oracle():
    rng = np.random.default_rng(42)
    for _ in range(40):
        n = int(rng.integers(1, 4))
        k = int(rng.integers(1, n + 1))
        targets = list(rng.choice(n, size=k, replace=False))
        matrix = haar_unitary(2**k, rng)
        amps = random_state(n, rng)
        got = apply_gate(StateVector(n, amps), matrix, targets).amplitudes
        expected = embed_gate(matrix, targets, n) @ amps
        assert np.max(np.abs(got - expected)) < 1e-12


def test_apply_controlled_matches_dense_oracle():
    rng = np.random.default_rng(7)
    for _ in range(40):
        n = int(rng.integers(2, 5))
        k = int(rng.integers(1, n))
        picked = list(rng.choice(n, size=k + 1, replace=False))
        controls, targets = picked[:1], picked[1:]
        matrix = haar_unitary(2**k, rng)
        amps = random_state(n, rng)
        got = apply_controlled(StateVector(n, amps), controls, matrix, targets).amplitudes
        expected = embed_controlled(matrix, controls, targets, n) @ amps
        assert np.max(np.abs(got - expected)) < 1e-12


def test_cnot_action():
    state = apply_controlled(basis_state(2, 0b10), [0], X, [1])
    assert state.amplitudes[0b11] == 1.0


def test_controlled_global_phase_becomes_relative():
    # a controlled i*identity must imprint the phase on the |1> branch only
    plus = apply_gate(basis_state(2, 0), HADAMARD, [0])
    phased = apply_controlled(plus, [0], GateMatrix(1, 1j * np.eye(2)), [1])
    assert phased.amplitudes[0b00] == pytest.approx(INV_SQRT2)
    assert phased.amplitudes[0b10] == pytest.approx(1j * INV_SQRT2)


def test_controls_and_targets_must_not_overlap():
    with pytest.raises(DomainError):
        apply_controlled(basis_state(2, 0), [0], X, [0])


def test_postselect_bell_state():
    bell = apply_gate(basis_state(2, 0), HADAMARD, [0])
    bell = apply_controlled(bell, [0], X, [1])
    prob, remaining = postselect(bell, [0], "1")
    assert prob == pytest.approx(0.5, abs=1e-12)
    assert remaining.num_qubits == 1
    assert abs(remaining.amplitudes[1]) == pytest.approx(1.0, abs=1e-12)


def test_postselect_impossible_outcome():
    with pytest.raises(ImpossibleOutcomeError):
        postselect(basis_state(2, 0), [0], "1")


def test_postselect_must_leave_a_register():
    with pytest.raises(DomainError):
        postselect(basis_state(2, 0), [0, 1], "00")


def test_postselect_probabilities_sum_to_one():
    rng = np.random.default_rng(11)
    state = StateVector(3, random_state(3, rng))
    total = 0.0
    for outcome in range(4):
        try:
            prob, _ = postselect(state, [0, 2], format(outcome, "02b"))
        except ImpossibleOutcomeError:
            prob = 0.0
        total += prob
    assert total == pytest.approx(1.0, abs=1e-10)


def test_measure_sample_deterministic_state():
    counts = measure_sample(basis_state(2, 0b10), [0, 1], 1000, rng_seed=3)
    assert counts == {"10": 1000}


def test_measure_sample_reproducible_and_fair():
    plus = apply_gate(basis_state(1, 0), HADAMARD, [0])
    first = measure_sample(plus, [0], 100_000, rng_seed=123)
    second = measure_sample(plus, [0], 100_000, rng_seed=123)
    assert first == second
    # 5 sigma band around the fair-coin expectation
    assert abs(first["0"] - 50_000) < 5 * np.sqrt(100_000 * 0.25)


def test_measure_sample_qubit_order_sets_key_order():
    state = basis_state(2, 0b10)
    assert measure_sample(state, [1, 0], 10, rng_seed=0) == {"01": 10}


def test_measure_sample_total_variation_converges():
    rng = np.random.default_rng(19)
    amps = random_state(3, rng)
    state = StateVector(3, amps)
    shots = 200_000
    counts = measure_sample(state, [0, 1, 2], shots, rng_seed=77)
    born = np.abs(amps) ** 2
    empirical = np.array([counts.get(format(i, "03b"), 0) / shots for i in range(8)])
    tv = 0.5 * np.sum(np.abs(empirical - born))
    assert tv < 5 * np.sqrt(8 / shots)


def test_apply_pauli_string_matches_letters():
    state = StateVector.normalized([1.0, 1.0])
    flipped = apply_pauli_string(state, "X")
    assert np.allclose(flipped.amplitudes, state.amplitudes)
    signed = apply_pauli_string(state, "Z")
    assert signed.amplitudes == pytest.approx([INV_SQRT2, -INV_SQRT2])


def test_apply_pauli_string_matches_dense_oracle():
    rng = np.random.default_rng(12)
    letters = np.array(list("IXYZ"))
    for n in range(1, 7):
        for _ in range(6):
            string = "".join(rng.choice(letters, size=n))
            psi = random_state(n, rng)
            applied = apply_pauli_string(StateVector(n, psi), string).amplitudes
            assert np.array_equal(applied, pauli_word_matrix(string) @ psi), string
            terms = tuple(
                (float(rng.normal()), "".join(rng.choice(letters, size=n))) for _ in range(4)
            )
            observable = PauliSum(n, terms)
            dense = np.vdot(psi, pauli_sum_matrix(observable.terms, n) @ psi).real
            value = expectation_observable(StateVector(n, psi), observable)
            assert value == pytest.approx(dense, abs=1e-12)
    with pytest.raises(DomainError):
        apply_pauli_string(basis_state(2, 0), "XQ")
    with pytest.raises(DomainError):
        apply_pauli_string(basis_state(2, 0), "X")


def test_expectation_observable_basics():
    z = PauliSum(1, ((1.0, "Z"),))
    assert expectation_observable(basis_state(1, 0), z) == pytest.approx(1.0)
    plus = apply_gate(basis_state(1, 0), HADAMARD, [0])
    assert expectation_observable(plus, z) == pytest.approx(0.0, abs=1e-15)


def test_expectation_of_hadamard_axis_ground_state():
    # closed form: the ground state (cos pi/8, sin pi/8) has <Z> = cos(pi/4)
    ground = StateVector(1, np.array([np.cos(np.pi / 8), np.sin(np.pi / 8)]))
    value = expectation_observable(ground, PauliSum(1, ((1.0, "Z"),)))
    assert abs(value - INV_SQRT2) < 1e-12


def test_expectation_rejects_size_mismatch():
    with pytest.raises(DomainError):
        expectation_observable(basis_state(2, 0), PauliSum(1, ((1.0, "Z"),)))


def test_fidelity_and_mismatch():
    a = basis_state(1, 0)
    b = apply_gate(a, HADAMARD, [0])
    assert fidelity(a, a) == pytest.approx(1.0)
    assert fidelity(a, b) == pytest.approx(0.5)
    with pytest.raises(DomainError):
        fidelity(a, basis_state(2, 0))


def test_norm_preserved_through_gate_sequences():
    rng = np.random.default_rng(101)
    state = StateVector(3, random_state(3, rng))
    for _ in range(60):
        k = int(rng.integers(1, 3))
        targets = list(rng.choice(3, size=k, replace=False))
        state = apply_gate(state, haar_unitary(2**k, rng), targets)
    assert abs(np.sum(np.abs(state.amplitudes) ** 2) - 1.0) < 1e-10


def test_gate_phase_kept_verbatim():
    # S on |1> multiplies by i, no hidden normalization of phases
    one = basis_state(1, 1)
    assert apply_gate(one, S, [0]).amplitudes[1] == pytest.approx(1j)
