import numpy as np
import pytest

from vacuum_refine import (
    CorrectionError,
    DomainError,
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
from vacuum_refine.estimation import shot_estimates
from vacuum_refine.pauli import compile_words
from vacuum_refine.statevector import expectations, sample_counts

from oracles import HADAMARD, PAULI_2X2, random_state

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
    state = StateVector(1, np.array([INV_SQRT2, 1j * INV_SQRT2]))
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
    from vacuum_refine import apply_controlled

    bell = apply_gate(basis_state(2, 0), HADAMARD, [0])
    bell = apply_controlled(bell, [0], PAULI_2X2["X"], [1])
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


# --- the stacked shot estimator against the per-state code -------------


def _random_stack(n, rows, rng):
    return np.array([random_state(n, rng) for _ in range(rows)])


def _one_word(string, shots, rng_seed, states):
    """(values, errors) of one word on each row, drawn from ``default_rng(rng_seed)``."""
    rngs = [np.random.default_rng(rng_seed)]
    values, errors = shot_estimates(states, compile_words([string]), shots, rngs)
    return values[:, 0], errors[:, 0]


@pytest.mark.parametrize("string", ["X", "Y", "XYZ", "YIX", "IYY", "ZIZ", "IZI"])
def test_shot_estimates_match_one_state_at_a_time(string):
    # a stack draws what its rows draw one after another on the same
    # generator, and shot_expectation draws one state from a fresh generator
    n = len(string)
    rng = np.random.default_rng(70 + n)
    states = _random_stack(n, 7, rng)
    words = compile_words([string])
    values, errors = _one_word(string, 3000, [9, 4], states)
    stream = [np.random.default_rng([9, 4])]
    for row, psi in enumerate(states):
        one_value, one_error = shot_estimates(psi[np.newaxis], words, 3000, stream)
        assert (one_value[0, 0], one_error[0, 0]) == (values[row], errors[row])
    first, first_error = _one_word(string, 3000, 900, states[:1])
    one = shot_expectation(StateVector(n, states[0]), string, 3000, 900)
    assert (one.value, one.std_error) == (first[0], first_error[0])


@pytest.mark.parametrize("seed", [0, 13])
@pytest.mark.parametrize("shots", [7, 1000, 10**6])
def test_each_word_draws_its_parity_binomial_on_its_own_stream(seed, shots):
    # word t's rows draw binomial(shots, clip((1 + <P_t>) / 2, 0, 1)) in
    # order on rngs[t], <P_t> read one row at a time
    states = _random_stack(3, 8, np.random.default_rng(seed))
    words = compile_words(["XYZ", "III", "ZZI", "YIY", "IXI"])
    rngs = [np.random.default_rng([seed, t]) for t in range(len(words))]
    values, errors = shot_estimates(states, words, shots, rngs)
    assert values.shape == errors.shape == (8, 5)
    # the identity word reads exactly 1 and draws nothing from its stream
    assert values[:, 1].tolist() == [1.0] * 8 and errors[:, 1].tolist() == [0.0] * 8
    assert rngs[1].bit_generator.state == np.random.default_rng([seed, 1]).bit_generator.state
    for t in (0, 2, 3, 4):
        oracle = np.random.default_rng([seed, t])
        for row, psi in enumerate(states):
            exact = expectations(psi[np.newaxis], np.ones((1, 1)), words[t : t + 1])[0]
            even = oracle.binomial(shots, np.clip((1.0 + exact) / 2.0, 0.0, 1.0))
            mean = (2 * even - shots) / shots
            assert values[row, t] == mean
            assert errors[row, t] == np.sqrt(max(0.0, 1.0 - mean * mean) / shots)


@pytest.mark.parametrize("string", ["ZIZ", "IZI", "ZZZ"])
def test_shot_estimates_match_per_state_sampling(string):
    # each row draws binomial(shots, p_even) in turn, p_even being the
    # weight of the even-parity outcomes of the word's qubits (2 of 3 for
    # ZIZ) in the per-state marginal
    rng = np.random.default_rng(72)
    states = _random_stack(3, 6, rng)
    measured = [q for q, ch in enumerate(string) if ch == "Z"]
    values, errors = _one_word(string, 5000, 40, states)
    oracle = np.random.default_rng(40)
    for row, psi in enumerate(states):
        weights = np.abs(psi.reshape((2,) * 3)) ** 2
        marginal = weights.sum(axis=tuple(q for q in range(3) if q not in measured)).reshape(-1)
        even = np.array([bin(i).count("1") % 2 == 0 for i in range(len(marginal))])
        p_even = min(1.0, float(marginal[even].sum()))
        mean = (2 * oracle.binomial(5000, p_even) - 5000) / 5000
        assert values[row] == mean
        assert errors[row] == np.sqrt(max(0.0, 1.0 - mean * mean) / 5000)


def test_a_one_letter_draw_is_the_two_outcome_multinomial():
    # the parity draw of a one-letter word counts what measure_sample's
    # multinomial counts on the same stream
    states = _random_stack(2, 9, np.random.default_rng(76))
    values, _ = _one_word("IZ", 4000, 44, states)
    counts = sample_counts(states, 2, [1], 4000, np.random.default_rng(44))
    assert values.tolist() == ((counts[:, 0] - counts[:, 1]) / 4000).tolist()


def test_shot_estimates_lie_within_five_standard_errors():
    states = _random_stack(3, 20, np.random.default_rng(74))
    for string in ("XYZ", "ZZI", "YIY"):
        exact = expectations(states, np.ones((1, 1)), compile_words([string]))
        values, errors = _one_word(string, 100_000, [3, 0], states)
        assert np.all(errors > 0)
        assert np.all(np.abs(values - exact) < 5 * errors)


def test_a_bell_state_reads_its_parities_exactly():
    bell = np.array([[1.0, 0.0, 0.0, 1.0]], dtype=np.complex128) * INV_SQRT2
    for string in ("ZZ", "XX"):
        values, errors = _one_word(string, 10**6, 8, bell)
        assert values.tolist() == [1.0] and errors.tolist() == [0.0]


# On one generator, binomial draws of an array of probabilities come out
# the same in one call, block by block and one at a time.  p = 0 and 1,
# next to them, a fair coin and random values; at 1000 and 10^6 shots
# p = 0.5 takes binomial's BTPE branch, the small p its inversion branch.
STREAM_P = [0.0, 1.0, 1e-7, 1.0 - 1e-7, 0.5] + np.random.default_rng(75).random(15).tolist()


@pytest.mark.parametrize("shots", [1, 7, 1000, 10**6])
def test_binomial_draws_do_not_depend_on_the_block_size(shots):
    p = np.array(STREAM_P)
    whole = np.random.default_rng([11, 2]).binomial(shots, p)
    rng = np.random.default_rng([11, 2])
    blocks = np.concatenate([rng.binomial(shots, p[i : i + 3]) for i in range(0, len(p), 3)])
    rng = np.random.default_rng([11, 2])
    scalars = [rng.binomial(shots, x) for x in p.tolist()]
    assert whole.tolist() == blocks.tolist() == scalars
    # the shot estimator makes one such call per word, on (1 + <Z>) / 2 of
    # states whose |0> weight sqrt rounds: 0.5 comes back as
    # 0.5000000000000001 in both weights, and <Z> as exactly 0
    states = np.stack([np.sqrt(p), np.sqrt(1.0 - p)], axis=1).astype(np.complex128)
    z = expectations(states, np.ones((1, 1)), compile_words(["Z"]))
    even = np.random.default_rng([11, 2]).binomial(shots, np.clip((1.0 + z) / 2.0, 0.0, 1.0))
    values, _ = _one_word("Z", shots, [11, 2], states)
    assert values.tolist() == ((2 * even - shots) / shots).tolist()
    rngs = [np.random.default_rng([11, 2])]
    words = compile_words(["Z"])
    parts = [shot_estimates(states[i : i + 3], words, shots, rngs)[0] for i in range(0, len(p), 3)]
    assert np.concatenate(parts)[:, 0].tolist() == values.tolist()


def test_shot_estimates_validation():
    states = _random_stack(2, 3, np.random.default_rng(73))
    rng = np.random.default_rng(1)
    with pytest.raises(DomainError, match="register size"):
        shot_expectation(StateVector(2, states[0]), "Z", 10, 1)
    with pytest.raises(DomainError, match="unknown Pauli letter"):
        shot_expectation(StateVector(2, states[0]), "ZQ", 10, 1)
    with pytest.raises(DomainError, match="shots"):
        shot_estimates(states, compile_words(["ZZ"]), 0, [rng])
    values, errors = shot_estimates(states, compile_words(["II"]), 10, [rng])
    assert values.tolist() == [[1.0]] * 3 and errors.tolist() == [[0.0]] * 3
    # a word of I letters alone draws nothing
    assert rng.bit_generator.state == np.random.default_rng(1).bit_generator.state


def test_no_states_draw_no_samples():
    empty = np.empty((0, 8), dtype=np.complex128)
    rng = np.random.default_rng(2)
    assert sample_counts(empty, 3, [2, 0], 10, rng).shape == (0, 4)
    words = compile_words(["ZZZ", "XYI", "III"])
    values, errors = shot_estimates(empty, words, 10, [rng] * 3)
    assert values.shape == errors.shape == (0, 3)
    assert rng.bit_generator.state == np.random.default_rng(2).bit_generator.state
