import numpy as np
import pytest

from vacuum_refine import (
    DomainError,
    ImpossibleOutcomeError,
    NumericalConsistencyError,
    PauliSum,
    StateVector,
    UnitarityError,
    apply_controlled,
    apply_gate,
    apply_pauli_string,
    basis_state,
    expectation_observable,
    fidelity,
    measure_sample,
    postselect,
)
from vacuum_refine import statevector
from vacuum_refine.pauli import apply_words, compile_words
from vacuum_refine.statevector import (
    _apply_matrix,
    check_normalized,
    expectations,
    fidelities,
    row_overlaps,
    sample_counts,
    word_overlaps,
)

from oracles import (
    HADAMARD,
    PAULI_2X2,
    S_DAG,
    embed_controlled,
    embed_gate,
    expectation_per_state,
    fidelity_per_state,
    haar_unitary,
    multinomial_per_row,
    pauli_sum_matrix,
    pauli_word_matrix,
    random_state,
    sample_per_state,
)

INV_SQRT2 = 1.0 / np.sqrt(2.0)
X = PAULI_2X2["X"]


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


def test_apply_x_flips_msb_qubit():
    state = apply_gate(basis_state(2, 0), X, [0])
    assert state.amplitudes[0b10] == 1.0


def test_apply_hadamard_then_z_gives_minus():
    state = apply_gate(basis_state(1, 0), HADAMARD, [0])
    state = apply_gate(state, np.diag([1.0, -1.0]), [0])
    assert state.amplitudes == pytest.approx([INV_SQRT2, -INV_SQRT2])


def test_apply_gate_validates_targets_and_arity():
    state = basis_state(2, 0)
    with pytest.raises(DomainError):
        apply_gate(state, X, [0, 0])
    with pytest.raises(DomainError):
        apply_gate(state, X, [2])
    with pytest.raises(DomainError):
        apply_gate(state, X, [0, 1])


def test_non_unitary_matrix_rejected():
    # both gate functions check the plain array once, before applying it
    state = basis_state(3, 0)
    for apply in (
        lambda gate, targets: apply_gate(state, gate, targets),
        lambda gate, targets: apply_controlled(state, [2], gate, targets),
    ):
        with pytest.raises(DomainError, match="needs a 2x2 matrix"):
            apply(np.eye(4), [0])
        with pytest.raises(DomainError, match="needs a 4x4 matrix"):
            apply(np.eye(2), [0, 1])
        with pytest.raises(DomainError, match="needs a 2x2 matrix"):
            apply(np.ones(2), [0])
        with pytest.raises(UnitarityError):
            apply(np.array([[1.0, 0.0], [0.0, 2.0]]), [0])
        with pytest.raises(UnitarityError):
            apply(np.array([[np.nan, 0.0], [0.0, 1.0]]), [0])


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
    phased = apply_controlled(plus, [0], 1j * np.eye(2), [1])
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
    state = StateVector(1, np.array([INV_SQRT2, INV_SQRT2]))
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
    # S^dagger on |1> multiplies by -i, no hidden normalization of phases
    one = basis_state(1, 1)
    assert apply_gate(one, S_DAG, [0]).amplitudes[1] == pytest.approx(-1j)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_apply_matrix_gives_each_row_of_a_stack_its_own_bits(k):
    # rows of 4 qubits, the gate on k of them in a scrambled order
    rng = np.random.default_rng(80 + k)
    matrix = haar_unitary(2**k, rng)
    states = _random_stack(4, 9, rng).reshape((9,) + (2,) * 4)
    axes = [int(q) for q in rng.choice(4, size=k, replace=False)]
    stacked = _apply_matrix(states, matrix, [1 + q for q in axes])
    for row in range(9):
        alone = _apply_matrix(states[row], matrix, axes)
        assert stacked[row].tobytes() == alone.tobytes()


@pytest.mark.parametrize("gate", [HADAMARD, S_DAG], ids=["hadamard", "s_dag"])
def test_apply_matrix_on_one_qubit_is_the_two_term_sum(gate):
    # the shot estimator's basis changes: row i is g[i,0]*a0 + g[i,1]*a1
    states = _random_stack(3, 5, np.random.default_rng(85)).reshape((5, 2, 2, 2))
    for axis in (1, 2, 3):
        a0, a1 = np.take(states, 0, axis), np.take(states, 1, axis)
        expected = np.stack(
            (gate[0, 0] * a0 + gate[0, 1] * a1, gate[1, 0] * a0 + gate[1, 1] * a1), axis
        )
        got = _apply_matrix(states, gate, [axis])
        assert got.tobytes() == expected.tobytes()


# --- stacked readouts against the per-state code ------------------------


def _random_stack(n, rows, rng):
    return np.array([random_state(n, rng) for _ in range(rows)])


@pytest.mark.parametrize("n, rows", [(1, 6), (4, 6), (8, 6), (4, 1100)])
def test_stacked_expectations_match_per_state(n, rows):
    # 1100 rows of 16 amplitudes take the four words three, then one, at a time
    rng = np.random.default_rng(40 + n)
    states = _random_stack(n, rows, rng)
    strings = ["Y" + "I" * (n - 1), "Z" * n, "".join(rng.choice(list("IXYZ"), n)), "X" * n]
    words = compile_words(strings)
    coeffs = rng.normal(size=(rows, len(strings)))
    # zero coefficients add exact zeros, which the oracle skips
    coeffs[2, 1] = 0.0
    coeffs[4] = 0.0
    matrices: dict = {}
    got = expectations(states, coeffs, words)
    shared = expectations(states, coeffs[:1], words)
    for row, psi in enumerate(states):
        terms = list(zip(coeffs[row].tolist(), strings))
        expected = expectation_per_state(psi, terms, matrices)
        assert got[row] == expected
        assert expectations(psi[np.newaxis], coeffs[row : row + 1], words)[0] == expected
        assert shared[row] == expectation_per_state(psi, list(zip(coeffs[0].tolist(), strings)), matrices)
    assert got[4] == 0.0
    # a stack of no rows reads out nothing
    for row_coeffs in (coeffs[:0], coeffs[:1]):
        empty = expectations(states[:0], row_coeffs, words)
        assert empty.dtype == np.float64 and empty.shape == (0,)


@pytest.mark.parametrize("entries", [statevector._STACK_ENTRIES, 16])
@pytest.mark.parametrize("n, rows", [(1, 9), (3, 7), (5, 3)])
def test_word_overlaps_are_each_rows_vdot(n, rows, entries, monkeypatch):
    # at 16 entries the rows and words go in blocks, at 5 qubits one word
    # on one row of 32 amplitudes at a time; no bit depends on the blocks
    monkeypatch.setattr(statevector, "_STACK_ENTRIES", entries)
    rng = np.random.default_rng(80 + n)
    states = _random_stack(n, rows, rng)
    strings = ["".join(rng.choice(list("IXYZ"), n)) for _ in range(12)] + ["I" * n, "Y" * n]
    words = compile_words(strings)
    gathers = []

    def recorded(table, amplitudes):
        gathers.append(len(table) * amplitudes.size)
        return apply_words(table, amplitudes)

    monkeypatch.setattr(statevector, "apply_words", recorded)
    got = word_overlaps(states, words)
    expected = [
        [np.vdot(psi, apply_words(words[t : t + 1], psi)[0]) for t in range(len(words))]
        for psi in states
    ]
    assert got.dtype == np.complex128 and np.array_equal(got, np.array(expected))
    assert max(gathers) <= max(entries, 2**n)
    assert word_overlaps(states[:0], words).shape == (0, len(words))


@pytest.mark.parametrize("n", [1, 4, 8])
def test_stacked_fidelities_match_per_state(n):
    rng = np.random.default_rng(50 + n)
    a, b = _random_stack(n, 7, rng), _random_stack(n, 7, rng)
    overlaps = row_overlaps(a, b)
    got = fidelities(a, b)
    against_one = fidelities(a, b[2:3])
    for row in range(7):
        assert overlaps[row] == np.vdot(a[row], b[row])
        assert got[row] == fidelity_per_state(a[row], b[row])
        assert against_one[row] == fidelity_per_state(a[row], b[2])
        assert fidelity(StateVector(n, a[row]), StateVector(n, b[row])) == got[row]


def test_stacked_norm_check_refuses_an_interior_row():
    rng = np.random.default_rng(60)
    states = _random_stack(3, 6, rng)
    check_normalized(states)
    for bad in (1.001, np.nan):
        broken = states.copy()
        broken[3] *= bad
        with pytest.raises(DomainError, match="not normalized"):
            check_normalized(broken)


def test_stacked_expectations_refuse_a_nan_row():
    rng = np.random.default_rng(61)
    states = _random_stack(2, 5, rng)
    states[2] = np.nan
    words = compile_words(["ZX"])
    with pytest.raises(NumericalConsistencyError, match="imaginary residue"):
        expectations(states, np.ones((1, 1)), words)


@pytest.mark.parametrize("qubits", [[0], [1], [0, 2], [2, 0], [1, 2], [2, 1, 0]])
def test_stacked_sampling_matches_per_state(qubits):
    # a stack draws its rows in order, as per-state draws on one generator do
    rng = np.random.default_rng(62)
    states = _random_stack(3, 5, rng)
    counts = sample_counts(states, 3, qubits, 4000, np.random.default_rng(700))
    assert counts.dtype == np.int64
    oracle = np.random.default_rng(700)
    for row, psi in enumerate(states):
        expected = sample_per_state(psi, 3, qubits, 4000, oracle)
        assert counts[row].tolist() == expected.tolist()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_sampling_matches_a_fresh_default_rng_per_row(n):
    # measure_sample draws each state from a fresh np.random.default_rng(seed),
    # on a run of seeds that crosses 2^32
    rng = np.random.default_rng(63)
    states = _random_stack(n, 12, rng)
    seeds = range(2**32 - 6, 2**32 + 6)
    marginals = np.clip(np.abs(states) ** 2, 0.0, None)
    marginals = marginals / marginals.sum(axis=-1, keepdims=True)
    expected = multinomial_per_row(marginals, 1000, seeds)
    for row, seed in enumerate(seeds):
        histogram = measure_sample(StateVector(n, states[row]), list(range(n)), 1000, seed)
        assert histogram == {format(i, f"0{n}b"): int(c) for i, c in enumerate(expected[row]) if c}


def test_measure_sample_histograms_are_pinned():
    # the counts measure_sample has drawn for these seeds since seeds were
    # hashed per draw; drawing from default_rng(rng_seed) keeps them
    rng = np.random.default_rng(5)
    amps = rng.normal(size=8) + 1j * rng.normal(size=8)
    state = StateVector(3, amps / np.linalg.norm(amps))
    assert measure_sample(state, [2, 0], 1000, rng_seed=2**40 + 3) == {
        "00": 94, "01": 150, "10": 387, "11": 369,
    }
    assert measure_sample(state, [1], 1000, rng_seed=17) == {"0": 633, "1": 367}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_sampling_draws_the_rows_in_order_on_one_generator(n):
    # one call, blocks of rows and single rows on one generator draw alike
    states = _random_stack(n, 11, np.random.default_rng(67))
    whole = sample_counts(states, n, list(range(n)), 1000, np.random.default_rng([5, 1]))
    rng = np.random.default_rng([5, 1])
    blocks = [sample_counts(states[i : i + 4], n, list(range(n)), 1000, rng) for i in range(0, 11, 4)]
    rng = np.random.default_rng([5, 1])
    rows = [sample_counts(states[i : i + 1], n, list(range(n)), 1000, rng) for i in range(11)]
    assert whole.tolist() == np.concatenate(blocks).tolist() == np.concatenate(rows).tolist()


# Two-outcome rows: p0 = 0 and 1, next to them, a fair coin and random
# values; at 1000 and 10^6 shots p0 = 0.5 takes binomial's BTPE branch,
# the small p0 its inversion branch, and p0 > 0.5 the flipped draw.
TWO_OUTCOME_P0 = [0.0, 1.0, 1e-7, 1.0 - 1e-7, 0.5] + np.random.default_rng(68).random(5).tolist()


@pytest.mark.parametrize("shots", [1, 7, 1000, 10**6])
@pytest.mark.parametrize("first_seed", [2**32 - 5, 2**128 - 5])
def test_two_outcome_draws_match_numpy_multinomial(shots, first_seed):
    # a two-outcome multinomial row is binomial(shots, p0) on the same
    # stream, so measure_sample's counts and the shot estimator's parity
    # draw of a one-letter word agree
    p0 = np.array(TWO_OUTCOME_P0)
    states = np.stack([np.sqrt(p0), np.sqrt(1.0 - p0)], axis=1).astype(np.complex128)
    counts = sample_counts(states, 1, [0], shots, np.random.default_rng(first_seed))
    oracle = np.random.default_rng(first_seed)
    assert counts.tolist() == [oracle.multinomial(shots, [p, 1.0 - p]).tolist() for p in p0]
    first = np.random.default_rng(first_seed).binomial(shots, p0)
    assert counts.tolist() == np.stack([first, shots - first], axis=1).tolist()


@pytest.mark.parametrize(
    "bad, error", [(-1, ValueError), (-(2**64) + 3, ValueError), (1.5, TypeError)]
)
def test_sampling_refuses_seeds_numpy_refuses(bad, error):
    # the exception type numpy's own seeding raises; a negative seed does
    # not wrap around to a large one
    with pytest.raises(error):
        np.random.default_rng(bad)
    with pytest.raises(error):
        measure_sample(basis_state(1, 0), [0], 10, bad)


def test_sampling_refuses_an_unseeded_row():
    # numpy would seed None from fresh entropy, so the draw could not be repeated
    with pytest.raises(TypeError):
        measure_sample(basis_state(1, 0), [0], 10, None)
