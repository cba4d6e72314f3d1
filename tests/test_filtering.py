import itertools
import re

import numpy as np
import pytest

from vacuum_refine import (
    DegenerateEnergyError,
    DomainError,
    FilterConfig,
    ImpossibleOutcomeError,
    PauliSum,
    StateVector,
    apply_filter,
    basis_state,
    choose_theta,
    controlled_u_power,
    eigen_overlaps,
    exact_diagonalize,
    expectation_observable,
    filter_amplitude,
    hadamard_hamiltonian,
    refine_iteratively,
    tag_circuit_one_qubit,
    transverse_ising_pair,
)

from oracles import (
    embed_controlled,
    filter_circuit,
    pauli_sum_matrix,
    random_state,
    tag_circuit,
)

J = np.pi / 4


def _eigpair():
    spec = exact_diagonalize(hadamard_hamiltonian(J))
    return spec, spec.eigenvectors[:, 0], spec.eigenvectors[:, 1]


def _tag(system_amps, spec):
    """The package's tag, checked against the gate-by-gate circuit on |0>|psi>."""
    tagged = tag_circuit_one_qubit(StateVector(1, system_amps), spec)
    circuit = tag_circuit(np.kron([1.0, 0.0], system_amps), spec.eigenvectors)
    assert np.max(np.abs(tagged.amplitudes - circuit)) < 1e-12
    return tagged


def test_filter_config_powers():
    assert FilterConfig(3, 1.0).powers == (1, 2, 4)
    assert FilterConfig(2, 1.0, powers=(1, 3)).powers == (1, 3)
    with pytest.raises(DomainError):
        FilterConfig(0, 1.0)
    with pytest.raises(DomainError):
        FilterConfig(2, 1.0, powers=(1,))
    with pytest.raises(DomainError):
        FilterConfig(2, 1.0, powers=(0, 1))
    # a power above 2^53 has no exact float64, so p * theta / 2 is not its phase
    assert FilterConfig(54, 1.0).powers[-1] == 2**53
    assert FilterConfig(1, 1.0, powers=(2**53,)).powers == (2**53,)
    with pytest.raises(DomainError, match="2\\^1099, above 2\\^53"):
        FilterConfig(1100, 1.0)
    with pytest.raises(DomainError, match="at most 2\\^53"):
        FilterConfig(2, 1.0, powers=(1, 2**53 + 1))


def test_filter_config_refuses_non_integer_powers():
    # a power of 1.5 was truncated to U^1, and 0.5 refused as "got (0, 2)"
    for powers in ((1.5, 2), (0.5, 2), (2.0, 4)):
        with pytest.raises(DomainError, match=re.escape(f"got {powers!r}")):
            FilterConfig(2, 1.0, powers=powers)
    assert FilterConfig(2, 1.0, powers=(np.int64(1), 3)).powers == (1, 3)


def test_tag_leaves_ground_unmarked():
    spec, v0, _ = _eigpair()
    tagged = _tag(v0, spec)
    prob_ancilla_one = np.sum(np.abs(tagged.amplitudes.reshape(2, 2)[1]) ** 2)
    assert prob_ancilla_one < 1e-12


def test_tag_marks_excited_component():
    spec, _, v1 = _eigpair()
    tagged = _tag(v1, spec)
    prob_ancilla_one = np.sum(np.abs(tagged.amplitudes.reshape(2, 2)[1]) ** 2)
    assert prob_ancilla_one == pytest.approx(1.0, abs=1e-12)


def test_tag_splits_superposition_and_kills_coherence():
    spec, v0, v1 = _eigpair()
    alpha, beta = np.sqrt(0.7), np.sqrt(0.3)
    psi = alpha * v0 + beta * v1
    tagged = _tag(psi, spec)
    blocks = tagged.amplitudes.reshape(2, 2)
    assert np.sum(np.abs(blocks[0]) ** 2) == pytest.approx(0.7, abs=1e-12)
    assert np.sum(np.abs(blocks[1]) ** 2) == pytest.approx(0.3, abs=1e-12)
    # the system observable on the tagged state is an incoherent mixture
    z_sys = PauliSum(2, ((1.0, "IZ"),))
    zmat = np.array([[1.0, 0.0], [0.0, -1.0]])
    mixed = 0.7 * np.real(v0.conj() @ zmat @ v0) + 0.3 * np.real(v1.conj() @ zmat @ v1)
    assert expectation_observable(tagged, z_sys) == pytest.approx(mixed, abs=1e-12)


def test_tag_matches_circuit_on_random_operators():
    rng = np.random.default_rng(41)
    for _ in range(20):
        c, a, b = rng.uniform(-1.0, 1.0, size=3)
        spec = exact_diagonalize(PauliSum(1, ((c, "I"), (a, "Z"), (b, "X"))))
        psi = random_state(1, rng)
        before = psi.copy()
        _tag(psi, spec)
        assert np.array_equal(psi, before)


def test_tag_preconditions():
    spec, v0, _ = _eigpair()
    # the tag supplies its own ancilla: a state of two qubits is not a system state
    with pytest.raises(DomainError, match="does not match state dimension 4"):
        tag_circuit_one_qubit(StateVector(2, np.kron([1.0, 0.0], v0)), spec)
    pair = exact_diagonalize(transverse_ising_pair(J))
    with pytest.raises(DomainError, match="not a one-qubit spectrum"):
        tag_circuit_one_qubit(StateVector(2, pair.eigenvectors[:, 0]), pair)
    # theta divides by the gap
    degenerate = exact_diagonalize(PauliSum(1, ((0.0, "I"),)))
    with pytest.raises(DomainError, match="degenerate"):
        tag_circuit_one_qubit(StateVector(1, v0), degenerate)


def test_estimate_e0_exact():
    # each pass estimates E0' as the exact energy <psi|h|psi> of its input
    spec, v0, v1 = _eigpair()
    h = hadamard_hamiltonian(J)
    ground = refine_iteratively(StateVector(1, v0), h, spec, m=1, max_iters=1)
    assert ground.steps[0].e0_prime == pytest.approx(-J, abs=1e-12)
    mixed = StateVector(1, np.sqrt(0.9) * v0 + np.sqrt(0.1) * v1)
    report = refine_iteratively(mixed, h, spec, m=1, max_iters=1)
    assert report.steps[0].e0_prime == pytest.approx(0.9 * -J + 0.1 * J, abs=1e-12)


def test_choose_theta():
    assert choose_theta(-np.pi / 4) == pytest.approx(-4.0, abs=1e-14)
    assert choose_theta(np.pi / 2) == pytest.approx(2.0, abs=1e-14)
    with pytest.raises(DegenerateEnergyError):
        choose_theta(0.0)
    with pytest.raises(DegenerateEnergyError):
        choose_theta(1e-12)


def test_controlled_u_power_phase_kickback():
    # with the ancilla in |+> and the system in an eigenstate |E>, the k-th
    # controlled power writes z^k = (i e^{-i E theta/2})^k onto the |1> branch
    spec, v0, _ = _eigpair()
    theta = -4.0
    for k in (1, 2, 4):
        joint = StateVector(2, np.kron([1.0, 1.0] / np.sqrt(2.0), v0))
        moved = controlled_u_power(joint, 0, spec, theta, k)
        blocks = moved.amplitudes.reshape(2, 2)
        z = 1j * np.exp(-0.5j * -J * theta)
        ratio = blocks[1] @ v0.conj()
        assert ratio * np.sqrt(2.0) == pytest.approx(z**k, abs=1e-12)
        # the |0> branch is untouched
        assert blocks[0] @ v0.conj() == pytest.approx(1 / np.sqrt(2.0), abs=1e-12)


def test_controlled_u_power_matches_dense_oracle():
    rng = np.random.default_rng(13)
    from oracles import random_state

    h = transverse_ising_pair(J)
    spec = exact_diagonalize(h)
    hmat = pauli_sum_matrix(h.terms, 2)
    vals, vecs = np.linalg.eigh(hmat)
    theta = 0.8
    for k in (1, 2, 3):
        amps = random_state(3, rng)
        joint = StateVector(3, amps)
        got = controlled_u_power(joint, 0, spec, theta, k).amplitudes
        u = (vecs * np.exp(-1j * vals * k * theta / 2.0)) @ vecs.conj().T
        dense = embed_controlled((1j**k) * u, [0], [1, 2], 3)
        assert np.max(np.abs(got - dense @ amps)) < 1e-12


def test_controlled_u_power_middle_ancilla_matches_dense_oracle():
    from oracles import random_state

    rng = np.random.default_rng(17)
    h = transverse_ising_pair(J)
    spec = exact_diagonalize(h)
    vals, vecs = np.linalg.eigh(pauli_sum_matrix(h.terms, 2))
    theta = -1.3
    for k in (1, 2, 3, 4):
        # three ancillas ahead of the two system qubits, controlled on the middle one
        amps = random_state(5, rng)
        got = controlled_u_power(StateVector(5, amps), 1, spec, theta, k).amplitudes
        u = (vecs * np.exp(-1j * vals * k * theta / 2.0)) @ vecs.conj().T
        dense = embed_controlled((1j**k) * u, [1], [3, 4], 5)
        assert np.max(np.abs(got - dense @ amps)) < 1e-12


def test_controlled_u_power_validation():
    spec, _, _ = _eigpair()
    joint = basis_state(2, 0)
    with pytest.raises(DomainError):
        controlled_u_power(joint, 0, spec, 1.0, 0)
    with pytest.raises(DomainError):
        controlled_u_power(joint, 1, spec, 1.0, 1)  # ancilla inside system register
    with pytest.raises(DomainError):
        controlled_u_power(joint, -1, spec, 1.0, 1)
    with pytest.raises(DomainError):
        controlled_u_power(basis_state(1, 0), 0, spec, 1.0, 1)
    # the system register is as wide as the spectrum's operator
    pair = exact_diagonalize(transverse_ising_pair(J))
    with pytest.raises(DomainError, match="no room for ancillas"):
        controlled_u_power(joint, 0, pair, 1.0, 1)


def test_filter_amplitude_resonance_and_rejection():
    config = FilterConfig(3, choose_theta(-J))
    assert filter_amplitude(-J, config.theta, config) == pytest.approx(1.0, abs=1e-14)
    assert abs(filter_amplitude(J, config.theta, config)) < 1e-14


def test_filter_amplitude_magnitude_closed_form():
    # |A| = prod |cos(p * phi / 2)| with phi = (pi/2) (1 - E/E0')
    rng = np.random.default_rng(3)
    for _ in range(50):
        e0p = float(rng.uniform(0.2, 2.0)) * (1 if rng.random() < 0.5 else -1)
        energy = float(rng.uniform(-2.0, 2.0))
        m = int(rng.integers(1, 4))
        config = FilterConfig(m, choose_theta(e0p))
        amp = filter_amplitude(energy, config.theta, config)
        phi = (np.pi / 2.0) * (1.0 - energy / e0p)
        expected = np.prod([abs(np.cos(p * phi / 2.0)) for p in config.powers])
        assert abs(abs(amp) - expected) < 1e-12
        assert abs(amp) <= 1.0 + 1e-12


@pytest.mark.parametrize("powers", [(2**30 + 1,), (2**40 + 3,), (3, 2**30 + 1, 2**40 + 3)])
def test_closed_form_holds_at_large_powers(powers):
    # i^p is exact as i^(p mod 4) in the closed form too, so it keeps up
    # with apply_filter where Python's complex power drifts by about p * 1e-16
    spec, v0, v1 = _eigpair()
    theta = choose_theta(-1.3)
    config = FilterConfig(len(powers), theta, powers)
    for energy, vector in zip(spec.eigenvalues, (v0, v1)):
        outcome = apply_filter(StateVector(1, vector), spec, config)
        amplitude = filter_amplitude(energy, theta, config)
        assert abs(outcome.success_probability - abs(amplitude) ** 2) < 1e-12


def test_controlled_u_power_phase_is_exact_at_large_powers():
    spec, v0, _ = _eigpair()
    theta = -4.0
    for k in (2**30 + 1, 2**40 + 3):
        joint = StateVector(2, np.kron([0.0, 1.0], v0))
        moved = controlled_u_power(joint, 0, spec, theta, k)
        ratio = moved.amplitudes.reshape(2, 2)[1] @ v0.conj()
        expected = 1j ** (k % 4) * np.exp(-1j * spec.eigenvalues[0] * (k * theta / 2.0))
        assert abs(ratio - expected) < 1e-12


def test_apply_filter_matches_closed_form_one_qubit():
    spec, v0, v1 = _eigpair()
    rng = np.random.default_rng(17)
    for _ in range(20):
        mix = rng.uniform(0.05, 0.95)
        alpha, beta = np.sqrt(mix), np.sqrt(1 - mix) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        psi = StateVector(1, alpha * v0 + beta * v1)
        theta = choose_theta(float(rng.uniform(-2.0, -0.3)))
        config = FilterConfig(int(rng.integers(1, 4)), theta)
        outcome = apply_filter(psi, spec, config)
        a0 = filter_amplitude(spec.eigenvalues[0], theta, config)
        a1 = filter_amplitude(spec.eigenvalues[1], theta, config)
        unnorm = a0 * alpha * v0 + a1 * beta * v1
        prob = np.sum(np.abs(unnorm) ** 2)
        assert outcome.success_probability == pytest.approx(prob, abs=1e-12)
        rebuilt = unnorm / np.sqrt(prob)
        overlap = abs(np.vdot(rebuilt, outcome.refined_state.amplitudes))
        assert overlap == pytest.approx(1.0, abs=1e-12)


def test_apply_filter_matches_closed_form_two_qubit():
    h = transverse_ising_pair(J)
    spec = exact_diagonalize(h)
    rng = np.random.default_rng(23)
    coeffs = rng.normal(size=4) + 1j * rng.normal(size=4)
    coeffs /= np.linalg.norm(coeffs)
    psi = StateVector(2, spec.eigenvectors @ coeffs)
    theta = choose_theta(float(spec.eigenvalues[0]))
    config = FilterConfig(2, theta)
    outcome = apply_filter(psi, spec, config)
    amps = np.array([filter_amplitude(e, theta, config) for e in spec.eigenvalues])
    unnorm = spec.eigenvectors @ (amps * coeffs)
    prob = np.sum(np.abs(unnorm) ** 2)
    assert outcome.success_probability == pytest.approx(prob, abs=1e-12)
    overlap = abs(np.vdot(unnorm / np.sqrt(prob), outcome.refined_state.amplitudes))
    assert overlap == pytest.approx(1.0, abs=1e-12)
    # the spectrum's register must be the state's
    one_qubit = exact_diagonalize(hadamard_hamiltonian(J))
    with pytest.raises(DomainError, match=r"operator acts on 1 qubit\(s\), state has 2"):
        apply_filter(psi, one_qubit, config)


def test_apply_filter_uses_supplied_spectrum(count_calls):
    h = transverse_ising_pair(J)
    spec = exact_diagonalize(h)
    psi = StateVector(2, spec.eigenvectors @ np.array([0.8, 0.4, 0.4, 0.2]))
    config = FilterConfig(3, choose_theta(float(spec.eigenvalues[0])))
    diagonalized = count_calls("hamiltonian.exact_diagonalize")
    propagators = count_calls("hamiltonian.evolution_unitary")
    circuit = [
        count_calls(name)
        for name in (
            "statevector.apply_gate",
            "statevector.apply_controlled",
            "statevector.postselect",
            "filtering.controlled_u_power",
        )
    ]
    apply_filter(psi, spec, config)
    report = refine_iteratively(psi, h, spec, m=3)
    assert not report.status.startswith("aborted")
    # the one spectrum serves every ancilla of every pass
    assert diagonalized == []
    # every factor is applied from the spectrum to the system register:
    # no dense propagator, no gate and no joint register
    assert propagators == []
    assert circuit == [[], [], [], []]


def _random_operator(n, rng):
    """Every Pauli word on ``n`` qubits with a random real weight."""
    words = ("".join(w) for w in itertools.product("IXYZ", repeat=n))
    return PauliSum(n, tuple((float(rng.normal()), w) for w in words))


@pytest.mark.parametrize("powers", [(1, 2, 4), (3, 3), (1, 5, 2)], ids=str)
@pytest.mark.parametrize("n", [2, 3])
def test_apply_filter_matches_circuit_oracle(n, powers):
    rng = np.random.default_rng(100 * n + sum(powers))
    for _ in range(3):
        h = _random_operator(n, rng)
        spec = exact_diagonalize(h)
        hmat = pauli_sum_matrix(h.terms, n)
        theta = float(rng.uniform(0.3, 3.0)) * (1.0 if rng.random() < 0.5 else -1.0)
        amps = random_state(n, rng)
        outcome = apply_filter(StateVector(n, amps), spec, FilterConfig(len(powers), theta, powers))
        probability, refined = filter_circuit(hmat, amps, theta, powers)
        assert probability > 1e-3
        assert abs(outcome.success_probability - probability) < 1e-12
        assert np.max(np.abs(outcome.refined_state.amplitudes - refined)) < 1e-12


def test_apply_filter_refuses_an_excited_eigenstate_on_its_rejection_zero():
    # theta = -pi / E1 makes z = -1 at E1, so the first factor (1 + z) / 2
    # removes the excited eigenstate entirely
    spec = exact_diagonalize(transverse_ising_pair(J))
    excited = StateVector(2, spec.eigenvectors[:, 1])
    config = FilterConfig(2, -np.pi / float(spec.eigenvalues[1]))
    assert abs(filter_amplitude(float(spec.eigenvalues[1]), config.theta, config)) < 1e-15
    with pytest.raises(ImpossibleOutcomeError, match="outcome 00 on qubits"):
        apply_filter(excited, spec, config)


def test_apply_filter_phase_of_a_large_power_is_exact():
    # on the E = 0 level of I + Z the factor is (1 + i^p) / 2, and i^p = i
    # for p = 2^30 + 1, so the outcome has probability 1/2; Python's
    # 1j ** p is off by about 6e-8 at this power
    spec = exact_diagonalize(PauliSum(1, ((1.0, "I"), (1.0, "Z"))))
    assert spec.eigenvalues[0] == 0.0
    outcome = apply_filter(basis_state(1, 1), spec, FilterConfig(1, 1.0, powers=(2**30 + 1,)))
    assert abs(outcome.success_probability - 0.5) < 1e-15


def test_apply_filter_leaves_its_input_untouched():
    rng = np.random.default_rng(5)
    h = transverse_ising_pair(J)
    spec = exact_diagonalize(h)
    psi = StateVector(2, random_state(2, rng))
    before = psi.amplitudes.copy()
    psi.amplitudes.setflags(write=False)
    outcome = apply_filter(psi, spec, FilterConfig(3, choose_theta(float(spec.eigenvalues[0]))))
    assert np.array_equal(psi.amplitudes, before)
    assert not np.shares_memory(outcome.refined_state.amplitudes, psi.amplitudes)


def test_filter_on_exact_ground_is_identity():
    spec, v0, _ = _eigpair()
    outcome = apply_filter(StateVector(1, v0), spec, FilterConfig(2, choose_theta(-J)))
    assert outcome.success_probability == pytest.approx(1.0, abs=1e-12)
    overlap = abs(np.vdot(v0, outcome.refined_state.amplitudes))
    assert overlap == pytest.approx(1.0, abs=1e-12)


def test_refine_fixed_point():
    spec, v0, _ = _eigpair()
    h = hadamard_hamiltonian(J)
    report = refine_iteratively(StateVector(1, v0), h, spec, m=2)
    assert report.status == "converged"
    assert len(report.steps) == 1
    step = report.steps[0]
    assert step.e0_prime == pytest.approx(-J, abs=1e-12)
    assert step.success_probability == pytest.approx(1.0, abs=1e-10)
    assert step.excited_weight < 1e-12


def test_refine_cleans_mixed_state():
    spec, v0, v1 = _eigpair()
    h = hadamard_hamiltonian(J)
    start = StateVector(1, np.sqrt(0.9) * v0 + np.sqrt(0.1) * v1)
    report = refine_iteratively(start, h, spec, m=2, max_iters=5)
    assert report.status == "converged"
    weights = [s.excited_weight for s in report.steps]
    assert all(b < a for a, b in zip(weights, weights[1:]))
    estimates = [s.e0_prime for s in report.steps]
    # energy estimates approach the true level from above
    assert all(b < a for a, b in zip(estimates, estimates[1:]))
    assert estimates[-1] == pytest.approx(-J, abs=1e-3)
    final_overlap = eigen_overlaps(report.final_state, spec).weights[0]
    assert final_overlap > 1.0 - 1e-8


def test_refine_first_pass_matches_closed_form():
    # dual route: the loop's first pass must equal the amplitude formula
    # evaluated at the theta the loop itself would pick
    spec, v0, v1 = _eigpair()
    h = hadamard_hamiltonian(J)
    w = 0.85
    start = StateVector(1, np.sqrt(w) * v0 + np.sqrt(1 - w) * v1)
    report = refine_iteratively(start, h, spec, m=2, max_iters=1)
    e0p = w * -J + (1 - w) * J
    theta = choose_theta(e0p)
    config = FilterConfig(2, theta)
    a0 = abs(filter_amplitude(-J, theta, config)) ** 2
    a1 = abs(filter_amplitude(J, theta, config)) ** 2
    prob = w * a0 + (1 - w) * a1
    step = report.steps[0]
    assert step.theta == pytest.approx(theta, abs=1e-12)
    assert step.success_probability == pytest.approx(prob, abs=1e-12)
    assert step.excited_weight == pytest.approx((1 - w) * a1 / prob, abs=1e-12)


def test_refine_aborts_on_zero_energy_estimate():
    spec, v0, v1 = _eigpair()
    h = hadamard_hamiltonian(J)
    balanced = StateVector(1, np.sqrt(0.5) * v0 + np.sqrt(0.5) * v1)
    report = refine_iteratively(balanced, h, spec, m=2)
    assert report.status.startswith("aborted")
    assert len(report.steps) == 1
    step = report.steps[0]
    assert np.isnan(step.theta)
    assert step.success_probability == 0.0
    # pre-filter metrics are recorded
    assert step.fidelity_to_ground == pytest.approx(0.5, abs=1e-12)


def test_refine_aborts_when_postselection_impossible():
    spec, v0, v1 = _eigpair()
    h = hadamard_hamiltonian(J)
    # a pure excited state with theta on the ground resonance is rejected
    # with certainty, so the all-zeros outcome never occurs
    report = refine_iteratively(
        StateVector(1, v1), h, spec, m=2, fixed_theta=choose_theta(-J)
    )
    assert report.status.startswith("aborted")
    step = report.steps[0]
    assert step.theta == pytest.approx(-4.0, abs=1e-12)
    assert step.success_probability == 0.0
    assert step.fidelity_to_ground < 1e-12
    assert step.excited_weight == pytest.approx(1.0, abs=1e-12)


def test_refine_rejects_degenerate_operator(count_calls):
    filtered = count_calls("filtering.apply_filter")
    # every level doubled; then only the ground level (-0.5 twice, -0.1, 1.1)
    for terms in (((1.0, "ZZ"),), ((0.5, "ZZ"), (0.3, "ZI"), (0.3, "IZ"))):
        h = PauliSum(2, terms)
        with pytest.raises(DomainError, match="non-degenerate ground level"):
            refine_iteratively(basis_state(2, 1), h, exact_diagonalize(h), m=1)
    assert filtered == []


def test_refine_respects_max_iters():
    spec, v0, v1 = _eigpair()
    h = hadamard_hamiltonian(J)
    start = StateVector(1, np.sqrt(0.9) * v0 + np.sqrt(0.1) * v1)
    report = refine_iteratively(start, h, spec, m=1, max_iters=1, target_infidelity=0.0)
    assert report.status == "max_iterations"
    assert len(report.steps) == 1
    with pytest.raises(DomainError, match="max_iters must be >= 1"):
        refine_iteratively(start, h, spec, m=1, max_iters=0)
    with pytest.raises(DomainError, match="target_infidelity must be >= 0"):
        refine_iteratively(start, h, spec, m=1, target_infidelity=-1.0)
