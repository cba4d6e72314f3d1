from pathlib import Path

import numpy as np
import pytest

from vacuum_refine import (
    DomainError,
    EvolutionMode,
    PauliSum,
    Schedule,
    Spectrum,
    StateVector,
    apply_evolution,
    basis_state,
    evolve_step,
    exact_diagonalize,
    expectation_observable,
    fidelity,
    hadamard_hamiltonian,
    initial_hamiltonian,
    interpolate,
    parse_pauli_text,
    ramp_coefficients,
    run_adiabatic,
    run_hold,
    to_matrix,
    transverse_ising_pair,
)
from vacuum_refine.hamiltonian import _SpectrumStacks

from oracles import expectation_per_state, fidelity_per_state

J = np.pi / 4
CHAIN3Y = parse_pauli_text((Path(__file__).parent / "golden" / "chain3y.txt").read_text())

BENCHMARK = Schedule(total_time=36.0, dt=1.0 / 24.0, hold_time=12.0)


def test_schedule_validation():
    with pytest.raises(DomainError):
        Schedule(total_time=0.0, dt=0.1)
    with pytest.raises(DomainError):
        Schedule(total_time=1.0, dt=-0.1)
    with pytest.raises(DomainError):
        Schedule(total_time=1.0, dt=0.3)  # not an integer number of steps
    with pytest.raises(DomainError):
        Schedule(total_time=1.0, dt=0.25, hold_time=0.3)
    sched = Schedule(total_time=1.0, dt=0.25, hold_time=0.5)
    assert sched.num_ramp_steps == 4
    assert sched.num_hold_steps == 2


@pytest.mark.parametrize(
    "args, name",
    [
        ((1.0, 0.5, float("nan")), "hold_time"),
        ((float("nan"), 0.5), "total_time"),
        ((float("inf"), 0.5), "total_time"),
        ((1.0, float("inf")), "dt"),
        ((1.0, 0.5, float("-inf")), "hold_time"),
    ],
)
def test_schedule_refuses_non_finite_values(args, name):
    # round() in the integrality check raised a bare ValueError or OverflowError
    with pytest.raises(DomainError, match=f"{name} must be finite"):
        Schedule(*args)


def test_exact_step_phases_eigenstate():
    # |0> is the -J eigenstate of -J Z, so one step contributes e^{+iJ dt}
    h = initial_hamiltonian(J, 1)
    dt = 0.5
    spectrum = exact_diagonalize(h)
    stepped = evolve_step(basis_state(1, 0), h, dt, EvolutionMode.EXACT_STEP, spectrum)
    assert stepped.amplitudes[0] == pytest.approx(np.exp(1j * J * dt), abs=1e-14)


def test_exact_step_needs_a_spectrum():
    h = initial_hamiltonian(J, 1)
    with pytest.raises(DomainError, match="spectrum"):
        evolve_step(basis_state(1, 0), h, 0.5, EvolutionMode.EXACT_STEP)
    # a trotter1 step reads only the operator's terms
    stepped = evolve_step(basis_state(1, 0), h, 0.5, EvolutionMode.TROTTER1)
    assert stepped.amplitudes[0] == pytest.approx(np.exp(0.5j * J), abs=1e-14)


def test_trotter_exact_agree_for_commuting_terms():
    # all-Z operator: the split pieces commute, so one trotter step is exact
    h = PauliSum(2, ((0.3, "ZI"), (-0.7, "IZ"), (0.2, "ZZ")))
    rng = np.random.default_rng(2)
    from oracles import random_state

    state = StateVector(2, random_state(2, rng))
    a = evolve_step(state, h, 0.37, EvolutionMode.EXACT_STEP, exact_diagonalize(h))
    b = evolve_step(state, h, 0.37, EvolutionMode.TROTTER1)
    assert np.max(np.abs(a.amplitudes - b.amplitudes)) < 1e-12


def test_single_step_error_scales_quadratically():
    # first-order splitting has O(dt^2) local error: one step at dt vs one
    # step at dt/2, each against the exact step of matching duration, gives
    # an error ratio of about 4
    h = interpolate(initial_hamiltonian(J, 1), hadamard_hamiltonian(J), 0.5)
    spectrum = exact_diagonalize(h)
    state = basis_state(1, 0)

    def err(dt):
        a = evolve_step(state, h, dt, EvolutionMode.EXACT_STEP, spectrum)
        b = evolve_step(state, h, dt, EvolutionMode.TROTTER1)
        return np.linalg.norm(a.amplitudes - b.amplitudes)

    ratio = err(1.0 / 24.0) / err(1.0 / 48.0)
    assert 3.4 < ratio < 4.6


def test_benchmark_ramp_reaches_ground():
    h0 = initial_hamiltonian(J, 1)
    h1 = hadamard_hamiltonian(J)
    final, traj = run_adiabatic(h0, h1, BENCHMARK, EvolutionMode.EXACT_STEP)
    ground = exact_diagonalize(h1).ground_state
    assert fidelity(final, ground) > 0.999
    assert len(traj.records) == BENCHMARK.num_ramp_steps + 1
    assert traj.records[0].t == 0.0
    assert traj.records[-1].t == pytest.approx(36.0)
    assert traj.metadata["warnings"] == []


def test_sudden_ramp_keeps_initial_overlap():
    # a single-step ramp is a quench: fidelity ~ |<ground|0>|^2 = cos^2(pi/8)
    h0 = initial_hamiltonian(J, 1)
    h1 = hadamard_hamiltonian(J)
    sched = Schedule(total_time=1.0 / 24.0, dt=1.0 / 24.0)
    final, _ = run_adiabatic(h0, h1, sched, EvolutionMode.EXACT_STEP)
    ground = exact_diagonalize(h1).ground_state
    assert fidelity(final, ground) == pytest.approx(np.cos(np.pi / 8) ** 2, abs=0.02)


def test_trivial_ramp_is_perfect():
    h0 = initial_hamiltonian(J, 1)
    sched = Schedule(total_time=2.0, dt=0.25)
    final, traj = run_adiabatic(h0, h0, sched, EvolutionMode.EXACT_STEP)
    assert traj.records[-1].fidelity == pytest.approx(1.0, abs=1e-12)
    assert abs(final.amplitudes[0]) == pytest.approx(1.0, abs=1e-12)


def test_slower_ramp_prepares_better():
    h0 = initial_hamiltonian(J, 1)
    h1 = hadamard_hamiltonian(J)
    fast = Schedule(total_time=9.0, dt=1.0 / 24.0)
    _, traj_fast = run_adiabatic(h0, h1, fast, EvolutionMode.EXACT_STEP)
    _, traj_slow = run_adiabatic(h0, h1, BENCHMARK, EvolutionMode.EXACT_STEP)
    assert traj_slow.records[-1].fidelity > traj_fast.records[-1].fidelity


def test_trotter_deviation_scales_linearly_in_dt():
    # over a fixed ramp the accumulated first-order error is O(dt): halving
    # dt halves the deviation between the two steppers' final states
    h0 = initial_hamiltonian(J, 1)
    h1 = hadamard_hamiltonian(J)

    def deviation(dt):
        sched = Schedule(total_time=36.0, dt=dt)
        exact, _ = run_adiabatic(h0, h1, sched, EvolutionMode.EXACT_STEP)
        trot, _ = run_adiabatic(h0, h1, sched, EvolutionMode.TROTTER1)
        return np.linalg.norm(exact.amplitudes - trot.amplitudes)

    ratio = deviation(1.0 / 12.0) / deviation(1.0 / 24.0)
    assert 1.7 < ratio < 2.3


def test_energy_recorded_against_instantaneous_operator():
    h0 = initial_hamiltonian(J, 1)
    h1 = hadamard_hamiltonian(J)
    _, traj = run_adiabatic(h0, h1, BENCHMARK, EvolutionMode.EXACT_STEP)
    # at t=0 the state is the exact ground of h0 with energy -J
    assert traj.records[0].observables["energy"] == pytest.approx(-J, abs=1e-12)
    # near the end the energy approaches the target ground energy
    assert traj.records[-1].observables["energy"] == pytest.approx(-J, abs=5e-3)


def test_hold_leaves_eigenstate_invariant():
    h1 = hadamard_hamiltonian(J)
    ground = exact_diagonalize(h1).ground_state
    sched = Schedule(total_time=1.0, dt=1.0 / 24.0, hold_time=12.0)
    final, traj = run_hold(ground, h1, sched, EvolutionMode.EXACT_STEP)
    assert len(traj.records) == sched.num_hold_steps
    for record in traj.records:
        assert record.fidelity == pytest.approx(1.0, abs=1e-10)
    assert fidelity(final, ground) == pytest.approx(1.0, abs=1e-10)


def test_hold_oscillation_closed_form():
    # superpose the two levels of the single-qubit operator and hold; the
    # observable oscillates as w0 z0 + w1 z1 + cross * cos(gap * t)
    h1 = hadamard_hamiltonian(J)
    spec = exact_diagonalize(h1)
    v0 = spec.eigenvectors[:, 0]
    v1 = spec.eigenvectors[:, 1]
    a, b = np.sqrt(0.9), np.sqrt(0.1)
    state = StateVector(1, a * v0 + b * v1)

    z = PauliSum(1, ((1.0, "Z"),))
    zmat = np.array([[1.0, 0.0], [0.0, -1.0]])
    z00 = float(np.real(v0.conj() @ zmat @ v0))
    z11 = float(np.real(v1.conj() @ zmat @ v1))
    z01 = complex(v0.conj() @ zmat @ v1)
    gap = spec.gap

    sched = Schedule(total_time=1.0, dt=1.0 / 24.0, hold_time=12.0)
    _, traj = run_hold(
        state,
        h1,
        sched,
        EvolutionMode.EXACT_STEP,
        observables={"expval_Z": z},
        start_time=0.0,
        include_initial=True,
    )
    for record in traj.records:
        t = record.t
        expected = (
            a * a * z00
            + b * b * z11
            + 2 * a * b * np.real(z01 * np.exp(-1j * gap * t))
        )
        assert record.observables["expval_Z"] == pytest.approx(expected, abs=1e-8)
    # the oscillation period 2*pi/gap = 4 shows up as a repeat after 4 units
    values = {round(r.t, 9): r.observables["expval_Z"] for r in traj.records}
    assert values[4.0] == pytest.approx(values[0.0], abs=1e-10)
    assert values[8.0] == pytest.approx(values[0.0], abs=1e-10)


def test_exact_ramp_diagonalizes_each_operator_once(
    count_diagonalized, count_calls, count_gates
):
    propagators = count_calls("hamiltonian.evolution_unitary")
    h0, h1 = initial_hamiltonian(J, 2), transverse_ising_pair(J)
    sched = Schedule(total_time=2.0, dt=0.25)
    run_adiabatic(h0, h1, sched, EvolutionMode.EXACT_STEP)
    # h0 once, then one spectrum per step serving both the step and fidelity
    steps = [interpolate(h0, h1, (k + 0.5) / 8) for k in range(8)]
    expected = [to_matrix(h) for h in [h0] + steps]
    assert [m.tobytes() for m in count_diagonalized] == [m.tobytes() for m in expected]
    assert len({m.tobytes() for m in count_diagonalized}) == sched.num_ramp_steps + 1
    # every step is applied from its spectrum; no dense propagator is built
    assert propagators == []
    assert count_gates == []


def test_ramp_without_records_evolves_the_same():
    h0, h1 = initial_hamiltonian(1.0, 1), PauliSum(1, ((1.0, "Z"),))
    sched = Schedule(total_time=3.0, dt=1.0)
    for mode in EvolutionMode:
        recorded, full = run_adiabatic(h0, h1, sched, mode, {"z": h1})
        final, bare = run_adiabatic(h0, h1, sched, mode, {"z": h1}, records=False)
        assert final.amplitudes.tobytes() == recorded.amplitudes.tobytes()
        assert len(full.records) == 4
        assert bare.records == []
        # warnings still come from every step's spectrum
        assert bare.metadata == full.metadata
        assert bare.metadata["warnings"] == [
            "degenerate instantaneous ground level at step 1 (s=0.5)"
        ]


def test_hold_builds_no_dense_propagator(count_calls, count_gates):
    h1 = transverse_ising_pair(J)
    spectrum = exact_diagonalize(h1)
    sched = Schedule(total_time=1.0, dt=0.25, hold_time=2.0)
    propagators = count_calls("hamiltonian.evolution_unitary")
    diagonalized = count_calls("hamiltonian.exact_diagonalize")
    start = basis_state(2, 0)
    final, _ = run_hold(start, h1, sched, EvolutionMode.EXACT_STEP)
    assert len(diagonalized) == 1
    # a spectrum handed down replaces the diagonalization, same result
    given, _ = run_hold(start, h1, sched, EvolutionMode.EXACT_STEP, spectrum=spectrum)
    assert len(diagonalized) == 1
    assert given.amplitudes.tobytes() == final.amplitudes.tobytes()
    assert propagators == []
    assert count_gates == []


def test_hold_time_offset_and_target():
    h1 = hadamard_hamiltonian(J)
    ground = exact_diagonalize(h1).ground_state
    sched = Schedule(total_time=1.0, dt=0.25, hold_time=1.0)
    _, traj = run_hold(
        ground,
        h1,
        sched,
        EvolutionMode.EXACT_STEP,
        start_time=36.0,
        include_initial=True,
        fidelity_target=ground,
    )
    times = [r.t for r in traj.records]
    assert times == pytest.approx([36.0, 36.25, 36.5, 36.75, 37.0])


def test_crossing_ramp_records_degeneracy_warning():
    # ramping -JZ to +JZ passes through zero coupling where the levels meet
    h0 = initial_hamiltonian(J, 1)
    h1 = PauliSum(1, ((J, "Z"),))
    sched = Schedule(total_time=1.0, dt=1.0 / 3.0)
    _, traj = run_adiabatic(h0, h1, sched, EvolutionMode.EXACT_STEP)
    assert any("degenerate" in w for w in traj.metadata["warnings"])


def test_mismatched_registers_rejected():
    h0 = initial_hamiltonian(J, 2)
    h1 = hadamard_hamiltonian(J)
    with pytest.raises(DomainError):
        run_adiabatic(h0, h1, BENCHMARK, EvolutionMode.EXACT_STEP)


def test_spectrum_of_wrong_size_rejected():
    h = transverse_ising_pair(J)
    wrong = exact_diagonalize(hadamard_hamiltonian(J))
    with pytest.raises(DomainError, match="spectrum dimension"):
        evolve_step(basis_state(2, 0), h, 0.25, EvolutionMode.EXACT_STEP, wrong)
    sched = Schedule(total_time=1.0, dt=0.25, hold_time=1.0)
    with pytest.raises(DomainError, match="spectrum dimension"):
        run_hold(basis_state(2, 0), h, sched, EvolutionMode.EXACT_STEP, spectrum=wrong)


def test_observable_register_checked():
    h0 = initial_hamiltonian(J, 1)
    h1 = hadamard_hamiltonian(J)
    bad = {"expval_Z": PauliSum(2, ((1.0, "ZI"),))}
    with pytest.raises(DomainError):
        run_adiabatic(h0, h1, BENCHMARK, EvolutionMode.EXACT_STEP, observables=bad)


def test_energy_key_reserved():
    h0 = initial_hamiltonian(J, 1)
    h1 = hadamard_hamiltonian(J)
    with pytest.raises(DomainError):
        run_adiabatic(
            h0,
            h1,
            BENCHMARK,
            EvolutionMode.EXACT_STEP,
            observables={"energy": PauliSum(1, ((1.0, "Z"),))},
        )


def test_trajectory_time_ordering_enforced():
    from vacuum_refine import Trajectory, TrajectoryRecord

    traj = Trajectory(metadata={})
    traj.extend([TrajectoryRecord(t=0.0, observables={}, fidelity=1.0)])
    with pytest.raises(DomainError):
        traj.extend([TrajectoryRecord(t=0.0, observables={}, fidelity=1.0)])
    # a block is checked as a whole: one bad time refuses every record of it
    block = [TrajectoryRecord(t, {}, 1.0) for t in (1.0, 2.0, 2.0, 3.0)]
    with pytest.raises(DomainError, match="got 2.0 after 2.0"):
        traj.extend(block)
    with pytest.raises(DomainError):
        traj.extend([TrajectoryRecord(float("nan"), {}, 1.0)])
    assert len(traj.records) == 1
    traj.extend(block[:2])
    assert [r.t for r in traj.records] == [0.0, 1.0, 2.0]


# --- records read out in blocks ------------------------------------------

CHAIN6 = PauliSum(
    6,
    tuple((-0.9 - 0.1 * q, "I" * q + "ZZ" + "I" * (4 - q)) for q in range(5))
    + tuple((-0.7 + 0.05 * q, "I" * q + "X" + "I" * (5 - q)) for q in range(6))
    + ((0.3, "YYIIII"),),
)


def test_block_readout_matches_per_state_readout():
    # six qubits: blocks of 16 rows, so the 41 ramp records span three
    # blocks and the 21 hold records two
    h0 = initial_hamiltonian(J, 6)
    observable = PauliSum(6, ((0.5, "ZIIIII"), (0.25, "IIZZII"), (-0.5, "IXIIIY")))
    sched = Schedule(total_time=2.0, dt=0.05, hold_time=1.0)
    final, ramp = run_adiabatic(
        h0, CHAIN6, sched, EvolutionMode.EXACT_STEP, {"o": observable}, record_states=True
    )
    assert ramp.states.shape == (41, 64)
    assert ramp.states[-1].tobytes() == final.amplitudes.tobytes()
    matrices: dict = {}
    state = basis_state(6, 0)
    s_values = [0.0] + [(k + 0.5) * sched.dt / sched.total_time for k in range(40)]
    for k, (record, psi, s) in enumerate(zip(ramp.records, ramp.states, s_values)):
        h_k = interpolate(h0, CHAIN6, s)
        spectrum = exact_diagonalize(h_k)
        if k:
            state = evolve_step(state, h_k, sched.dt, EvolutionMode.EXACT_STEP, spectrum)
        assert psi.tobytes() == state.amplitudes.tobytes()
        assert record.observables["energy"] == expectation_per_state(psi, h_k.terms, matrices)
        assert record.observables["o"] == expectation_per_state(psi, observable.terms, matrices)
        ground = spectrum.ground_state.amplitudes
        assert record.fidelity == min(fidelity_per_state(psi, ground), 1.0)

    held, hold = run_hold(
        final,
        CHAIN6,
        sched,
        EvolutionMode.EXACT_STEP,
        {"o": observable},
        record_states=True,
        include_initial=True,
    )
    assert hold.states.shape == (21, 64)
    assert hold.states[-1].tobytes() == held.amplitudes.tobytes()
    ground = exact_diagonalize(CHAIN6).ground_state.amplitudes
    for record, psi in zip(hold.records, hold.states):
        assert record.observables["energy"] == expectation_per_state(psi, CHAIN6.terms, matrices)
        assert record.fidelity == min(fidelity_per_state(psi, ground), 1.0)


def test_states_are_kept_only_when_asked():
    h0, h1 = initial_hamiltonian(J, 1), hadamard_hamiltonian(J)
    sched = Schedule(total_time=1.0, dt=0.25, hold_time=0.5)
    _, ramp = run_adiabatic(h0, h1, sched, EvolutionMode.EXACT_STEP)
    assert ramp.states is None
    _, bare = run_adiabatic(h0, h1, sched, EvolutionMode.EXACT_STEP, record_states=True, records=False)
    assert bare.states is None
    _, empty = run_hold(basis_state(1, 0), h1, Schedule(1.0, 0.25), EvolutionMode.EXACT_STEP, record_states=True)
    assert empty.records == [] and empty.states.shape == (0, 2)


def test_hold_refuses_a_state_that_leaves_the_unit_sphere():
    # a non-unitary "spectrum" grows the norm step by step; the block's
    # norm check refuses the first record past the tolerance
    grow = Spectrum(1, np.array([0.0, 1e-8j]), np.eye(2))
    plus = StateVector(1, np.array([1.0, 1.0]) / np.sqrt(2.0))
    sched = Schedule(total_time=1.0, dt=0.25, hold_time=2.5)
    with pytest.raises(DomainError, match="not normalized"):
        run_hold(plus, hadamard_hamiltonian(J), sched, EvolutionMode.EXACT_STEP, spectrum=grow, fidelity_target=plus)


def test_trotter_ramp_reads_the_coefficient_rows(count_calls):
    # trotter1 steps read the same coefficient rows as exact mode and
    # build no operator per step, with the result of stepping each
    # interpolated operator on its own
    interpolated = count_calls("hamiltonian.interpolate")
    h0 = initial_hamiltonian(J, 3)
    h1 = PauliSum(3, ((-0.9, "ZZI"), (-0.7, "XII"), (0.35, "YYI"), (0.2, "XYZ"), (-0.6, "IXI")))
    sched = Schedule(total_time=2.0, dt=0.25)
    final, _ = run_adiabatic(h0, h1, sched, EvolutionMode.TROTTER1)
    assert interpolated == []
    state = basis_state(3, 0)
    for k in range(sched.num_ramp_steps):
        step = interpolate(h0, h1, (k + 0.5) * sched.dt / sched.total_time)
        state = evolve_step(state, step, sched.dt, EvolutionMode.TROTTER1)
    assert final.amplitudes.tobytes() == state.amplitudes.tobytes()


# --- stack-fed loops against a per-step oracle ----------------------------


def _ramp_oracle(h0, h1, schedule, observables):
    """The exact ramp stepped and read out one state at a time.

    Returns (t, amplitudes, observables with energy, fidelity) per record
    and the warnings, from ``exact_diagonalize(interpolate(h0, h1, s))``
    per step, so no stacked path is involved.
    """
    n, dt = h0.num_qubits, schedule.dt
    steps = schedule.num_ramp_steps
    s_values = [0.0] + [(k + 0.5) * dt / schedule.total_time for k in range(steps)]
    state = basis_state(n, 0)
    rows, warnings = [], []
    for k, s in enumerate(s_values):
        spectrum = exact_diagonalize(interpolate(h0, h1, s))
        if k:
            state = StateVector(n, apply_evolution(spectrum, dt, state.amplitudes))
        if spectrum.degenerate:
            warnings.append(
                f"degenerate instantaneous ground level at step {k - 1} (s={s!r})"
                if k
                else "degenerate ground level at s=0"
            )
        values = {name: expectation_observable(state, obs) for name, obs in observables.items()}
        values["energy"] = expectation_observable(state, interpolate(h0, h1, s))
        ground = min(fidelity(state, spectrum.ground_state), 1.0)
        rows.append((k * dt, state.amplitudes, values, ground))
    return rows, warnings


def _hold_oracle(state, h, schedule, observables, start_time, include_initial):
    spectrum = exact_diagonalize(h)
    rows = []

    def record(t):
        values = {name: expectation_observable(state, obs) for name, obs in observables.items()}
        values["energy"] = expectation_observable(state, h)
        ground = min(fidelity(state, spectrum.ground_state), 1.0)
        rows.append((t, state.amplitudes, values, ground))

    if include_initial:
        record(start_time)
    for j in range(schedule.num_hold_steps):
        state = StateVector(state.num_qubits, apply_evolution(spectrum, schedule.dt, state.amplitudes))
        record(start_time + (j + 1) * schedule.dt)
    return rows


def _assert_matches(trajectory, rows):
    assert len(trajectory.records) == len(rows) == len(trajectory.states)
    for record, psi, (t, amplitudes, values, ground) in zip(trajectory.records, trajectory.states, rows):
        assert record.t == t
        assert psi.tobytes() == amplitudes.tobytes()
        assert record.observables == values
        assert record.fidelity == ground


def _mean_z(n):
    return PauliSum(n, tuple((1.0 / n, "I" * q + "Z" + "I" * (n - q - 1)) for q in range(n)))


@pytest.mark.parametrize(
    "h1, schedule, stacks",
    [
        # the shipped one-qubit ramp: all 865 operators in one stack
        (hadamard_hamiltonian(J), BENCHMARK, [0]),
        # s = 0 has no Y word, so it is real and the complex rest is a second stack
        (CHAIN3Y, Schedule(total_time=4.0, dt=0.125, hold_time=1.0), [0, 1]),
    ],
)
def test_stacked_loops_match_the_per_step_oracle(h1, schedule, stacks):
    n = h1.num_qubits
    h0 = initial_hamiltonian(J, n)
    observables = {"expval_Z": _mean_z(n)}
    s_values = [0.0] + [
        (k + 0.5) * schedule.dt / schedule.total_time for k in range(schedule.num_ramp_steps)
    ]
    words, coeffs = ramp_coefficients(h0, h1, s_values)
    assert [start for start, _, _ in _SpectrumStacks(n, words, coeffs)] == stacks
    final, ramp = run_adiabatic(
        h0, h1, schedule, EvolutionMode.EXACT_STEP, observables, record_states=True
    )
    rows, warnings = _ramp_oracle(h0, h1, schedule, observables)
    _assert_matches(ramp, rows)
    assert ramp.metadata["warnings"] == warnings
    assert final.amplitudes.tobytes() == rows[-1][1].tobytes()

    for hold_schedule in (schedule, Schedule(schedule.total_time, schedule.dt)):
        for include_initial in (False, True):
            held, hold = run_hold(
                final,
                h1,
                hold_schedule,
                EvolutionMode.EXACT_STEP,
                observables,
                record_states=True,
                start_time=schedule.total_time,
                include_initial=include_initial,
            )
            expected = _hold_oracle(
                final, h1, hold_schedule, observables, schedule.total_time, include_initial
            )
            assert len(expected) == hold_schedule.num_hold_steps + include_initial
            _assert_matches(hold, expected)
            last = expected[-1][1] if expected else final.amplitudes
            assert held.amplitudes.tobytes() == last.tobytes()


def test_exact_loops_apply_no_evolution_per_step(count_calls):
    # the ramp and the hold run the propagator kernel from their stacked
    # phases; apply_evolution, with its per-call phases and size check, is
    # not called once per step
    applied = count_calls("hamiltonian.apply_evolution")
    h0, h1 = initial_hamiltonian(J, 1), hadamard_hamiltonian(J)
    observables = {"expval_Z": _mean_z(1)}
    final, _ = run_adiabatic(h0, h1, BENCHMARK, EvolutionMode.EXACT_STEP, observables)
    run_hold(final, h1, BENCHMARK, EvolutionMode.EXACT_STEP, observables, include_initial=True)
    assert applied == []
