import tracemalloc
import weakref
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
from vacuum_refine import adiabatic, statevector
from vacuum_refine.counters import _Counters

from oracles import (
    expectation_per_state,
    fidelity_per_state,
    pauli_sum_matrix,
    random_state,
    seeded_chain_text,
)

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
    assert len(traj.times) == BENCHMARK.num_ramp_steps + 1
    assert traj.times[0] == 0.0
    assert traj.times[-1] == pytest.approx(36.0)
    assert traj.warnings == []


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
    assert traj.fidelity[-1] == pytest.approx(1.0, abs=1e-12)
    assert abs(final.amplitudes[0]) == pytest.approx(1.0, abs=1e-12)


def test_slower_ramp_prepares_better():
    h0 = initial_hamiltonian(J, 1)
    h1 = hadamard_hamiltonian(J)
    fast = Schedule(total_time=9.0, dt=1.0 / 24.0)
    _, traj_fast = run_adiabatic(h0, h1, fast, EvolutionMode.EXACT_STEP)
    _, traj_slow = run_adiabatic(h0, h1, BENCHMARK, EvolutionMode.EXACT_STEP)
    assert traj_slow.fidelity[-1] > traj_fast.fidelity[-1]


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
    assert traj.observables["energy"][0] == pytest.approx(-J, abs=1e-12)
    # near the end the energy approaches the target ground energy
    assert traj.observables["energy"][-1] == pytest.approx(-J, abs=5e-3)


def test_hold_leaves_eigenstate_invariant():
    h1 = hadamard_hamiltonian(J)
    ground = exact_diagonalize(h1).ground_state
    sched = Schedule(total_time=1.0, dt=1.0 / 24.0, hold_time=12.0)
    final, traj = run_hold(ground, h1, sched, EvolutionMode.EXACT_STEP)
    assert len(traj.times) == len(traj.fidelity) == sched.num_hold_steps
    for value in traj.fidelity:
        assert value == pytest.approx(1.0, abs=1e-10)
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
    for t, value in zip(traj.times, traj.observables["expval_Z"], strict=True):
        expected = (
            a * a * z00
            + b * b * z11
            + 2 * a * b * np.real(z01 * np.exp(-1j * gap * t))
        )
        assert value == pytest.approx(expected, abs=1e-8)
    # the oscillation period 2*pi/gap = 4 shows up as a repeat after 4 units
    values = {round(t, 9): v for t, v in zip(traj.times, traj.observables["expval_Z"])}
    assert values[4.0] == pytest.approx(values[0.0], abs=1e-10)
    assert values[8.0] == pytest.approx(values[0.0], abs=1e-10)


def test_exact_ramp_diagonalizes_each_operator_once(count_diagonalized, count_calls):
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


def test_ramp_without_records_evolves_the_same():
    h0, h1 = initial_hamiltonian(1.0, 1), PauliSum(1, ((1.0, "Z"),))
    sched = Schedule(total_time=3.0, dt=1.0)
    for mode in EvolutionMode:
        full_counts, bare_counts = _Counters(), _Counters()
        recorded, full = run_adiabatic(h0, h1, sched, mode, {"z": h1}, counters=full_counts)
        final, bare = run_adiabatic(
            h0, h1, sched, mode, {"z": h1}, records=False, counters=bare_counts
        )
        assert final.amplitudes.tobytes() == recorded.amplitudes.tobytes()
        assert len(full.times) == 4
        assert list(full.observables) == ["z", "energy"]
        assert all(len(column) == 4 for column in full.observables.values())
        assert bare.times == bare.fidelity == [] and bare.observables == {}
        # warnings still come from every step's spectrum
        assert bare_counts == full_counts
        assert bare.warnings == full.warnings == [
            "degenerate instantaneous ground level at step 1 (s=0.5)"
        ]


def test_hold_builds_no_dense_propagator(count_calls):
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
    times = traj.times
    assert times == pytest.approx([36.0, 36.25, 36.5, 36.75, 37.0])


def test_crossing_ramp_records_degeneracy_warning():
    # ramping -JZ to +JZ passes through zero coupling where the levels meet
    h0 = initial_hamiltonian(J, 1)
    h1 = PauliSum(1, ((J, "Z"),))
    sched = Schedule(total_time=1.0, dt=1.0 / 3.0)
    _, traj = run_adiabatic(h0, h1, sched, EvolutionMode.EXACT_STEP)
    assert any("degenerate" in w for w in traj.warnings)


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
    from vacuum_refine import Trajectory

    traj = Trajectory()
    traj.extend([0.0], {"energy": [-1.0]}, [1.0])

    def refused(times, match="times must increase"):
        before = (list(traj.times), list(traj.fidelity), {k: list(v) for k, v in traj.observables.items()})
        with pytest.raises(DomainError, match=match):
            traj.extend(times, {"energy": [0.5] * len(times)}, [1.0] * len(times))
        # nothing is appended on a refusal
        assert (traj.times, traj.fidelity, traj.observables) == before

    refused([0.0])  # equal to the last time held
    refused([-1.0])  # earlier
    refused([float("nan")])
    refused([1.0, float("nan")])
    # a block is checked as a whole: one bad time refuses every record of it
    refused([1.0, 2.0, 2.0, 3.0], match="got 2.0 after 2.0")
    with pytest.raises(DomainError, match="one value per time"):
        traj.extend([1.0, 2.0], {"energy": [0.5]}, [1.0, 1.0])
    assert traj.times == [0.0]
    traj.extend([1.0, 2.0], {"energy": [0.5, 0.25]}, [0.9, 0.8])
    assert traj.times == [0.0, 1.0, 2.0]
    assert traj.fidelity == [1.0, 0.9, 0.8]
    assert traj.observables == {"energy": [-1.0, 0.5, 0.25]}


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
    columns = zip(ramp.observables["energy"], ramp.observables["o"], ramp.fidelity)
    for k, (psi, s, (energy, o, f)) in enumerate(zip(ramp.states, s_values, columns, strict=True)):
        h_k = interpolate(h0, CHAIN6, s)
        spectrum = exact_diagonalize(h_k)
        if k:
            state = evolve_step(state, h_k, sched.dt, EvolutionMode.EXACT_STEP, spectrum)
        assert psi.tobytes() == state.amplitudes.tobytes()
        assert energy == expectation_per_state(psi, h_k.terms, matrices)
        assert o == expectation_per_state(psi, observable.terms, matrices)
        ground = spectrum.ground_state.amplitudes
        assert f == min(fidelity_per_state(psi, ground), 1.0)

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
    for psi, energy, f in zip(hold.states, hold.observables["energy"], hold.fidelity, strict=True):
        assert energy == expectation_per_state(psi, CHAIN6.terms, matrices)
        assert f == min(fidelity_per_state(psi, ground), 1.0)


def test_states_are_kept_only_when_asked():
    h0, h1 = initial_hamiltonian(J, 1), hadamard_hamiltonian(J)
    sched = Schedule(total_time=1.0, dt=0.25, hold_time=0.5)
    _, ramp = run_adiabatic(h0, h1, sched, EvolutionMode.EXACT_STEP)
    assert ramp.states is None
    _, bare = run_adiabatic(h0, h1, sched, EvolutionMode.EXACT_STEP, record_states=True, records=False)
    assert bare.states is None
    _, empty = run_hold(basis_state(1, 0), h1, Schedule(1.0, 0.25), EvolutionMode.EXACT_STEP, record_states=True)
    # a hold of no steps records nothing but still has its columns
    assert empty.times == empty.fidelity == [] and empty.states.shape == (0, 2)
    assert empty.observables == {"energy": []}


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


def _hold_oracle(state, h, schedule, start_time, include_initial):
    """(t, amplitudes) per record of the exact hold, each from the held state.

    Record j, j steps of dt in, is ``apply_evolution(spectrum, j * dt,
    state)``; the initial record, with ``include_initial``, is the state
    itself.  No record is stepped from the one before it.
    """
    spectrum = exact_diagonalize(h)
    rows = [(start_time, state.amplitudes)] if include_initial else []
    for j in range(1, schedule.num_hold_steps + 1):
        amplitudes = apply_evolution(spectrum, j * schedule.dt, state.amplitudes)
        rows.append((start_time + j * schedule.dt, amplitudes))
    return rows


def _readout(states, h, observables):
    """(values with energy, fidelity) of each state read out alone."""
    ground = exact_diagonalize(h).ground_state
    rows = []
    for amplitudes in states:
        state = StateVector(h.num_qubits, amplitudes)
        values = {name: expectation_observable(state, obs) for name, obs in observables.items()}
        values["energy"] = expectation_observable(state, h)
        rows.append((values, min(fidelity(state, ground), 1.0)))
    return rows


def _assert_matches(trajectory, rows):
    assert len(trajectory.times) == len(rows) == len(trajectory.states)
    assert trajectory.times == [t for t, _, _, _ in rows]
    assert trajectory.fidelity == [ground for _, _, _, ground in rows]
    names = list(rows[0][2]) if rows else list(trajectory.observables)
    assert list(trajectory.observables) == names
    assert trajectory.observables == {name: [values[name] for _, _, values, _ in rows] for name in names}
    for psi, (_, amplitudes, _, _) in zip(trajectory.states, rows):
        assert psi.tobytes() == amplitudes.tobytes()


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
    assert [start for start, *_ in adiabatic._ramp_stacks(n, words, coeffs, None)] == stacks
    final, ramp = run_adiabatic(
        h0, h1, schedule, EvolutionMode.EXACT_STEP, observables, record_states=True
    )
    rows, warnings = _ramp_oracle(h0, h1, schedule, observables)
    _assert_matches(ramp, rows)
    assert ramp.warnings == warnings
    assert final.amplitudes.tobytes() == rows[-1][1].tobytes()
    assert not np.shares_memory(final.amplitudes, ramp.states)

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
                final, h1, hold_schedule, schedule.total_time, include_initial
            )
            assert len(expected) == hold_schedule.num_hold_steps + include_initial
            for psi, (_, amplitudes) in zip(hold.states, expected):
                assert np.max(np.abs(psi - amplitudes)) <= 1e-14
            # each record is read out as its state alone would be
            readout = _readout(hold.states, h1, observables)
            _assert_matches(
                hold,
                [
                    (t, psi, values, ground)
                    for (t, _), psi, (values, ground) in zip(expected, hold.states, readout)
                ],
            )
            last = hold.states[-1] if expected else final.amplitudes
            assert held.amplitudes.tobytes() == last.tobytes()
            assert not np.shares_memory(held.amplitudes, hold.states)


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


CHAIN4 = PauliSum(
    4,
    tuple((-0.9 - 0.1 * q, "I" * q + "ZZ" + "I" * (2 - q)) for q in range(3))
    + tuple((-0.7 + 0.05 * q, "I" * q + "X" + "I" * (3 - q)) for q in range(4))
    + ((0.3, "YYII"),),
)


@pytest.mark.parametrize("h", [hadamard_hamiltonian(J), CHAIN4], ids=["one_qubit", "chain4"])
def test_closed_form_hold_matches_expm(h):
    # the shipped hold, 288 steps of 1/24, against scipy's exp(-i H t) at
    # its last record, H built with index loops
    scipy_linalg = pytest.importorskip("scipy.linalg")
    n = h.num_qubits
    state = StateVector(n, random_state(n, np.random.default_rng(n)))
    held, hold = run_hold(state, h, BENCHMARK, EvolutionMode.EXACT_STEP, record_states=True)
    assert len(hold.times) == 288
    u = scipy_linalg.expm(-1j * BENCHMARK.hold_time * pauli_sum_matrix(h.terms, n))
    assert np.max(np.abs(hold.states[-1] - u @ state.amplitudes)) <= 1e-14
    assert held.amplitudes.tobytes() == hold.states[-1].tobytes()


ONE_QUBIT_YZX = PauliSum(1, ((0.4, "Y"), (-0.9, "Z"), (0.2, "X")))


def _embedded(h: PauliSum, width: int) -> PauliSum:
    """I (x) h on ``width`` qubits, the identity on the leading ones."""
    pad = "I" * (width - h.num_qubits)
    return PauliSum(width, tuple((c, pad + s) for c, s in h.terms))


@pytest.mark.parametrize("width", [2, 3])
def test_exact_hold_leaves_leading_ancillas_alone(width):
    # a state wider than h holds under I (x) h: every record against scipy's
    # exp(-i kron(I, H) t), H built with index loops, and the default
    # fidelity target is |0...0> beside H's ground vector
    scipy_linalg = pytest.importorskip("scipy.linalg")
    h = ONE_QUBIT_YZX
    joint = _embedded(h, width).terms
    state = StateVector(width, random_state(width, np.random.default_rng(50 + width)))
    mean_z = _mean_z(width)
    sched = Schedule(total_time=1.0, dt=0.25, hold_time=1.5)
    held, hold = run_hold(
        state,
        h,
        sched,
        EvolutionMode.EXACT_STEP,
        {"expval_Z": mean_z},
        record_states=True,
        include_initial=True,
    )
    matrix = pauli_sum_matrix(joint, width)
    zeros = np.zeros(2 ** (width - 1))
    zeros[0] = 1.0
    target = np.kron(zeros, np.linalg.eigh(pauli_sum_matrix(h.terms, 1))[1][:, 0])
    assert len(hold.times) == 7 and hold.warnings == []
    for r, t in enumerate(hold.times):
        expected = scipy_linalg.expm(-1j * (t * matrix)) @ state.amplitudes
        assert np.max(np.abs(hold.states[r] - expected)) <= 1e-12
        assert abs(hold.observables["energy"][r] - expectation_per_state(expected, joint)) <= 1e-12
        z = expectation_per_state(expected, mean_z.terms)
        assert abs(hold.observables["expval_Z"][r] - z) <= 1e-12
        assert abs(hold.fidelity[r] - fidelity_per_state(target, expected)) <= 1e-12
    assert held.amplitudes.tobytes() == hold.states[-1].tobytes()


@pytest.mark.parametrize("width", [2, 3])
def test_trotter_hold_under_h_is_the_hold_under_the_embedded_operator(width):
    # both read the same word table, so every bit agrees; the embedded
    # operator's ground level is degenerate, so its target is named
    h = ONE_QUBIT_YZX
    state = StateVector(width, random_state(width, np.random.default_rng(60 + width)))
    observables = {"expval_Z": _mean_z(width)}
    sched = Schedule(total_time=1.0, dt=0.25, hold_time=1.5)
    ground = np.zeros(2**width, dtype=np.complex128)
    ground[:2] = exact_diagonalize(h).ground_state.amplitudes
    runs = [
        run_hold(state, h, sched, EvolutionMode.TROTTER1, observables, record_states=True),
        run_hold(
            state,
            _embedded(h, width),
            sched,
            EvolutionMode.TROTTER1,
            observables,
            record_states=True,
            fidelity_target=StateVector(width, ground),
        ),
    ]
    (held, hold), (joint_held, joint_hold) = runs
    assert held.amplitudes.tobytes() == joint_held.amplitudes.tobytes()
    assert hold.states.tobytes() == joint_hold.states.tobytes()
    assert hold.observables == joint_hold.observables
    assert hold.fidelity == joint_hold.fidelity
    assert hold.warnings == joint_hold.warnings == []


def test_hold_refuses_a_state_narrower_than_its_operator():
    sched = Schedule(total_time=1.0, dt=0.25, hold_time=1.0)
    for mode in EvolutionMode:
        with pytest.raises(DomainError, match="operator acts on 2 qubit"):
            run_hold(basis_state(1, 0), transverse_ising_pair(J), sched, mode)


@pytest.mark.parametrize("mode", list(EvolutionMode))
def test_hold_refuses_a_fidelity_target_of_another_register_before_any_step(mode):
    # a one-qubit target for a two-qubit state, its leading qubit an ancilla
    counters = _Counters()
    with pytest.raises(DomainError, match=r"fidelity target has 1 qubit\(s\), state has 2"):
        run_hold(
            basis_state(2, 0),
            hadamard_hamiltonian(0.7),
            Schedule(1.0, 0.25, 1.0),
            mode,
            fidelity_target=basis_state(1, 0),
            counters=counters,
        )
    assert counters.steps == 0 and counters.matrices_diagonalized == 0


@pytest.mark.parametrize(
    "h",
    [hadamard_hamiltonian(J), transverse_ising_pair(J), CHAIN4, CHAIN6],
    ids=["1", "2", "4", "6"],
)
def test_hold_states_do_not_depend_on_the_block_size(h, monkeypatch):
    # blocks of one and three records against the default, which holds the
    # 21 records in one block: a block holds 2^16 // d records
    n = h.num_qubits
    state = StateVector(n, random_state(n, np.random.default_rng(40 + n)))
    observables = {"expval_Z": _mean_z(n)}
    sched = Schedule(total_time=1.0, dt=0.05, hold_time=1.0)
    read = adiabatic._Recorder.read
    blocks = []

    def recorded(self, times, states, *args):
        blocks.append(len(states))
        return read(self, times, states, *args)

    monkeypatch.setattr(adiabatic._Recorder, "read", recorded)

    def hold():
        blocks.clear()
        _, trajectory = run_hold(
            state,
            h,
            sched,
            EvolutionMode.EXACT_STEP,
            observables,
            record_states=True,
            include_initial=True,
        )
        return trajectory, list(blocks)

    default, default_blocks = hold()
    assert default_blocks == [21]
    for rows in (1, 3):
        monkeypatch.setattr(statevector, "_STACK_ENTRIES", rows * 2**n)
        blocked, blocked_blocks = hold()
        assert blocked_blocks == [rows] * (21 // rows)
        assert blocked.states.tobytes() == default.states.tobytes()
        assert blocked.observables == default.observables
        assert blocked.fidelity == default.fidelity


@pytest.mark.parametrize(
    "h1", [CHAIN4, parse_pauli_text(seeded_chain_text(4, 7))], ids=["complex", "real"]
)
def test_ramp_does_not_depend_on_the_cast_budget(h1, monkeypatch):
    # the default casts the 33 operands in one slice; 2048 entries cast
    # stacks of 8 in slices of 4, 512 casts each matrix on its own, and
    # 511 leaves each matrix to the kernel, one operand at a time
    n = h1.num_qubits
    h0 = initial_hamiltonian(J, n)
    observables = {"expval_Z": _mean_z(n)}
    sched = Schedule(total_time=4.0, dt=0.125)

    def ramp():
        return run_adiabatic(
            h0, h1, sched, EvolutionMode.EXACT_STEP, observables, record_states=True
        )

    final, default = ramp()
    for entries in (2048, 512, 511):
        monkeypatch.setattr(statevector, "_STACK_ENTRIES", entries)
        cast, trajectory = ramp()
        assert cast.amplitudes.tobytes() == final.amplitudes.tobytes()
        assert trajectory.states.tobytes() == default.states.tobytes()
        assert trajectory.observables == default.observables
        assert trajectory.fidelity == default.fidelity
        assert trajectory.warnings == default.warnings


@pytest.mark.parametrize("h1", [transverse_ising_pair(J), CHAIN3Y], ids=["real", "complex"])
@pytest.mark.parametrize("mode", list(EvolutionMode), ids=lambda mode: mode.value)
@pytest.mark.parametrize("matrices", [1, 4])
def test_each_stack_is_freed_before_the_next_is_diagonalized(h1, mode, matrices, monkeypatch):
    # stacks of one or four matrices, the latter cast in slices of two:
    # whenever a stack is diagonalized, no eigenvectors of an earlier
    # stack are still referenced
    n = h1.num_qubits
    monkeypatch.setattr(statevector, "_STACK_ENTRIES", matrices * 4**n)
    diagonalize = adiabatic._diagonalize_stack
    made, alive = [], []

    def tracked(stack):
        alive.append(sum(ref() is not None for ref in made))
        values, vectors = diagonalize(stack)
        made.append(weakref.ref(vectors))
        return values, vectors

    monkeypatch.setattr(adiabatic, "_diagonalize_stack", tracked)
    sched = Schedule(total_time=1.0, dt=0.125)
    run_adiabatic(initial_hamiltonian(J, n), h1, sched, mode, record_states=True)
    assert len(alive) >= 3
    assert alive == [0] * len(alive)


def test_eight_qubit_ramp_adds_little_to_a_diagonalization_peak():
    # At 8 qubits the ramp's 9 or 33 operators are one or two stacks held as
    # their X-group entries (up to 28 operators, 516 KiB), each matrix built
    # in turn in one 256 x 256 buffer.  The ramp takes its levels, its ground
    # vectors and its Chebyshev steps from that buffer, with no
    # eigenvectors, so it stays below the peak of the diagonalization
    # itself.  The traced peak read 1.40 and 1.77 MiB at T = 1 and 4 against
    # 2.07 MiB for one diagonalization.  Keeping each Krylov basis's images
    # read 1.90 and 2.21 MiB; a matrix per operator with those images read
    # 1.67 and 1.63 MiB.  Stepping from eigenvectors read 2.09 MB, 2.54 MB
    # with their 2 MB operand pair cast per matrix, and keeping the previous
    # stack alive raised it to 2.60 MB.
    h1 = parse_pauli_text(seeded_chain_text(8, 7))
    h0 = initial_hamiltonian(1.0, 8)
    exact_diagonalize(h1)  # numpy's one-time allocations
    for total_time in (1.0, 4.0):
        sched = Schedule(total_time=total_time, dt=0.125)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            exact_diagonalize(h1)
            diagonalization = tracemalloc.get_traced_memory()[1] - base
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            run_adiabatic(h0, h1, sched, EvolutionMode.EXACT_STEP, {"expval_Z": _mean_z(8)})
            ramp = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        # a quarter of a real 256 x 256 matrix, 128 KiB
        assert ramp <= diagonalization + 256 * 256 * 2, total_time


def _ramp_both_ways(h1, schedule, monkeypatch, mode=EvolutionMode.EXACT_STEP):
    """The ramp of ``h1`` on the Chebyshev path and on the eigenvector path, with counters."""
    n = h1.num_qubits
    h0 = initial_hamiltonian(J, n)
    observables = {"expval_Z": _mean_z(n)}
    runs = []
    for qubits in (adiabatic._CHEBYSHEV_QUBITS, 99):
        monkeypatch.setattr(adiabatic, "_CHEBYSHEV_QUBITS", qubits)
        counters = _Counters()
        final, trajectory = run_adiabatic(
            h0, h1, schedule, mode, observables, record_states=True, counters=counters
        )
        runs.append((final, trajectory, counters))
    return runs


def _chain_with_y(n, seed):
    chain = parse_pauli_text(seeded_chain_text(n, seed))
    return PauliSum(n, chain.terms + ((0.4, "YY" + "I" * (n - 2)), (-0.3, "I" * (n - 1) + "Y")))


@pytest.mark.parametrize(
    "h1, buffers",
    [
        # the real chains have n + 1 X masks, 64 operators a stack at 7
        # qubits and 28 at 8; a Y word adds a mask, and s = 0 is real
        (parse_pauli_text(seeded_chain_text(7, 7)), [8]),
        (_chain_with_y(7, 4), [8, 16]),
        (parse_pauli_text(seeded_chain_text(8, 3)), [8, 8]),
        (_chain_with_y(8, 9), [8, 16, 16]),
    ],
    ids=["7-real", "7-complex", "8-real", "8-complex"],
)
def test_chebyshev_ramp_matches_the_eigenvector_ramp(h1, buffers, monkeypatch):
    schedule = Schedule(total_time=4.0, dt=0.125)
    (final, ramp, counters), (eig_final, eig_ramp, eig_counters) = _ramp_both_ways(
        h1, schedule, monkeypatch
    )
    assert np.max(np.abs(ramp.states - eig_ramp.states)) <= 1e-12
    assert np.max(np.abs(final.amplitudes - eig_final.amplitudes)) <= 1e-12
    assert ramp.times == eig_ramp.times
    assert np.max(np.abs(np.subtract(ramp.fidelity, eig_ramp.fidelity))) <= 1e-12
    for name, values in ramp.observables.items():
        assert np.max(np.abs(np.subtract(values, eig_ramp.observables[name]))) <= 1e-12
    assert ramp.warnings == eig_ramp.warnings == []
    assert abs(counters.min_ramp_gap - eig_counters.min_ramp_gap) <= 1e-12
    assert counters.min_ramp_gap_s == eig_counters.min_ramp_gap_s
    # the eigenvector ramp builds and diagonalizes 33 matrices, 32 of them
    # complex with a Y word; the Chebyshev ramp builds its matrices in one
    # buffer a stack and takes block products, checks and terms
    n = h1.num_qubits
    itemsize = buffers[-1]
    assert counters.matrices_diagonalized == 0 and eig_counters.matrices_diagonalized == 33
    assert eig_counters.dense_bytes == 4**n * (8 + 32 * itemsize)
    assert counters.dense_bytes == 4**n * sum(buffers)
    assert counters.krylov_products >= 33 and eig_counters.krylov_products == 0
    assert counters.krylov_checks >= 33 and eig_counters.krylov_checks == 0
    assert counters.chebyshev_terms >= 32 and eig_counters.chebyshev_terms == 0


def test_chebyshev_ramp_matches_expm():
    # seven qubits with a Y term, every step against scipy's exp(-i H dt)
    # of the interpolated operator built with index loops
    scipy_linalg = pytest.importorskip("scipy.linalg")
    h1 = _chain_with_y(7, 4)
    h0 = initial_hamiltonian(J, 7)
    schedule = Schedule(total_time=2.0, dt=0.25)
    _, ramp = run_adiabatic(h0, h1, schedule, EvolutionMode.EXACT_STEP, record_states=True)
    m0, m1 = pauli_sum_matrix(h0.terms, 7), pauli_sum_matrix(h1.terms, 7)
    psi = ramp.states[0]
    for k, state in enumerate(ramp.states[1:]):
        s = (k + 0.5) * schedule.dt / schedule.total_time
        psi = scipy_linalg.expm(-1j * schedule.dt * ((1 - s) * m0 + s * m1)) @ psi
        assert np.max(np.abs(state - psi)) <= 1e-12


def test_degenerate_ground_level_at_seven_qubits_is_warned(monkeypatch):
    # ramping -J sum Z to +J sum Z passes through the zero operator at s = 1/2
    h1 = PauliSum(7, tuple((J, "I" * q + "Z" + "I" * (6 - q)) for q in range(7)))
    schedule = Schedule(total_time=1.0, dt=1.0 / 3.0)
    (final, ramp, counters), (eig_final, eig_ramp, _) = _ramp_both_ways(h1, schedule, monkeypatch)
    assert ramp.warnings == eig_ramp.warnings
    assert ramp.warnings == ["degenerate instantaneous ground level at step 1 (s=0.5)"]
    assert np.max(np.abs(final.amplitudes - eig_final.amplitudes)) <= 1e-12
    assert counters.min_ramp_gap == 0.0


def test_trotter_ramp_at_seven_qubits_reads_the_ground_vectors(monkeypatch):
    # the states do not depend on the path; the fidelity targets are the
    # block Lanczos ground vectors in place of eigh's first columns
    h1 = _chain_with_y(7, 4)
    schedule = Schedule(total_time=1.0, dt=0.125)
    (final, ramp, counters), (eig_final, eig_ramp, eig_counters) = _ramp_both_ways(
        h1, schedule, monkeypatch, EvolutionMode.TROTTER1
    )
    assert ramp.states.tobytes() == eig_ramp.states.tobytes()
    assert final.amplitudes.tobytes() == eig_final.amplitudes.tobytes()
    assert ramp.observables == eig_ramp.observables
    assert np.max(np.abs(np.subtract(ramp.fidelity, eig_ramp.fidelity))) <= 1e-12
    assert counters.chebyshev_terms == eig_counters.chebyshev_terms == 0


@pytest.mark.parametrize("mode", list(EvolutionMode), ids=lambda mode: mode.value)
@pytest.mark.parametrize(
    "h1, stacks",
    [
        # 8 X masks of 128 entries: 64 operators a stack
        (parse_pauli_text(seeded_chain_text(7, 7)), [64, 1]),
        # 9 X masks: 56 operators a stack, after the real s = 0
        (_chain_with_y(7, 4), [1, 56, 8]),
    ],
    ids=["real", "complex"],
)
def test_ground_only_ramp_does_not_depend_on_the_stack_size(h1, stacks, mode, monkeypatch):
    # the 65 operators of a 7-qubit ramp in stacks of one operator, of the
    # default size and of the whole ramp (one stack of each dtype): each
    # operator is warm-started from the one before across stacks, so every
    # bit is the same
    n = h1.num_qubits
    h0 = initial_hamiltonian(J, n)
    observables = {"expval_Z": _mean_z(n)}
    schedule = Schedule(total_time=8.0, dt=0.125)
    read = adiabatic._Recorder.read
    blocks = []

    def recorded(self, times, states, *args):
        blocks.append(len(states))
        return read(self, times, states, *args)

    monkeypatch.setattr(adiabatic._Recorder, "read", recorded)

    def ramp(entries):
        monkeypatch.setattr(statevector, "_STACK_ENTRIES", entries)
        blocks.clear()
        counters = _Counters()
        final, trajectory = run_adiabatic(
            h0, h1, schedule, mode, observables, record_states=True, counters=counters
        )
        return final, trajectory, counters, list(blocks)

    final, default, counters, default_blocks = ramp(statevector._STACK_ENTRIES)
    assert default_blocks == stacks
    whole = [1, 64] if len(stacks) == 3 else [65]
    for entries, expected in ((1, [1] * 65), (2**17, whole)):
        stacked, trajectory, stacked_counters, stacked_blocks = ramp(entries)
        assert stacked_blocks == expected
        assert stacked.amplitudes.tobytes() == final.amplitudes.tobytes()
        assert trajectory.states.tobytes() == default.states.tobytes()
        assert trajectory.observables == default.observables
        assert trajectory.fidelity == default.fidelity
        assert trajectory.warnings == default.warnings
        for name in ("krylov_products", "krylov_checks", "chebyshev_terms", "min_ramp_gap"):
            assert getattr(stacked_counters, name) == getattr(counters, name)
