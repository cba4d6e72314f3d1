"""End-to-end checks of the nine headline behaviors, one verdict line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines;
each test prints ``criterion N (<name>): PASS`` or ``FAIL`` and the assert
carries the failing sub-checks.
"""

import csv
import time

import numpy as np
import pytest

from vacuum_refine import (
    EvolutionMode,
    FilterConfig,
    PauliSum,
    Schedule,
    StateVector,
    apply_filter,
    apply_gate,
    basis_state,
    choose_theta,
    cmd_diag,
    cmd_filter_run,
    cmd_refine,
    cmd_sweep,
    corrected_expectation,
    eigen_overlaps,
    evolution_unitary,
    exact_diagonalize,
    expectation_observable,
    filter_amplitude,
    hadamard_hamiltonian,
    initial_hamiltonian,
    parse_config,
    postselect,
    run_adiabatic,
    run_hold,
    tag_circuit_one_qubit,
    transverse_ising_pair,
)

from oracles import embed_gate, filter_circuit, haar_unitary, pauli_sum_matrix, random_state

J = np.pi / 4
INV_SQRT2 = 1.0 / np.sqrt(2.0)


def _verdict(num: int, name: str, checks: list[tuple[str, bool]]) -> None:
    ok = all(passed for _, passed in checks)
    print(f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'}")
    failing = [label for label, passed in checks if not passed]
    assert ok, f"criterion {num} ({name}) failed: {failing}"


def _read_column(path, column):
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    index = rows[0].index(column)
    return [(float(r[0]), float(r[index])) for r in rows[1:]]


@pytest.fixture(scope="module")
def outdir(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


@pytest.fixture(scope="module")
def benchmark_sweep(outdir):
    started = time.perf_counter()
    config = parse_config(f"output.prefix = {outdir}/sweep\n")
    result = cmd_sweep(config)
    return result, time.perf_counter() - started


@pytest.fixture(scope="module")
def benchmark_filter(outdir):
    started = time.perf_counter()
    config = parse_config(f"output.prefix = {outdir}/filter\n")
    result = cmd_filter_run(config)
    return result, time.perf_counter() - started


def test_criterion_1_exact_vacuum_value(outdir):
    started = time.perf_counter()
    result = cmd_diag(parse_config(f"output.prefix = {outdir}/diag\n"))
    elapsed = time.perf_counter() - started
    value = result.summary["ground_z"][0]
    _verdict(
        1,
        "exact vacuum value",
        [
            (f"ground <Z> = {value!r} vs 1/sqrt(2)", abs(value - INV_SQRT2) < 1e-12),
            (f"runtime {elapsed:.2f}s < 1s", elapsed < 1.0),
        ],
    )


def test_criterion_2_oscillation_after_ramp(outdir, benchmark_sweep):
    _, elapsed = benchmark_sweep
    series = _read_column(f"{outdir}/sweep_trajectory.csv", "expval_Z")
    hold = [(t, z) for t, z in series if t > 36.0]
    values = np.array([z for _, z in hold])
    times = np.array([t for t, _ in hold])

    center = (values.max() + values.min()) / 2.0
    # period from linearly interpolated upward center crossings
    crossings = []
    for i in range(len(values) - 1):
        a, b = values[i] - center, values[i + 1] - center
        if a < 0 <= b:
            frac = a / (a - b)
            crossings.append(times[i] + frac * (times[i + 1] - times[i]))
    periods = np.diff(crossings)
    period = float(np.mean(periods))
    offset = abs(center - INV_SQRT2)

    _verdict(
        2,
        "post-ramp oscillation",
        [
            (f"{len(periods)} full periods observed", len(periods) >= 2),
            (f"period {period!r} within 4.0 +/- 0.1", abs(period - 4.0) < 0.1),
            (f"center offset {offset:.3e} < 1e-2", offset < 1e-2),
            (f"center offset {offset:.3e} > 1e-8 (biased, not exact)", offset > 1e-8),
            (f"runtime {elapsed:.2f}s < 10s", elapsed < 10.0),
        ],
    )


def test_criterion_3_preparation_quality(outdir, benchmark_sweep):
    result, elapsed = benchmark_sweep
    quality = result.summary["prep_quality"]
    started = time.perf_counter()
    trotter = cmd_sweep(
        parse_config(f"mode = trotter1\noutput.prefix = {outdir}/sweep_t1\n")
    )
    elapsed += time.perf_counter() - started
    t1_quality = trotter.summary["prep_quality"]
    _verdict(
        3,
        "preparation quality",
        [
            (f"exact-mode 2|alpha|^2-1 = {quality!r} >= 0.999", quality >= 0.999),
            (f"exact-mode value {quality!r} in [0.994, 1.0)", 0.994 <= quality < 1.0),
            (f"trotter value {t1_quality!r} in [0.994, 1.0)", 0.994 <= t1_quality < 1.0),
            (
                "difference to reference reported",
                np.isfinite(result.summary["prep_quality_difference"]),
            ),
            (f"runtime {elapsed:.2f}s < 10s", elapsed < 10.0),
        ],
    )


def test_criterion_4_filtered_hold(outdir, benchmark_filter):
    result, elapsed = benchmark_filter
    series = _read_column(f"{outdir}/filter_trajectory.csv", "expval_Z")
    # rows after the tagging time, including the post-selection restart row
    hold_csv = np.array([z for t, z in series if t >= 36.0])[1:]
    # the CSV quantizes to 9 significant digits; full precision comes from
    # rebuilding the held trajectory through the library
    csv_worst = np.max(np.abs(hold_csv - INV_SQRT2))

    h1 = hadamard_hamiltonian(J)
    schedule = Schedule(36.0, 1.0 / 24.0, 12.0)
    final, _ = run_adiabatic(
        initial_hamiltonian(J, 1), h1, schedule, EvolutionMode.EXACT_STEP
    )
    spectrum = exact_diagonalize(h1)
    joint = StateVector(2, np.kron([1.0, 0.0], final.amplitudes))
    tagged = tag_circuit_one_qubit(joint, spectrum)
    _, selected = postselect(tagged, [0], "0")
    z = PauliSum(1, ((1.0, "Z"),))
    _, hold = run_hold(
        selected, h1, schedule, EvolutionMode.EXACT_STEP,
        observables={"expval_Z": z}, include_initial=True, start_time=36.0,
    )
    values = np.array([r.observables["expval_Z"] for r in hold.records])
    spread = float(values.max() - values.min())
    worst = float(np.max(np.abs(values - INV_SQRT2)))

    # independent route to the interference term: decompose the pre-tag
    # state and evaluate 2 Re(conj(alpha) beta <E0|Z|E1>) directly
    coeffs = eigen_overlaps(final, spectrum).coefficients
    zmat = np.array([[1.0, 0.0], [0.0, -1.0]])
    z01 = spectrum.eigenvectors[:, 0].conj() @ zmat @ spectrum.eigenvectors[:, 1]
    expected_jump = 2.0 * np.real(np.conj(coeffs[0]) * coeffs[1] * z01)

    _verdict(
        4,
        "filtered hold",
        [
            (f"hold spread {spread:.3e} <= 1e-10", spread <= 1e-10),
            (f"hold value within 1e-10 of 1/sqrt(2) (worst {worst:.3e})", worst <= 1e-10),
            (
                f"CSV hold values at 9-digit precision (worst {csv_worst:.3e})",
                csv_worst <= 5e-10,
            ),
            (
                f"discontinuity {result.summary['discontinuity']!r} matches "
                f"cross term {expected_jump!r}",
                abs(result.summary["discontinuity"] - expected_jump) < 1e-8,
            ),
            (f"runtime {elapsed:.2f}s < 10s", elapsed < 10.0),
        ],
    )


def test_criterion_5_correction_pipeline(outdir):
    started = time.perf_counter()
    config = parse_config(
        "estimation.method = shots\nestimation.shots = 1000000\n"
        f"output.prefix = {outdir}/shots\n"
    )
    result = cmd_filter_run(config)
    elapsed = time.perf_counter() - started
    s = result.summary

    # pure arithmetic on the reference inputs: denominator 0.999242 is
    # 2 p0 - 1, so p0 = 0.999621
    arithmetic = round(corrected_expectation(0.706760, 0.999621), 6)

    band = 5.0 * s["corrected_std_error"]
    _verdict(
        5,
        "correction pipeline",
        [
            (f"reference arithmetic -> {arithmetic!r} == 0.707296", arithmetic == 0.707296),
            (
                f"corrected {s['corrected']!r} within {band:.2e} of 1/sqrt(2)",
                abs(s["corrected"] - INV_SQRT2) < band,
            ),
            (
                f"raw {s['raw']!r} consistent with (2p0-1)/sqrt(2)",
                abs(s["raw"] - s["two_p0_minus_1"] * INV_SQRT2) < 5.0 * s["raw_std_error"],
            ),
            (f"runtime {elapsed:.2f}s < 60s", elapsed < 60.0),
        ],
    )


def test_criterion_6_filter_closed_form():
    # The package's filter and the joint-register circuit oracle are each
    # held to the closed form; the package is also held to the circuit.
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    checked = 0
    worst = 0.0
    worst_circuit = 0.0
    worst_vs_circuit = 0.0
    while checked < 200:
        # random one-qubit operator c*I + a*Z + b*X has levels c +/- r,
        # giving two independent (E, theta, m) triples per circuit run
        c = float(rng.uniform(-1.0, 1.0))
        a, b = rng.uniform(-1.0, 1.0, size=2)
        r = float(np.hypot(a, b))
        if r < 0.2:
            continue
        h = PauliSum(1, ((c, "I"), (float(a), "Z"), (float(b), "X")))
        spectrum = exact_diagonalize(h)
        theta = float(rng.uniform(0.3, 6.0)) * (1.0 if rng.random() < 0.5 else -1.0)
        m = int(rng.integers(1, 4))
        config = FilterConfig(m, theta)

        mix = float(rng.uniform(0.2, 0.8))
        coeffs = np.array([np.sqrt(mix), np.sqrt(1 - mix) * np.exp(2j * np.pi * rng.random())])
        psi = StateVector(1, spectrum.eigenvectors @ coeffs)
        outcome = apply_filter(psi, spectrum, config)
        probability, circuit = filter_circuit(
            pauli_sum_matrix(h.terms, 1), psi.amplitudes, theta, config.powers
        )
        worst_vs_circuit = max(
            worst_vs_circuit,
            abs(outcome.success_probability - probability),
            float(np.max(np.abs(outcome.refined_state.amplitudes - circuit))),
        )
        refined_coeffs = eigen_overlaps(outcome.refined_state, spectrum).coefficients
        circuit_coeffs = spectrum.eigenvectors.conj().T @ circuit
        for j in range(2):
            want = filter_amplitude(float(spectrum.eigenvalues[j]), theta, config)
            got = np.sqrt(outcome.success_probability) * refined_coeffs[j] / coeffs[j]
            worst = max(worst, abs(got - want))
            got = np.sqrt(probability) * circuit_coeffs[j] / coeffs[j]
            worst_circuit = max(worst_circuit, abs(got - want))
            checked += 1

    # resonance: the targeted level passes with amplitude exactly one
    resonance = filter_amplitude(-J, choose_theta(-J), FilterConfig(3, choose_theta(-J)))
    # the excited level of the one-qubit model is rejected outright
    spectrum = exact_diagonalize(hadamard_hamiltonian(J))
    theta = choose_theta(-J)
    config = FilterConfig(2, theta)
    psi = StateVector(1, spectrum.eigenvectors @ np.array([INV_SQRT2, INV_SQRT2]))
    outcome = apply_filter(psi, spectrum, config)
    excited_left = abs(
        np.sqrt(outcome.success_probability)
        * eigen_overlaps(outcome.refined_state, spectrum).coefficients[1]
        / INV_SQRT2
    )
    elapsed = time.perf_counter() - started
    _verdict(
        6,
        "filter closed form",
        [
            (f"{checked} random triples, worst |filter - formula| = {worst:.3e}", worst < 1e-10),
            (
                f"worst |circuit - formula| = {worst_circuit:.3e}",
                worst_circuit < 1e-10,
            ),
            (
                f"worst |filter - circuit| = {worst_vs_circuit:.3e}",
                worst_vs_circuit < 1e-12,
            ),
            (f"resonance amplitude {resonance!r}", abs(resonance - 1.0) < 1e-12),
            (f"excited rejection amplitude {excited_left:.3e}", excited_left < 1e-12),
            (f"runtime {elapsed:.2f}s < 10s", elapsed < 10.0),
        ],
    )


def test_criterion_7_iterative_refinement(outdir):
    started = time.perf_counter()
    h1 = transverse_ising_pair(J)
    schedule = Schedule(total_time=8.0, dt=0.125)
    state, _ = run_adiabatic(
        initial_hamiltonian(J, 2), h1, schedule, EvolutionMode.EXACT_STEP
    )
    spectrum = exact_diagonalize(h1)
    start_weights = eigen_overlaps(state, spectrum).weights
    start_fidelity = float(start_weights[0])

    # walk the refinement loop by hand, checking each pass against the
    # closed-form amplitude ratios and against the joint-register circuit
    hmat = pauli_sum_matrix(h1.terms, 2)
    worst = 0.0
    worst_circuit = 0.0
    fidelities = []
    for _ in range(5):
        e0p = expectation_observable(state, h1)
        theta = choose_theta(e0p)
        config = FilterConfig(3, theta)
        before = eigen_overlaps(state, spectrum).weights
        amps = np.array(
            [abs(filter_amplitude(float(e), theta, config)) ** 2 for e in spectrum.eigenvalues]
        )
        predicted = before * amps
        predicted /= predicted.sum()
        outcome = apply_filter(state, spectrum, config)
        probability, circuit = filter_circuit(hmat, state.amplitudes, theta, config.powers)
        worst_circuit = max(
            worst_circuit,
            abs(outcome.success_probability - probability),
            float(np.max(np.abs(outcome.refined_state.amplitudes - circuit))),
        )
        circuit_weights = np.abs(spectrum.eigenvectors.conj().T @ circuit) ** 2
        worst = max(worst, float(np.max(np.abs(circuit_weights - predicted))))
        state = outcome.refined_state
        after = eigen_overlaps(state, spectrum).weights
        worst = max(worst, float(np.max(np.abs(after - predicted))))
        fidelities.append(float(after[0]))
        if 1.0 - after[0] <= 1e-8:
            break

    # the library loop agrees with the manual walk
    result = cmd_refine(
        parse_config(
            "model.hamiltonian = tfim2\nschedule.T = 8\nschedule.dt = 0.125\n"
            "schedule.hold_time = 0\nfilter.ancillas = 3\n"
            f"output.prefix = {outdir}/refine\n"
        )
    )
    elapsed = time.perf_counter() - started
    _verdict(
        7,
        "iterative refinement",
        [
            (f"start fidelity {start_fidelity!r} >= 0.9", start_fidelity >= 0.9),
            (f"per-pass weights match closed form (worst {worst:.3e})", worst < 1e-8),
            (
                f"per-pass filter matches the circuit (worst {worst_circuit:.3e})",
                worst_circuit < 1e-12,
            ),
            (
                f"fidelity {max(fidelities)!r} >= 0.9999 within {len(fidelities)} <= 5 passes",
                len(fidelities) <= 5 and max(fidelities) >= 0.9999,
            ),
            (
                f"command run converged in {result.summary['passes']} pass(es)",
                result.summary["status"] == "converged"
                and result.summary["final_fidelity"] >= 0.9999,
            ),
            (f"runtime {elapsed:.2f}s < 10s", elapsed < 10.0),
        ],
    )


def test_criterion_8_numerical_hygiene():
    started = time.perf_counter()
    rng = np.random.default_rng(4096)

    # norm preservation through long random circuits
    state = StateVector(3, random_state(3, rng))
    for _ in range(100):
        k = int(rng.integers(1, 3))
        targets = list(rng.choice(3, size=k, replace=False))
        state = apply_gate(state, haar_unitary(2**k, rng), targets)
    norm_drift = abs(float(np.sum(np.abs(state.amplitudes) ** 2)) - 1.0)

    # dense-oracle equivalence for n <= 3
    gate_worst = 0.0
    for _ in range(30):
        n = int(rng.integers(1, 4))
        k = int(rng.integers(1, n + 1))
        targets = list(rng.choice(n, size=k, replace=False))
        matrix = haar_unitary(2**k, rng)
        amps = random_state(n, rng)
        got = apply_gate(StateVector(n, amps), matrix, targets).amplitudes
        want = embed_gate(matrix, targets, n) @ amps
        gate_worst = max(gate_worst, float(np.max(np.abs(got - want))))

    # first-order splitting convergence over the benchmark ramp
    h0 = initial_hamiltonian(J, 1)
    h1 = hadamard_hamiltonian(J)

    def deviation(dt):
        sched = Schedule(total_time=36.0, dt=dt)
        exact, _ = run_adiabatic(h0, h1, sched, EvolutionMode.EXACT_STEP)
        trot, _ = run_adiabatic(h0, h1, sched, EvolutionMode.TROTTER1)
        return np.linalg.norm(exact.amplitudes - trot.amplitudes)

    ratio = deviation(1.0 / 12.0) / deviation(1.0 / 24.0)

    # group property of the dense propagator
    pair = exact_diagonalize(transverse_ising_pair(J))
    u1 = evolution_unitary(pair, 0.7).entries
    u2 = evolution_unitary(pair, 1.1).entries
    u12 = evolution_unitary(pair, 1.8).entries
    group_err = float(np.max(np.abs(u2 @ u1 - u12)))

    elapsed = time.perf_counter() - started
    _verdict(
        8,
        "numerical hygiene",
        [
            (f"norm drift {norm_drift:.3e} <= 1e-10", norm_drift <= 1e-10),
            (f"gate equivalence worst {gate_worst:.3e} <= 1e-12", gate_worst <= 1e-12),
            (f"splitting ratio {ratio!r} in [1.7, 2.3]", 1.7 <= ratio <= 2.3),
            (f"group property error {group_err:.3e} <= 1e-10", group_err <= 1e-10),
            (f"runtime {elapsed:.2f}s < 30s", elapsed < 30.0),
        ],
    )


def test_criterion_9_determinism(outdir):
    base = (
        "schedule.T = 2\nschedule.dt = 0.25\nschedule.hold_time = 1\n"
        "estimation.method = shots\nestimation.shots = 5000\n"
    )
    refine_base = (
        "model.hamiltonian = tfim2\nschedule.T = 4\nschedule.dt = 0.25\n"
        "schedule.hold_time = 0\nfilter.ancillas = 3\n"
    )
    checks = []
    for name, command, text in [
        ("sweep", cmd_sweep, base),
        ("filter-run", cmd_filter_run, base),
        ("refine", cmd_refine, refine_base),
        ("diag", cmd_diag, ""),
    ]:
        blobs = []
        for attempt in ("a", "b"):
            prefix = f"{outdir}/det_{name}_{attempt}/run"
            result = command(parse_config(text + f"output.prefix = {prefix}\n"))
            payload = b""
            for path in sorted(result.outputs):
                if path.endswith(".csv") or path.endswith(".txt"):
                    with open(path, "rb") as handle:
                        payload += handle.read()
            blobs.append(payload)
        checks.append((f"{name}: repeated run byte-identical", blobs[0] == blobs[1]))
    _verdict(9, "determinism", checks)
