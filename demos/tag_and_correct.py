"""Ancilla tagging and the closed-form correction of the mixed value.

After the ramp the register holds alpha|E0> + beta|E1>.  A fresh ancilla
is entangled with the eigencomponents by the one-ancilla filter (Hadamard,
a propagator controlled on the ancilla, Hadamard), which kills the
interference term in <Z> and leaves the incoherent mixture

    raw = |alpha|^2 <E0|Z|E0> + |beta|^2 <E1|Z|E1>.

Because the two diagonal elements are opposite here, dividing raw by
2|alpha|^2 - 1 recovers <E0|Z|E0> without ever post-selecting.  The same
numbers fall out of the shot-sampled path, just with error bars.
"""

import numpy as np

from vacuum_refine import (
    EvolutionMode,
    PauliSum,
    Schedule,
    corrected_expectation,
    cross_term,
    eigen_overlaps,
    exact_diagonalize,
    expectation_observable,
    hadamard_hamiltonian,
    initial_hamiltonian,
    postselect,
    run_adiabatic,
    shot_expectation,
    tag_circuit_one_qubit,
)

J = np.pi / 4
h1 = hadamard_hamiltonian(J)
schedule = Schedule(total_time=36.0, dt=1.0 / 24.0, hold_time=12.0)
final, _ = run_adiabatic(
    initial_hamiltonian(J, 1), h1, schedule, EvolutionMode.EXACT_STEP
)
spectrum = exact_diagonalize(h1)

z = PauliSum(1, ((1.0, "Z"),))
pre_tag = expectation_observable(final, z)
interference = cross_term(final, spectrum, z)
print(f"pre-tag <Z>      = {pre_tag:.9f}")
print(f"interference part = {interference:+.9e}")

# tag: psi -> alpha|0>|E0> + beta|1>|E1>, the ancilla supplied by the tag
tagged = tag_circuit_one_qubit(final, spectrum)

z_system = PauliSum(2, ((1.0, "IZ"),))
raw = expectation_observable(tagged, z_system)
p0 = float(np.sum(np.abs(tagged.amplitudes.reshape(2, 2)[0]) ** 2))
print(f"tagged mixed <Z> = {raw:.9f}   (the jump equals the interference part)")
print(f"2 p0 - 1         = {2 * p0 - 1:.9f}")

corrected = corrected_expectation(raw, p0)
print(f"corrected        = raw / (2 p0 - 1) = {corrected:.9f}")
print(f"exact value      = {1 / np.sqrt(2):.9f}")
print()

# post-selecting the ancilla instead collapses straight onto |E0>
prob, selected = postselect(tagged, [0], "0")
print(f"post-selected with probability {prob:.9f}: <Z> = "
      f"{expectation_observable(selected, z):.15f}")
print()

# the sampled route to the same correction
shots = 1_000_000
raw_sampled = shot_expectation(tagged, "IZ", shots, seed=11)
anc = shot_expectation(tagged, "ZI", shots, seed=12)
p0_sampled = (1 + anc.value) / 2
corrected_sampled = corrected_expectation(raw_sampled.value, p0_sampled)
print(f"{shots} shots: raw = {raw_sampled.value:.6f} +/- {raw_sampled.std_error:.6f}")
print(f"             2p0-1 = {2 * p0_sampled - 1:.6f}")
print(f"         corrected = {corrected_sampled:.6f}")

# weights for reference
weights = eigen_overlaps(final, spectrum).weights
print(f"\nramp leftovers: |alpha|^2 = {weights[0]:.9f}, |beta|^2 = {weights[1]:.3e}")
