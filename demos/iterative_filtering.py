"""Iterative eigenstate filtering on the two-qubit pair model.

Each pass estimates the current energy, sets theta = pi/E0', runs the
m-ancilla filter circuit and post-selects all ancillas on |0>.  Every
eigencomponent is multiplied by prod_j (1 + z^p_j)/2 with
z = i exp(-i E theta / 2), so the level the estimate points at passes
(almost) untouched while everything else shrinks.  With a deliberately
short ramp the start state is messy enough to need several passes.
"""

import numpy as np

from vacuum_refine import (
    EvolutionMode,
    Schedule,
    eigen_overlaps,
    exact_diagonalize,
    initial_hamiltonian,
    refine_iteratively,
    run_adiabatic,
    transverse_ising_pair,
)

J = np.pi / 4
h1 = transverse_ising_pair(J)
spectrum = exact_diagonalize(h1)
print("pair model levels:", np.round(spectrum.eigenvalues, 6))

# a fast ramp leaves ~9% excited weight spread over the upper levels
schedule = Schedule(total_time=8.0, dt=0.125)
start, _ = run_adiabatic(
    initial_hamiltonian(J, 2), h1, schedule, EvolutionMode.EXACT_STEP
)
weights = eigen_overlaps(start, spectrum).weights
print("start weights:", np.round(weights, 6))
print()

for m in (2, 3):
    report = refine_iteratively(start, h1, spectrum, m=m, max_iters=5)
    print(f"m = {m} ancillas (powers {tuple(2 ** j for j in range(m))}):")
    print("  pass   E0'         theta      P(keep)    fidelity        excited")
    for i, s in enumerate(report.steps, start=1):
        print(
            f"  {i:4d}  {s.e0_prime:+.6f}  {s.theta:+.6f}  {s.success_probability:.6f}"
            f"  {s.fidelity_to_ground:.12f}  {s.excited_weight:.3e}"
        )
    print(f"  status: {report.status}")
    print()

# why m matters: with powers (1, 2) the level nearest the estimate keeps
# |cos| factors close to one, so its weight shrinks slowly; adding the
# power-4 ancilla squeezes it quadratically harder per pass
