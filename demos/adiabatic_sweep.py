"""Ramp |0> into the interacting ground state, then watch it oscillate.

The ramp interpolates H(s) = (1-s) H0 + s H1 over total time T with
midpoint steps.  After the ramp the state is held under H1: whatever
excited admixture survived the ramp beats against the ground component
at the gap frequency, so <Z>(t) traces a small cosine whose period is
2*pi/gap = 4 for J = pi/4.
"""

import numpy as np

from vacuum_refine import (
    EvolutionMode,
    PauliSum,
    Schedule,
    exact_diagonalize,
    fidelity,
    hadamard_hamiltonian,
    initial_hamiltonian,
    run_adiabatic,
    run_hold,
)
from vacuum_refine.statevector import expectations

J = np.pi / 4
h0 = initial_hamiltonian(J, 1)
h1 = hadamard_hamiltonian(J)
spectrum = exact_diagonalize(h1)
ground = spectrum.ground_state
schedule = Schedule(total_time=36.0, dt=1.0 / 24.0, hold_time=12.0)
z = PauliSum(1, ((1.0, "Z"),))

for mode in (EvolutionMode.EXACT_STEP, EvolutionMode.TROTTER1):
    final, _ = run_adiabatic(h0, h1, schedule, mode)
    f = fidelity(final, ground)
    print(f"mode {mode.value}: fidelity to ground {f:.9f}, 2|alpha|^2-1 = {2 * f - 1:.9f}")

    # the hold's records keep their states; <Z> is read from them
    _, hold = run_hold(final, h1, schedule, mode, spectrum)
    values = expectations(hold.states, z.coeffs, z.words)
    center = (values.max() + values.min()) / 2
    print(f"  hold <Z> range [{values.min():.6f}, {values.max():.6f}]")
    print(f"  oscillation center {center:.6f} vs exact {1 / np.sqrt(2):.6f} "
          f"(offset {center - 1 / np.sqrt(2):+.2e})")
    # sample one period: records are dt apart, 96 records = 4 time units
    t0, t4 = values[0], values[95]
    print(f"  <Z> repeats after 4 time units: {t0:.9f} vs {t4:.9f}")
    print()

# shorter ramps prepare worse states; the leftover excitation is what the
# filtering demos remove
for total in (9.0, 18.0, 36.0):
    sched = Schedule(total_time=total, dt=1.0 / 24.0)
    final, _ = run_adiabatic(h0, h1, sched, EvolutionMode.EXACT_STEP, records=False)
    print(f"T = {total:5.1f}: fidelity {fidelity(final, ground):.9f}")
