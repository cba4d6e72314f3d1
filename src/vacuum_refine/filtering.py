"""Ancilla-driven eigenstate filtering with post-selection.

Two circuits are modelled here, each by its action on the system
register.  The first, ``tag_circuit_one_qubit``, entangles a single
ancilla with the two energy eigenstates of a one-qubit system:
basis-changing the system so the eigenbasis aligns with the
computational basis, copying that bit onto the ancilla, and changing
basis back.  An approximate ground state alpha|E0> + beta|E1> becomes
alpha|0>|E0> + beta|1>|E1>, so reading the ancilla either discards the
excited component (post-selection) or decoheres the superposition into a
mixture whose measured values can be corrected in closed form.  The
package writes that result directly: with c = V^H psi, ancilla row a of
the joint state is V[:, a] * c[a].

The second, ``apply_filter``, needs no eigenbasis change, only the
propagator, which the simulation applies from the operator's spectrum.
In the circuit, each of m ancillas is put on the Hadamard axis and kicks
back the phase of a controlled propagator power

    U(theta)^p = (i * exp(-i * theta * H / 2))^p.

After the closing Hadamard wall, the all-zeros ancilla branch carries the
system state multiplied by the product of (I + U^p_j) / 2 over the
ancillas, an operator on the system register alone, which is what the
package applies: one propagator per ancilla, no joint register.  An
eigencomponent of energy E is multiplied by

    A(E) = prod_j (1 + z^p_j) / 2,     z = i * exp(-i * E * theta / 2),

the closed form exposed as ``filter_amplitude``.  The joint-register
circuits themselves (Hadamard walls, controlled powers, post-selection;
basis change, CNOT, basis change back) are the test oracles that the
filter and the tag are held to, beside ``filter_amplitude``.

Choosing theta = pi / E0' with E0' a (possibly rough) ground-energy
estimate makes z = 1 at resonance, passing the ground component through
untouched while suppressing the rest; the leading global phase i is
applied as a controlled phase, which is why it matters physically.
Iterating estimate -> filter -> post-select sharpens E0' and the state
together.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateEnergyError,
    DomainError,
    ImpossibleOutcomeError,
)
from .estimation import eigen_overlaps
from .hamiltonian import PauliSum, Spectrum, apply_evolution
from .statevector import _MIN_POSTSELECT_PROB, StateVector, expectation_observable

_ANCILLA_RESIDUE_LIMIT = 1e-10
_MIN_E0_PRIME = 1e-9
# the largest integer a float64 holds exactly: a larger power would not
# even enter p * theta / 2 as itself
_MAX_POWER = 2**53


@dataclass(frozen=True)
class FilterConfig:
    """Ancilla count, phase parameter and per-ancilla propagator powers."""

    num_ancillas: int
    theta: float
    powers: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.num_ancillas, int) or self.num_ancillas < 1:
            raise DomainError(
                f"num_ancillas must be a positive integer, got {self.num_ancillas!r}"
            )
        powers = self.powers
        if powers is None:
            if self.num_ancillas > _MAX_POWER.bit_length():
                raise DomainError(
                    f"{self.num_ancillas} ancillas need powers up to 2^{self.num_ancillas - 1}, "
                    f"above 2^53"
                )
            powers = tuple(2**j for j in range(self.num_ancillas))
        else:
            if not all(isinstance(p, numbers.Integral) for p in powers):
                raise DomainError(f"powers must be integers, got {tuple(powers)!r}")
            powers = tuple(int(p) for p in powers)
            if len(powers) != self.num_ancillas:
                raise DomainError(
                    f"{len(powers)} power(s) given for {self.num_ancillas} ancilla(s)"
                )
            if any(p < 1 for p in powers):
                raise DomainError(f"powers must be strictly positive, got {powers}")
            if max(powers) > _MAX_POWER:
                raise DomainError(f"powers must be at most 2^53, got {powers}")
        object.__setattr__(self, "powers", powers)


@dataclass(frozen=True, eq=False)
class FilterOutcome:
    """Probability of the all-zeros ancilla outcome and the system state it leaves."""

    success_probability: float
    refined_state: StateVector


@dataclass(frozen=True)
class RefinementStep:
    """Metrics of one estimate -> filter -> post-select pass."""

    e0_prime: float
    theta: float
    success_probability: float
    fidelity_to_ground: float
    excited_weight: float


@dataclass(frozen=True, eq=False)
class RefinementReport:
    steps: tuple[RefinementStep, ...]
    status: str
    final_state: StateVector


def tag_circuit_one_qubit(joint: StateVector, spectrum: Spectrum) -> StateVector:
    """Entangle a fresh ancilla (qubit 0) with the system eigencomponents.

    Expects a two-qubit register |0>|psi> and the diagonalized one-qubit
    system operator; returns the tagged state with the ancilla marking the
    excited component.  With c = V^H psi the tagged state's ancilla row a
    is V[:, a] * c[a], the circuit's action written out.
    """
    if joint.num_qubits != 2:
        raise DomainError(f"tagging needs an ancilla+system pair, got {joint.num_qubits} qubit(s)")
    if spectrum.dim != 2:
        raise DomainError(f"spectrum dimension {spectrum.dim} is not a one-qubit spectrum")
    if spectrum.degenerate:
        raise DomainError("cannot tag against a degenerate spectrum")
    ancilla_one = float(np.sum(np.abs(joint.amplitudes.reshape(2, 2)[1]) ** 2))
    if ancilla_one > _ANCILLA_RESIDUE_LIMIT:
        raise DomainError(
            f"ancilla must start in |0> (found population {ancilla_one:.3e} on |1>)"
        )
    vectors = spectrum.eigenvectors
    coefficients = vectors.conj().T @ joint.amplitudes[:2]
    return StateVector(2, (vectors * coefficients).T)


def choose_theta(e0_prime: float) -> float:
    """Phase parameter pi / E0' putting the estimated level on resonance."""
    if abs(e0_prime) < _MIN_E0_PRIME:
        raise DegenerateEnergyError(
            f"energy estimate {e0_prime!r} is too close to zero to set a phase"
        )
    return math.pi / e0_prime


def controlled_u_power(
    joint: StateVector,
    ancilla: int,
    spectrum: Spectrum,
    theta: float,
    k: int,
) -> StateVector:
    """Apply the k-th power of i*exp(-i*theta*h/2) controlled on one ancilla.

    ``spectrum`` is ``exact_diagonalize(h)``.  The system register
    occupies the trailing ``spectrum.num_qubits`` qubits of ``joint`` and
    every qubit before it is an ancilla.  The power is applied from the
    spectrum, with its phases scaled by i^k, to the system amplitudes of
    the branches where ``ancilla`` is 1, so the power of the global phase
    i acts as a relative phase between the branches.
    """
    if not isinstance(k, int) or k < 1:
        raise DomainError(f"power k must be a positive integer, got {k!r}")
    n_sys = spectrum.num_qubits
    if joint.num_qubits <= n_sys:
        raise DomainError(
            f"joint register of {joint.num_qubits} qubit(s) has no room for ancillas"
        )
    num_ancillas = joint.num_qubits - n_sys
    if not isinstance(ancilla, (int, np.integer)) or not 0 <= ancilla < num_ancillas:
        raise DomainError(
            f"ancilla {ancilla!r} is not one of the {num_ancillas} qubit(s) "
            f"ahead of the system register"
        )
    psi = joint.amplitudes.reshape((2,) * num_ancillas + (-1,)).copy()
    branch = tuple(1 if a == ancilla else slice(None) for a in range(num_ancillas))
    psi[branch] = apply_evolution(spectrum, k * theta / 2.0, psi[branch], phase=1j**k)
    return StateVector(joint.num_qubits, psi.reshape(-1))


def filter_amplitude(energy: float, theta: float, config: FilterConfig) -> complex:
    """Closed-form amplitude multiplier for an eigencomponent of ``energy``."""
    z = 1j * np.exp(-0.5j * energy * theta)
    result = 1.0 + 0.0j
    for p in config.powers:
        result *= (1.0 + z**p) / 2.0
    return complex(result)


def apply_filter(
    system_state: StateVector, spectrum: Spectrum, config: FilterConfig
) -> FilterOutcome:
    """Filter a system state with m ancillas and post-select all zeros.

    ``spectrum`` is ``exact_diagonalize(h)`` and serves every ancilla.
    The all-zeros ancilla branch of the circuit is the system state under
    prod_j (I + U^p_j) / 2, so each ancilla, in order, costs one
    propagator on the system register; the branch's squared norm is the
    outcome's probability.
    """
    n_sys = spectrum.num_qubits
    if n_sys != system_state.num_qubits:
        raise DomainError(
            f"operator acts on {n_sys} qubit(s), state has {system_state.num_qubits}"
        )
    psi = system_state.amplitudes
    for p in config.powers:
        # i^(p mod 4) is exact; Python's complex power is exact only up to p = 100
        phase = 1j ** (p % 4)
        psi = (psi + apply_evolution(spectrum, p * config.theta / 2.0, psi, phase=phase)) / 2.0
    probability = float(np.sum(np.abs(psi) ** 2))
    if probability < _MIN_POSTSELECT_PROB:
        m = config.num_ancillas
        raise ImpossibleOutcomeError(
            f"outcome {'0' * m} on qubits {list(range(m))} has probability {probability:.3e}"
        )
    refined = StateVector(n_sys, psi / np.sqrt(probability))
    return FilterOutcome(success_probability=probability, refined_state=refined)


def refine_iteratively(
    system_state: StateVector,
    h: PauliSum,
    spectrum: Spectrum,
    m: int,
    max_iters: int = 5,
    target_infidelity: float = 1e-8,
    powers: tuple[int, ...] | None = None,
    fixed_theta: float | None = None,
) -> RefinementReport:
    """Alternate energy estimation and filtering until the state is clean.

    ``spectrum`` is ``exact_diagonalize(h)``.  Each pass estimates
    E0' = <psi|h|psi> on the current state, picks theta = pi / E0' (or
    reuses ``fixed_theta``), filters with ``m`` ancillas and post-selects.
    Per-pass metrics come from the exact spectrum, which serves as the
    measuring stick and as the source of the filter's propagators.  A
    pass whose post-selection is impossible or whose energy estimate
    cannot set a phase is recorded with the pre-filter metrics and aborts
    the loop; completed passes always report post-filter metrics.
    """
    if max_iters < 1:
        raise DomainError(f"max_iters must be >= 1, got {max_iters!r}")
    if target_infidelity < 0:
        raise DomainError(f"target_infidelity must be >= 0, got {target_infidelity!r}")
    if spectrum.degenerate:
        raise DomainError("iterative refinement needs a non-degenerate ground level")
    state = system_state
    steps: list[RefinementStep] = []
    status = "max_iterations"
    for _ in range(max_iters):
        e0_prime = expectation_observable(state, h)
        theta = float("nan")
        try:
            theta = fixed_theta if fixed_theta is not None else choose_theta(e0_prime)
            outcome = apply_filter(state, spectrum, FilterConfig(m, theta, powers))
        except (DegenerateEnergyError, ImpossibleOutcomeError) as exc:
            weights = eigen_overlaps(state, spectrum).weights
            steps.append(
                RefinementStep(
                    e0_prime=e0_prime,
                    theta=theta,
                    success_probability=0.0,
                    fidelity_to_ground=float(weights[0]),
                    excited_weight=float(1.0 - weights[0]),
                )
            )
            status = f"aborted: {exc}"
            break
        state = outcome.refined_state
        weights = eigen_overlaps(state, spectrum).weights
        excited = float(1.0 - weights[0])
        steps.append(
            RefinementStep(
                e0_prime=e0_prime,
                theta=theta,
                success_probability=outcome.success_probability,
                fidelity_to_ground=float(weights[0]),
                excited_weight=excited,
            )
        )
        if excited <= target_infidelity:
            status = "converged"
            break
    return RefinementReport(steps=tuple(steps), status=status, final_state=state)
