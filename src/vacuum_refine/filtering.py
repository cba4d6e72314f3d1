"""Ancilla-driven eigenstate filtering with post-selection.

One filter is modelled here, by its action on the system register; it
needs no eigenbasis change, only the propagator, which the simulation
applies from the operator's spectrum.  In the circuit, each of m
ancillas is put on the Hadamard axis and kicks back the phase of a
controlled propagator power

    U(theta)^p = (i * exp(-i * theta * H / 2))^p.

After the closing Hadamard wall, the all-zeros ancilla branch carries the
system state multiplied by the product of (I + U^p_j) / 2 over the
ancillas, an operator on the system register alone, which is what
``apply_filter`` applies: one propagator per ancilla, no joint register.
An eigencomponent of energy E is multiplied by

    A(E) = prod_j (1 + z^p_j) / 2,     z = i * exp(-i * E * theta / 2),

the closed form exposed as ``filter_amplitude``.

The tag, ``tag_circuit_one_qubit``, is the one-ancilla case on a one-qubit
system, with both ancilla branches kept: (I + U) / 2 and (I - U) / 2.
Its reference phase exp(i * E0 * theta / 2) in place of i and its
theta = 2 pi / (E1 - E0) make z = 1 on the ground level and z = -1 on the
excited one, so an approximate ground state alpha|E0> + beta|E1> becomes
alpha|0>|E0> + beta|1>|E1>.  Reading the ancilla then either discards the
excited component, taking branch 0 over sqrt(p0), refused below 1e-12 as
``apply_filter``'s outcome is (``_check_outcome``), or decoheres the
superposition into a mixture whose measured values can be corrected in
closed form.  The joint-register circuits themselves (Hadamard walls,
controlled powers, post-selection; basis change, CNOT, basis change back)
are the test oracles that the filter and the tag are held to, beside
``filter_amplitude``.

Choosing theta = pi / E0' with E0' a (possibly rough) ground-energy
estimate makes z = 1 at resonance, passing the ground component through
untouched while suppressing the rest; the leading global phase i is
applied as a controlled phase, which is why it matters physically.
Iterating estimate -> filter -> post-select sharpens E0' and the state
together.

``FilterSettings`` is the filter's one settings type and the config's
``filter`` section; it checks every filter rule when it is built, so a
command refuses an unusable filter at load.  A power must be at most
2^53, the largest integer a float64 holds exactly, or p * theta / 2
would not be its phase.  Theta is not a setting: each pass picks its
own, so ``apply_filter`` and ``filter_amplitude`` take it as an argument.
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

_MIN_E0_PRIME = 1e-9
# the largest integer a float64 holds exactly: a larger power would not
# even enter p * theta / 2 as itself
_MAX_POWER = 2**53


@dataclass(frozen=True)
class FilterSettings:
    """The filter's settings, the config's ``filter`` section.

    ``ancillas`` ancillas carry the propagator powers ``powers``, None
    meaning 2^j for ancilla j (``ancilla_powers`` resolves them).  Each
    pass sets theta = pi / E0' (``theta_mode = "auto"``) or uses
    ``theta``, which is set exactly when ``theta_mode = "fixed"``.
    ``discard`` post-selects ``filter-run``'s tagged ancilla instead of
    keeping the joint state.
    """

    ancillas: int = 2
    theta_mode: str = "auto"
    theta: float | None = None
    powers: tuple[int, ...] | None = None
    discard: bool = True

    def __post_init__(self) -> None:
        m = self.ancillas
        if not isinstance(m, int) or m < 1:
            raise DomainError(f"filter.ancillas must be a positive integer, got {m!r}")
        if self.theta_mode not in ("auto", "fixed"):
            raise DomainError(f"filter.theta_mode must be auto or fixed, got {self.theta_mode!r}")
        if self.theta_mode == "fixed" and self.theta is None:
            raise DomainError("filter.theta is required when filter.theta_mode = fixed")
        if self.theta_mode != "fixed" and self.theta is not None:
            raise DomainError("filter.theta is set only with filter.theta_mode = fixed")
        powers = self.powers
        if powers is None:
            if m > _MAX_POWER.bit_length():
                raise DomainError(f"{m} ancillas need powers up to 2^{m - 1}, above 2^53")
            return
        if not all(isinstance(p, numbers.Integral) for p in powers):
            raise DomainError(f"filter.powers must be integers, got {tuple(powers)!r}")
        powers = tuple(int(p) for p in powers)
        if len(powers) != m:
            raise DomainError(f"filter.powers lists {len(powers)} power(s) for {m} ancilla(s)")
        if any(p < 1 for p in powers):
            raise DomainError(f"filter.powers must be positive integers, got {powers}")
        if max(powers) > _MAX_POWER:
            raise DomainError(f"filter.powers must be at most 2^53, got {powers}")
        object.__setattr__(self, "powers", powers)

    @property
    def ancilla_powers(self) -> tuple[int, ...]:
        """The propagator power of each ancilla, the default 2^j resolved."""
        if self.powers is None:
            return tuple(2**j for j in range(self.ancillas))
        return self.powers


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


def tag_circuit_one_qubit(state: StateVector, spectrum: Spectrum) -> StateVector:
    """Tag the eigencomponents of a one-qubit state with a fresh ancilla (qubit 0).

    ``spectrum`` is ``exact_diagonalize(h)`` of the one-qubit system
    operator.  Ancilla row a of the returned 2-qubit state is
    (psi + (-1)^a * U psi) / 2 with U = exp(i * E0 * theta / 2) *
    exp(-i * theta * h / 2) at theta = 2 pi / (E1 - E0), one propagator
    applied as ``apply_filter`` applies each of its factors: row 0 is the
    E0 component and row 1 the E1 component, identity term or not.
    """
    if spectrum.dim != 2:
        raise DomainError(f"spectrum dimension {spectrum.dim} is not a one-qubit spectrum")
    if spectrum.degenerate:
        raise DomainError("cannot tag against a degenerate spectrum")
    low, high = spectrum.eigenvalues
    theta = 2.0 * math.pi / (high - low)
    psi = state.amplitudes
    turned = apply_evolution(spectrum, theta / 2.0, psi, phase=np.exp(0.5j * low * theta))
    return StateVector(2, np.concatenate([psi + turned, psi - turned]) / 2.0)


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
    psi[branch] = apply_evolution(spectrum, k * theta / 2.0, psi[branch], phase=1j ** (k % 4))
    return StateVector(joint.num_qubits, psi.reshape(-1))


def filter_amplitude(energy: float, theta: float, settings: FilterSettings) -> complex:
    """Closed-form amplitude multiplier for an eigencomponent of ``energy``.

    Each power's phase i^p * exp(-i * energy * p * theta / 2) is built as
    ``apply_filter`` builds it, with i^p exact as i^(p mod 4).
    """
    result = 1.0 + 0.0j
    for p in settings.ancilla_powers:
        result *= (1 + 1j ** (p % 4) * np.exp(-1j * energy * (p * theta / 2.0))) / 2
    return complex(result)


def _check_outcome(probability: float, m: int) -> None:
    """Refuse post-selecting ancillas 0 to m-1 on all zeros at a probability below 1e-12."""
    if probability < _MIN_POSTSELECT_PROB:
        raise ImpossibleOutcomeError(
            f"outcome {'0' * m} on qubits {list(range(m))} has probability {probability:.3e}"
        )


def apply_filter(
    system_state: StateVector, spectrum: Spectrum, settings: FilterSettings, theta: float
) -> FilterOutcome:
    """Filter a system state at ``theta`` with m ancillas and post-select all zeros.

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
    for p in settings.ancilla_powers:
        # i^(p mod 4) is exact; Python's complex power is exact only up to p = 100
        phase = 1j ** (p % 4)
        psi = (psi + apply_evolution(spectrum, p * theta / 2.0, psi, phase=phase)) / 2.0
    probability = float(np.sum(np.abs(psi) ** 2))
    _check_outcome(probability, settings.ancillas)
    refined = StateVector(n_sys, psi / np.sqrt(probability))
    return FilterOutcome(success_probability=probability, refined_state=refined)


def refine_iteratively(
    system_state: StateVector,
    h: PauliSum,
    spectrum: Spectrum,
    settings: FilterSettings,
    max_iters: int = 5,
    target_infidelity: float = 1e-8,
) -> RefinementReport:
    """Alternate energy estimation and filtering until the state is clean.

    ``spectrum`` is ``exact_diagonalize(h)``.  Each pass estimates
    E0' = <psi|h|psi> on the current state, picks theta = pi / E0' (or
    ``settings.theta`` in fixed mode), filters with ``settings`` and
    post-selects.
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
            theta = settings.theta if settings.theta_mode == "fixed" else choose_theta(e0_prime)
            outcome = apply_filter(state, spectrum, settings, theta)
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
