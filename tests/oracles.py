"""Independent reference constructions used to check the package.

Everything here is built from plain integer bit arithmetic, never from
the package's own reshape/tensordot machinery, so agreement between the
two routes is meaningful.
"""

from __future__ import annotations

import numpy as np

PAULI_2X2 = {
    "I": np.array([[1, 0], [0, 1]], dtype=np.complex128),
    "X": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    "Z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
}


def bit_of(index: int, qubit: int, n: int) -> int:
    """Bit of ``index`` belonging to ``qubit`` under the MSB-first layout."""
    return (index >> (n - 1 - qubit)) & 1


def embed_gate(matrix: np.ndarray, targets: list[int], n: int) -> np.ndarray:
    """Full 2^n matrix of a gate on ``targets``, by explicit index loops."""
    k = len(targets)
    dim = 2**n
    out = np.zeros((dim, dim), dtype=np.complex128)
    for col in range(dim):
        col_sub = 0
        for pos, q in enumerate(targets):
            col_sub = (col_sub << 1) | bit_of(col, q, n)
        for row_sub in range(2**k):
            row = col
            for pos, q in enumerate(targets):
                bit = (row_sub >> (k - 1 - pos)) & 1
                shift = n - 1 - q
                row = (row & ~(1 << shift)) | (bit << shift)
            out[row, col] += matrix[row_sub, col_sub]
    return out


def embed_controlled(
    matrix: np.ndarray, controls: list[int], targets: list[int], n: int
) -> np.ndarray:
    """Full matrix of a controlled gate: identity unless all controls are 1."""
    dim = 2**n
    out = np.zeros((dim, dim), dtype=np.complex128)
    embedded = embed_gate(matrix, targets, n)
    for col in range(dim):
        if all(bit_of(col, c, n) for c in controls):
            out[:, col] = embedded[:, col]
        else:
            out[col, col] = 1.0
    return out


def pauli_word_matrix(string: str) -> np.ndarray:
    """Dense matrix of a Pauli word from per-entry bit products."""
    n = len(string)
    dim = 2**n
    out = np.zeros((dim, dim), dtype=np.complex128)
    for row in range(dim):
        for col in range(dim):
            value = 1.0 + 0.0j
            for q, ch in enumerate(string):
                value *= PAULI_2X2[ch][bit_of(row, q, n), bit_of(col, q, n)]
                if value == 0:
                    break
            out[row, col] = value
    return out


def pauli_sum_matrix(terms, n: int) -> np.ndarray:
    """Dense matrix of a weighted Pauli-word sum."""
    out = np.zeros((2**n, 2**n), dtype=np.complex128)
    for coeff, string in terms:
        out += coeff * pauli_word_matrix(string)
    return out


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary via QR of a complex Gaussian matrix."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_state(n: int, rng: np.random.Generator) -> np.ndarray:
    """Normalized random complex amplitudes for ``n`` qubits."""
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return amps / np.linalg.norm(amps)


def expectation_per_state(psi: np.ndarray, terms, matrices: dict | None = None) -> float:
    """<psi| sum_t c_t P_t |psi> for one state, one word at a time.

    Each word acts through its dense matrix and is paired with ``np.vdot``;
    the terms are summed in order from 0 + 0j, skipping exact-zero
    coefficients.  ``matrices`` caches word matrices between calls.
    """
    matrices = {} if matrices is None else matrices
    total = 0.0 + 0.0j
    for coeff, string in terms:
        if coeff != 0.0:
            if string not in matrices:
                matrices[string] = pauli_word_matrix(string)
            total += coeff * np.vdot(psi, matrices[string] @ psi)
    return float(total.real)


def fidelity_per_state(a: np.ndarray, b: np.ndarray) -> float:
    """|<a|b>|^2 from ``np.vdot`` and the modulus of a numpy complex scalar."""
    return float(abs(np.vdot(a, b)) ** 2)


def sample_per_state(
    amplitudes: np.ndarray, n: int, qubits: list[int], shots: int, seed: int
) -> np.ndarray:
    """Z-basis counts of the listed qubits of one state, outcome i in column i.

    The marginal is summed, reordered, clipped and normalized for this
    state alone, then drawn with ``np.random.default_rng(seed)``.
    """
    probs = np.abs(amplitudes.reshape((2,) * n)) ** 2
    other = tuple(q for q in range(n) if q not in qubits)
    marginal = probs.sum(axis=other) if other else probs
    order = sorted(qubits)
    marginal = np.transpose(marginal, [order.index(q) for q in qubits]).reshape(-1)
    marginal = np.clip(marginal, 0.0, None)
    marginal = marginal / marginal.sum()
    return np.random.default_rng(seed).multinomial(shots, marginal)


HADAMARD_2X2 = np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2.0)


def filter_circuit(
    hmat: np.ndarray, amplitudes: np.ndarray, theta: float, powers
) -> tuple[float, np.ndarray]:
    """The m-ancilla filter as a joint-register circuit, post-selected on all zeros.

    The ancillas (qubits 0..m-1) start in |0...0> ahead of the system
    register.  A Hadamard wall, then on ancilla j the controlled power
    (i * exp(-i * theta * H / 2))^p_j, built from ``np.linalg.eigh`` of
    the dense operator ``hmat``, then a second Hadamard wall; every gate
    is a full matrix from ``embed_gate``/``embed_controlled``.  Returns
    the all-zeros outcome's probability and the renormalized system
    amplitudes left behind.
    """
    m = len(powers)
    n_sys = int(round(np.log2(hmat.shape[0])))
    total = m + n_sys
    system = list(range(m, total))
    vals, vecs = np.linalg.eigh(hmat)
    joint = np.zeros(2**total, dtype=np.complex128)
    joint[: 2**n_sys] = amplitudes
    for a in range(m):
        joint = embed_gate(HADAMARD_2X2, [a], total) @ joint
    for a, p in enumerate(powers):
        power = (1j**p) * (vecs * np.exp(-1j * vals * p * theta / 2.0)) @ vecs.conj().T
        joint = embed_controlled(power, [a], system, total) @ joint
    for a in range(m):
        joint = embed_gate(HADAMARD_2X2, [a], total) @ joint
    # the all-zeros ancilla outcome is the leading block of the MSB-first index
    branch = joint[: 2**n_sys]
    probability = float(np.sum(np.abs(branch) ** 2))
    return probability, branch / np.sqrt(probability)


def tag_circuit(joint: np.ndarray, eigenvectors: np.ndarray) -> np.ndarray:
    """The one-qubit tag as a circuit on ancilla (qubit 0) and system (qubit 1).

    Basis change V^H on the system, a CNOT from the system onto the
    ancilla, and V back, each as a full matrix.
    """
    out = embed_gate(eigenvectors.conj().T, [1], 2) @ joint
    out = embed_controlled(PAULI_2X2["X"], [1], [0], 2) @ out
    return embed_gate(eigenvectors, [1], 2) @ out
