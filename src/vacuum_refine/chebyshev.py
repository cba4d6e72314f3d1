"""Ramp steps without eigenvectors: eigenvalues, one ground vector and a Chebyshev propagator.

From ``adiabatic._CHEBYSHEV_QUBITS`` qubits on, a ramp operator's record
needs only its eigenvalues (gap, degeneracy warning, spectral bounds) and
its ground vector (fidelity target), and its exact step needs only
exp(-i H dt) psi.  ``_eigenvalues`` takes the first from ``eigvalsh``,
``_ground_vectors`` the second by shifted inverse iteration, and
``_chebyshev_step`` the step from products with the dense matrix
(Tal-Ezer & Kosloff 1984, J. Chem. Phys. 81:3967), its Bessel weights from
Miller's backward recurrence (``_bessel_j``), so the runtime stays
numpy-only.  ``hamiltonian._SpectrumStacks`` and ``adiabatic`` import this
module only when a ramp of that size runs, so smaller registers never
load it.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericalConsistencyError
from .hamiltonian import _CHECK_ATOL, DEGENERACY_TOL, _refuse_above
from .statevector import _UNITARY_ATOL

# Shifted inverse iteration (``_ground_vectors``) shifts below E0 by this
# fraction of the spectral radius, above the rounding of E0, iterates until
# the excited part left is at most _INVERSE_TOL of the start's, and stops
# after _INVERSE_SOLVES solves.
_INVERSE_SHIFT = 1e-14
_INVERSE_TOL = 1e-12
_INVERSE_SOLVES = 8
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# The Chebyshev step (``_chebyshev_step``) drops the orders beyond the
# first one above z whose weight 2 |J_k(z)| is at most this.
_CHEBYSHEV_TOL = 1e-17
_POWERS_OF_MINUS_I = (1.0, -1j, -1.0, 1j)


def _eigenvalues(matrices: np.ndarray) -> np.ndarray:
    """The (k, d) ascending eigenvalues of a (k, d, d) stack of Hermitian matrices."""
    try:
        return np.linalg.eigvalsh(matrices)
    except np.linalg.LinAlgError as exc:
        raise NumericalConsistencyError(f"eigensolver failed to converge: {exc}") from exc


def _ground_vectors(matrices: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The unit ground vector of each matrix of a (k, d, d) stack, as (k, d, 1) columns.

    ``values`` are the stack's (k, d) eigenvalues.  Each vector comes from
    shifted inverse iteration on its matrix alone, from the same fixed
    start vector: x <- (H - sigma)^-1 x, normalized, with sigma below E0
    by ``_INVERSE_SHIFT`` of the spectral radius.  Each solve shrinks
    every excited component against the ground one by at least
    f = (E0 - sigma) / (E1 - sigma), and the first solve's norm gives the
    start's ground component c0, about (E0 - sigma) |x|.  The iteration
    stops once the excited part left, at most f^m / c0, is at most
    ``_INVERSE_TOL`` and the eigenpair residual max |H x - E0 x| is at most
    ``_CHECK_ATOL``: one solve on most operators of the chain ramps, and
    more on smaller gaps or a start far from the ground state.  For a
    ground level degenerate within ``DEGENERACY_TOL``, E1 is the next
    level up, since any unit vector of the ground level will do.  After
    ``_INVERSE_SOLVES`` solves a vector whose residual passes is kept, and
    any other refused.
    """
    k, dim = values.shape
    grounds = np.empty((k, dim, 1), dtype=matrices.dtype)
    # entries in [1, 2) at the golden-ratio sequence: neither uniform nor
    # zero on any basis state, and the same on every thread
    start = np.modf(np.arange(1, dim + 1) * _GOLDEN)[0] + 1.0
    start /= np.linalg.norm(start)
    for matrix, row, ground in zip(matrices, values, grounds):
        shift = _INVERSE_SHIFT * max(abs(row[0]), abs(row[-1]), 1.0)
        # E1: the first level above the ground level and its degenerate partners
        above = np.flatnonzero(row > row[0] + DEGENERACY_TOL)
        factor = shift / (row[above[0]] - row[0] + shift) if above.size else 0.0
        # the matrix is shifted in place and its diagonal put back after:
        # a shifted copy would cost as much as a third of a solve
        diagonal = matrix.diagonal().copy()
        matrix.reshape(-1)[:: dim + 1] -= row[0] - shift
        try:
            x = start
            for solves in range(1, _INVERSE_SOLVES + 1):
                x = np.linalg.solve(matrix, x)
                norm = np.linalg.norm(x)
                if solves == 1:
                    # the first solve scales the start's ground part c0 by
                    # 1 / (E0 - sigma) and the rest by at most 1 / gap
                    overlap = min(1.0, shift * norm)
                x /= norm
                # H x - E0 x, as (H - sigma) x - (E0 - sigma) x
                residual = np.max(np.abs(matrix.dot(x) - shift * x))
                if residual <= _CHECK_ATOL and factor**solves <= _INVERSE_TOL * overlap:
                    break
        except np.linalg.LinAlgError as exc:
            raise NumericalConsistencyError(f"inverse iteration failed: {exc}") from exc
        finally:
            matrix.reshape(-1)[:: dim + 1] = diagonal
        _refuse_above(np.array([residual]), _CHECK_ATOL, "ground vector residual {:.3e} too large")
        ground[:, 0] = x
    return grounds


def _bessel_j(z: float, count: int) -> np.ndarray:
    """J_0(z), ..., J_{count-1}(z) for z >= 0, by Miller's backward recurrence.

    The recurrence J_{k-1} = (2k / z) J_k - J_{k+1} runs down from J_m = 1
    and J_{m+1} = 0 at an even m far enough above both ``count`` and z
    that J_m is negligible, so the error it starts with shrinks on the way
    down.  The values are rescaled whenever they near overflow, and then
    normalized by J_0 + 2 (J_2 + J_4 + ...) = 1.  Below z = 1e-100 one
    step of the recurrence could overflow; there J_0 = 1 and J_1 = z / 2 to
    double precision, and the higher orders, below z^2 / 8, are taken as 0.
    """
    if z < 1e-100:
        values = np.zeros(count)
        values[:2] = [1.0, 0.5 * z][:count]
        return values
    top = 2 * ((max(count, _negligible_order(z)) + 32) // 2)
    recurred = [0.0] * (top + 1)
    following, current = 0.0, 1.0
    recurred[top] = current
    for k in range(top, 0, -1):
        following, current = current, 2 * k / z * current - following
        recurred[k - 1] = current
        if abs(current) > 1e200:
            recurred = [value * 1e-200 for value in recurred]
            following, current = following * 1e-200, current * 1e-200
    values = np.array(recurred)
    return values[:count] / (values[0] + 2.0 * values[2::2].sum())


def _negligible_order(z: float) -> int:
    """An order past which 2 |J_k(z)| stays below ``_CHEBYSHEV_TOL``, with room to spare."""
    return int(z + 12.0 * z ** (1.0 / 3.0)) + 16


def _chebyshev_terms(z: float) -> np.ndarray:
    """The expansion weights J_k(z) of the Chebyshev step, to the first negligible one.

    The step keeps k = 0, ..., K - 1, where K is the first order above z
    with 2 |J_K(z)| <= ``_CHEBYSHEV_TOL``; the orders beyond shrink faster
    than geometrically, so what is dropped is about that size.
    """
    values = _bessel_j(z, _negligible_order(z))
    small = np.flatnonzero(2.0 * np.abs(values[int(z) + 1 :]) <= _CHEBYSHEV_TOL)
    return values[: int(z) + 1 + int(small[0])]


def _chebyshev_step(
    matrix: np.ndarray,
    lowest: float,
    highest: float,
    dt: float,
    amplitudes: np.ndarray,
    out: np.ndarray,
) -> int:
    """Write exp(-i H dt) x into ``out`` by a Chebyshev expansion; return its terms.

    ``matrix`` is the dense H of one operator, ``lowest`` and ``highest``
    its extreme eigenvalues and ``amplitudes`` one vector x.  With
    mid = (highest + lowest) / 2 and half = (highest - lowest) / 2, the
    spectrum of G = (H - mid) / half lies in [-1, 1] and
    exp(-i H dt) = exp(-i mid dt) (J_0(z) + sum_k 2 (-i)^k J_k(z) T_k(G))
    at z = half dt (Tal-Ezer & Kosloff 1984), T_k from
    T_(k+1) x = 2 G T_k x - T_(k-1) x.  Each term is one product with the
    matrix: a real matrix multiplies the amplitudes as a real (d, 2)
    operand.  The step is refused unless it keeps the norm of x to
    ``_UNITARY_ATOL``.  ``out`` must be complex128 and must not be x.
    """
    mid = 0.5 * (highest + lowest)
    half = 0.5 * (highest - lowest)
    weights = _chebyshev_terms(half * dt)
    dim = amplitudes.shape[0]
    real = matrix.dtype == np.float64

    def scaled(vector: np.ndarray) -> np.ndarray:
        """G x, with H x of a real matrix taken as one real (d, 2) product."""
        if real:
            product = matrix.dot(vector.view(np.float64).reshape(dim, 2)).view(np.complex128)
            product = product.reshape(dim)
        else:
            product = matrix.dot(vector)
        product -= mid * vector
        product /= half
        return product

    np.multiply(amplitudes, weights[0], out=out)
    previous, current = None, amplitudes
    for k in range(1, len(weights)):
        following = scaled(current)
        if k > 1:
            following *= 2.0
            following -= previous
        previous, current = current, following
        out += (2.0 * weights[k] * _POWERS_OF_MINUS_I[k % 4]) * current
    out *= np.exp(-1j * mid * dt)
    drift = abs(np.linalg.norm(out) - np.linalg.norm(amplitudes))
    if not drift <= _UNITARY_ATOL:  # NaN fails too
        raise NumericalConsistencyError(f"Chebyshev step changed the norm by {drift:.3e}")
    return len(weights)
