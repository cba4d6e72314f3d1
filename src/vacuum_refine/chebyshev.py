"""Ramp steps without eigenvectors: the two lowest levels, the ground vector and a Chebyshev propagator.

From ``adiabatic._CHEBYSHEV_QUBITS`` qubits on, a ramp operator's record
needs only its two lowest levels (gap, degeneracy warning) and its ground
vector (fidelity target), and its exact step needs only exp(-i H dt) psi
between bounds on its spectrum.  A stack of ramp operators is held as
their X-group entries (``hamiltonian._GroupedStack``, the one dense
build), from which one pass bounds the spectrum of every operator from
above by Gershgorin's theorem (``_gershgorin``), and each operator's
dense matrix is written on demand into the stack's one buffer.
``_lowest_levels`` takes the two lowest levels and the ground vector
from products with that matrix by block Lanczos with two vectors and
full reorthogonalization (Golub & Underwood 1977; Saad 2011, ch. 6),
each operator warm-started from the ground vector of the one before.
``_chebyshev_step`` takes the step from products with the same matrix
(Tal-Ezer & Kosloff 1984, J. Chem. Phys. 81:3967), its Bessel weights
from Miller's backward recurrence (``_bessel_j``), so the runtime stays
numpy-only.  ``adiabatic`` imports this module only when a ramp of that
size runs, so smaller registers never load it.
"""

from __future__ import annotations

import math

import numpy as np

from .counters import _Counters
from .errors import NumericalConsistencyError
from .hamiltonian import _CHECK_ATOL, _GroupedStack, _refuse_above
from .statevector import _UNITARY_ATOL

# Block Lanczos (``_lowest_pair``) stops once the ground pair's residual is
# at most _RESIDUAL_TOL of the scale (the largest absolute row sum, at
# least 1) and the second pair's residual bounds |theta_1 - E1| by
# _LEVEL_TOL.  Each check diagonalizes the projected matrix, which costs
# as much as about ten blocks of products at 8 qubits, so checks are
# sparse: a warm-started operator is first checked one block before the
# block at which the operator before it settled, a cold one after
# _FIRST_CHECK blocks (and never earlier), then every _CHECK_EVERY
# blocks.  A new basis vector whose norm is at most _VANISHED_TOL of the
# scale has vanished: the Krylov space holds an invariant subspace, and
# the vector is refilled.
_RESIDUAL_TOL = 1e-12
_LEVEL_TOL = 1e-13
_VANISHED_TOL = 1e-13
_FIRST_CHECK = 12
_CHECK_EVERY = 3
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# The Chebyshev step (``_chebyshev_step``) drops the orders beyond the
# first one above z whose weight 2 |J_k(z)| is at most this.
_CHEBYSHEV_TOL = 1e-17
_POWERS_OF_MINUS_I = (1.0, -1j, -1.0, 1j)


def _gershgorin(stack: _GroupedStack) -> tuple[np.ndarray, np.ndarray]:
    """(upper, scale) of each operator of a grouped stack, as (k,) arrays.

    ``upper`` is the Gershgorin bound max_i (H_ii + sum_(j != i) |H_ij|),
    never below the largest eigenvalue, and ``scale`` the largest
    absolute row sum, at least 1.  Since H is Hermitian its absolute row
    sums are its column sums.  Column c holds the entries D_x[c] at the
    rows c ^ x, and they are added in the order of those rows, as the
    column sum of the dense |H| adds them, so both have that sum's bits.
    The diagonal is the group of x = 0, the first, when there is one.
    """
    # the rows of a column are distinct, so every sort orders them alike;
    # the stable one is the one the package already runs, where a first
    # call of another adds about 0.2 MB of resident memory
    order = np.argsort(stack.rows, axis=0, kind="stable")[np.newaxis]
    gathered = np.take_along_axis(stack.entries, order, axis=1)
    real = gathered.dtype == np.float64
    sums = (np.abs(gathered, out=gathered) if real else np.abs(gathered)).sum(axis=1)
    diagonal = stack.entries[:, 0].real if stack.rows[0, 0] == 0 else np.zeros_like(sums)
    upper = np.max(diagonal - np.abs(diagonal) + sums, axis=1)
    return upper, np.maximum(1.0, np.max(sums, axis=1))


def _lowest_levels(
    stack: _GroupedStack,
    warm: tuple[np.ndarray, int] | None,
    counters: _Counters | None = None,
) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, int]]:
    """The two lowest levels, a spectral bound and the ground vector of each operator of a stack.

    Returns the (k, 3) rows [E0, E1, upper], the (k, d, 1) unit ground
    vectors and the warm start for the next stack; ``upper`` and the
    scale of the tolerances come from ``_gershgorin``.  The levels and the
    vector come from ``_lowest_pair`` on ``stack.matrix(k)``: the first
    operator is warm-started from ``warm``, the ground vector and the
    blocks of the operator before the stack (None for the first of a
    ramp), and each further operator from the one before it.
    ``counters``, when given, count the block products and the checks.
    """
    upper, scales = _gershgorin(stack)
    count, _, dim = stack.entries.shape
    values = np.empty((count, 3))
    values[:, 2] = upper
    grounds = np.empty((count, dim, 1), dtype=stack.entries.dtype)
    for k, (row, ground, scale) in enumerate(zip(values, grounds, scales)):
        row[0], row[1], ground[:, 0], blocks, checks = _lowest_pair(stack.matrix(k), warm, scale)
        warm = (ground[:, 0].copy(), blocks)
        if counters is not None:
            counters.krylov_products += blocks
            counters.krylov_checks += checks
    return values, grounds, warm


def _lowest_pair(
    matrix: np.ndarray, warm: tuple[np.ndarray, int] | None, scale: float
) -> tuple[float, float, np.ndarray, int, int]:
    """(E0, E1, unit ground vector, blocks, checks) of one Hermitian matrix by block Lanczos.

    ``warm`` is the ground vector of the operator before and the blocks it
    took, or None.  The start block is that vector and the fixed
    golden-ratio vector orthogonalized against it (for a cold start, or a
    complex vector with a real matrix, the golden vector and a refill).
    The golden vector has a part in every symmetry sector of the operator,
    so a level that the warm vector's sector lacks is still found.  The
    basis vectors are the rows of ``basis``.  Block j is one product
    H Q_j, a real (2, d) product for a real matrix, written over the
    block before it; it is orthogonalized against the whole
    basis twice, and its overlap with Q_j is the diagonal block A_j of the
    projected block-tridiagonal matrix T.  At each check (one block before
    the blocks ``warm`` took, at least ``_FIRST_CHECK``; every
    ``_CHECK_EVERY`` blocks after; and at the last block) T is
    diagonalized.  The residual of Ritz pair i is R_j s_i, with R_j the
    orthogonalized product and s_i the last block of its eigenvector of
    T.  The iteration stops when the ground pair's residual is at most
    ``_RESIDUAL_TOL`` * ``scale`` and the second pair's bounds
    |theta_1 - E1| by ``_LEVEL_TOL``: min(r, r^2 / delta), with delta the
    distance from theta_1 to the Ritz values beside it.  Otherwise R_j is
    made orthonormal into the next block (``_orthonormalize``), and its
    factor is the block of T below A_j.  A vector that has vanished (an
    invariant subspace, such as the whole space of the zero operator) is
    never divided by: it is refilled with the basis state least
    represented in the basis, orthogonalized against it, with a zero in
    T.  After d / 2 blocks the basis is complete; an operator not settled
    by then is refused.  The ground vector x is the Ritz vector, refused
    unless max |H x - E0 x| <= ``_CHECK_ATOL``: one product more, where
    keeping the images of the basis would double its memory.
    """
    dim = matrix.shape[0]
    cap = (dim + 1) // 2
    golden = _golden_vector(dim)
    first = _FIRST_CHECK
    start = np.array([golden, golden], dtype=matrix.dtype)
    if warm is not None:
        first = max(first, warm[1] - 1)
        if np.iscomplexobj(matrix) or not np.iscomplexobj(warm[0]):
            start[0] = warm[0]
    tol = _VANISHED_TOL * scale
    # room for the complete basis; only the rows written are touched
    basis = np.empty((2 * cap, dim), dtype=matrix.dtype)
    residual = np.empty((2, dim), dtype=matrix.dtype)
    diagonal = np.empty((cap, 2, 2), dtype=matrix.dtype)
    below = np.empty((cap, 2, 2), dtype=matrix.dtype)
    _orthonormalize(basis, 0, start, tol)
    checks = 0
    for j in range(cap):
        size = 2 * j + 2
        _images(matrix, basis[size - 2 : size], out=residual)
        diagonal[j] = _project_out(basis[:size], residual)[:, -2:].T
        blocks = j + 1
        if blocks == cap or (blocks >= first and (blocks - first) % _CHECK_EVERY == 0):
            settled = _settled(diagonal[:blocks], below[: blocks - 1], residual, scale)
            checks += 1
            if settled is not None:
                e0, e1, ritz = settled
                ground = ritz.dot(basis[:size])
                ground /= np.linalg.norm(ground)
                image = _images(matrix, ground[np.newaxis], out=residual[:1])[0]
                excess = np.max(np.abs(image - e0 * ground))
                _refuse_above(np.array([excess]), _CHECK_ATOL, "ground vector residual {:.3e} too large")
                return e0, e1, ground, blocks, checks
        if blocks == cap:
            break
        below[j] = _orthonormalize(basis, size, residual, tol)
    raise NumericalConsistencyError(f"block Lanczos did not settle the two lowest levels in {cap} blocks")


def _golden_vector(dim: int) -> np.ndarray:
    """The fixed unit start vector: entries in [1, 2) at the golden-ratio sequence.

    Neither uniform nor zero on any basis state, and the same on every
    thread and every run.
    """
    vector = np.modf(np.arange(1, dim + 1) * _GOLDEN)[0] + 1.0
    return vector / np.linalg.norm(vector)


def _images(matrix: np.ndarray, rows: np.ndarray, out: np.ndarray) -> np.ndarray:
    """H x for each row x of ``rows``, as rows written to ``out``: one product.

    x^T H is (H x)^T for a real symmetric H; for a complex Hermitian H it
    is conj(x^H H) that is (H x)^T.
    """
    if matrix.dtype != np.float64:
        np.dot(rows.conj(), matrix, out=out)
        return np.conjugate(out, out=out)
    return np.dot(rows, matrix, out=out)


def _project_out(known: np.ndarray, block: np.ndarray) -> np.ndarray:
    """Remove the span of the orthonormal rows ``known`` from the rows of ``block``, twice.

    Works in place.  Returns the overlaps [c, i] = <known_i, block_c> as
    they were, the two passes' summed.
    """
    overlaps = _overlaps(known, block)
    block -= overlaps.dot(known)
    again = _overlaps(known, block)
    block -= again.dot(known)
    overlaps += again
    return overlaps


def _overlaps(known: np.ndarray, block: np.ndarray) -> np.ndarray:
    """[c, i] = <known_i, block_c>, without a conjugated copy of ``known``."""
    if known.dtype != np.float64:
        return block.conj().dot(known.T).conj()
    return block.dot(known.T)


def _orthonormalize(basis: np.ndarray, size: int, block: np.ndarray, tol: float) -> np.ndarray:
    """Write the two rows of ``block``, orthonormalized, to rows ``size`` and ``size + 1`` of ``basis``.

    ``block`` must already be orthogonal to the first ``size`` rows.
    Returns the upper-triangular R with block^T = Q^T R.  R is the
    closed-form Cholesky factor of the rows' 2 x 2 Gram matrix
    (Cholesky-QR; Yamamoto et al. 2015, ETNA 44:306) when the first row's
    norm exceeds ``tol`` and the second keeps at least half its squared
    norm outside the first's span, which keeps the two rows of Q
    orthogonal to a few roundings.  Otherwise the rows are taken one by
    one, the second orthogonalized against the first twice, and a row
    whose norm left is at most ``tol`` has vanished: its row of Q is a
    refill (the basis state with the least weight in the rows so far,
    orthogonalized against them twice) and its diagonal entry of R is
    zero.
    """
    # [c, i] = <block_i, block_c>, as Python numbers
    (first, _), (coupling, second) = _overlaps(block, block).tolist()
    first, second = first.real, second.real
    if first > tol * tol:
        norm = math.sqrt(first)
        coupling /= norm
        left = second - abs(coupling) ** 2
        if left > tol * tol and 2.0 * left >= second:
            left = math.sqrt(left)
            np.multiply(block[0], 1.0 / norm, out=basis[size])
            row = block[1] - coupling * basis[size]
            np.multiply(row, 1.0 / left, out=basis[size + 1])
            return np.array([[norm, coupling], [0.0, left]], dtype=block.dtype)
    factor = np.zeros((2, 2), dtype=block.dtype)
    for c in range(2):
        row = block[c]
        if c:
            for _ in range(2):
                overlap = np.vdot(basis[size], row)
                row -= overlap * basis[size]
                factor[0, 1] += overlap
        norm = math.sqrt(np.vdot(row, row).real)
        if norm > tol:
            np.multiply(row, 1.0 / norm, out=basis[size + c])
            factor[c, c] = norm
            continue
        known = basis[: size + c]
        refill = np.zeros((1, len(row)), dtype=block.dtype)
        refill[0, np.argmin(np.sum(np.abs(known) ** 2, axis=0))] = 1.0
        _project_out(known, refill)
        basis[size + c] = refill[0] / np.linalg.norm(refill)
    return factor


def _settled(
    diagonal: np.ndarray, below: np.ndarray, residual: np.ndarray, scale: float
) -> tuple[float, float, np.ndarray] | None:
    """(theta_0, theta_1, ground eigenvector of T) once both pairs pass, else None.

    ``diagonal`` holds the blocks A_0 ... A_j of T and ``below`` the blocks
    under them; only T's lower triangle is filled, which is all ``eigh``
    reads.
    """
    blocks = len(diagonal)
    size = 2 * blocks
    projected = np.zeros((blocks, 2, blocks, 2), dtype=diagonal.dtype)
    index = np.arange(blocks)
    projected[index, :, index, :] = diagonal
    projected[index[1:], :, index[:-1], :] = below
    try:
        thetas, vectors = np.linalg.eigh(projected.reshape(size, size))
    except np.linalg.LinAlgError as exc:
        raise NumericalConsistencyError(f"eigensolver failed to converge: {exc}") from exc
    ground_residual, level_residual = np.linalg.norm(vectors[-2:, :2].T.dot(residual), axis=1)
    delta = float(np.min(np.diff(thetas[:3])))
    bound = level_residual if delta <= level_residual else level_residual**2 / delta
    if ground_residual <= _RESIDUAL_TOL * scale and bound <= _LEVEL_TOL:
        return float(thetas[0]), float(thetas[1]), vectors[:, 0]
    return None


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
    bounds on its spectrum (its ground level and an upper bound on its
    top level) and ``amplitudes`` one vector x.  With
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


def _chebyshev_stack(
    stack: _GroupedStack,
    values: np.ndarray,
    dt: float,
    states: np.ndarray,
    amplitudes: np.ndarray,
    first: int,
    counters: _Counters | None,
) -> np.ndarray:
    """Step ``amplitudes`` through a stack's operators from ``first`` on, into rows of ``states``.

    Step k applies exp(-i H_k dt) by ``_chebyshev_step`` on
    ``stack.matrix(k)``, between the bounds E0 and upper of row k of
    ``values`` ([E0, E1, upper]), to the row before it and writes row k;
    ``counters``, when given, count the terms.  Returns the last row.
    """
    for k in range(first, len(values)):
        bounds = values[k]
        terms = _chebyshev_step(stack.matrix(k), bounds[0], bounds[2], dt, amplitudes, states[k])
        amplitudes = states[k]
        if counters is not None:
            counters.chebyshev_terms += terms
    return amplitudes
