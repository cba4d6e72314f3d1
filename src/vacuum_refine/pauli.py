"""Pauli words in symplectic form: an X bitmask, a Z bitmask and a power of i.

A word on n qubits is stored as P = i^y X^x Z^z (the representation of
Aaronson & Gottesman, Phys. Rev. A 70, 052328, 2004).  Bit n-1-q of each
mask belongs to qubit q, so qubit 0 is the most significant bit, as
everywhere in the package; y counts the Y letters, since Y = i X Z.

An operator's words are one read-only (words, 3) int64 table whose row t
is (x, z, y mod 4) of word t (``compile_words``).  This module is the
only one that reads the table's columns: the other modules pass tables
and rows of them to the functions here.

P sends the basis state |c> to i^y (-1)^popcount(c & z) |c ^ x>, so its
action on an amplitude vector is one gather with one phase per basis
index, and the words that share an X mask x fill the same matrix entries
[c ^ x, c], which no other word touches: a dense matrix is one assignment
per distinct x (``x_groups``).  The phases are exactly 1, i, -1 or -i, so
every product with them is exact.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from .errors import DomainError

_I_POWERS = np.array([1, 1j, -1, -1j], dtype=np.complex128)
# the most letters whose masks fit a row of the int64 table
_MAX_LETTERS = 63
_X_BIT = {"I": 0, "X": 1, "Y": 1, "Z": 0}
_Z_BIT = {"I": 0, "X": 0, "Y": 1, "Z": 1}


def compile_words(strings: Iterable[str]) -> np.ndarray:
    """The read-only word table of I/X/Y/Z strings, qubit 0 leftmost, one row per string.

    A string of more than 63 letters is refused: its masks do not fit.
    """
    rows = []
    for string in strings:
        if len(string) > _MAX_LETTERS:
            raise DomainError(f"a Pauli word has at most {_MAX_LETTERS} letters, got {len(string)}")
        x_mask = z_mask = 0
        for ch in string:
            if ch not in _X_BIT:
                raise DomainError(f"unknown Pauli letter {ch!r} in {string!r}")
            x_mask = (x_mask << 1) | _X_BIT[ch]
            z_mask = (z_mask << 1) | _Z_BIT[ch]
        rows.append((x_mask, z_mask, string.count("Y") % 4))
    table = np.array(rows, dtype=np.int64).reshape(-1, 3)
    table.setflags(write=False)
    return table


def _column_phases(z_mask, i_power, columns: np.ndarray) -> np.ndarray:
    """The nonzero entries P[c ^ x, c] for each basis index c in ``columns``.

    ``z_mask`` and ``i_power`` are (words, 1) columns of a table, which
    broadcast against ``columns``: the phase of |c> is
    i^(i_power + 2 popcount(c & z_mask)).
    """
    return _I_POWERS[(i_power + 2 * np.bitwise_count(columns & z_mask)) & 3]


def x_groups(
    words: np.ndarray, coeffs: np.ndarray, dim: int, real: bool
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Each distinct X mask x of a table: the rows ``c ^ x`` and the entries there.

    The (rows, d) entries are D_x[k, c] = sum_t coeffs[k, t] * P_t[c ^ x, c]
    over the words t with mask x, summed in table order from zero (the
    phases' real parts when ``real``); no other word is nonzero there.
    Distinct words with one x differ in z, so at most d share it.
    """
    columns = np.arange(dim)
    for x in x_masks(words):
        members = np.flatnonzero(words[:, 0] == x)
        phases = _column_phases(words[members, 1:2], words[members, 2:], columns)
        if real:
            phases = phases.real
        entries = np.zeros((coeffs.shape[0], dim), dtype=phases.dtype)
        for t, phase in zip(members, phases):
            entries += coeffs[:, t : t + 1] * phase
        yield columns ^ x, entries


def x_masks(words: np.ndarray) -> list[int]:
    """The distinct X masks of a table, ascending: one group of ``x_groups`` each."""
    # a set, not np.unique, whose first call adds about 1.5 MB of resident memory
    return sorted(set(words[:, 0].tolist()))


def odd_words(words: np.ndarray) -> np.ndarray:
    """Whether each word has an odd power of i, so complex phases."""
    return words[:, 2] % 2 == 1


def identity_words(words: np.ndarray) -> np.ndarray:
    """Whether each word is the identity, I letters alone."""
    return (words[:, 0] == 0) & (words[:, 1] == 0)


def split_order(words: np.ndarray) -> list[int]:
    """Word indices in ``trotter1`` splitting order.

    Z-type words (I and Z letters) come first, then X-type (I and X
    letters), then the rest; the words keep their table order within a
    class.
    """
    x_type, z_type = words[:, 0] != 0, words[:, 1] != 0
    rank = np.where(x_type, np.where(z_type, 2, 1), 0)
    return np.argsort(rank, kind="stable").tolist()


def apply_words(words: np.ndarray, amplitudes: np.ndarray) -> np.ndarray:
    """Every word of a table applied along the last axis: (..., d) amplitudes give (..., words, d).

    The last axis is the register, so this takes one amplitude vector or
    a (rows, d) stack of them; one gather and one in-place product serve
    all the words and rows.  ``np.take`` gathers into a new C-ordered
    array, where a fancy-indexed gather along the last axis comes out
    column-major and BLAS sums a strided row in another order than a
    contiguous one.  The phases then multiply it in place, so beyond the
    result only numpy's ufunc buffer (at most 8192 entries) is allocated;
    a real stack is cast once.
    """
    source = np.arange(amplitudes.shape[-1]) ^ words[:, :1]
    phases = _column_phases(words[:, 1:2], words[:, 2:], source)
    applied = np.take(amplitudes, source, axis=-1).astype(np.complex128, copy=False)
    applied *= phases
    return applied
