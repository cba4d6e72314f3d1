"""Pauli words in symplectic form: an X bitmask, a Z bitmask and a power of i.

A word on n qubits is stored as P = i^y X^x Z^z (the representation of
Aaronson & Gottesman, Phys. Rev. A 70, 052328, 2004).  Bit n-1-q of each
mask belongs to qubit q, so qubit 0 is the most significant bit, as
everywhere in the package; y counts the Y letters, since Y = i X Z.

P sends the basis state |c> to i^y (-1)^popcount(c & z) |c ^ x>, so both
a dense matrix and the action on an amplitude vector are one gather with
one phase per basis index.  The phases are exactly 1, i, -1 or -i, so
every product with them is exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError

_I_POWERS = np.array([1, 1j, -1, -1j], dtype=np.complex128)
_X_BIT = {"I": 0, "X": 1, "Y": 1, "Z": 0}
_Z_BIT = {"I": 0, "X": 0, "Y": 1, "Z": 1}


@dataclass(frozen=True)
class PauliWord:
    """One compiled word: P = i^i_power X^x_mask Z^z_mask."""

    x_mask: int
    z_mask: int
    i_power: int


def compile_word(string: str) -> PauliWord:
    """Compile an I/X/Y/Z word, qubit 0 leftmost, into its masks."""
    x_mask = z_mask = 0
    for ch in string:
        if ch not in _X_BIT:
            raise DomainError(f"unknown Pauli letter {ch!r} in {string!r}")
        x_mask = (x_mask << 1) | _X_BIT[ch]
        z_mask = (z_mask << 1) | _Z_BIT[ch]
    return PauliWord(x_mask, z_mask, string.count("Y") % 4)


def column_phases(word: PauliWord, columns: np.ndarray) -> np.ndarray:
    """The nonzero entries P[c ^ x, c] for each basis index c in ``columns``."""
    parity = np.bitwise_count(columns & word.z_mask) & 1
    return _I_POWERS[(word.i_power + 2 * parity) % 4]


def apply_word(word: PauliWord, amplitudes: np.ndarray) -> np.ndarray:
    """P @ amplitudes for a flat amplitude vector, as a new array."""
    source = np.arange(amplitudes.shape[0]) ^ word.x_mask
    return column_phases(word, source) * amplitudes[source]
