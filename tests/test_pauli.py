"""The word table of ``pauli`` against dense matrices built letter by letter."""

import ast
import itertools
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import vacuum_refine
from vacuum_refine import DomainError, PauliSum, ramp_coefficients
from vacuum_refine.pauli import (
    _column_phases,
    apply_words,
    compile_words,
    identity_words,
    odd_words,
    split_order,
    x_groups,
)

from oracles import pauli_word_matrix, random_state


def _all_strings(n):
    return ["".join(letters) for letters in itertools.product("IXYZ", repeat=n)]


def test_each_letter_compiles_to_its_row():
    # rows are (x mask, z mask, Y letters mod 4); Y = i X Z
    table = compile_words(["I", "X", "Y", "Z"])
    assert table.dtype == np.int64
    assert table.tolist() == [[0, 0, 0], [1, 0, 0], [1, 1, 1], [0, 1, 0]]
    # qubit 0 is the most significant bit of each mask
    assert compile_words(["XYZI", "YYYYY", "YY"]).tolist() == [
        [0b1100, 0b0110, 1],
        [0b11111, 0b11111, 1],
        [0b11, 0b11, 2],
    ]
    assert compile_words([]).shape == (0, 3)


@pytest.mark.parametrize("string", ["XQ", "x", "Z Z", "I-"])
def test_a_bad_letter_is_refused(string):
    with pytest.raises(DomainError, match="unknown Pauli letter"):
        compile_words(["XX", string])


def test_a_word_too_long_for_the_masks_is_refused():
    assert compile_words(["Z" * 63]).tolist() == [[0, 2**63 - 1, 0]]
    with pytest.raises(DomainError, match="at most 63 letters, got 64"):
        compile_words(["Z" * 64])


def test_compiled_forms_refuse_writes():
    h = PauliSum(2, ((0.5, "XY"), (-1.0, "ZI")))
    assert h.words.tolist() == compile_words(["XY", "ZI"]).tolist()
    assert h.coeffs.dtype == np.float64 and h.coeffs.tolist() == [[0.5, -1.0]]
    words, _ = ramp_coefficients(PauliSum(2, ((1.0, "ZZ"),)), h, [0.0, 1.0])
    for table in (h.words, h.coeffs, words, compile_words(["X"])):
        assert not table.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = 7


def test_split_order_puts_z_type_then_x_type_then_the_rest():
    strings = ["XX", "ZI", "YI", "IX", "II", "XZ", "IZ", "ZY"]
    # Z-type: ZI, II, IZ; X-type: XX, IX; the rest: YI, XZ, ZY
    assert split_order(compile_words(strings)) == [1, 4, 6, 0, 3, 2, 5, 7]
    assert split_order(compile_words([])) == []


def test_odd_words_are_those_with_an_odd_count_of_y():
    strings = ["YI", "YY", "XZ", "YYY", "II"]
    assert odd_words(compile_words(strings)).tolist() == [True, False, False, True, False]


def test_identity_words_are_those_of_i_letters_alone():
    strings = ["II", "IZ", "XI", "YY", "I", "Z"]
    expected = [True, False, False, False, True, False]
    assert identity_words(compile_words(strings)).tolist() == expected
    assert identity_words(compile_words([])).tolist() == []


def _column_reads(source: str) -> list[int]:
    """Lines of two-axis subscripts of a name or attribute ``words`` or ``*_words``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Tuple):
            target = node.value
            name = target.id if isinstance(target, ast.Name) else getattr(target, "attr", "")
            if name == "words" or name.endswith("_words"):
                lines.append(node.lineno)
    return lines


def test_only_pauli_reads_the_columns_of_a_word_table():
    # the table's column layout is pauli's alone; every other module
    # passes tables and rows of them to pauli's functions
    package = Path(vacuum_refine.__file__).parent
    modules = sorted(package.glob("*.py"))
    assert _column_reads((package / "pauli.py").read_text(encoding="utf-8"))
    for module in modules:
        if module.name != "pauli.py":
            assert _column_reads(module.read_text(encoding="utf-8")) == [], module.name
    assert _column_reads("x = self._words[:, 2]\ny = words[1:, 0]\nz = words[1:]\n") == [1, 2]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_x_groups_rebuild_every_word(n):
    strings = _all_strings(n)
    table = compile_words(strings)
    columns = np.arange(2**n)
    for t, string in enumerate(strings):
        one_hot = np.zeros((1, len(strings)))
        one_hot[0, t] = 1.0
        expected = pauli_word_matrix(string)
        for real in (False, True):
            dense = np.zeros((2**n, 2**n), dtype=np.float64 if real else np.complex128)
            groups = list(x_groups(table, one_hot, 2**n, real))
            # one group per X mask, 2^n of them, each of 2^n words
            assert len(groups) == 2**n
            for flipped, entries in groups:
                assert entries.shape == (1, 2**n)
                dense[flipped, columns] = entries[0]
            assert np.array_equal(dense, expected.real if real else expected), string


def test_x_groups_sum_each_entry_in_table_order_from_zero():
    # IZ and ZI share x = 0; on the zero row a coefficient times phase -1
    # is -0.0, which becomes +0.0 when it is added to zero
    table = compile_words(["IZ", "ZI", "XX"])
    coeffs = np.array([[0.0, 0.0, 0.0], [0.1, 0.2, 0.3]])
    (diagonal_rows, diagonal), (flipped_rows, flipped) = x_groups(table, coeffs, 4, True)
    assert diagonal_rows.tolist() == [0, 1, 2, 3] and flipped_rows.tolist() == [3, 2, 1, 0]
    assert not np.signbit(diagonal[0]).any() and not np.signbit(flipped[0]).any()
    signs = np.array([[1, -1, 1, -1], [1, 1, -1, -1]])
    assert diagonal[1].tolist() == [(0.0 + 0.1 * a) + 0.2 * b for a, b in signs.T]
    assert flipped[1].tolist() == [0.3] * 4


@pytest.mark.parametrize("n", [1, 2, 3])
def test_apply_words_matches_the_dense_oracle_bit_for_bit(n):
    strings = _all_strings(n)
    rng = np.random.default_rng(90 + n)
    states = np.array([random_state(n, rng) for _ in range(3)])
    applied = apply_words(compile_words(strings), states)
    assert applied.shape == (3, 4**n, 2**n) and applied.flags.c_contiguous
    for t, string in enumerate(strings):
        # each row has one nonzero entry, 1, i, -1 or -i, so the product is exact
        expected = states @ pauli_word_matrix(string).T
        assert np.array_equal(applied[:, t], expected), string
    # one vector gives the rows of the stack
    assert np.array_equal(apply_words(compile_words(strings), states[1]), applied[1])


@pytest.mark.parametrize(
    "strings, odd",
    [
        (["XYZIXYZI", "ZZIIIIII", "IXIXIXIX"], False),
        (["XYZIXYZY", "YIIIIIII", "IIZZYYXX"], True),
    ],
    ids=["real", "complex"],
)
def test_apply_words_keeps_the_bits_of_a_gather_then_a_product(strings, odd):
    # a gather by np.take and an in-place product give the bytes of the
    # phases times a fancy-indexed gather, made C-ordered
    words = compile_words(strings)
    assert odd_words(words).any() == odd
    rng = np.random.default_rng(93)
    stack = rng.normal(size=(28, 256)) + 1j * rng.normal(size=(28, 256))
    source = np.arange(256) ^ words[:, :1]
    phases = _column_phases(words[:, 1:2], words[:, 2:], source)
    for amplitudes in (stack, stack[5]):
        for table in (words[:1], words):
            rows = len(table)
            expected = np.multiply(phases[:rows], amplitudes[..., source[:rows]], order="C")
            applied = apply_words(table, amplitudes)
            assert applied.flags.c_contiguous
            assert applied.tobytes() == expected.tobytes()


def test_a_one_word_gather_peaks_near_its_result():
    rng = np.random.default_rng(94)
    stack = rng.normal(size=(28, 256)) + 1j * rng.normal(size=(28, 256))
    word = compile_words(["XYZIXYZI"])
    apply_words(word, stack)  # numpy's one-time allocations
    tracemalloc.start()
    try:
        applied = apply_words(word, stack)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the result and numpy's ufunc buffer of 8192 entries; a gather, then a
    # product with order="C", peaked at 4.1 times
    assert peak < 2.5 * applied.nbytes
