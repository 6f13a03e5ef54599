"""Exact-arithmetic addressing: IFS words, barycentric keys, level graphs."""
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sglap import address
from sglap.address import (
    DEFAULT_CORNERS,
    MAX_SORT_CODE_LEVEL,
    EventuallyConstantWord,
    address_sort_code,
    apply_ifs,
    build_level_graph,
    canonical_address,
    canonical_address_arrays,
    format_address,
    resolve_addresses,
    vertex_key,
    word_from_string,
    word_index,
)
from sglap.errors import DomainError, LevelCapError

words = st.lists(st.integers(0, 2), max_size=6).map(tuple)
letters = st.integers(0, 2)


def test_corners_are_ifs_fixed_points():
    for i in range(3):
        # (q + q) / 2 is exact in binary floating point
        assert np.array_equal(apply_ifs((i,) * 7, DEFAULT_CORNERS[i]), DEFAULT_CORNERS[i])


def test_vertex_count_formula():
    for m in range(6):
        assert build_level_graph(m).size == (3 ** (m + 1) + 3) // 2


def test_degrees():
    g = build_level_graph(4)
    # each cell gives each of its corners two edges, and no edge is in two cells
    degree = 2 * np.bincount(g.cells.ravel())
    assert set(degree[:3]) == {2}
    assert set(degree[3:]) == {4}


def test_boundary_is_first_three():
    g = build_level_graph(3)
    # a boundary corner lies in one cell, every other vertex in two
    counts = np.bincount(g.cells.ravel())
    assert counts[:3].tolist() == [1, 1, 1]
    assert (counts[3:] == 2).all()
    for i in range(3):
        assert g.index_of((), i) == i


@given(words, letters)
def test_key_sums_to_power_of_two(word, letter):
    m = len(word)
    key = vertex_key(word, letter, m)
    assert sum(key) == 2**m
    assert vertex_key(word, letter, m + 2) == tuple(4 * n for n in key)


@given(words, letters)
def test_key_matches_float_coordinates(word, letter):
    m = len(word)
    exact = np.array(vertex_key(word, letter, m), dtype=float) @ DEFAULT_CORNERS / 2.0**m
    assert np.allclose(apply_ifs(word, DEFAULT_CORNERS[letter]), exact, atol=1e-12)


@given(words, letters)
def test_canonical_address_round_trip(word, letter):
    m = len(word)
    key = vertex_key(word, letter, m)
    cword, cletter = canonical_address(key, m)
    assert vertex_key(cword, cletter, m) == key
    assert len(cword) <= m


def test_junctions_have_exactly_two_addresses():
    g = build_level_graph(3)
    for i, key in enumerate(map(tuple, g.keys)):
        assert len(resolve_addresses(key, 3)) == (1 if i < 3 else 2)


def test_index_of_finds_every_address():
    for m in range(5):
        g = build_level_graph(m)
        for n in range(m + 1):
            for word in itertools.product((0, 1, 2), repeat=n):
                for letter in range(3):
                    i = g.index_of(word, letter)
                    assert tuple(g.keys[i]) == vertex_key(word, letter, m)
    g = build_level_graph(2)
    with pytest.raises(DomainError):
        g.index_of((0, 1, 2), 0)  # word longer than the level
    with pytest.raises(DomainError):
        g.index_of((0,), 3)
    with pytest.raises(DomainError):
        g.index_of((0, 5), 1)


def _array_addresses(keys, level):
    births, words, letters = canonical_address_arrays(keys, level)
    out = [(tuple(c for c in row if c >= 0), letter)
           for row, letter in zip(words.tolist(), letters.tolist())]
    assert [len(word) for word, _ in out] == births.tolist()
    return out


def test_array_addressing_matches_scalar():
    for m in range(9):
        g = build_level_graph(m)
        keys = g.keys.tolist()
        scalar = [resolve_addresses(tuple(k), m)[0] for k in keys]
        assert _array_addresses(g.keys, m) == scalar
        # vertex order is the scalar canonical order, and the graph carries it
        assert keys == sorted(keys, key=lambda k: canonical_address(tuple(k), m))
        assert g.addresses() == [format_address(w, c) for w, c in scalar]
        assert [list(vertex_key(w, c, m)) for w, c in scalar] == keys


def test_address_ranges_match_scalar_across_blocks():
    m = 6
    g = build_level_graph(m)
    scalar = [format_address(*canonical_address(tuple(k), m)) for k in g.keys.tolist()]
    n = g.size
    for lo, hi in [(0, 0), (0, 1), (0, 3), (2, 4), (3, 100), (99, 101), (100, 1000),
                   (n - 1, n), (0, n), (n, n)]:
        assert g.addresses(lo, hi) == scalar[lo:hi]
    assert sum((g.addresses(lo, lo + 97) for lo in range(0, n, 97)), []) == scalar


def test_level_graph_build_peak_memory():
    tracemalloc.start()
    try:
        address._build_level_graph.__wrapped__(10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 15e6


@given(words, letters, st.integers(0, 4))
def test_array_addressing_of_lifted_keys(word, letter, j):
    level = len(word) + j
    key = vertex_key(word, letter, level)
    assert _array_addresses([key], level) == [canonical_address(key, level)]


def test_sort_code_orders_like_tuples_up_to_its_level_cap():
    m = MAX_SORT_CODE_LEVEL
    pairs = [((), 0), ((), 2), ((0,), 1), ((0,) * m, 2), ((1,), 0), ((2,) * (m - 1) + (1,), 2),
             ((2,) * m, 1), ((2,) * m, 2)]
    assert pairs == sorted(pairs)
    mat = np.array([list(w) + [-1] * (m - len(w)) for w, _ in pairs], dtype=np.int8)
    codes = address_sort_code(mat, np.array([c for _, c in pairs], dtype=np.int8))
    assert (np.diff(codes) > 0).all()
    assert codes[-1] == 4 ** (m + 1) - 2  # the largest code: no int64 overflow
    births, words, letters = canonical_address_arrays([(1 << (m + 1), 0, 0)], m + 1)
    with pytest.raises(DomainError):
        address_sort_code(words, letters)


def test_array_addressing_rejects_non_vertices():
    with pytest.raises(DomainError):
        canonical_address_arrays([(3, 3, 2)], 3)  # sums to 8 but lies in no 1-cell
    with pytest.raises(DomainError):
        canonical_address_arrays([(1, 1, 1)], 2)


def test_cells_are_in_word_order():
    g = build_level_graph(2)
    for word in itertools.product((0, 1, 2), repeat=2):
        row = g.cells[word_index(word)]
        assert [g.index_of(word, i) for i in range(3)] == list(row)


def test_eventually_constant_word_parse_and_canonical_form():
    w = EventuallyConstantWord.parse("120:1")
    assert w.prefix == (1, 2, 0) and w.tail == 1
    assert str(w) == "120:1"
    # tail repeats get stripped off the prefix
    assert EventuallyConstantWord((1, 2, 2), 2) == EventuallyConstantWord((1,), 2)
    assert str(EventuallyConstantWord.parse(":0")) == ":0"


def test_eventually_constant_word_letters_and_point():
    w = EventuallyConstantWord.parse("01:2")
    assert [w.letter(j) for j in range(1, 6)] == [0, 1, 2, 2, 2]
    assert w.truncation(4) == (0, 1, 2, 2)
    assert np.allclose(w.point(), apply_ifs((0, 1), DEFAULT_CORNERS[2]))
    with pytest.raises(DomainError):
        w.letter(0)


@pytest.mark.parametrize("text", ["\u00b2", "0\u00b2", "\uff11", "1\u0661"])
def test_words_take_ascii_digits_only(text):
    # str.isdigit holds for superscripts, fullwidth and Arabic-Indic digits
    with pytest.raises(DomainError):
        word_from_string(text)
    with pytest.raises(DomainError):
        EventuallyConstantWord.parse(f"{text}:1")
    with pytest.raises(DomainError):
        EventuallyConstantWord.parse(f"1:{text[-1]}")


def test_malformed_inputs():
    with pytest.raises(DomainError):
        word_from_string("013")
    with pytest.raises(DomainError):
        EventuallyConstantWord.parse("12")
    with pytest.raises(DomainError):
        EventuallyConstantWord((0,), 3)
    with pytest.raises(DomainError):
        vertex_key((0, 1), 2, 1)  # level below word length
    with pytest.raises(DomainError):
        vertex_key((0, 1), 5, 2)


def test_level_caps():
    with pytest.raises(DomainError):
        build_level_graph(-1)
    with pytest.raises(LevelCapError):
        build_level_graph(address.max_level() + 1)
