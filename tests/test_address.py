"""Exact-arithmetic addressing: IFS words, barycentric keys, level graphs."""
import hashlib
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import apply_ifs, resolve_addresses, vertex_key

from sglap import address, decimation
from sglap.address import (
    DEFAULT_CORNERS,
    EventuallyConstantWord,
    build_level_graph,
    format_address,
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
    cword, cletter = resolve_addresses(key, m)[0]
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


def test_array_addressing_matches_scalar():
    for m in range(9):
        g = build_level_graph(m)
        keys = g.keys.tolist()
        scalar = [resolve_addresses(tuple(k), m)[0] for k in keys]
        # vertex order is the scalar canonical order, and the graph carries it
        assert keys == sorted(keys, key=lambda k: resolve_addresses(tuple(k), m)[0])
        assert g.addresses() == [format_address(w, c) for w, c in scalar]
        assert [list(vertex_key(w, c, m)) for w, c in scalar] == keys


# sha256 over name, dtype, shape and bytes of the six arrays a LevelGraph once
# stored (keys, coords, cells, births, words, letters), computed by the
# key-packing and greedy-descent construction this one replaced (L0-L10) and
# by this one before it glued keys and births copy by copy (L11-L12)
LEVEL_GRAPH_SHA256 = {
    0: "baddbaad86eff6de2c8864fe35c91526fa80df05506852426fda2fa58d0752d0",
    1: "dc33c8953937ff549e8fca91e3d33863383825dcfe185c7b7ba997ffd98d4b4c",
    2: "614c3960677af4b8675710f0dcbd04df9a9086b139e94559119611430b6ab2cf",
    3: "a3e5436f539e0bc8161a03b30a35d927aa1cc73c3baeb78adbd286d205adcd28",
    4: "7c2085860490dfa91d5184e9eef9ddd80f80da20b5d593943db6a12a57d0b4da",
    5: "2e7a5e53898ee99e1e83521c7b908e96b5ee9eff8212c84641d2d17f0e03d1bd",
    6: "3fe8e7133436ab669340d6a19351e8c2fdd24e2b590c43eb1e14ff40d5cd57c7",
    7: "0fd26c71fa588badec7ccb68993ac7f558eeaa9c61d40add6137b2c83401475d",
    8: "0b859aadfdfc147d80065dcbf2073c3aaeb9f595ff492800c6044fdbc1c07f4b",
    9: "ba839f1c015155716b1e2db32b0acf59d29f2e0d45b7f440333160fcfb0676b0",
    10: "0d589bfde3d6534928a6e3dfda606c5c1d2214e51a6fd4e6d7a17a6322dbcae0",
    11: "c47667fb275a0e62a0e9a0bcfafacde0a4e17f3b98f9aae1ebdcf078fbd5a8d8",
    12: "913519aec44847892603faec64d4a5f84b26957ff80ea61685e39cb7e2a15496",
}


def _pinned_arrays(g):
    """The six pinned arrays, rebuilt from keys, cells and the address bytes:
    the birth level is the column of ':', the word the digits before it (-1
    past it) and the corner letter the digit after it."""
    rows = np.arange(g.size)
    births = (g.names == ord(":")).argmax(axis=1)
    digits = g.names.astype(np.int8) - ord("0")
    words = np.where(np.arange(g.level) < births[:, None], digits[:, :g.level], -1)
    letters = digits[rows, births + 1]
    return {"keys": g.keys, "coords": address.key_coords(g.keys, g.level), "cells": g.cells,
            "births": births.astype(np.int64), "words": words.astype(np.int8),
            "letters": letters}


@pytest.mark.parametrize("m", sorted(LEVEL_GRAPH_SHA256))
def test_level_graph_is_pinned(m):
    digest = hashlib.sha256()
    for name, arr in _pinned_arrays(build_level_graph(m)).items():
        digest.update(f"{name} {arr.dtype.str} {arr.shape}".encode())
        digest.update(np.ascontiguousarray(arr).tobytes())
    assert digest.hexdigest() == LEVEL_GRAPH_SHA256[m]


def test_address_ranges_match_scalar_across_blocks():
    m = 6
    g = build_level_graph(m)
    scalar = [format_address(*resolve_addresses(tuple(k), m)[0]) for k in g.keys.tolist()]
    n = g.size
    for lo, hi in [(0, 0), (0, 1), (0, 3), (2, 4), (3, 100), (99, 101), (100, 1000),
                   (n - 1, n), (0, n), (n, n)]:
        assert g.addresses(lo, hi) == scalar[lo:hi]
    assert sum((g.addresses(lo, lo + 97) for lo in range(0, n, 97)), []) == scalar


def test_level_graph_build_peak_memory():
    # the L10 build peaks at 5.3 MB under tracemalloc (numpy 2.4); the
    # largest arrays are the last step's keys and address bytes
    tracemalloc.start()
    try:
        address._build_level_graph.__wrapped__(10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 7e6


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
    # every truncation past the prefix maps q_2 to the same point, F_01(q_2)
    point = apply_ifs((0, 1), DEFAULT_CORNERS[2])
    for k in range(2, 6):
        assert np.array_equal(apply_ifs(w.truncation(k), DEFAULT_CORNERS[2]), point)
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
        build_level_graph(decimation.max_level() + 1)
