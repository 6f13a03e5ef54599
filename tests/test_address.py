"""Exact-arithmetic addressing: IFS words, barycentric keys, level graphs."""
import copy
import hashlib
import itertools
import pickle
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (apply_ifs, level_vertices, resolve_addresses, stream_positions, vertex_key,
                      word_index)

from sglap import address, cli, decimation
from sglap.address import (
    DEFAULT_CORNERS,
    EventuallyConstantWord,
    addresses,
    build_level_graph,
    format_address,
    vertex_cells,
    vertex_index,
    word_from_string,
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
        assert vertex_index((), i, 3) == i


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
    for i, key in enumerate(map(tuple, level_vertices(3)[0])):
        assert len(resolve_addresses(key, 3)) == (1 if i < 3 else 2)


def test_vertex_index_finds_every_address():
    for m in range(5):
        keys = level_vertices(m)[0]
        for n in range(m + 1):
            for word in itertools.product((0, 1, 2), repeat=n):
                for letter in range(3):
                    i = vertex_index(word, letter, m)
                    assert tuple(keys[i]) == vertex_key(word, letter, m)
    with pytest.raises(DomainError):
        vertex_index((0, 1, 2), 0, 2)  # word longer than the level
    with pytest.raises(DomainError):
        vertex_index((0,), 3, 2)
    with pytest.raises(DomainError):
        vertex_index((0, 5), 1, 2)


@pytest.mark.parametrize("m", range(8))
def test_scalar_lookups_match_the_level_graph(m):
    # vertex_index runs the glue rule for one vertex and vertex_cells runs it
    # backwards; the level graph glues whole copies
    g = build_level_graph(m)
    cells = [[vertex_index(word, i, m) for i in range(3)]
             for word in itertools.product((0, 1, 2), repeat=m)]
    assert cells == g.cells.tolist()
    for v in range(g.size):
        found = [[word_index(word), corner] for word, corner in vertex_cells(v, m)]
        assert found == np.argwhere(g.cells == v).tolist(), v
    with pytest.raises(DomainError):
        vertex_cells(g.size, m)


def test_array_addressing_matches_scalar():
    for m in range(9):
        keys, names = level_vertices(m)
        keys = keys.tolist()
        scalar = [resolve_addresses(tuple(k), m)[0] for k in keys]
        # vertex order is the scalar canonical order, and the graph carries it
        assert keys == sorted(keys, key=lambda k: resolve_addresses(tuple(k), m)[0])
        assert addresses(names) == [format_address(w, c) for w, c in scalar]
        assert [list(vertex_key(w, c, m)) for w, c in scalar] == keys


@pytest.mark.parametrize("m", range(9))
def test_segments_at_every_depth_match_the_table_and_scalar(m):
    # the table glues whole levels; a walk of any depth composes its rows
    # from a smaller table's, each subtree's word in front, with the
    # vertices of V_depth between the subtrees
    keys, names = address._vertex_table(m)
    scalar = [resolve_addresses(tuple(k), m)[0] for k in keys.tolist()]
    assert [list(vertex_key(w, c, m)) for w, c in scalar] == keys.tolist()
    assert addresses(names) == [format_address(w, c) for w, c in scalar]
    for depth in range(m + 1):
        composed_keys, composed_names = level_vertices(m, depth)
        assert np.array_equal(composed_keys, keys), depth
        assert np.array_equal(composed_names, names), depth


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
    """The six pinned arrays, rebuilt from the cells and the keys and address
    bytes that the level's subtree walk composes: the birth level is the
    column of ':', the word the digits before it (-1 past it) and the corner
    letter the digit after it."""
    keys, names = level_vertices(g.level)
    rows = np.arange(g.size)
    births = (names == ord(":")).argmax(axis=1)
    digits = names.astype(np.int8) - ord("0")
    words = np.where(np.arange(g.level) < births[:, None], digits[:, :g.level], -1)
    letters = digits[rows, births + 1]
    return {"keys": keys, "coords": address.key_coords(keys, g.level), "cells": g.cells,
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
    # every run of a walk of any depth, and every 97-row piece of one,
    # spells the scalar addresses of its rows
    m = 6
    scalar = [format_address(*resolve_addresses(tuple(k), m)[0])
              for k in address._vertex_table(m)[0].tolist()]
    for depth in range(m + 1):
        rows, walk = [], address._subtree_walk(m, depth)
        for lo, _, names, _ in walk.rows(stream_positions(walk)):
            assert addresses(names) == scalar[lo:lo + len(names)], (depth, lo)
            rows += sum((addresses(names[a:a + 97]) for a in range(0, len(names), 97)), [])
        assert rows == scalar, depth


def test_level_graph_build_peak_memory():
    # the L10 build peaks at 2.0 MB under tracemalloc (numpy 2.4), since it
    # glues cells only
    tracemalloc.start()
    try:
        address._build_level_graph.__wrapped__(10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 7e6


def test_level_graph_keeps_only_its_cells():
    # the L10 build peaks at 2.0 MB under tracemalloc (numpy 2.4) and holds
    # its 0.71 MB of cells; with every vertex's keys and address bytes it
    # peaked at 5.3 MB and held 1.77 MB
    tracemalloc.start()
    try:
        g = address._build_level_graph.__wrapped__(10)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert address.LevelGraph.__slots__ == ("level", "cells")
    assert held < g.cells.nbytes + 4096
    assert peak < 2.6e6


@pytest.mark.parametrize("m", [8, 9, 10])
def test_vertex_ranges_equal_slices_of_the_whole(m):
    # each run of the walks of depth 0 to 3 is the slice of the whole
    # table where it starts; a subtree's vertices come in three runs,
    # and the ones between the subtrees are the vertices of V_depth, scaled
    keys, names = address._vertex_table(m)
    n = decimation.vertex_count(m - 1) - 3
    assert addresses(names[[3, 4, 5 + n]]) == ["0:1", "0:2", "1:2"]
    for depth in range(4):
        walk = address._subtree_walk(m, depth)
        subtrees = [(start, start + walk.local.size - 3) for start in walk.layout[:, 3].tolist()]
        parts, top = [], []
        for lo, part_keys, part_names, _ in walk.rows(stream_positions(walk)):
            hi = lo + len(part_keys)
            assert np.array_equal(part_keys, keys[lo:hi]), (depth, lo)
            assert np.array_equal(part_names, names[lo:hi]), (depth, lo)
            assert part_names.shape == (hi - lo, m + 2)
            inside = [i for i, (a, b) in enumerate(subtrees) if a <= lo and hi <= b]
            if inside:
                parts += inside
            else:
                top += part_keys.tolist()
        assert parts == sorted(3 * list(range(len(subtrees))))
        assert sorted(top) == sorted((level_vertices(depth)[0] << (m - depth)).tolist())


@settings(max_examples=25, deadline=None)
@given(st.integers(7, 10).flatmap(lambda m: st.tuples(st.just(m), st.integers(0, m - 6))),
       st.sampled_from([97, 1024, 4096]))
def test_vertex_ranges_are_taken_as_slices(walk, block_rows):
    # eval cuts each run into blocks of at most BLOCK_ROWS rows: every
    # block's rows are the slice of the whole level where it lies
    m, depth = walk
    keys, names = address._vertex_table(m)
    walk = address._subtree_walk(m, depth)
    with mock.patch.object(cli, "BLOCK_ROWS", block_rows):
        for lo, part_keys, part_names, _ in walk.rows(stream_positions(walk)):
            for a, b in cli._row_ranges(len(part_keys)):
                assert np.array_equal(part_keys[a:b], keys[lo + a:lo + b])
                assert addresses(part_names[a:b]) == addresses(names[lo + a:lo + b])


@pytest.mark.parametrize("level", range(9))
def test_corners_lie_in_one_cell_and_every_other_vertex_in_two(level):
    # harmonic.cell_values_to_vertex halves every vertex after the corners
    counts = np.bincount(build_level_graph(level).cells.ravel())
    assert counts.tolist() == [1, 1, 1] + [2] * (counts.size - 3)


def test_cells_are_in_word_order():
    g = build_level_graph(2)
    for word in itertools.product((0, 1, 2), repeat=2):
        row = g.cells[word_index(word)]
        assert [vertex_index(word, i, 2) for i in range(3)] == list(row)


def test_eventually_constant_word_parse_and_canonical_form():
    w = EventuallyConstantWord.parse("120:1")
    assert w.prefix == (1, 2, 0) and w.tail == 1
    assert str(w) == "120:1"
    # tail repeats get stripped off the prefix
    assert EventuallyConstantWord((1, 2, 2), 2) == EventuallyConstantWord((1,), 2)
    assert str(EventuallyConstantWord.parse(":0")) == ":0"


def test_eventually_constant_word_is_an_immutable_hashable_value():
    w, same = EventuallyConstantWord((1, 2, 2), 2), EventuallyConstantWord((1,), 2)
    assert hash(w) == hash(same) and len({w, same, EventuallyConstantWord.parse("1:2")}) == 1
    assert w != EventuallyConstantWord((1,), 0) and w != ((1,), 2)
    assert repr(w) == "EventuallyConstantWord(prefix=(1,), tail=2)"
    assert repr(EventuallyConstantWord.parse(":0")) == "EventuallyConstantWord(prefix=(), tail=0)"
    for field, value in (("prefix", (0,)), ("tail", 1)):
        with pytest.raises(AttributeError):
            setattr(w, field, value)
        with pytest.raises(AttributeError):
            delattr(w, field)
    assert (w.prefix, w.tail) == ((1,), 2)
    assert copy.deepcopy(w) == pickle.loads(pickle.dumps(w)) == w


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
