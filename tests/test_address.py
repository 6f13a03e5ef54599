"""Exact-arithmetic addressing: IFS words, barycentric keys, level cells."""
import hashlib
import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (ZERO, apply_ifs, build_level_graph, key_coords, level_cells, level_keys,
                      level_columns, level_vertices, resolve_addresses, vertex_key, word_index)

from sglap import cli, decimation, mesh
from sglap.address import (
    DEFAULT_CORNERS,
    EventuallyConstantWord,
    check_letter,
    check_word,
    format_address,
    vertex_cells,
    vertex_index,
    word_from_string,
)
from sglap.errors import DomainError

words = st.lists(st.integers(0, 2), max_size=6).map(tuple)
letters = st.integers(0, 2)


def test_corners_are_ifs_fixed_points():
    for i in range(3):
        # (q + q) / 2 is exact in binary floating point
        assert np.array_equal(apply_ifs((i,) * 7, DEFAULT_CORNERS[i]), DEFAULT_CORNERS[i])


def test_vertex_count_formula():
    for m in range(6):
        assert len(set(level_cells(m))) == decimation.vertex_count(m) == (3 ** (m + 1) + 3) // 2


def test_degrees():
    # each cell gives each of its corners two edges, and no edge is in two cells
    degree = 2 * np.bincount(level_cells(4))
    assert set(degree[:3]) == {2}
    assert set(degree[3:]) == {4}


def test_boundary_is_first_three():
    # a boundary corner lies in one cell, every other vertex in two
    counts = np.bincount(level_cells(3))
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
        assert names == [format_address(w, c) for w, c in scalar]
        assert [list(vertex_key(w, c, m)) for w, c in scalar] == keys


def _lines(keys) -> tuple:
    """The lattice lines 2 n_1 + n_2 and n_2 of each key."""
    _, n1, n2 = np.asarray(keys).T
    return (2 * n1 + n2).tolist(), n2.tolist()


@pytest.mark.parametrize("m", range(10))
def test_segments_at_every_depth_match_the_table_and_scalar(m):
    # at every subtree size, walk, addresses, points and cells split the
    # level into the same parts, and the first three alike part by part;
    # joined, the addresses spell the scalar addresses of the level's keys
    # and the points their lattice lines; the parts of cells, joined, are
    # the level graph's cells, and part i holds the cells of subtree i,
    # whose vertices but its three corners are the ones walk's part i adds
    keys = level_keys(m)
    scalar = [resolve_addresses(tuple(k), m)[0] for k in keys.tolist()]
    assert [list(vertex_key(w, c, m)) for w, c in scalar] == keys.tolist()
    lines = [list(range(2 ** (m + 1) + 1)), list(range(2 ** m + 1))]
    for levels in range(1, m + 2):
        added = decimation.vertex_count(min(levels, m)) - 3
        with mock.patch.object(mesh, "SUBTREE_LEVELS", levels):
            names, xs, ys = level_columns(m, lines)
            sizes = [len(part) for part in mesh.walk(ZERO, m)]
            assert [len(part) for part in mesh.addresses(m)] == sizes, levels
            assert [tuple(map(len, part)) for part in mesh.points(m, lines)] == \
                [(n, n) for n in sizes], levels
            parts = list(mesh.cells(m))
        assert names == [format_address(w, c) for w, c in scalar], levels
        assert (xs, ys) == _lines(keys), levels
        assert [v for part in parts for v in part] == \
            build_level_graph(m).cells.ravel().tolist(), levels
        assert len(parts) == len(sizes), levels
        for part, end in zip(parts, itertools.accumulate(sizes)):
            assert sorted(set(part))[3:] == list(range(end - added, end)), (levels, end)


# sha256 over name, dtype, shape and bytes of the six arrays a level graph
# once stored (keys, coords, cells, births, words, letters), computed by the
# key-packing and greedy-descent construction that the numpy glue replaced
# (L0-L10) and by that glue before it glued keys and births copy by copy
# (L11-L12); the cells are now those of mesh.cells
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


def _pinned_arrays(m):
    """The six pinned arrays, rebuilt from the cells that mesh.cells yields
    (as int32, as they were stored), the keys and the addresses that the
    level's walk spells: the birth level is the position of ':', the word
    the digits before it (-1 past it) and the corner letter the digit after
    it."""
    keys, names = level_vertices(m)
    births = np.array([name.index(":") for name in names], dtype=np.int64)
    words = np.full((len(names), m), -1, dtype=np.int8)
    for row, name in enumerate(names):
        words[row, :births[row]] = [int(c) for c in name[:births[row]]]
    letters = np.array([int(name[-1]) for name in names], dtype=np.int8)
    cells = np.array(level_cells(m), dtype=np.int32).reshape(-1, 3)
    return {"keys": keys, "coords": key_coords(keys, m), "cells": cells,
            "births": births, "words": words, "letters": letters}


@pytest.mark.parametrize("m", sorted(LEVEL_GRAPH_SHA256))
def test_level_graph_is_pinned(m):
    digest = hashlib.sha256()
    for name, arr in _pinned_arrays(m).items():
        digest.update(f"{name} {arr.dtype.str} {arr.shape}".encode())
        digest.update(np.ascontiguousarray(arr).tobytes())
    assert digest.hexdigest() == LEVEL_GRAPH_SHA256[m]


def test_address_ranges_match_scalar_across_blocks():
    # every part of addresses at any subtree size, and every 97-row piece
    # of one, spells the scalar addresses of its rows
    m = 6
    scalar = [format_address(*resolve_addresses(tuple(k), m)[0]) for k in level_keys(m).tolist()]
    for levels in range(1, m + 2):
        rows, lo = [], 0
        with mock.patch.object(mesh, "SUBTREE_LEVELS", levels):
            for part in mesh.addresses(m):
                assert part == scalar[lo:lo + len(part)], (levels, lo)
                lo += len(part)
                rows += sum((part[a:a + 97] for a in range(0, len(part), 97)), [])
        assert rows == scalar, levels


@pytest.mark.parametrize("m", [8, 9, 10])
def test_vertex_ranges_equal_slices_of_the_whole(m):
    # each part of walk, addresses and points with subtrees of 8 to 5
    # levels is the slice of the whole level where it starts: the vertices
    # of V_depth before a subtree's, their V_depth keys scaled, then the
    # |V_S| - 3 the subtree adds
    keys = level_keys(m)
    names = [format_address(*resolve_addresses(tuple(k), m)[0]) for k in keys.tolist()]
    n = decimation.vertex_count(m - 1) - 3
    assert [names[i] for i in (3, 4, 5 + n)] == ["0:1", "0:2", "1:2"]
    lines = [list(range(2 ** (m + 1) + 1)), list(range(2 ** m + 1))]
    for levels in range(5, 9):
        depth, added = m - levels, decimation.vertex_count(levels) - 3
        parts, lo, top = [], 0, []
        with mock.patch.object(mesh, "SUBTREE_LEVELS", levels):
            for values, part, xy in zip(mesh.walk(ZERO, m), mesh.addresses(m),
                                        mesh.points(m, lines)):
                hi = lo + len(part)
                assert part == names[lo:hi], (levels, lo)
                assert xy == _lines(keys[lo:hi]), (levels, lo)
                assert len(values) == hi - lo >= added
                top += keys[lo:hi - added].tolist()
                parts.append(hi - lo)
                lo = hi
        assert lo == keys.shape[0] and len(parts) == 3 ** depth
        assert sorted(top) == sorted((level_keys(depth) << levels).tolist())


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10).flatmap(lambda m: st.tuples(st.just(m), st.integers(1, m + 1))),
       st.sampled_from([97, 256, 1024, 4096]))
def test_vertex_ranges_are_taken_as_slices(walk, block_rows):
    # eval cuts each part into blocks of at most BLOCK_ROWS rows: every
    # block's rows are the slice of the whole level where it lies
    m, levels = walk
    keys, names = level_vertices(m)
    lines = [list(range(2 ** (m + 1) + 1)), list(range(2 ** m + 1))]
    lo = 0
    with mock.patch.object(cli, "BLOCK_ROWS", block_rows), \
            mock.patch.object(mesh, "SUBTREE_LEVELS", levels):
        for part, (xs, ys) in zip(mesh.addresses(m), mesh.points(m, lines)):
            for a, b in cli._row_ranges(len(part)):
                assert part[a:b] == names[lo + a:lo + b]
                assert (xs[a:b], ys[a:b]) == _lines(keys[lo + a:lo + b])
            lo += len(part)
    assert lo == len(names)


@pytest.mark.parametrize("level", range(9))
def test_corners_lie_in_one_cell_and_every_other_vertex_in_two(level):
    # every vertex after the corners is a corner of two cells, which the walk
    # gives it as one midpoint
    counts = np.bincount(level_cells(level))
    assert counts.tolist() == [1, 1, 1] + [2] * (counts.size - 3)


def test_cells_are_in_word_order():
    cells = level_cells(2)
    for word in itertools.product((0, 1, 2), repeat=2):
        i = 3 * word_index(word)
        assert [vertex_index(word, corner, 2) for corner in range(3)] == cells[i:i + 3]


def test_eventually_constant_word_parse_and_canonical_form():
    w = EventuallyConstantWord.parse("120:1")
    assert w.prefix == (1, 2, 0) and w.tail == 1
    assert str(w) == "120:1"
    # tail repeats get stripped off the prefix
    w = EventuallyConstantWord((1, 2, 2), 2)
    assert (w.prefix, w.tail) == ((1,), 2) and str(w) == "1:2"
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


def test_letters_are_integers_or_digit_strings():
    assert check_word("012") == check_word(("0", 1, np.int64(2))) == (0, 1, 2)
    assert check_letter("2") == check_letter(np.int8(2)) == 2
    assert type(check_letter(np.int64(1))) is int


@pytest.mark.parametrize("fn, args", [
    (check_word, ((0.9, 1.5),)),
    (check_word, ((0, 1.0),)),
    (check_word, (("1", "x"),)),
    (check_letter, (2.7,)),
    (check_letter, (np.float64(1.0),)),
    (check_letter, (None,)),
    (vertex_index, ((0.5,), 1.9, 2)),
    (EventuallyConstantWord, ((0,), 1.5)),
])
def test_a_letter_that_is_no_integer_is_refused_not_truncated(fn, args):
    # int() truncates 0.9, 1.5, 2.7 and 1.9 to letters 0, 1, 2 and 1
    with pytest.raises(DomainError, match="integer or an ASCII digit string"):
        fn(*args)


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
        next(mesh.cells(-1))
    with pytest.raises(DomainError, match="exceeds cap"):
        next(mesh.cells(decimation.max_level() + 1))
