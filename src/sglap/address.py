"""Addresses, vertices and level graphs of the Sierpinski gasket.

The gasket is the attractor of F_i(x) = (x + q_i)/2 for the three corners
q_0, q_1, q_2 of a triangle; a word w = w_1...w_m addresses the cell
F_w = F_{w_1} o ... o F_{w_m}.  Every vertex of the level-m graph is
F_w(q_i) for some |w| = m and carries exact barycentric coordinates
(n_0, n_1, n_2) with n_0 + n_1 + n_2 = 2^m; canonical addressing runs on
these -- floats never enter.

One vertex is looked up without a graph: vertex_index runs the glue rule
below for a single vertex, level by level, and vertex_cells runs it
backwards.  numpy is imported by the functions that build whole levels, so
that a single-point computation does not load it.

The level-m graph is the union of its three images F_j V_{m-1}, glued at
the level-1 junctions, so its cells are built one level at a time from V_0:
each vertex's canonical address is its copy's letter prepended to the
address it had one level up, and the canonical vertex order falls out of
the gluing.  A deep level is taken one subtree at a time (SubtreeWalk),
without the level's graph: its cells, and its vertices' keys and addresses,
which each subtree takes from three copies of one small level's.
"""
from __future__ import annotations

import math
from functools import lru_cache

from .decimation import check_level, vertex_count
from .errors import DomainError, InvariantError

Word = tuple  # letters in {0, 1, 2}

DEFAULT_CORNERS = ((0.0, 0.0), (1.0, 0.0), (0.5, math.sqrt(3.0) / 2.0))


def check_word(word) -> Word:
    word = tuple(int(c) for c in word)
    if any(c not in (0, 1, 2) for c in word):
        raise DomainError(f"word letters must be 0, 1 or 2: {word!r}")
    return word


def check_letter(letter) -> int:
    letter = int(letter)
    if letter not in (0, 1, 2):
        raise DomainError(f"letter must be 0, 1 or 2: {letter!r}")
    return letter


def _is_ascii_digits(text: str) -> bool:
    # str.isdigit alone also admits superscripts and other scripts' digits
    return text.isascii() and text.isdigit()


def word_from_string(text: str) -> Word:
    if text == "":
        return ()
    if not _is_ascii_digits(text):
        raise DomainError(f"malformed word {text!r}")
    return check_word(text)


def format_address(word, letter) -> str:
    return "".join(str(c) for c in word) + ":" + str(letter)


class Frozen:
    """Base of the record classes: plain __slots__ classes, not dataclasses,
    so that no subcommand imports dataclasses.  The fields are set once, in
    __slots__ order, by __init__; assigning or deleting one afterwards
    raises AttributeError, as it does on a frozen dataclass."""

    __slots__ = ()

    def __init__(self, *fields):
        for name, value in zip(self.__slots__, fields, strict=True):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copy and pickle rebuild the record through __init__
        return self.__class__, tuple(getattr(self, name) for name in self.__slots__)


class EventuallyConstantWord(Frozen):
    """Infinite word prefix . tail tail tail ... addressing a single point.

    Canonical form strips tail letters off the end of the prefix, so the
    prefix never ends with the tail letter.  Junction points have exactly two
    such addresses; boundary q_i is (), i.  Words are equal, and hash alike,
    when their canonical forms are.
    """

    __slots__ = ("prefix", "tail")

    def __init__(self, prefix, tail):
        prefix, tail = check_word(prefix), check_letter(tail)
        while prefix and prefix[-1] == tail:
            prefix = prefix[:-1]
        super().__init__(prefix, tail)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.prefix, self.tail) == (other.prefix, other.tail)

    def __hash__(self) -> int:
        return hash((self.prefix, self.tail))

    def __repr__(self) -> str:
        return f"EventuallyConstantWord(prefix={self.prefix!r}, tail={self.tail!r})"

    @classmethod
    def parse(cls, text: str) -> "EventuallyConstantWord":
        head, sep, tail = text.partition(":")
        if not sep or len(tail) != 1 or not _is_ascii_digits(tail):
            raise DomainError(f"expected 'prefix:tail', got {text!r}")
        return cls(word_from_string(head), int(tail))

    def letter(self, j: int) -> int:
        """1-indexed j-th letter."""
        if j < 1:
            raise DomainError("letter positions are 1-indexed")
        return self.prefix[j - 1] if j <= len(self.prefix) else self.tail

    def truncation(self, k: int) -> Word:
        return tuple(self.letter(j) for j in range(1, k + 1))

    def __str__(self) -> str:
        return format_address(self.prefix, self.tail)


class _Level(Frozen):
    """V_level's vertices in canonical address order: corners 0, 1, 2 first."""

    __slots__ = ()

    @property
    def size(self) -> int:
        return vertex_count(self.level)


class LevelGraph(_Level):
    """The graph on V_m as its cells: cells[c, i] is the vertex F_w(q_i) for
    the word w of length m whose base-3 digits spell c.  Every edge lies in
    exactly one m-cell, so the cell triples are the whole graph;
    vertex_index looks up one vertex without them.

        cells  (3**level, 3) int32
    """

    __slots__ = ("level", "cells")


class SubtreeWalk(_Level):
    """V_level as its 3**depth subtrees F_w V_{level-depth}, one per
    depth-cell w in cell order, which meet only at the vertices of V_depth.
    The vertices a subtree adds beyond its three corners lie in it alone and
    take one contiguous range of V_level, in V_{level-depth}'s order, so
    that the level's cells and vertices, and anything summed over them, can
    be taken one subtree at a time without the level's graph:

        top     the LevelGraph of V_depth, one cell per subtree
        local   the LevelGraph of V_{level-depth}, every subtree's shape
        layout  (3**depth, 4) int64: the positions in V_level of F_w(q_0),
                F_w(q_1), F_w(q_2) and of the first vertex subtree w adds
    """

    __slots__ = ("level", "top", "local", "layout")

    def positions(self):
        """Each subtree's V_level positions of the vertices of
        V_{level-depth}, in its order, one subtree at a time."""
        import numpy as np

        added = np.arange(-3, self.local.size - 3)
        for row in self.layout.tolist():
            out = added + row[3]
            out[:3] = row[:3]
            yield out

    def faces(self):
        """The level's cells, LevelGraph.cells in its order, one subtree's
        3**(level - depth) rows at a time."""
        for positions in self.positions():
            yield positions[self.local.cells]

    def corners_between(self) -> list:
        """The vertices of V_depth in V_level order, cut where the subtrees'
        ranges start: for each subtree, in cell order, the (possibly empty)
        array of the V_depth vertices between the previous subtree's range
        and its own.  None comes after the last subtree's range."""
        import numpy as np

        at = np.empty(self.top.size, dtype=np.int64)
        at[self.top.cells] = self.layout[:, :3]
        order = np.argsort(at)
        return np.split(order, np.searchsorted(at[order], self.layout[:, 3]))[:-1]

    def segments(self):
        """V_level's vertices as (lo, keys, names) runs of rows lo.., in
        vertex order and in the form of _vertex_table: the vertices of
        V_depth between the subtrees (corners_between), with their V_depth
        keys scaled by 2^(level-depth) and their V_depth addresses, and the
        three copies of V_{level-depth-1} that each subtree w adds (_copy),
        moved by F_w."""
        import numpy as np

        depth, shift = self.top.level, self.level - self.top.level
        top_keys, top_names = _vertex_table(depth)
        if not shift:
            yield 0, top_keys, top_names
            return
        keys, names = _vertex_table(shift - 1)
        corner_keys = top_keys << shift
        corner_names = np.pad(top_names, ((0, 0), (0, shift)))
        # w's base-3 digits, and F_w's offset: the key of F_w(q_0) - q_0 / 2^depth
        words = np.arange(3 ** depth)[:, None] // 3 ** np.arange(depth - 1, -1, -1) % 3
        offsets = (top_keys[self.top.cells[:, 0]] - [1, 0, 0]) << shift
        lo = 0  # rows given so far
        for word, offset, between in zip(words, offsets, self.corners_between()):
            if len(between):
                yield lo, corner_keys[between], corner_names[between]
                lo += len(between)
            for j in range(3):
                part_keys, part_names = _copy(keys, names, j, ord("0") + word, offset)
                if len(part_keys):  # V_0's copy 2 adds nothing to V_1
                    yield lo, part_keys, part_names
                    lo += len(part_keys)


def addresses(names) -> list:
    """format_address of each row of address bytes from SubtreeWalk.segments."""
    import numpy as np

    # trailing NULs drop off numpy unicode strings
    return names.astype(np.uint32).view(f"U{names.shape[1]}").ravel().tolist()


def key_coords(keys, level: int) -> np.ndarray:
    """Planar points of barycentric numerators over 2**level: x = n_1 + n_2/2
    and y = n_2 sqrt(3)/2, both over 2**level.  Every step is exact but the
    one rounding of n_2 * sqrt(3)/2, so x takes the same bits for equal
    2 n_1 + n_2, and y for equal n_2; written elementwise, with no BLAS
    product."""
    import numpy as np

    _, n1, n2 = np.asarray(keys).T
    scale = float(1 << level)
    return np.stack([(n1 + n2 / 2) / scale, n2 * DEFAULT_CORNERS[2][1] / scale], axis=1)


def _glue(n: int):
    """The glue rule from V_{k-1}, with n interior vertices, to V_k:
    corners[j][i] is F_j(q_i) in V_k, and the interior of copy j (F_j of
    V_{k-1}'s interior, in its order) starts at first[j]."""
    return ((0, 3, 4), (3, 1, 5 + n), (4, 5 + n, 2)), (5, 6 + n, 6 + 2 * n)


def vertex_index(word, letter, level: int) -> int:
    """Position of F_word(q_letter) in V_level: corner `letter` of the level
    cell word + (letter, ..., letter), since F_letter fixes q_letter.  The
    glue rule applied to one vertex, from the deepest letter up, so that no
    level graph is built."""
    word, letter = check_word(word), check_letter(letter)
    if level < len(word):
        raise DomainError(f"level {level} below word length {len(word)}")
    v, n = letter, 0
    for j in reversed(word + (letter,) * (level - len(word))):
        corners, first = _glue(n)
        v = corners[j][v] if v < 3 else first[j] + v - 3
        n = 3 * n + 3
    return v


def vertex_cells(v: int, level: int) -> list:
    """The (word, corner) pairs, |word| = level, whose cell has vertex v of
    V_level at that corner, in cell order: one pair for a corner of V_0, two
    for any other vertex.  The glue rule run backwards, from the top level
    down, until v is a corner of the copy it lies in."""
    if not 0 <= v < vertex_count(level):
        raise DomainError(f"V_{level} has no vertex {v}")
    word, n = (), vertex_count(level - 1) - 3 if level else 0
    for k in range(level, 0, -1):
        corners, first = _glue(n)
        pairs = [(j, i) for j in range(3) for i in range(3) if corners[j][i] == v]
        if pairs:  # corner i of copy j, which stays corner i of every cell below
            return [(word + (j,) + (i,) * (k - 1), i) for j, i in pairs]
        j = 2 if v >= first[2] else 1 if v >= first[1] else 0
        word, v, n = word + (j,), 3 + v - first[j], (n - 3) // 3
    return [(word, v)]


def _copy(keys, names, j: int, head, offset):
    """Copy j of V_{k-1}'s rows (keys, names) in V_k, moved on by F_w: its
    rows from position j + 1 on (the earlier ones are V_k's corners or an
    earlier copy's).  F_j(x) = (x + q_j)/2 adds 2^(k-1) e_j to a key, F_w
    adds offset, and each puts its letters (head) before an address, which
    keeps it canonical."""
    import numpy as np

    out = np.empty((len(names) - j - 1, len(head) + 1 + names.shape[1]), dtype=np.uint8)
    out[:, :len(head)], out[:, len(head)] = head, ord("0") + j
    out[:, len(head) + 1:] = names[j + 1:]
    return keys[j + 1:] + keys[j] + offset, out


def _vertex_table(m: int):
    """The exact keys and the canonical addresses of V_m's vertices, glued
    one level at a time as _build_level_graph glues cells: the corners, then
    copies 0, 1, 2 of V_{m-1} (_copy), that is (0):1, (0):2 and copy 0's
    interior, (1):2 and copy 1's, then copy 2's.

        keys   (|V_m|, 3) int64 numerators, denominator 2**m
        names  (|V_m|, m + 2) uint8 ASCII of format_address, NUL-padded
    """
    import numpy as np

    keys = np.eye(3, dtype=np.int64)
    names = np.array([[ord(":"), ord("0") + i] for i in range(3)], dtype=np.uint8)
    for _ in range(m):
        parts = [(2 * keys[:3], np.pad(names[:3], ((0, 0), (0, 1)))),
                 *[_copy(keys, names, j, [], 0) for j in range(3)]]
        keys, names = (np.concatenate(column) for column in zip(*parts))
    return keys, names


@lru_cache(maxsize=None)
def _build_level_graph(m: int) -> LevelGraph:
    # V_k = F_0 V_{k-1} u F_1 V_{k-1} u F_2 V_{k-1}, glued at the level-1
    # junctions.  Built in a loop, not by recursion, so no coarser graph
    # stays cached.
    import numpy as np

    cells, size = np.array([[0, 1, 2]], dtype=np.int32), 3
    for _ in range(m):
        n = size - 3  # interior vertices of V_{k-1}
        corners, first = _glue(n)
        # maps[j] sends V_{k-1} into V_k under F_j; column i < 3 is F_j(q_i)
        maps = np.empty((3, n + 3), dtype=np.int32)
        maps[:, :3] = corners
        maps[:, 3:] = np.add.outer(first, np.arange(n))
        cells = maps[:, cells].reshape(-1, 3)  # cell j + w is F_j of cell w
        size = 6 + 3 * n

    if size != vertex_count(m):
        raise InvariantError(f"level-{m} graph has {size} vertices, not {vertex_count(m)}")
    cells.setflags(write=False)
    return LevelGraph(m, cells)


def build_level_graph(m: int) -> LevelGraph:
    return _build_level_graph(check_level(m))


# The levels a subtree of subtree_walk spans.  Fewer take more Python steps,
# more hold more triples: at level 12, each of eval's two passes
# (SpectralEigenfunction.check_values and level_values) took 135, 71 and
# 43 ms at 6, 7 and 9 levels, and the two peaked at 0.22, 0.30 and 1.90 MB
# traced, one subtree's triples and values (2-CPU host, numpy 2.4).
SUBTREE_LEVELS = 7


@lru_cache(maxsize=None)
def _subtree_walk(m: int, depth: int) -> SubtreeWalk:
    import numpy as np

    # a subtree of V_{m-depth} is its corners and the vertices after them;
    # glued into V_k, copy j + w of a subtree is F_j of subtree w, as in
    # _build_level_graph
    layout = np.array([[0, 1, 2, 3]], dtype=np.int64)
    for k in range(m - depth + 1, m + 1):
        corners, first = _glue(vertex_count(k - 1) - 3)
        layout = np.where(layout < 3, np.array(corners)[:, np.minimum(layout, 2)],
                          layout + np.array(first)[:, None, None] - 3).reshape(-1, 4)
    layout.setflags(write=False)
    return SubtreeWalk(m, build_level_graph(depth), build_level_graph(m - depth), layout)


def subtree_walk(m: int) -> SubtreeWalk:
    """V_m's walk by subtrees of SUBTREE_LEVELS levels (one subtree below
    level SUBTREE_LEVELS)."""
    return _subtree_walk(check_level(m), max(0, m - SUBTREE_LEVELS))
