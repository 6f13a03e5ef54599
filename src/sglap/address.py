"""Addresses, vertices and level graphs of the Sierpinski gasket.

The gasket is the attractor of F_i(x) = (x + q_i)/2 for the three corners
q_0, q_1, q_2 of a triangle; a word w = w_1...w_m addresses the cell
F_w = F_{w_1} o ... o F_{w_m}.  Every vertex of the level-m graph is
F_w(q_i) for some |w| = m and carries exact barycentric coordinates
(n_0, n_1, n_2) with n_0 + n_1 + n_2 = 2^m; the scalar junction resolution
and canonical addressing run on these -- floats never enter.

The level-m graph is the union of its three images F_j V_{m-1}, glued at
the level-1 junctions, so it is built one level at a time from V_0: each
vertex's canonical address is its copy's letter prepended to the address it
had one level up, and the canonical vertex order falls out of the gluing.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .decimation import check_level, vertex_count
from .errors import DomainError, InvariantError

Word = tuple  # letters in {0, 1, 2}

DEFAULT_CORNERS = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3.0) / 2.0]])


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


def word_index(word) -> int:
    """Base-3 rank of a word among words of its length (cell index)."""
    i = 0
    for c in word:
        i = 3 * i + c
    return i


def apply_ifs(word, point, corners=DEFAULT_CORNERS):
    """Image of a planar point under F_w (first letter applied last)."""
    p = np.asarray(point, dtype=float)
    for c in reversed(check_word(word)):
        p = (p + corners[c]) / 2.0
    return p


def vertex_key(word, letter: int, level: int):
    """Exact coordinates of F_w(q_letter) at the given level (|word| <= level)."""
    word = check_word(word)
    m = len(word)
    letter = check_letter(letter)
    if level < m:
        raise DomainError(f"level {level} below word length {m}")
    n = [0, 0, 0]
    for t, c in enumerate(word, start=1):
        n[c] += 1 << (m - t)
    n[letter] += 1
    shift = level - m
    return (n[0] << shift, n[1] << shift, n[2] << shift)


def _birth_key(key, level):
    n0, n1, n2 = key
    b = level
    while b > 0 and (n0 | n1 | n2) & 1 == 0:
        n0 >>= 1
        n1 >>= 1
        n2 >>= 1
        b -= 1
    return (n0, n1, n2), b


def _descend_prefix(key, b):
    # Unique path of subcells containing the point down to level 1; greedy
    # smallest-letter choice yields the lexicographically smallest word.
    cur = list(key)
    word = []
    for t in range(b, 1, -1):
        half = 1 << (t - 1)
        letter = min(c for c in range(3) if cur[c] >= half)
        word.append(letter)
        cur[letter] -= half
    return word, cur


def resolve_addresses(key, level):
    """All (word, letter) addresses of a vertex at its birth level: one for a
    boundary corner, exactly two for a junction point.  The scalar reference
    that the level graph's addresses are tested against."""
    key, b = _birth_key(key, level)
    if b == 0:
        return [((), key.index(1))]
    word, cur = _descend_prefix(key, b)
    a, c = (i for i in range(3) if cur[i] == 1)
    base = tuple(word)
    return sorted([(base + (a,), c), (base + (c,), a)])


def format_address(word, letter) -> str:
    return "".join(str(c) for c in word) + ":" + str(letter)


@dataclass(frozen=True)
class EventuallyConstantWord:
    """Infinite word prefix . tail tail tail ... addressing a single point.

    Canonical form strips tail letters off the end of the prefix, so the
    prefix never ends with the tail letter.  Junction points have exactly two
    such addresses; boundary q_i is (), i.
    """

    prefix: Word
    tail: int

    def __post_init__(self):
        prefix = check_word(self.prefix)
        tail = check_letter(self.tail)
        while prefix and prefix[-1] == tail:
            prefix = prefix[:-1]
        object.__setattr__(self, "prefix", prefix)
        object.__setattr__(self, "tail", tail)

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


@dataclass(frozen=True, eq=False)
class LevelGraph:
    """The graph on V_m as its cells: cells[word_index(w), i] is the vertex
    F_w(q_i) for |w| = m.  Every edge lies in exactly one m-cell, so the cell
    triples are the whole graph; index_of is the vertex lookup.  Vertices are
    in canonical address order (the three boundary corners are always 0, 1,
    2, everything after them is interior) and carry their exact keys and the
    text of their canonical addresses."""

    level: int
    keys: np.ndarray  # (N, 3) int64 numerators, denominator 2**level
    cells: np.ndarray  # (3**level, 3) int32
    names: np.ndarray  # (N, level + 2) uint8 ASCII of format_address, NUL-padded

    @property
    def size(self) -> int:
        return self.keys.shape[0]

    def index_of(self, word, letter) -> int:
        """Index of F_word(q_letter): corner `letter` of the level cell
        word + (letter, ..., letter)."""
        word = check_word(word)
        letter = check_letter(letter)
        if self.level < len(word):
            raise DomainError(f"level {self.level} below word length {len(word)}")
        return int(self.cells[word_index(word + (letter,) * (self.level - len(word))), letter])

    def addresses(self, lo: int = 0, hi: int | None = None) -> list:
        """format_address of vertices lo..hi-1 (by default all), in vertex order."""
        # trailing NULs drop off numpy unicode strings
        return self.names[lo:hi].astype(np.uint32).view(f"U{self.level + 2}").ravel().tolist()


def key_coords(keys, level: int) -> np.ndarray:
    """Planar points of barycentric numerators over 2**level.  Every product
    and sum is exact but the one rounding of n_2 * sqrt(3)/2, so x takes the
    same bits for equal 2 n_1 + n_2, and y for equal n_2."""
    return (keys @ DEFAULT_CORNERS) / float(1 << level)


@lru_cache(maxsize=None)
def _build_level_graph(m: int) -> LevelGraph:
    # V_k = F_0 V_{k-1} u F_1 V_{k-1} u F_2 V_{k-1}, glued at the level-1
    # junctions.  Prepending letter j to an interior address of V_{k-1} keeps
    # it canonical, so canonical order on V_k is: the corners, (0):1, (0):2,
    # copy 0's interior, (1):2, copy 1's interior, copy 2's interior.  Built
    # in a loop, not by recursion, so no coarser graph stays cached.
    cells = np.array([[0, 1, 2]], dtype=np.int32)
    keys = np.eye(3, dtype=np.int64)  # keys[v] is vertex_key of v's canonical address
    names = np.array([b":0", b":1", b":2"]).view(np.uint8).reshape(3, 2)
    for k in range(1, m + 1):
        n = keys.shape[0] - 3  # interior vertices of V_{k-1}
        first = (5, 6 + n, 6 + 2 * n)  # where copy j's interior starts
        # maps[j] sends V_{k-1} into V_k under F_j; column i < 3 is F_j(q_i)
        maps = np.empty((3, n + 3), dtype=np.int32)
        maps[:, :3] = [[0, 3, 4], [3, 1, 5 + n], [4, 5 + n, 2]]
        maps[:, 3:] = np.add.outer(first, np.arange(n))
        cells = maps[:, cells].reshape(-1, 3)  # cell j + w is F_j of cell w

        inner_keys, inner_names = keys[3:], names[3:]
        keys = np.empty((6 + 3 * n, 3), dtype=np.int64)
        names = np.zeros((6 + 3 * n, k + 2), dtype=np.uint8)
        glued = [0, 1, 2, 3, 4, 5 + n]  # the corners and the level-1 junctions
        keys[glued] = np.left_shift([[2, 0, 0], [0, 2, 0], [0, 0, 2],
                                     [1, 1, 0], [1, 0, 1], [0, 1, 1]], k - 1)
        names[glued, :3] = np.array([b":0", b":1", b":2", b"0:1", b"0:2", b"1:2"]
                                    ).view(np.uint8).reshape(6, 3)
        for j, lo in enumerate(first):
            # F_j(x) = (x + q_j)/2 sends n over 2^(k-1) to n + 2^(k-1) e_j over 2^k
            keys[lo:lo + n] = inner_keys
            keys[lo:lo + n, j] += 1 << (k - 1)
            names[lo:lo + n, 0] = ord("0") + j
            names[lo:lo + n, 1:] = inner_names

    if keys.shape[0] != vertex_count(m):
        raise InvariantError(f"level-{m} graph has {keys.shape[0]} vertices, "
                             f"not {vertex_count(m)}")
    for arr in (keys, cells, names):
        arr.setflags(write=False)
    return LevelGraph(m, keys, cells, names)


def build_level_graph(m: int) -> LevelGraph:
    return _build_level_graph(check_level(m))
