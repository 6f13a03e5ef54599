"""Addresses and vertices of the Sierpinski gasket.

The gasket is the attractor of F_i(x) = (x + q_i)/2 for the three corners
q_0, q_1, q_2 of a triangle; a word w = w_1...w_m addresses the cell
F_w = F_{w_1} o ... o F_{w_m}.  Every vertex of the level-m graph is
F_w(q_i) for some |w| = m and carries exact barycentric coordinates
(n_0, n_1, n_2) with n_0 + n_1 + n_2 = 2^m; addressing runs on ints --
floats never enter.

The level-m graph is the union of its three images F_j V_{m-1}, glued at
the level-1 junctions (_glue): each vertex's canonical address is its
copy's letter prepended to the address it had one level up, and the
canonical vertex order, q_0, q_1, q_2 first, falls out of the gluing.
vertex_index runs that rule for a single vertex, level by level, and
vertex_cells runs it backwards.  mesh lays a whole level out by the same
rule, one cell at a time: walk gives its values, addresses its addresses,
points its entries of lattice_lines, and cells its graph.
"""
from __future__ import annotations

import math

from .decimation import check_level, vertex_count
from .errors import DomainError

DEFAULT_CORNERS = ((0.0, 0.0), (1.0, 0.0), (0.5, math.sqrt(3.0) / 2.0))


def _is_ascii_digits(text: str) -> bool:
    # str.isdigit alone also admits superscripts and other scripts' digits
    return text.isascii() and text.isdigit()


def _as_int(c) -> int:
    # a float is refused, not truncated by int()
    if isinstance(c, str) and _is_ascii_digits(c) or hasattr(c, "__index__"):
        return int(c)
    raise DomainError(f"a letter is an integer or an ASCII digit string, got {c!r}")


def check_word(word) -> tuple:
    word = tuple(map(_as_int, word))
    if any(c not in (0, 1, 2) for c in word):
        raise DomainError(f"word letters must be 0, 1 or 2: {word!r}")
    return word


def check_letter(letter) -> int:
    letter = _as_int(letter)
    if letter not in (0, 1, 2):
        raise DomainError(f"letter must be 0, 1 or 2: {letter!r}")
    return letter


def word_from_string(text: str) -> tuple:
    if text == "":
        return ()
    if not _is_ascii_digits(text):
        raise DomainError(f"malformed word {text!r}")
    return check_word(text)


def format_address(word, letter) -> str:
    return "".join(str(c) for c in word) + ":" + str(letter)


class EventuallyConstantWord:
    """Infinite word prefix . tail tail tail ... addressing a single point.

    Canonical form strips tail letters off the end of the prefix, so the
    prefix never ends with the tail letter.  Junction points have exactly two
    such addresses; boundary q_i is (), i.
    """

    __slots__ = ("prefix", "tail")

    def __init__(self, prefix, tail):
        prefix, tail = check_word(prefix), check_letter(tail)
        while prefix and prefix[-1] == tail:
            prefix = prefix[:-1]
        self.prefix, self.tail = prefix, tail

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

    def truncation(self, k: int) -> tuple:
        return tuple(self.letter(j) for j in range(1, k + 1))

    def __str__(self) -> str:
        return format_address(self.prefix, self.tail)


def lattice_lines(level: int) -> tuple:
    """The planar coordinates of V_level's lattice lines: x of each line
    2 n_1 + n_2 = t (t = 0..2^(level+1)) and y of each line n_2 = t
    (t = 0..2^level), for barycentric numerators (n_0, n_1, n_2) over
    2^level, as x = (n_1 + n_2/2) / 2^level and y = n_2 (sqrt(3)/2) / 2^level.
    Every step is exact but the one rounding of n_2 sqrt(3)/2, so a vertex
    takes the bits of its two lines' entries.  Two lists of O(2^level)
    floats."""
    scale = float(1 << check_level(level))
    return ([t / 2 / scale for t in range(2 ** (level + 1) + 1)],
            [t * DEFAULT_CORNERS[2][1] / scale for t in range(2 ** level + 1)])


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
