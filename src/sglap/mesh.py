"""V_m walked cell by cell in canonical vertex order: eval's values, the
vertices' addresses and lattice points, the level's cells, and the
eigen-equation residual of what eval wrote.

walk refines a SpectralEigenfunction's values by one recursion on Python
floats, one subtree at a time, so that no array of a whole level is made.
The rest of V_m's layout does not depend on the values and is alike in
every subtree: _layout lays it out once, and addresses, points and cells
map it onto walk's parts.  cells is the one builder of a level's graph
(eval's obj faces, eval --verify's residual, the tests' dense oracle).
mesh imports no numpy; no tangent layer loads it.
"""
from __future__ import annotations

import functools
import math
from operator import itemgetter

from .decimation import check_level, vertex_count
from .errors import DomainError
from .harmonic import IDENTITY, eigen_matrices

SUBTREE_LEVELS = 6  # the levels below walk's subtree roots: a subtree adds |V_6| - 3 = 1092


def _midpoint_rows(lam: float, level: int) -> tuple:
    """The rows of the level's extension matrices that give a cell's three
    midpoints (0):1, (0):2 and (1):2 from its triple, as one 9-tuple.  A
    midpoint is a corner of two subcells, and a subcell's own corner keeps
    its cell's value, so walk computes each vertex once only if the two
    matrices give every midpoint by the identical row and each matrix gives
    its corner by the unit row; anything else raises DomainError."""
    a = eigen_matrices(lam)
    if (a[0][1], a[0][2], a[1][2]) != (a[1][0], a[2][0], a[2][1]) or \
            any(a[i][i] != IDENTITY[i] for i in range(3)):
        raise DomainError(f"the extension matrices of level {level} give a vertex two values")
    return (*a[0][1], *a[0][2], *a[1][2])


def eigen_residual(parts, values, lam_level: float) -> float:
    """Max interior defect of the level eigen-equation, relative to the sup
    norm; 0.0 on V_0, which has no interior vertex.  `parts` are the
    level's cells as cells(m) yields them, one flat tuple per subtree.

    Each cell adds its cell Laplacian (u_0 + u_1 + u_2) - 3 u_i at each
    corner i, every edge lying in exactly one cell.  A vertex other than
    q0, q1 and q2 lies in exactly two cells: its first term waits in
    `pending` for its second, and its defect is |first + second + lam u|,
    the bits of one sum over the level's cells.  Values whose sup norm
    passes 1 are scaled by the power of 2 at or above it, so that no cell
    sum overflows: exactly, but for values below 2^(e - 1022), which lose
    bits and move the relative residual by at most a few 2^-1074."""
    sup = max(1.0, max(values), -min(values))
    # 2^-e, not 1 / 2^e: 2^e overflows at e = 1024
    scale = math.ldexp(1.0, -math.frexp(sup)[1]) if sup > 1.0 else 1.0
    lam, worst, pending = float(lam_level), 0.0, {}
    pop = pending.pop
    for part in parts:
        corners = iter(part)
        for a, b, c in zip(corners, corners, corners):
            x, y, z = values[a] * scale, values[b] * scale, values[c] * scale
            s = x + y + z
            for i, v in ((a, x), (b, y), (c, z)):
                if i in pending:
                    r = abs(pop(i) + (s - 3.0 * v) + lam * v)
                    worst = r if r > worst else worst
                else:
                    pending[i] = s - 3.0 * v
    return worst / (sup * scale)


@functools.cache
def _layout(k: int, cut) -> tuple:
    """A cell spanning k levels laid out once, to be mapped onto every cell
    of its shape: its vertices in walk order, its corners at positions 0,
    1 and 2 and the ones it adds from 3 on, as their addresses after the
    cell's word and their x and y lattice lines from its corner 0's, and
    its cells as one flat tuple of positions.  Subcells spanning `cut`
    levels are left as roots (lo, hi, word, t, n, f, a, b, c): the bounds
    of the vertices laid out since the root before, the word, corner 0's
    lines, the position of the first vertex added and the corners'
    positions.  A cell spanning 0 levels is one cell; a larger one adds
    its midpoints (0):1 and (0):2 at f and f + 1, subcell 0's vertices from
    f + 2, its midpoint (1):2 at f + 2 + s and subcells 1 and 2 from f + 3
    + s and f + 3 + 2s, each adding s (address._glue)."""
    names, xs, ys, faces, roots = [":0", ":1", ":2"], [0, 2 << k, 1 << k], [0, 0, 1 << k], [], []

    def fill(k, a, b, c, f, t, n, word):
        if k == cut:
            roots.append((roots[-1][1] if roots else 0, len(names), word, t, n, f, a, b, c))
            return
        if not k:
            faces.extend((a, b, c))
            return
        h, s = 1 << (k - 1), vertex_count(k - 1) - 3
        names.extend((word + "0:1", word + "0:2"))
        xs.extend((t + 2 * h, t + h))
        ys.extend((n, n + h))
        fill(k - 1, a, f, f + 1, f + 2, t, n, word + "0")
        names.append(word + "1:2")
        xs.append(t + 3 * h)
        ys.append(n + h)
        fill(k - 1, f, b, f + 2 + s, f + 3 + s, t + 2 * h, n, word + "1")
        fill(k - 1, f + 1, f + 2 + s, c, f + 3 + 2 * s, t + h, n + h, word + "2")

    fill(k, 0, 1, 2, 3, 0, 0, "")
    return tuple(names), tuple(xs), tuple(ys), tuple(faces), tuple(roots)


def walk(u, m: int):
    """u's values on V_m in canonical vertex order, as lists of floats:
    one per subtree F_w V_(m-d), d = max(0, m - SUBTREE_LEVELS), in cell
    order, each holding the vertices of V_d before the subtree's, then the
    ones it adds.  One recursion in _layout's vertex order computes each
    midpoint once from its cell's corner values, by the row of
    _midpoint_rows in matvec's order, or reads it from the seed down to
    level m0: so a vertex takes the bits of the cell_triple walk of each of
    its cells, and no value is -0.0, since each is a sum from 0.0.  It runs
    down to the subtree roots, keeping V_d, then each subtree in turn.  A
    cell spanning two levels adds its 12 values inline, saving two thirds
    of the calls, except in subtrees of one level, which only tests set.
    Every level's matrices are checked before the first part."""
    m0, get = u.m0, u.seed_values.get
    if check_level(m) < m0:
        raise DomainError(f"level {m} below seed level {m0}")
    # by the levels k a cell spans: its midpoints' rows (None down to
    # the seed level, whose values are read) and the offsets in V_m0 of its
    # midpoint (1):2 and of subcells 1 and 2 from the first vertex it adds
    levels = [None]
    for k in range(1, m + 1):
        j = m - k + 1  # the midpoints' level
        n0 = vertex_count(max(m0 - j, 0)) - 3
        levels.append((_midpoint_rows(u.sequence.value(j), j) if j > m0 else None,
                       2 + n0, 3 + n0, 3 + 2 * n0))
    leaf = levels[1][0] if m else None
    values, cut, subtrees = [0.0 + get(i, 0.0) for i in range(3)], min(m, SUBTREE_LEVELS), []

    def fill(k, a, b, c, f0):
        # the cell spanning k levels with the corner values a, b, c, which
        # adds the vertices from position f0 on in V_m0
        if k == cut:
            subtrees.append((len(values), (k, a, b, c, f0)))
            return
        r, e12, e1, e2 = levels[k]
        if r is None:
            a01, a02, a12 = 0.0 + get(f0, 0.0), 0.0 + get(f0 + 1, 0.0), 0.0 + get(f0 + e12, 0.0)
        else:
            x0, x1, x2, y0, y1, y2, z0, z1, z2 = r
            a01 = 0.0 + x0 * a + x1 * b + x2 * c
            a02 = 0.0 + y0 * a + y1 * b + y2 * c
            a12 = 0.0 + z0 * a + z1 * b + z2 * c
        if k == 1:  # the subcells add nothing
            values.extend((a01, a02, a12))
            return
        if k == 2 and leaf is not None and cut != 1:  # the subcells' midpoints, inline
            x0, x1, x2, y0, y1, y2, z0, z1, z2 = leaf
            values.extend((
                a01, a02,
                0.0 + x0 * a + x1 * a01 + x2 * a02, 0.0 + y0 * a + y1 * a01 + y2 * a02,
                0.0 + z0 * a + z1 * a01 + z2 * a02,
                a12,
                0.0 + x0 * a01 + x1 * b + x2 * a12, 0.0 + y0 * a01 + y1 * b + y2 * a12,
                0.0 + z0 * a01 + z1 * b + z2 * a12,
                0.0 + x0 * a02 + x1 * a12 + x2 * c, 0.0 + y0 * a02 + y1 * a12 + y2 * c,
                0.0 + z0 * a02 + z1 * a12 + z2 * c))
            return
        values.extend((a01, a02))
        fill(k - 1, a, a01, a02, f0 + 2)
        values.append(a12)
        fill(k - 1, a01, b, a12, f0 + e1)
        fill(k - 1, a02, a12, c, f0 + e2)

    try:
        if not m:  # V_0
            yield values
            return
        fill(m, *values, 3)
        top, lo, cut = values, 0, None
        for hi, args in subtrees:
            values = top[lo:hi]
            fill(*args)
            yield values
            lo = hi
    finally:
        del fill  # which refers to itself, and so would keep its lists until a collection


def _split(m: int) -> tuple:
    """_layout's top part of V_m and subtree shape: walk's part at a root
    holds top[lo:hi], then what the shape, mapped onto the root, adds."""
    cut = min(check_level(m), SUBTREE_LEVELS)
    return _layout(m, cut), _layout(cut, None)


def addresses(m: int):
    """V_m's canonical addresses, one list per part of walk: a subtree's
    are its word before the shape's suffixes."""
    top, shape = _split(m)
    suffixes = shape[0][3:]
    for lo, hi, word, *_ in top[4]:
        yield [*top[0][lo:hi], *map(word.__add__, suffixes)]


def points(m: int, lattice):
    """V_m's x and y entries of the lattice lines (address.lattice_lines,
    or two sequences indexed alike), as a pair of lists per part of walk;
    a subtree's are the shape's offsets from its corner 0's lines."""
    (x_line, y_line), (top, shape) = lattice, _split(m)
    xs, ys = [x_line[t] for t in top[1]], [y_line[n] for n in top[2]]
    if not m:  # V_0's corners, and a shape that adds nothing
        yield xs, ys
        return
    # the shape's lines run to its corner 1's x and its corner 2's y
    dx, dy, wx, wy = itemgetter(*shape[1][3:]), itemgetter(*shape[2][3:]), shape[1][1], shape[2][2]
    for lo, hi, _, t, n, *_ in top[4]:
        yield [*xs[lo:hi], *dx(x_line[t:t + wx + 1])], [*ys[lo:hi], *dy(y_line[n:n + wy + 1])]


def cells(m: int, base: int = 0):
    """V_m's cells as vertex triples, in cell order, one flat tuple per part
    of walk: the shape's cells mapped onto each subtree's corners and the
    vertices it adds, numbered in walk's order from `base` (obj's faces
    count from 1).  Every edge lies in exactly one cell, so the triples are
    the level's whole graph."""
    top, shape = _split(m)
    faces, added = itemgetter(*shape[3]), len(shape[0]) - 3
    for *_, f, a, b, c in top[4]:
        f += base
        yield faces((a + base, b + base, c + base, *range(f, f + added)))
