"""Harmonic functions and eigenfunctions on the gasket: the 1-5-5 extension
algorithm and its lambda-deformed form.

A harmonic function is determined by its three boundary values; restricting
to a cell F_w multiplies the boundary triple by A_w = A_{w_m} ... A_{w_1}
(letters applied in the order the maps compose).  Appending a letter to a
word multiplies one more matrix on the left, which is exactly the cell
refinement step of `extend_level`.  An eigenfunction refines the same way
with the extension matrices deformed by lambda_m of its decimation
sequence; they degenerate to the harmonic 1-5-5 rule at lambda = 0 and blow
up at lambda in {2, 5}.

The matrices are nested tuples with integer-coefficient formulas, so that the
Decimal oracle runs them too, and a single cell triple is walked with the 3x3
products matvec and matmul on Python floats.  numpy is imported by the
functions that handle whole levels, so that a tangent does not load it.
"""
from __future__ import annotations

import itertools
import math
from functools import lru_cache

from .address import (Frozen, LevelGraph, SubtreeWalk, _subtree_walk, check_letter,
                      check_word, subtree_walk, vertex_cells, vertex_index)
from .decimation import (SERIES_SEED, EigenvalueSequence, check_level, series_multiplicity,
                         vertex_count)
from .errors import DomainError

# copies of one vertex that differ by more than this, relative to the scale
# of the values, describe no function: the junction check of check_values
JUNCTION_TOL = 1e-9


def matvec(m, v) -> tuple:
    """m v for a 3x3 matrix and a 3-vector of floats or Decimals.  Each entry
    is summed left to right from 0, as the BLAS kernels sum, so that no -0.0
    arises from a sum of zeros."""
    return tuple(0 + m[a][0] * v[0] + m[a][1] * v[1] + m[a][2] * v[2] for a in range(3))


def matmul(m, n) -> tuple:
    """m n for 3x3 matrices, summed as in matvec."""
    return tuple(tuple(0 + m[a][0] * n[0][b] + m[a][1] * n[1][b] + m[a][2] * n[2][b]
                       for b in range(3)) for a in range(3))


IDENTITY = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def conjugate(m, i: int) -> tuple:
    """S_i m S_i, S_i swapping corners 0 and i: the corner-i matrix of a
    corner-0 one.  0 + each entry turns a -0.0 into 0.0, as the products
    with the swap matrices did."""
    a, b, c = ((0, 1, 2), (1, 0, 2), (2, 1, 0))[i]
    return tuple([(0 + m[x][a], 0 + m[x][b], 0 + m[x][c]) for x in (a, b, c)])


def harmonic_inverses(three) -> tuple:
    """The inverses of the 1-5-5 extension matrices, one per letter: a third
    of an integer matrix, divided in the type of `three` (3.0 or Decimal(3))."""
    a0 = [[x / three for x in row] for row in ((3, 0, 0), (-2, 10, -5), (-2, -5, 10))]
    return tuple([conjugate(a0, i) for i in range(3)])


HARMONIC_INVERSES = harmonic_inverses(3.0)


def harmonic_pullback(word) -> tuple:
    """Inverse of A_w, i.e. A_{w_1}^{-1} ... A_{w_m}^{-1}, built from the
    exact-rational inverses; used to pull cell data back to boundary data."""
    m = IDENTITY
    for c in check_word(word):
        m = matmul(m, HARMONIC_INVERSES[c])
    return m


def extend_level(cell_values, mats):
    """One refinement step: child cell 3*c + letter gets mats[letter] @ cell c,
    each entry summed as matvec sums it, not by a BLAS product, whose
    rounding depends on how many rows it is given: so a cell's children take
    the same bits however many cells are refined with it."""
    import numpy as np

    values = np.asarray(cell_values, dtype=float).reshape(-1, 1, 1, 3)
    mats = np.asarray(mats, dtype=float)
    out = np.zeros((len(values), 3, 3))
    for k in range(3):
        out += values[..., k] * mats[..., k]
    return out.reshape(-1, 3)


def cell_values_to_vertex(graph: LevelGraph, cell_values) -> tuple:
    """Collapse per-cell triples to one value per vertex: (values, gap, scale).

    The three corners lie in one cell each and every other vertex in two, so
    a vertex's value is its one copy or the mean of its two.  gap is the
    largest distance of a copy from its vertex's value and scale is
    max(1, max |copy|): the triples describe a function when the gap is
    within a tolerance relative to the scale, which the caller checks."""
    import numpy as np

    cv = np.asarray(cell_values, dtype=float)
    if cv.shape != graph.cells.shape:
        raise DomainError(f"expected cell array of shape {graph.cells.shape}, got {cv.shape}")
    out = np.bincount(graph.cells.reshape(-1), weights=cv.reshape(-1), minlength=graph.size)
    out[3:] /= 2.0
    gap = float(np.abs(cv - out[graph.cells]).max())
    return out, gap, max(1.0, float(cv.max()), float(-cv.min()))


def graph_laplacian(graph: LevelGraph, values):
    """sum_{y~x} (u(y) - u(x)) at every vertex, boundary included.

    Every edge lies in exactly one cell, so this is the sum over cells of the
    cell Laplacian (u_0 + u_1 + u_2) - 3 u_i at each corner i.
    """
    import numpy as np

    values = np.asarray(values, dtype=float)
    if values.shape != (graph.size,):
        raise DomainError(f"expected {graph.size} vertex values, got shape {values.shape}")
    cv = values[graph.cells]
    cv = cv.sum(axis=1, keepdims=True) - 3.0 * cv  # cell Laplacians; frees the triples
    return np.bincount(graph.cells.ravel(), weights=cv.ravel(), minlength=graph.size)


@lru_cache(maxsize=4096)
def eigen_matrices(lam: float) -> tuple:
    """The three lambda-deformed extension matrices, one per letter.  Pass a
    Decimal to the uncached __wrapped__: its matrices depend on the context
    precision, and Decimal("0.5") would hit the cached entry of 0.5."""
    if not math.isfinite(lam):
        raise DomainError(f"extension matrices need a finite lambda, got {lam!r}")
    den = (5 - lam) * (2 - lam)
    if den == 0:
        raise DomainError(f"extension matrices are singular at lambda={lam!r}")
    a0 = [[x / den for x in row]
          for row in ((den, 0, 0), (4 - lam, 4 - lam, 2), (4 - lam, 2, 4 - lam))]
    return tuple([conjugate(a0, i) for i in range(3)])


def eigen_residual(walk: SubtreeWalk, values, lam_level: float) -> float:
    """Max interior defect of the level eigen-equation, relative to the sup
    norm; 0.0 on V_0, which has no interior vertex.

    The Laplacian is summed one subtree at a time: every edge at a vertex
    that a subtree adds lies in that subtree, and a vertex of V_depth adds
    up its subtrees' sums in cell order, as one sum over the level's cells
    adds up its cells', so the residual takes the same bits."""
    import numpy as np

    values = np.asarray(values, dtype=float)
    if values.shape != (walk.size,):
        raise DomainError(f"expected {walk.size} vertex values, got shape {values.shape}")
    lam, top = float(lam_level), walk.top.cells
    sums, worst = np.zeros(walk.top.size), [0.0]
    for cell, positions in zip(top, walk.positions()):
        v = values[positions]
        lap = graph_laplacian(walk.local, v)
        sums[cell] += lap[:3]
        worst.append(float(np.max(np.abs(lap[3:] + lam * v[3:]), initial=0.0)))
    r = sums[top] + lam * values[walk.layout[:, :3]]
    worst.append(float(np.max(np.abs(r[top >= 3]), initial=0.0)))
    return float(np.max(worst)) / max(1.0, float(values.max()), float(-values.min()))


class SpectralEigenfunction(Frozen):
    """Seed values on V_{m0} together with the sequence that refines them.

    The seed is held as a {vertex: value} map over V_{m0} (a vertex it does
    not name is 0), so that looking up one cell of a deep seed costs no more
    than a shallow one; a dense sequence of |V_{m0}| values is taken too.
    Its values on V_m are refined one subtree at a time in two passes, and
    never held as one array: check_values checks them all, then
    level_values hands them on in vertex order."""

    __slots__ = ("sequence", "seed_values")

    def __init__(self, sequence: EigenvalueSequence, seed_values):
        seed, size = seed_values, vertex_count(sequence.m0)
        if isinstance(seed, dict):
            seed = {int(v): float(x) for v, x in seed.items()}
            if not all(0 <= v < size for v in seed):
                raise DomainError(f"seed names a vertex outside V_{sequence.m0}")
        else:
            seed = dict(enumerate(float(x) for x in seed))
            if len(seed) != size:
                raise DomainError(f"need {size} vertex values at level {sequence.m0}, "
                                  f"got {len(seed)}")
        super().__init__(sequence, seed)

    @property
    def m0(self) -> int:
        return self.sequence.m0

    def check_values(self, m: int) -> bool:
        """The first of eval's two passes over V_m: refine and collapse every
        subtree of subtree_walk(m) as level_values does, keeping only the
        junction gap, the scale and whether the values are finite.  The gap
        and the scale are gathered over every subtree and checked once, as
        one collapse of the level checks them: copies that differ by more
        than JUNCTION_TOL relative to the scale raise DomainError.  Returns
        whether every value is finite; a value past the float range makes
        the gap NaN and the values non-finite, for the caller to reject."""
        import numpy as np

        gaps, scales, finite = [], [], True
        for values, gap, scale in self._collapses(m):
            gaps.append(gap)
            scales.append(scale)
            finite = finite and bool(np.isfinite(values).all())
        gap, scale = float(np.max(gaps)), max(scales)  # a NaN gap stays NaN
        if gap > JUNCTION_TOL * scale:
            raise DomainError(f"cell triples disagree at a junction by {gap:.3e}")
        return finite

    def level_values(self, m: int):
        """The second pass: V_m's values refined again one subtree of
        subtree_walk(m) at a time, so that no array of the whole level is
        made, as the stream that SubtreeWalk.rows puts in vertex order: the
        values of V_depth, collapsed from the subtrees' corner triples, then
        those of the vertices each subtree adds, in cell order.  The values
        are not checked: check_values checks them first."""
        for values, _, _ in self._collapses(m):
            yield values

    def _collapses(self, m: int):
        """The subtrees of subtree_walk(m) refined and collapsed one at a
        time: (values, gap, scale) of cell_values_to_vertex, first for V_depth,
        collapsed from the subtrees' corner triples, which refinement keeps,
        then for each subtree in cell order, with the values of the
        vertices it adds.  A subtree takes its cells on level r =
        max(m0, depth) from the seed (its cell_triple, or the seed at its
        r-cells) and refines them on to level m."""
        import numpy as np

        if m < self.m0:
            raise DomainError(f"level {m} below seed level {self.m0}")
        walk = subtree_walk(m)
        depth = walk.top.level
        r = max(self.m0, depth)
        with np.errstate(over="ignore", invalid="ignore"):
            if self.m0 <= depth:  # one depth-cell per subtree
                words = itertools.product(range(3), repeat=depth)
                corners = np.array([self.cell_triple(w) for w in words])
                triples = corners[:, None]
            else:
                # the seed at each subtree's V_m0 vertices, no level held whole:
                # a search among the vertices it names, sorted, and after them
                # V_m0's size, which stands for every vertex it leaves at 0
                named = sorted(self.seed_values)
                vertices = np.array([*named, vertex_count(self.m0)])
                seed = np.array([*map(self.seed_values.get, named), 0.0])

                def seed_at(positions):
                    i = np.searchsorted(vertices, positions)
                    return np.where(vertices[i] == positions, seed[i], 0.0)

                on_m0 = _subtree_walk(self.m0, depth)
                corners = seed_at(on_m0.layout[:, :3])
                triples = (seed_at(p)[on_m0.local.cells] for p in on_m0.positions())
            mats = [np.array(eigen_matrices(self.sequence.value(j))) for j in range(r + 1, m + 1)]
            collapsed = cell_values_to_vertex(walk.top, corners)
        yield collapsed
        for cv in triples:
            with np.errstate(over="ignore", invalid="ignore"):
                for mat in mats:
                    cv = extend_level(cv, mat)
                out, gap, scale = cell_values_to_vertex(walk.local, cv)
            yield out[3:], gap, scale

    def cell_triple(self, word) -> tuple:
        """Values at the three corners of a cell no coarser than the seed.

        Starts from the seed's triple on the m0-cell above it and walks that
        one triple down the rest of the word instead of materializing whole
        levels, so arbitrarily deep cells stay cheap: letter t of the word
        applies the extension matrix at lambda_t.
        """
        word = check_word(word)
        m0 = self.m0
        if len(word) < m0:
            raise DomainError(f"word of length {len(word)} is shorter than seed level {m0}")
        out = tuple(self.seed_values.get(vertex_index(word[:m0], i, m0), 0.0) for i in range(3))
        for t in range(m0 + 1, len(word) + 1):
            out = matvec(eigen_matrices(self.sequence.value(t))[word[t - 1]], out)
        return out


def rotate_six(corner: int) -> tuple:
    """Level-1 values of the basic 6-series element with its 2 at the given
    corner, in the order q0, q1, q2, (0):1, (0):2, (1):2: adjacent midpoints
    get -1, the opposite one +1, other corners 0."""
    c = check_letter(corner)
    return (*(2.0 if i == c else 0.0 for i in range(3)),
            *(-1.0 if c in pair else 1.0 for pair in ((0, 1), (0, 2), (1, 2))))


# the level-1 vertices of rotate_six's order as (child cell letter, corner)
_LEVEL1_VERTICES = ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))

# the 2- and 5-series seeds with closed forms, one {(word, corner): value}
# chain per index; every vertex a chain does not name is 0.  The 5-series
# past m0 = 2 would need the cycles around every hole of V_{m0-1}.
_SEED_CHAINS = {
    ("two", 1): ({((0,), 1): 1.0, ((0,), 2): 1.0, ((1,), 2): 1.0},),
    ("five", 1): ({((0,), 1): 1.0, ((0,), 2): -1.0}, {((0,), 1): 1.0, ((1,), 2): -1.0}),
    ("five", 2): (
        {((0, 0), 1): -1.0, ((0, 1), 2): 1.0, ((2, 0), 1): -1.0, ((2, 1), 2): 1.0},
        {((0, 0), 1): 1.0, ((0, 0), 2): -1.0, ((2, 2), 0): 1.0, ((2, 2), 1): -1.0,
         ((1, 1), 2): 1.0, ((1, 1), 0): -1.0},
        {((1, 0), 2): 1.0, ((2, 0), 1): -1.0, ((2, 0), 2): 1.0, ((1, 1), 0): -1.0},
    ),
}


def dirichlet_seed_values(series: str, m0: int, index: int = 1) -> dict:
    """The {vertex: value} map on V_{m0} of seed `index` of the series born
    at level m0.

    A 2- or 5-series seed is a row of _SEED_CHAINS.  A 6-series seed sits
    at a junction of V_{m0-1}, and each (m0-1)-cell meeting there gets
    rotate_six with its 2 at the junction on its three child cells.  The
    junctions are the last `count` vertices of V_{m0-1}: its interior ones,
    or at m0 = 1 the corner q2, which gives the basic element (not
    Dirichlet).  Vertices are looked up one at a time, so no level graph is
    built.  The level cap is checked before 3^m0 is formed; a low m0 is
    reported by series_multiplicity."""
    check_level(max(m0, 0))
    count = 1 if (series, m0) == ("six", 1) else series_multiplicity(series, m0)
    if series != "six" and (series, m0) not in _SEED_CHAINS:
        raise DomainError(f"no closed-form seeds for the {series}-series at m0={m0} "
                          f"(multiplicity {count} is still counted in the spectrum)")
    if not 1 <= index <= count:
        raise DomainError(f"seed index must be in 1..{count} for the {series}-series "
                          f"at m0={m0}, got {index}")
    if series != "six":
        return {vertex_index(word, corner, m0): v
                for (word, corner), v in _SEED_CHAINS[series, m0][index - 1].items()}
    out = {}
    for word, corner in vertex_cells(vertex_count(m0 - 1) - count + index - 1, m0 - 1):
        for (child, child_corner), v in zip(_LEVEL1_VERTICES, rotate_six(corner)):
            out[vertex_index(word + (child,), child_corner, m0)] = v
    return out


def dirichlet_eigenfunction(series: str, m0: int, index: int = 1,
                            plus_indices=None) -> SpectralEigenfunction:
    """Seed eigenfunction of a named series with chosen branch levels; the
    6-series at m0 = 1 is the basic element, which is not Dirichlet."""
    if series not in SERIES_SEED:
        raise DomainError(f"unknown series {series!r}")
    if plus_indices is None:
        plus_indices = frozenset({m0 + 1}) if series == "six" else frozenset()
    plus_indices = frozenset(int(j) for j in plus_indices)
    if series == "six" and (m0 + 1) not in plus_indices:
        raise DomainError("the 6-series must take the plus root at level m0 + 1")
    seed = dirichlet_seed_values(series, m0, index)
    seq = EigenvalueSequence(m0, SERIES_SEED[series], plus_indices)
    return SpectralEigenfunction(seq, seed)
