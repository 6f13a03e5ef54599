"""Harmonic functions and eigenfunctions on the gasket: the 1-5-5 extension
algorithm and its lambda-deformed form.

A harmonic function is determined by its three boundary values; restricting
to a cell F_w multiplies the boundary triple by A_w = A_{w_m} ... A_{w_1}
(letters applied in the order the maps compose).  Appending a letter to a
word multiplies one more matrix on the left.  An eigenfunction refines the
same way with the extension matrices deformed by lambda_m of its decimation
sequence; they degenerate to the harmonic 1-5-5 rule at lambda = 0 and blow
up at lambda in {2, 5}.

The matrices are nested tuples with integer-coefficient formulas, so that
Decimals run them too, and a single cell triple is walked with the 3x3
products matvec and matmul in its sequence's type (the tangent's Decimals,
else Python floats); mesh walks every cell of a level.  This module imports
no numpy.
"""
from __future__ import annotations

import math

from .address import check_word, vertex_cells, vertex_index
from .decimation import (SERIES_SEED, EigenvalueSequence, check_level, series_multiplicity,
                         vertex_count)
from .errors import DomainError

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


def harmonic_pullback(word, three) -> tuple:
    """Inverse of A_w, i.e. A_{w_1}^{-1} ... A_{w_m}^{-1}, built from the
    exact-rational inverses harmonic_inverses(three), in the type of three;
    used to pull cell data back to boundary data."""
    m, inverses = IDENTITY, harmonic_inverses(three)
    for c in check_word(word):
        m = matmul(m, inverses[c])
    return m


def eigen_matrices(lam: float) -> tuple:
    """The three lambda-deformed extension matrices, one per letter, in the
    type of lam: a float, a Decimal in the context's precision, or a sympy
    number or symbol, since a NaN or infinite lam is found without float(lam)."""
    if lam != lam or abs(lam) == math.inf:
        raise DomainError(f"extension matrices need a finite lambda, got {lam!r}")
    den = (5 - lam) * (2 - lam)
    if den == 0:
        raise DomainError(f"extension matrices are singular at lambda={lam!r}")
    a0 = [[x / den for x in row]
          for row in ((den, 0, 0), (4 - lam, 4 - lam, 2), (4 - lam, 2, 4 - lam))]
    return tuple([conjugate(a0, i) for i in range(3)])


class SpectralEigenfunction:
    """Seed values on V_{m0} together with the sequence that refines them.

    The seed is a {vertex: value} map over V_{m0} in the type of the
    sequence's lambda_m0 (a vertex it does not name is 0), so that looking
    up one cell of a deep seed costs no more than a shallow one.  Its values
    on V_m come from mesh.walk one subtree at a time and are never held as
    one array: eval walks them twice, to check them all before its first
    byte and to write them."""

    __slots__ = ("sequence", "seed_values")

    def __init__(self, sequence: EigenvalueSequence, seed_values: dict):
        number = type(sequence.lambda_m0)
        seed = {int(v): number(x) for v, x in seed_values.items()}
        if not all(0 <= v < vertex_count(sequence.m0) for v in seed):
            raise DomainError(f"seed names a vertex outside V_{sequence.m0}")
        self.sequence, self.seed_values = sequence, seed

    @property
    def m0(self) -> int:
        return self.sequence.m0

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
        zero = type(self.sequence.lambda_m0)()
        out = tuple(self.seed_values.get(vertex_index(word[:m0], i, m0), zero) for i in range(3))
        for t in range(m0 + 1, len(word) + 1):
            out = matvec(eigen_matrices(self.sequence.value(t))[word[t - 1]], out)
        return out


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

# the basic 6-series element around corner i, a chain of the same form: 2 at
# q_i, -1 at the two midpoints next to it, 1 at the opposite one
_SIX_CHAINS = (
    {((0,), 0): 2.0, ((0,), 1): -1.0, ((0,), 2): -1.0, ((1,), 2): 1.0},
    {((1,), 1): 2.0, ((0,), 1): -1.0, ((1,), 2): -1.0, ((0,), 2): 1.0},
    {((2,), 2): 2.0, ((0,), 2): -1.0, ((1,), 2): -1.0, ((0,), 1): 1.0},
)


def dirichlet_seed_values(series: str, m0: int, index: int = 1) -> dict:
    """The {vertex: value} map on V_{m0} of seed `index` of the series born
    at level m0.

    Each seed is one comprehension over (word prefix, chain) pairs: a 2- or
    5-series seed is a row of _SEED_CHAINS under the empty prefix; a
    6-series seed sits at a junction of V_{m0-1}, and each (m0-1)-cell
    meeting there puts the _SIX_CHAINS chain around its corner at the
    junction under its word (the cells share only the junction, where both
    put 2).  The junctions are the last `count` vertices of V_{m0-1}: its
    interior ones, or at m0 = 1 the corner q2, which gives the basic element
    (not Dirichlet).  Vertices are looked up one at a time, so no level
    graph is built.  The level cap is checked before 3^m0 is formed; a low
    m0 is reported by series_multiplicity."""
    check_level(max(m0, 0))
    count = 1 if (series, m0) == ("six", 1) else series_multiplicity(series, m0)
    if series != "six" and (series, m0) not in _SEED_CHAINS:
        raise DomainError(f"no closed-form seeds for the {series}-series at m0={m0} "
                          f"(multiplicity {count} is still counted in the spectrum)")
    if not 1 <= index <= count:
        raise DomainError(f"seed index must be in 1..{count} for the {series}-series "
                          f"at m0={m0}, got {index}")
    if series == "six":
        chains = [(word, _SIX_CHAINS[corner]) for word, corner
                  in vertex_cells(vertex_count(m0 - 1) - count + index - 1, m0 - 1)]
    else:
        chains = [((), _SEED_CHAINS[series, m0][index - 1])]
    return {vertex_index(prefix + word, corner, m0): v
            for prefix, chain in chains for (word, corner), v in chain.items()}


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
