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
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .address import LevelGraph, build_level_graph, check_letter, check_word
from .decimation import SERIES_SEED, EigenvalueSequence, series_multiplicity, vertex_count
from .errors import ConvergenceError, DomainError

# CORNER_SWAPS[i] exchanges corner 0 with corner i; conjugating the corner-0
# extension matrix by it yields the corner-i one.
CORNER_SWAPS = np.stack([np.eye(3), np.eye(3)[[1, 0, 2]], np.eye(3)[[2, 1, 0]]])

HARMONIC_MATRICES = np.stack(
    [s @ (np.array([[5.0, 0, 0], [2, 2, 1], [2, 1, 2]]) / 5.0) @ s for s in CORNER_SWAPS]
)

# (1/3) * integer matrix, exact inverse of the 1-5-5 step
HARMONIC_INVERSES = np.stack(
    [s @ (np.array([[3.0, 0, 0], [-2, 10, -5], [-2, -5, 10]]) / 3.0) @ s for s in CORNER_SWAPS]
)

HARMONIC_MATRICES.setflags(write=False)
HARMONIC_INVERSES.setflags(write=False)


def harmonic_pullback(word) -> np.ndarray:
    """Inverse of A_w, i.e. A_{w_1}^{-1} ... A_{w_m}^{-1}, built from the
    exact-rational inverses; used to pull cell data back to boundary data."""
    m = np.eye(3)
    for c in check_word(word):
        m = m @ HARMONIC_INVERSES[c]
    return m


def extend_level(cell_values, mats) -> np.ndarray:
    """One refinement step: child cell 3*c + letter gets mats[letter] @ cell c."""
    values = np.ascontiguousarray(cell_values, dtype=float).reshape(-1, 3)
    out = np.empty((3 * values.shape[0], 3))
    for letter in range(3):
        out[letter::3] = values @ mats[letter].T
    return out


def cell_values_to_vertex(graph: LevelGraph, cell_values, tol: float = 1e-9):
    """Collapse per-cell triples to one value per vertex.

    Junction vertices appear in two cells; their copies must agree to `tol`
    (relative to the value scale) or the triples do not describe a function.
    """
    cv = np.asarray(cell_values, dtype=float)
    if cv.shape != graph.cells.shape:
        raise DomainError(f"expected cell array of shape {graph.cells.shape}, got {cv.shape}")
    out = np.bincount(graph.cells.reshape(-1), weights=cv.reshape(-1), minlength=graph.size)
    out /= np.bincount(graph.cells.reshape(-1), minlength=graph.size)
    scale = max(1.0, float(np.max(np.abs(cv))))
    # one corner column at a time, so that the gaps take a third of cv's memory
    dev = float(np.max([np.abs(cv[:, i] - out[graph.cells[:, i]]).max() for i in range(3)]))
    if dev > tol * scale:
        raise DomainError(f"cell triples disagree at a junction by {dev:.3e}")
    return out


def vertex_to_cell_values(graph: LevelGraph, values):
    values = np.asarray(values, dtype=float)
    if values.shape != (graph.size,):
        raise DomainError(f"expected {graph.size} vertex values, got shape {values.shape}")
    return values[graph.cells]


def graph_laplacian(graph: LevelGraph, values) -> np.ndarray:
    """sum_{y~x} (u(y) - u(x)) at every vertex, boundary included.

    Every edge lies in exactly one cell, so this is the sum over cells of the
    cell Laplacian (u_0 + u_1 + u_2) - 3 u_i at each corner i.
    """
    values = np.asarray(values, dtype=float)
    if values.shape != (graph.size,):
        raise DomainError(f"expected {graph.size} vertex values, got shape {values.shape}")
    cv = values[graph.cells]
    cv = cv.sum(axis=1, keepdims=True) - 3.0 * cv  # cell Laplacians; frees the triples
    return np.bincount(graph.cells.ravel(), weights=cv.ravel(), minlength=graph.size)


def harmonic_normal_derivative(boundary_values, corner: int) -> float:
    """Normal derivative of a harmonic function at q_corner.

    For harmonic h the renormalized limit (5/3)^M (2u(q_i) - two neighbor
    values) is constant in M, so the level-0 expression is already exact.
    """
    b = np.asarray(boundary_values, dtype=float).reshape(3)
    i = check_letter(corner)
    return float(2.0 * b[i] - b[(i + 1) % 3] - b[(i + 2) % 3])


def normal_derivative_limit(value_at, corner: int, levels: int = 20):
    """Renormalized boundary difference quotient of an arbitrary function.

    `value_at(word, letter)` must return the value at F_word(q_letter).
    Returns the level-`levels` estimate
        (5/3)^M (2 f(q_i) - f(F_i^M q_{i+1}) - f(F_i^M q_{i+2}))
    and the gap to the previous estimate as an error proxy.  Raises if the
    estimates start moving apart instead of settling.
    """
    i = check_letter(corner)
    if levels < 2:
        raise DomainError(f"need at least 2 refinement levels, got {levels}")
    base = 2.0 * value_at((), i)
    estimates = []
    for m in range(max(2, levels - 2), levels + 1):
        word = (i,) * m
        est = (5.0 / 3.0) ** m * (base - value_at(word, (i + 1) % 3) - value_at(word, (i + 2) % 3))
        estimates.append(est)
    gaps = [abs(b - a) for a, b in zip(estimates, estimates[1:])]
    scale = max(1.0, abs(estimates[-1]))
    if len(gaps) >= 2 and gaps[-1] > gaps[-2] and gaps[-1] > 1e-9 * scale:
        raise ConvergenceError(
            f"normal-derivative estimates diverge at corner {i}: gaps {gaps[-2:]}"
        )
    return estimates[-1], gaps[-1]


@lru_cache(maxsize=4096)
def eigen_matrices(lam: float) -> np.ndarray:
    """The three lambda-deformed extension matrices, stacked (letter, 3, 3)."""
    if not math.isfinite(lam):
        raise DomainError(f"extension matrices need a finite lambda, got {lam!r}")
    den = (5.0 - lam) * (2.0 - lam)
    if den == 0.0:
        raise DomainError(f"extension matrices are singular at lambda={lam!r}")
    a0 = np.array([[den, 0.0, 0.0], [4.0 - lam, 4.0 - lam, 2.0], [4.0 - lam, 2.0, 4.0 - lam]]) / den
    out = np.stack([s @ a0 @ s for s in CORNER_SWAPS])
    out.setflags(write=False)
    return out


def eigen_residual(graph: LevelGraph, values, lam_level: float) -> float:
    """Max interior defect of the level eigen-equation, relative to the sup
    norm; 0.0 on V_0, which has no interior vertex."""
    r = graph_laplacian(graph, values) + float(lam_level) * np.asarray(values, dtype=float)
    scale = max(1.0, float(np.max(np.abs(values))))
    return float(np.max(np.abs(r[3:]), initial=0.0)) / scale


@dataclass(frozen=True, eq=False)
class SpectralEigenfunction:
    """Seed values on V_{m0} together with the sequence that refines them."""

    sequence: EigenvalueSequence
    seed_values: np.ndarray

    def __post_init__(self):
        seed = np.array(self.seed_values, dtype=float)
        expected = vertex_count(self.m0)
        if seed.shape != (expected,):
            raise DomainError(f"need {expected} vertex values at level {self.m0}, got {seed.shape}")
        seed.setflags(write=False)
        object.__setattr__(self, "seed_values", seed)

    @property
    def m0(self) -> int:
        return self.sequence.m0

    def cell_values(self, m: int) -> np.ndarray:
        """Per-cell triples on level m, refined level by level from the seed."""
        if m < self.m0:
            raise DomainError(f"level {m} below seed level {self.m0}")
        values = vertex_to_cell_values(build_level_graph(self.m0), self.seed_values)
        for j in range(self.m0 + 1, m + 1):
            values = extend_level(values, eigen_matrices(self.sequence.value(j)))
        return values

    def values_on_level(self, m: int, tol: float = 1e-9) -> np.ndarray:
        return cell_values_to_vertex(build_level_graph(m), self.cell_values(m), tol=tol)

    def value_at(self, word, letter) -> float:
        """Value at the single vertex F_word(q_letter)."""
        word = check_word(word)
        letter = check_letter(letter)
        if len(word) <= self.m0:
            # already a vertex of the seed graph
            return float(self.seed_values[build_level_graph(self.m0).index_of(word, letter)])
        return float(self.cell_triple(word)[letter])

    def cell_triple(self, word) -> np.ndarray:
        """Values at the three corners of the given cell.

        Walks one triple down the word instead of materializing whole levels,
        so arbitrarily deep cells stay cheap: letter t of the word applies
        the extension matrix at lambda_t.
        """
        word = check_word(word)
        m0 = self.m0
        if len(word) <= m0:
            return np.array([self.value_at(word, c) for c in range(3)])
        out = self.cell_triple(word[:m0])
        for t in range(m0 + 1, len(word) + 1):
            out = eigen_matrices(self.sequence.value(t))[word[t - 1]] @ out
        return out

    def residual(self, m: int) -> float:
        return eigen_residual(build_level_graph(m), self.values_on_level(m), self.sequence.value(m))


def rotate_six(corner: int) -> np.ndarray:
    """Level-1 values of the basic 6-series element with its 2 at the given
    corner: adjacent midpoints get -1, the opposite one +1, other corners 0."""
    c = check_letter(corner)
    out = np.zeros(6)
    out[c] = 2.0
    mids = {frozenset({0, 1}): 3, frozenset({0, 2}): 4, frozenset({1, 2}): 5}
    for pair, pos in mids.items():
        out[pos] = -1.0 if c in pair else 1.0
    return out


# the level-1 vertices q0, q1, q2, (0):1, (0):2, (1):2 of rotate_six's order
# as (child cell letter, corner) pairs
_LEVEL1_CHILDREN = np.array([0, 1, 2, 0, 0, 1])
_LEVEL1_CORNERS = np.array([0, 1, 2, 1, 2, 2])


def six_series_element(plus_indices=None) -> SpectralEigenfunction:
    """The basic 6-series seed: lambda_1 = 6 with the forced plus root 3.

    plus_indices defaults to {2}; any set given must contain level 2.
    """
    plus_indices = frozenset({2}) if plus_indices is None else frozenset(plus_indices)
    if 2 not in plus_indices:
        raise DomainError("the 6-series must take the plus root at level m0 + 1")
    seq = EigenvalueSequence(1, 6.0, plus_indices)
    return SpectralEigenfunction(seq, rotate_six(2))


def _two_seed_values(index: int) -> np.ndarray:
    if index != 1:
        raise DomainError("the 2-series has a single seed (index 1)")
    return np.array([0.0, 0, 0, 1, 1, 1])


def _five_level1_seed_values(index: int) -> np.ndarray:
    if index == 1:
        return np.array([0.0, 0, 0, 1, -1, 0])
    if index == 2:
        return np.array([0.0, 0, 0, 1, 0, -1])
    raise DomainError("the level-1 5-series has two seeds (index 1 or 2)")


_FIVE_LEVEL2_CHAINS = (
    {((0, 0), 1): -1.0, ((0, 1), 2): 1.0, ((2, 0), 1): -1.0, ((2, 1), 2): 1.0},
    {((0, 0), 1): 1.0, ((0, 0), 2): -1.0, ((2, 2), 0): 1.0, ((2, 2), 1): -1.0,
     ((1, 1), 2): 1.0, ((1, 1), 0): -1.0},
    {((1, 0), 2): 1.0, ((2, 0), 1): -1.0, ((2, 0), 2): 1.0, ((1, 1), 0): -1.0},
)


def _five_level2_seed_values(index: int) -> np.ndarray:
    if not 1 <= index <= 3:
        raise DomainError("the level-2 5-series has three seeds (index 1..3)")
    graph = build_level_graph(2)
    out = np.zeros(graph.size)
    for (word, letter), v in _FIVE_LEVEL2_CHAINS[index - 1].items():
        out[graph.index_of(word, letter)] = v
    return out


def _six_seed_values(m0: int, index: int) -> np.ndarray:
    coarse = build_level_graph(m0 - 1)
    n_interior = coarse.size - 3
    if not 1 <= index <= n_interior:
        raise DomainError(f"6-series index must be in 1..{n_interior} at m0={m0}")
    graph = build_level_graph(m0)
    out = np.zeros(graph.size)
    # the junction is a corner of two (m0-1)-cells; each gets the basic
    # 6-series element with its 2 there, on its three child cells
    for cell, corner in np.argwhere(coarse.cells == 2 + index).tolist():
        out[graph.cells[3 * cell + _LEVEL1_CHILDREN, _LEVEL1_CORNERS]] = rotate_six(corner)
    return out


def supports_closed_form(series: str, m0: int) -> bool:
    """Whether seed eigenvectors (not just multiplicities) are constructible.

    The 5-series chain constructions are wired for m0 <= 2; deeper levels
    would need the cycle combinatorics around every hole of V_{m0-1}.
    """
    if series == "two":
        return m0 == 1
    if series == "five":
        return 1 <= m0 <= 2
    if series == "six":
        return m0 >= 2
    return False


def dirichlet_seed_values(series: str, m0: int, index: int = 1) -> np.ndarray:
    mult = series_multiplicity(series, m0)
    if not supports_closed_form(series, m0):
        raise DomainError(f"no closed-form seeds for the {series}-series at m0={m0} "
                          f"(multiplicity {mult} is still counted in the spectrum)")
    if series == "two":
        return _two_seed_values(index)
    if series == "five":
        return _five_level1_seed_values(index) if m0 == 1 else _five_level2_seed_values(index)
    return _six_seed_values(m0, index)


def dirichlet_eigenfunction(series: str, m0: int, index: int = 1,
                            plus_indices=None) -> SpectralEigenfunction:
    """Seed eigenfunction of a named series with chosen branch levels."""
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
