"""Harmonic functions on the gasket: the 1-5-5 extension algorithm.

A harmonic function is determined by its three boundary values; restricting
to a cell F_w multiplies the boundary triple by A_w = A_{w_m} ... A_{w_1}
(letters applied in the order the maps compose).  Appending a letter to a
word multiplies one more matrix on the left, which is exactly the cell
refinement step of `extend_level`.
"""
from __future__ import annotations

import numpy as np

from .address import LevelGraph, check_letter, check_word
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
