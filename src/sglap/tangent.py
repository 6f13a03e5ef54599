"""Harmonic tangents of eigenfunctions.

At a point addressed by an eventually constant word w = prefix.tail^inf the
eigenfunction looks, to first order in cell size, like a harmonic function;
its boundary triple is the harmonic tangent T_w u.  The limit of pulled-back
cell triples exists in closed form: with the cut k = max(|prefix|, m0),

    T_w u = A_{w_1}^{-1} ... A_{w_k}^{-1}  S_t M0(lambda, k) S_t  u|cell_k,

where M0 collapses the entire tail of deformed extensions below level k into
one matrix, and S_t is the corner swap moving the tail letter t to 0.  All
coefficients reduce to the tail products tau_k, so nothing here iterates to
convergence except the eigenvalue itself.

Seed tangents for the Dirichlet series are the Figure-style local pieces:
one cell of a 2-/5-/6-series eigenfunction re-based as an m0 = 0 function.
Full Dirichlet tangents need no separate assembly step, because tangent_at
accepts Dirichlet eigenfunctions directly; scaled and rotated copies of the
seed pieces reproduce them cell by cell.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import special
from .address import EventuallyConstantWord
from .decimation import Branch, EigenvalueSequence
from .errors import DomainError
from .harmonic import (CORNER_SWAPS, SpectralEigenfunction, harmonic_normal_derivative,
                       harmonic_pullback, normal_derivative_limit, six_series_element)

# alpha, beta and gamma_vector(lambda_m): the triple diagonalizing the tail action
ALPHA = np.array([0.0, 1.0, 1.0])
BETA = np.array([0.0, 1.0, -1.0])

ALPHA.setflags(write=False)
BETA.setflags(write=False)


def gamma_vector(lam_m: float) -> np.ndarray:
    return np.array([4.0, 4.0 - lam_m, 4.0 - lam_m])


class TangentTriple(NamedTuple):
    """Boundary values of the tangent harmonic function."""

    t0: float
    t1: float
    t2: float

    def as_array(self) -> np.ndarray:
        return np.array(self)

    def gradient(self) -> np.ndarray:
        """Mean-subtracted triple.

        The average-zero projection is taken coordinatewise (plain mean
        subtraction); tangent-level identities do not depend on this choice.
        """
        t = self.as_array()
        return t - t.mean()


def limit_action(sequence: EigenvalueSequence, m0: int, v: str) -> np.ndarray:
    """Limit of A0^{-(m-m0)} A0(lambda_m) ... A0(lambda_{m0+1}) on a basis vector.

    alpha and beta are eigendirections with coefficients 4 c tau_{m0} and 2 c
    where c = lambda / (3 5^{m0} lambda_{m0}); gamma_{m0} is sent to (4,4,4)
    for every admissible sequence.  lambda = 0 makes the whole product the
    identity.
    """
    if m0 < sequence.m0:
        raise DomainError(f"level {m0} below the sequence start {sequence.m0}")
    if v not in ("alpha", "beta", "gamma"):
        raise DomainError(f"basis vector must be alpha, beta or gamma: {v!r}")
    if sequence.lambda_m0 == 0.0:
        # harmonic sequence: every factor is A0(0) = A0, the product telescopes
        return {"alpha": ALPHA, "beta": BETA, "gamma": gamma_vector(0.0)}[v].copy()
    if v == "gamma":
        return np.array([4.0, 4.0, 4.0])
    lam = sequence.limit()
    c = lam / (3.0 * 5.0**m0 * sequence.value(m0))
    if v == "alpha":
        return 4.0 * c * special.tau(m0, sequence) * ALPHA
    return 2.0 * c * BETA


def m0_matrix(sequence: EigenvalueSequence, k: int) -> np.ndarray:
    """The closed-form tail matrix M0(lambda, k) at cut level k >= m0.

    M0 = I + O(lambda_k), and a lambda_k below the smallest normal float has
    too few significant bits to divide by (or has underflowed to 0), so it
    gives the identity."""
    if k < sequence.m0:
        raise DomainError(f"cut level {k} below the sequence start {sequence.m0}")
    if sequence.lambda_m0 == 0.0:
        return np.eye(3)
    lam_k = sequence.value(k)
    if abs(lam_k) < sys.float_info.min:
        return np.eye(3)
    lam = sequence.limit()
    t = special.tau(k, sequence)
    c = lam / (3.0 * 5.0**k * lam_k)
    off = 1.0 - (4.0 - lam_k) * t * c
    return np.array([
        [1.0, 0.0, 0.0],
        [off, c * (2.0 * t + 1.0), c * (2.0 * t - 1.0)],
        [off, c * (2.0 * t - 1.0), c * (2.0 * t + 1.0)],
    ])


def _as_word(w) -> EventuallyConstantWord:
    if isinstance(w, EventuallyConstantWord):
        return w
    if isinstance(w, str):
        return EventuallyConstantWord.parse(w)
    raise DomainError(f"expected an eventually constant word, got {w!r}")


def tangent_at(u: SpectralEigenfunction, w, cut=None) -> TangentTriple:
    """Harmonic tangent of u at the point addressed by w.

    `cut` overrides the factorization level (for consistency checks); any
    value >= max(|prefix|, m0) gives the same triple up to roundoff.
    """
    w = _as_word(w)
    k = max(len(w.prefix), u.m0)
    if cut is not None:
        if cut < k:
            raise DomainError(f"cut {cut} below the canonical level {k}")
        k = int(cut)
    word = w.truncation(k)
    s = CORNER_SWAPS[w.tail]
    tail_matrix = s @ m0_matrix(u.sequence, k) @ s
    triple = harmonic_pullback(word) @ tail_matrix @ u.cell_triple(word)
    return TangentTriple(*(float(x) for x in triple))


def normal_derivative(u: SpectralEigenfunction, i: int) -> float:
    """Normal derivative of u at the corner q_i.

    Non-Dirichlet eigenfunctions (m0 = 0) use the closed form
    ((4 - lambda_0) u(q_i) - 2 u(q_{i+1}) - 2 u(q_{i+2})) * 2 lambda tau_0 /
    (3 lambda_0), where tau_0 is Upsilon(lambda) evaluated along the
    sequence.  Harmonic u reduces to the exact level-0 difference; Dirichlet
    u (m0 >= 1) falls back to the renormalized limit.
    """
    i = int(i)
    if i not in (0, 1, 2):
        raise DomainError(f"corner must be 0, 1 or 2: {i!r}")
    if u.m0 == 0:
        b = u.seed_values
        if u.sequence.lambda_m0 == 0.0:
            return harmonic_normal_derivative(b, i)
        lam0 = u.sequence.value(0)
        lam = u.eigenvalue()
        factor = 2.0 * lam * special.tau(0, u.sequence) / (3.0 * lam0)
        return float(((4.0 - lam0) * b[i] - 2.0 * b[(i + 1) % 3] - 2.0 * b[(i + 2) % 3]) * factor)
    est, _ = normal_derivative_limit(u.value_at, i, levels=20)
    return est


_SEED_CONFIGS = {
    # boundary triple of the local piece and its level-0 value
    "Two": (np.array([0.0, 1.0, 1.0]), 2.0),
    "FiveMinus": (np.array([0.0, 1.0, -1.0]), 5.0),
    "FivePlus": (np.array([0.0, 0.0, 1.0]), 5.0),
}


@dataclass(frozen=True, eq=False)
class TangentSeed:
    """One local piece of a Dirichlet tangent field: the re-based cell
    function together with its branch data.  Its tangents are
    tangent_at(piece, w)."""

    series: str
    branch: Branch
    piece: SpectralEigenfunction
    lambda1: float


def dirichlet_tangent_seed(series: str, branch_sign, lambda1=None) -> TangentSeed:
    """The seed piece whose scaled and rotated copies build a full Dirichlet
    tangent field.

    Two- and Five-series pieces are one level-1 cell of the eigenfunction
    re-based to level 0, so lambda_0 is the series value and lambda_1 is the
    chosen root of the refinement quadratic ((5 +- sqrt 17)/2 for Two,
    (5 +- sqrt 5)/2 for Five); passing lambda1 asserts the expected root.
    The Six piece is the basic 6-series element itself (lambda_1 = 6,
    lambda_2 = 3, no branch freedom).
    """
    branch = Branch.parse(branch_sign)
    if series == "Six":
        if branch is not Branch.PLUS:
            raise DomainError("the 6-series tail is forced onto the plus root")
        piece = six_series_element()
        lam1 = 6.0
    elif series in _SEED_CONFIGS:
        triple, lam0 = _SEED_CONFIGS[series]
        plus = frozenset({1}) if branch is Branch.PLUS else frozenset()
        seq = EigenvalueSequence(0, lam0, plus)
        piece = SpectralEigenfunction(seq, triple)
        lam1 = seq.value(1)
    else:
        raise DomainError(f"unknown seed series {series!r} "
                          "(use Two, FivePlus, FiveMinus or Six)")
    if lambda1 is not None and not math.isclose(lambda1, lam1, rel_tol=1e-12, abs_tol=1e-12):
        raise DomainError(f"lambda_1 = {lambda1!r} is not the {branch.value} root {lam1!r}")
    return TangentSeed(series, branch, piece, lam1)
