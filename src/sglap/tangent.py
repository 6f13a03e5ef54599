"""Harmonic tangents of eigenfunctions.

At a point addressed by an eventually constant word w = prefix.tail^inf the
eigenfunction looks, to first order in cell size, like a harmonic function;
its boundary triple is the harmonic tangent T_w u.  The limit of pulled-back
cell triples exists in closed form: with the cut k = max(|prefix|, m0),

    T_w u = A_{w_1}^{-1} ... A_{w_k}^{-1}  S_t M0(lambda, k) S_t  u|cell_k,

where M0 collapses the entire tail of deformed extensions below level k into
one matrix, and S_t is the corner swap moving the tail letter t to 0.  All
coefficients reduce to the tail products tau_k, fixed sums, so nothing here
iterates to convergence.  The 3x3 products run on Python floats.  The normal
derivative at a corner is the tangent's: with t = T_{:i} u and g its
gradient, d_n u(q_i) = 2 t_i - t_{i+1} - t_{i+2} = 3 g_i.
"""
from __future__ import annotations

import sys

from . import special
from .address import EventuallyConstantWord
from .decimation import EigenvalueSequence
from .errors import DomainError
from .harmonic import (IDENTITY, SpectralEigenfunction, conjugate, harmonic_pullback, matmul,
                       matvec)


def gradient(t) -> tuple:
    """The tangent triple t less its mean, coordinatewise: the gradient
    column of `tangent`.  Tangent-level identities do not depend on this
    choice of average-zero projection."""
    mean = (t[0] + t[1] + t[2]) / 3.0
    return (t[0] - mean, t[1] - mean, t[2] - mean)


def m0_matrix(sequence: EigenvalueSequence, k: int) -> tuple:
    """The closed-form tail matrix M0(lambda, k) at cut level k >= m0.

    M0 = I + O(lambda_k), and a lambda_k below the smallest normal float has
    too few significant bits to divide by (or has underflowed to 0), so it
    gives the identity."""
    if k < sequence.m0:
        raise DomainError(f"cut level {k} below the sequence start {sequence.m0}")
    lam_k = sequence.value(k)
    if abs(lam_k) < sys.float_info.min:
        return IDENTITY
    try:
        scale = 3.0 * 5.0**k
    except OverflowError:
        raise DomainError(f"cut level {k} is past the float range of 5^k") from None
    lam = sequence.limit()
    t = special.tau(k, sequence)
    c = lam / (scale * lam_k)
    off = 1.0 - (4.0 - lam_k) * t * c
    return (
        (1.0, 0.0, 0.0),
        (off, c * (2.0 * t + 1.0), c * (2.0 * t - 1.0)),
        (off, c * (2.0 * t - 1.0), c * (2.0 * t + 1.0)),
    )


def cut_level(w: EventuallyConstantWord, m0: int) -> int:
    """The cut k = max(|prefix|, m0) at which tangent_at factors the tangent
    at w of an eigenfunction seeded on V_{m0}: the k column of `tangent`."""
    return max(len(w.prefix), m0)


def tangent_at(u: SpectralEigenfunction, w: EventuallyConstantWord) -> tuple:
    """Harmonic tangent of u at the point addressed by the eventually
    constant word w (EventuallyConstantWord.parse reads one from text): the
    boundary triple (t0, t1, t2) of the tangent harmonic function, factored
    at cut_level(w, u.m0); any cut past it gives the same triple up to
    roundoff."""
    k = cut_level(w, u.m0)
    word = w.truncation(k)
    tail_matrix = conjugate(m0_matrix(u.sequence, k), w.tail)
    to_tangent = matmul(harmonic_pullback(word), tail_matrix)
    return matvec(to_tangent, u.cell_triple(word))
