"""Harmonic tangents of eigenfunctions.

At a point addressed by an eventually constant word w = prefix.tail^inf the
eigenfunction looks, to first order in cell size, like a harmonic function;
its boundary triple is the harmonic tangent T_w u.  The limit of pulled-back
cell triples exists in closed form: with the cut k = max(|prefix|, m0),

    T_w u = A_{w_1}^{-1} ... A_{w_k}^{-1}  S_t M0(lambda, k) S_t  u|cell_k,

where M0 collapses the entire tail of deformed extensions below level k into
one matrix, and S_t is the corner swap moving the tail letter t to 0.  All
coefficients reduce to the tail products tau_k, fixed sums, so nothing here
iterates to convergence.  The normal derivative at a corner is the
tangent's: with t = T_{:i} u and g its gradient,
d_n u(q_i) = 2 t_i - t_{i+1} - t_{i+2} = 3 g_i.
"""
from __future__ import annotations

import math

from . import special
from .address import EventuallyConstantWord
from .decimation import EigenvalueSequence
from .errors import DomainError, SglapError
from .harmonic import (IDENTITY, SpectralEigenfunction, conjugate, harmonic_pullback, matmul,
                       matvec)

# digits past the 5^k by which the pullback and M0 amplify roundoff, and
# the self-check's extra digits
_MARGIN, _RECHECK = 45, 20


def gradient(t) -> tuple:
    """The tangent triple t less its mean, coordinatewise, in t's type: the
    gradient column of `tangent`.  Tangent-level identities do not depend
    on this choice of average-zero projection."""
    mean = (t[0] + t[1] + t[2]) / 3
    return (t[0] - mean, t[1] - mean, t[2] - mean)


def m0_matrix(sequence: EigenvalueSequence, k: int) -> tuple:
    """The closed-form tail matrix M0(lambda, k) at cut level k >= m0, in
    the type of the sequence.  M0 = I + O(lambda_k), and at lambda = 0, the
    harmonic case, it is I: c's 0/0 there has the limit 1/2."""
    if k < sequence.m0:
        raise DomainError(f"cut level {k} below the sequence start {sequence.m0}")
    lam_k = sequence.value(k)
    if not lam_k:
        return IDENTITY
    lam = sequence.limit()
    t = special.tau(k, sequence)
    c = lam / (3 * 5**k * lam_k)
    off = 1 - (4 - lam_k) * t * c
    return (
        (1, 0, 0),
        (off, c * (2 * t + 1), c * (2 * t - 1)),
        (off, c * (2 * t - 1), c * (2 * t + 1)),
    )


def cut_level(w: EventuallyConstantWord, m0: int) -> int:
    """The cut k = max(|prefix|, m0) at which tangent_at factors the tangent
    at w of an eigenfunction seeded on V_{m0}: the k column of `tangent`."""
    return max(len(w.prefix), m0)


def _rounded(u: SpectralEigenfunction, w: EventuallyConstantWord, k: int, digits: int) -> tuple:
    """tangent_at's (t, g) in `digits` digits, rounded to floats."""
    # decimal is imported here, not with the module: imported there, ahead
    # of the layers this module imports, it raised a fresh `tangent
    # --verify`'s peak RSS by about 0.1 MB (Python 3.11, x86_64, no .pyc)
    from decimal import Context, Decimal, localcontext

    word = w.truncation(k)
    with localcontext(Context(prec=digits)):
        sequence = EigenvalueSequence(u.m0, Decimal(u.sequence.lambda_m0),
                                      u.sequence.plus_indices)
        triple = SpectralEigenfunction(sequence, u.seed_values).cell_triple(word)
        tail_matrix = conjugate(m0_matrix(sequence, k), w.tail)
        pullback = harmonic_pullback(word, Decimal(3))
        t = matvec(matmul(pullback, tail_matrix), triple)
        floor = max(map(abs, t)).scaleb(20 - _MARGIN)
        return tuple(tuple(0.0 if abs(x) <= floor else float(x) for x in v)
                     for v in (t, gradient(t)))


def tangent_at(u: SpectralEigenfunction, w: EventuallyConstantWord) -> tuple:
    """(t, g): the harmonic tangent of u at the point addressed by the
    eventually constant word w, the boundary triple of the tangent harmonic
    function, and its gradient, factored at cut_level(w, u.m0).

    It runs in decimal, in ceil(max(k, p + 1) log10 5) + _MARGIN digits for
    the cut k and the last plus level p (or 0); g is formed before rounding,
    and an entry at or below 10^(20 - _MARGIN) max|t|, 20 digits above the
    noise, is 0.0.  A run _RECHECK digits higher must round each entry alike
    or to a neighbour (a halfway value rounds either way), else SglapError."""
    k = cut_level(w, u.m0)
    last = max(u.sequence.plus_indices, default=0)
    digits = math.ceil(max(k, last + 1) * math.log10(5)) + _MARGIN
    low, out = (_rounded(u, w, k, d) for d in (digits, digits + _RECHECK))
    for a, b in zip(low[0] + low[1], out[0] + out[1]):
        if a != b and math.nextafter(a, b) != b:
            raise SglapError(f"the tangent at {w} differs between {digits} and "
                             f"{digits + _RECHECK} significant digits")
    return out
