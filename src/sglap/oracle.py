"""Independent brute-force verifiers for the closed forms elsewhere; each
hands back plain numbers for the CLI to judge: each spectrum line paired
with its bracket, counted by inertia on the graph with none of
decimation's roots, and tangents from literally iterating pulled-back cell
triples in Decimals (each pullback level multiplies roundoff in the
antisymmetric component by 5).  That iteration shares harmonic's
matrices, called on its Decimals, and conjugate, matvec and matmul, but
not the closed form: nothing of tangent, no M0, no tau, its own lambda
step.  The shared matrices are checked by an mpmath transcription and by
graph residuals.
"""
from __future__ import annotations

import math
import sys

from .errors import DomainError


def dirichlet_count(x: float, level: int) -> int:
    """N(x): how many Dirichlet eigenvalues of -Delta_level lie below x.

    A - xI is the sum over the level's cells of a I + b (J - I), a = 2 - x/2
    and b = -1.  Eliminating each k-cell's three midpoints, k from level - 1
    down to 0, removes P_k = 2a I + b (J - I), with eigenvalues 2a - b
    (twice) and 2(a + b), and leaves on the k-cell a form of the same shape,
    the Schur complement, with eigenvalues s0 = a - b^2/(2a - b) (twice)
    and s1 = a - 2b^2/(a + b).  By Sylvester's law of inertia and
    Haynsworth's additivity N(x) is the sum of 3^k neg(P_k).  A shift that
    makes some P_k singular moves down one float and is counted again."""
    while True:
        a, b, n = 2.0 - x / 2.0, -1.0, 0
        try:
            for k in range(level - 1, -1, -1):
                p0, p1 = 2.0 * a - b, a + b
                n += 3**k * (2 * (p0 < 0.0) + (p1 < 0.0))
                s0, s1 = a - b * b / p0, a - 2.0 * b * b / p1
                a, b = (2.0 * s0 + s1) / 3.0, (s1 - s0) / 3.0
            return n
        except ZeroDivisionError:
            x = math.nextafter(x, -math.inf)


def bracket_half_widths(level: int, lines):
    """(line, h) per spectrum line, ascending in value, h the half-width at
    which N(value - h) counts the multiplicities before it and N(value + h)
    adds its own: h starts at u (|value| + |4 - value|), u = 2^-53, which
    the count cannot resolve (value +- h rounds by u |value|, 2 - x/2 by
    u |4 - x| in x), and doubles while below the gap to the neighbouring
    values, else sys.float_info.max.  Last comes (None, 0.0) if the
    multiplicities add up to all (3^(level+1) - 3)/2 eigenvalues, else
    (None, sys.float_info.max).  A generator: each pair is made when the
    line after it is read, and no line is held past it."""
    lines, below, lo = iter(lines), 0, -math.inf
    line = next(lines, None)
    while line is not None:
        after = next(lines, None)
        lam, hi = line.value, math.inf if after is None else after.value
        h, gap = 2.0**-53 * (abs(lam) + abs(4.0 - lam)), min(lam - lo, hi - lam)
        expected = below, below + line.multiplicity
        while h < gap and (dirichlet_count(lam - h, level),
                           dirichlet_count(lam + h, level)) != expected:
            h *= 2.0
        yield line, h if h < gap else sys.float_info.max
        below, lo, line = below + line.multiplicity, lam, after
    yield None, 0.0 if below == (3 ** (level + 1) - 3) // 2 else sys.float_info.max


def direct_tangent_limit(u, w, m: int):
    """(triple, error): the pulled-back cell triple
    A_{w_1}^{-1}...A_{w_m}^{-1} u|cell([w]_m) of a
    harmonic.SpectralEigenfunction u at an address.EventuallyConstantWord w,
    as a tuple of three floats.

    This is the defining sequence of the harmonic tangent, iterated with no
    closed-form shortcuts; the reported error is the distance to the m-1
    iterate.  Runs in ceil(m log10 5) + 32 significant decimal digits (50 at
    m = 25), because the pullback amplifies the antisymmetric roundoff
    component five-fold per level.  Past the cut and the last plus level the
    iterates contract about three-fold per level, so a caller that wants the
    limit iterates some tens of levels beyond both.  The matrices and
    products are harmonic's, run on Decimals.
    """
    m0 = u.m0
    if m < m0:
        raise DomainError(f"need m >= m0 = {m0}, got {m}")
    # decimal and harmonic are imported here, so that a spectrum check loads
    # neither of them
    from decimal import Context, Decimal, localcontext

    from .harmonic import eigen_matrices, harmonic_inverses, harmonic_pullback, matmul, matvec

    # a local context: the caller's decimal context is left as it was
    with localcontext(Context(prec=math.ceil(m * math.log10(5)) + 32)):
        inverses = harmonic_inverses(Decimal(3))
        lam = Decimal(u.sequence.lambda_m0)
        pull = harmonic_pullback(w.truncation(m0), Decimal(3))
        triple = [Decimal(x) for x in u.cell_triple(w.truncation(m0))]
        prev = None
        cur = matvec(pull, triple)
        for t in range(m0 + 1, m + 1):
            root = (25 - 4 * lam).sqrt()
            lam = (5 + root) / 2 if t in u.sequence.plus_indices else 2 * lam / (5 + root)
            letter = w.letter(t)
            triple = matvec(eigen_matrices(lam)[letter], triple)
            pull = matmul(pull, inverses[letter])
            prev = cur
            cur = matvec(pull, triple)
        out = tuple(float(x) for x in cur)
        err = math.inf if prev is None else float(max(abs(a - b) for a, b in zip(cur, prev)))
    return out, err
