"""Special functions built from the quadratic map psi(z) = z(5 - z).

Psi(z) = lim psi^m((2/3) 5^-m z) is g((2/3) z), where g is the Poincare
function of psi at its fixed point 0: g(5w) = psi(g(w)), g(0) = 0, g'(0) = 1
(Fukushima-Shima 1992; Strichartz 2006, section 3).  g is entire, and its
Taylor coefficients a_1 = 1, (5^k - 5) a_k = -sum_{i<k} a_i a_{k-i} fall off
faster than geometrically, so Psi is m psi steps from g summed at
w = (2/3) z / 5^m, |w| <= 1.  It converts a renormalized eigenvalue back into
the level-j entries of its generating sequence (argument divided by 5 per
level, plus branches included for free since both quadratic roots satisfy
the same forward relation).  Upsilon, the tail product scaling tangent and
normal-derivative limits, is tau, the same product along an explicit
sequence, taken along its own.

Every function takes one point on Python floats: a point's value does not
depend on any other, and a `special` grid is its points one at a time, so
this module imports no numpy.  Psi and Upsilon each bound their error from
the one evaluation that gives their value.
"""
from __future__ import annotations

import math

from .errors import ConvergenceError, DomainError

# the validated region of Psi's argument, where |Psi| <= 719
PSI_DOMAIN_BOUND = 100.0
# a tail product stops once its next factor is within tol * this of 1
TAIL_BOUND_FACTOR = 0.1
# a sequence anchors its Psi at the first level J >= 1 with |lambda|/5^J <= this
ANCHOR_BOUND = 2.0
# the tolerance every tail product and renormalized limit in sglap stops by,
# and the iterations it fails past
TOL = 1e-13
MAX_ITERATIONS = 80

_EPS = math.ulp(1.0)  # twice the unit roundoff

# a_12, a_11, ..., a_1 of g, each the float nearest the exact rational;
# literals, since computing them would load fractions into every command
_G_COEFFICIENTS = (
    -9.853082584733467e-29, 1.7715517976959303e-25, -2.588860619015629e-22,
    3.0126756759164347e-19, -2.7232633933140207e-16, 1.854245160073889e-13,
    -9.145468595718482e-11, 3.1017369727047145e-08, -6.720430107526882e-06,
    0.0008333333333333334, -0.05, 1.0)
# |g(w) - Horner's sum| / |w| for |w| <= 1, where sum |a_k| <= 1.0509 and
# |g'| <= 1.11, u the unit roundoff (Higham 2002, sections 3.3 and 5.1):
# Horner's rounding gamma_25 = 25u / (1 - 25u) and the coefficients' own u,
# each times sum |a_k|; w's three roundings through g'; and the tail
# sum_{k>12} |a_k| <= 4.6e-32
_U = _EPS / 2.0
_G_ERROR = (25.0 * _U / (1.0 - 25.0 * _U) + _U) * 1.0509 + 3.0 * _EPS * 1.11 + 4.6e-32


def psi(z):
    return z * (5.0 - z)


def _psi_steps(x: float, e: float, n: int) -> tuple:
    """x after n psi steps and a bound on its error given e on x, since
    psi(x+d) - psi(x) = (5-2x)d - d^2 and x(5 - x) rounds by <= _EPS |psi(x)|."""
    eps = _EPS
    for _ in range(n):
        e = (abs(5.0 - 2.0 * x) + e) * e
        x *= 5.0 - x
        e += eps * abs(x)
    return x, e


def psi_limit_with_error(z: float) -> tuple:
    """Psi at z and a bound on its error, or a DomainError outside the
    validated region: g summed by Horner's rule at w = (2/3) z / 5^m, the
    smallest m >= 0 with |w| <= 1 (m <= 3 in the region), then m psi steps.
    Below the normal range w and the sum round absolutely, which the bound
    covers with two subnormal spacings."""
    if not abs(z) <= PSI_DOMAIN_BOUND:
        raise DomainError(f"argument {z!r} outside the validated region "
                          f"|z| <= {PSI_DOMAIN_BOUND:g}")
    m, w = 0, (2.0 / 3.0) * z
    while abs(w) > 1.0:
        m += 1
        w = (2.0 / 3.0) * z / 5.0**m
    x = 0.0
    for a in _G_COEFFICIENTS:
        x = x * w + a
    e = _G_ERROR * abs(w) + (2.0 * math.ulp(0.0) if w else 0.0)
    return _psi_steps(x * w, e, m)


def anchor_level(lam: float) -> int:
    """The first level J >= 1 with |lam|/5^J <= ANCHOR_BOUND, where a
    generating sequence takes its one Psi value."""
    J = 1
    while abs(lam) / 5.0**J > ANCHOR_BOUND:
        J += 1
    return J


def _rel(e: float, size: float) -> float:
    """A bound on the relative error of s and of 1/s, for an s of this size
    that is off by at most e: e / (size - e), infinite once e reaches it."""
    return e / (size - e) if e < size else math.inf


def upsilon_with_error(lam: float, tol: float = TOL) -> tuple:
    """Upsilon at lam and a bound on its error, or its failure raised: its
    head's Psi outside the validated region, a pole, then a tail still open
    after level MAX_ITERATIONS + 1.

    Upsilon is tau along lam's own sequence lambda_j = Psi(lam/5^j): the
    head lambda_1 and the anchor lambda_J (J = anchor_level(lam), taken
    only when J >= 2) are Psi values, psi steps give lambda_{J-1}
    .. lambda_2 and minus roots the entries below J.  The bound runs with the
    product (Higham 2002, section 3.3): each entry's error relative to
    2 - lambda_1 or 3 - lambda_j (inf once it reaches it), _EPS of rounding
    per factor, and expm1(|lambda_j|/9) for the factors left after the stop,
    whose entries shrink 4x per level."""
    lam_1, d = psi_limit_with_error(lam / 5.0)
    if lam_1 == 2.0:
        raise DomainError(f"tail product has a pole at lambda={lam!r}")
    J = anchor_level(lam)
    x, e = psi_limit_with_error(lam / 5.0**J) if J > 1 else (lam_1, d)
    rising = [(x, e)]  # lambda_J, lambda_{J-1}, ..., lambda_2, each with its bound
    for _ in range(J - 2):
        rising.append(_psi_steps(*rising[-1], 1))
    prod, rel = 1.0 / (2.0 - lam_1), _rel(d, abs(2.0 - lam_1)) + _EPS
    for j in range(2, MAX_ITERATIONS + 2):
        if j <= J:
            x, e = rising[J - j]
        else:
            # the minus root (5 - r)/2, r = sqrt(25 - 4x), has slope at most
            # 1/(r - 4e/r) within e of x; it is under x/4, with four roundings
            root = math.sqrt(25.0 - 4.0 * x)
            x, e = 2.0 * x / (5.0 + root), root / 4.0 * _rel(4.0 * e / root, root) + _EPS * abs(x)
        prod *= 1.0 - x / 3.0
        rel += (_rel(e + _EPS * abs(x), abs(3.0 - x)) + _EPS) * (1.0 + rel)
        if j >= J and abs(x) / 3.0 < tol * TAIL_BOUND_FACTOR:
            rel += math.expm1((abs(x) + e) / 9.0) * (1.0 + rel)
            return prod, abs(prod) * rel if rel < math.inf else math.inf
    raise ConvergenceError(f"tail product did not converge for lambda={lam!r}")


def tau(k: int, sequence) -> float:
    """Tail product of an explicit eigenvalue sequence, anchored at level k.

    Equals Upsilon(5^-k lambda) for the sequence's renormalized limit; taking
    the sequence's own entries keeps it exact through its plus branches, as
    it runs at least down to the last plus level: after a minus run a factor
    can pass the tolerance above it.  Needs k >= m0 (lambda_{k+1} defined).
    """
    lam1 = sequence.value(k + 1)
    if lam1 == 2.0:
        raise DomainError(f"tail product undefined at k={k}: lambda_{k + 1} = 2")
    last_plus = max(sequence.plus_indices, default=0)
    prod = 1.0 / (2.0 - lam1)
    for j in range(2, MAX_ITERATIONS + 2 + max(0, last_plus - k)):
        term = sequence.value(k + j)
        prod *= 1.0 - term / 3.0
        if k + j >= last_plus and abs(term) / 3.0 < TOL * TAIL_BOUND_FACTOR:
            return prod
    raise ConvergenceError(f"tail product did not converge at k={k}")
