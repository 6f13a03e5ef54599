"""Special functions built from the quadratic map psi(z) = z(5 - z).

Psi(z) = lim psi^m((2/3) 5^-m z) is g((2/3) z), where g is the Poincare
function of psi at its fixed point 0: g(5w) = psi(g(w)), g(0) = 0, g'(0) = 1
(Fukushima-Shima 1992; Strichartz 2006, section 3).  g is entire, and its
Taylor coefficients a_1 = 1, (5^k - 5) a_k = -sum_{i<k} a_i a_{k-i} fall off
faster than geometrically, so Psi is m psi steps from g summed at
w = (2/3) z / 5^m, |w| <= 1.  It converts a renormalized eigenvalue back into
the level-j entries of its generating sequence (argument divided by 5 per
level, plus branches included for free since both quadratic roots satisfy
the same forward relation).

Two more series over g replace every iterated limit.  The tail product
P(y) = prod_{i>=0} (1 - g(y/5^i)/3) is entire; Upsilon, which scales tangent
and normal-derivative limits, is P((2/3) lam/25) / (2 - Psi(lam/5)), and tau
the same product along an explicit sequence, in its type.  Phi = g^-1, the
Koenigs function of the minus root (Milnor 2006, section 8), gives a
renormalized limit as 1.5 * 5^t * Phi(lambda_t) (decimation).

Every other function takes one point on Python floats: a point's value
does not depend on any other, and a `special` grid is its points one at a
time, so this module imports no numpy.  Psi and Upsilon each bound their
error from the one evaluation that gives their value.
"""
from __future__ import annotations

import math

from .errors import DomainError

# the validated region of Psi's argument, where |Psi| <= 719
PSI_DOMAIN_BOUND = 100.0
# a sequence anchors its Psi at the first level J >= 1 with |lambda|/5^J <= this
ANCHOR_BOUND = 2.0
# Phi's series is summed on |x| <= this
PHI_BOUND = 0.5

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

# p_11, p_10, ..., p_0 of P, each the float nearest the exact rational:
# P(y) = (1 - g(y)/3) P(y/5) gives p_0 = 1 and
# (1 - 5^-k) p_k = sum_{i=1..k} (-a_i/3) p_{k-i} 5^-(k-i)
_P_COEFFICIENTS = (
    -2.9415859821312265e-20, 9.924172396770385e-18, -2.704896988227936e-15,
    5.827801700757254e-13, -9.66510389316142e-11, 1.1936310404129206e-08,
    -1.0520694368717294e-06, 6.249212865102948e-05, -0.00230236957387495,
    0.046296296296296294, -0.4166666666666667, 1.0)
# |P(y) - Horner's sum| for |y| <= 1, where sum_{k>=1} |p_k| <= 0.4654 and
# |P'| <= 0.5165: Horner's rounding gamma_22 and the coefficients' own u,
# each times 1 + 0.4654; y's three roundings through P'; and the tail
# sum_{k>11} |p_k| <= 7.2e-23 (|p_12| = 7.17e-23, and the ratios
# |p_{k+1} / p_k| shrink).  P >= 0.62 there
_P_ERROR = (22.0 * _U / (1.0 - 22.0 * _U) + _U) * 1.4654 + 3.0 * _EPS * 0.5165 + 7.2e-23

# b_15, b_14, ..., b_1 of Phi = g^-1, each the float nearest the exact
# rational of g's series reversion.  Every b_k is positive, and the ratios
# b_{k+1} / b_k rise towards 1/6.25, g's critical value 6.25 being Phi's
# nearest singularity, so on |x| <= PHI_BOUND the terms past b_15 sum to
# at most b_16 0.5^15 |x| / (1 - 0.08) <= 4.7e-19 |x|, below 2^-53 |x|.
# Horner's rounding and the coefficients' own u add at most
# (gamma_29 + u) * 1.0261 |x|, where sum b_k 0.5^(k-1) <= 1.0261
_PHI_COEFFICIENTS = (
    9.757339570745048e-14, 6.772041114640734e-13, 4.73725492225372e-12,
    3.344325909191821e-11, 2.3865375058030986e-10, 1.7250978175610513e-09,
    1.2666185678263936e-08, 9.481993979753409e-08, 7.275829892084784e-07,
    5.767685196070021e-06, 4.781844499586435e-05, 0.00042338709677419353,
    0.004166666666666667, 0.05, 1.0)


def psi(z):
    return z * (5.0 - z)


def _horner(coefficients, x: float) -> float:
    """sum c_k x^k by Horner's rule, the coefficients highest first."""
    s = 0.0
    for c in coefficients:
        s = s * x + c
    return s


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
    e = _G_ERROR * abs(w) + (2.0 * math.ulp(0.0) if w else 0.0)
    return _psi_steps(_horner(_G_COEFFICIENTS, w) * w, e, m)


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


def phi(x: float) -> float:
    """Phi(x) = g^-1(x) for |x| <= PHI_BOUND."""
    return _horner(_PHI_COEFFICIENTS, x) * x


def upsilon_with_error(lam: float) -> tuple:
    """Upsilon at lam and a bound on its error, or its failure raised: its
    head's Psi outside the validated region, or a pole.

    Upsilon is P(y) / (2 - lambda_1), lambda_j = Psi(lam/5^j), y = (2/3)
    lam/25, and P is reduced as Psi is: while |y| > 1, its factor
    1 - lambda_j/3 is taken and y divided by 5 (j <= 4 in the region).  The
    bound runs with the product (Higham 2002, section 3.3): each Psi's error
    relative to 2 - lambda_1 or 3 - lambda_j (inf once it reaches it),
    _P_ERROR relative to P's sum, and _EPS of rounding per factor."""
    lam_1, d = psi_limit_with_error(lam / 5.0)
    if lam_1 == 2.0:
        raise DomainError(f"tail product has a pole at lambda={lam!r}")
    prod, rel = 1.0 / (2.0 - lam_1), _rel(d, abs(2.0 - lam_1)) + _EPS
    j, y = 2, (2.0 / 3.0) * lam / 25.0
    while abs(y) > 1.0:
        x, e = psi_limit_with_error(lam / 5.0**j)
        prod *= 1.0 - x / 3.0
        rel += (_rel(e + _EPS * abs(x), abs(3.0 - x)) + _EPS) * (1.0 + rel)
        j += 1
        y = (2.0 / 3.0) * lam / 5.0**j
    s = _horner(_P_COEFFICIENTS, y)
    prod *= s
    rel += (_rel(_P_ERROR, abs(s)) + _EPS) * (1.0 + rel)
    return prod, abs(prod) * rel if rel < math.inf else math.inf


def tau(k: int, sequence):
    """Tail product of an explicit eigenvalue sequence, anchored at level k,
    in the sequence's type.

    Equals Upsilon(5^-k lambda) for the sequence's renormalized limit; taking
    the sequence's own entries keeps it exact through its plus branches.
    Its factors 1 - lambda_n/3 are multiplied from n = k + 2 down to the
    sequence's settled level.  Needs k >= m0.
    """
    lam1 = sequence.value(k + 1)
    if lam1 == 2:
        raise DomainError(f"tail product undefined at k={k}: lambda_{k + 1} = 2")
    prod = 1 / (2 - lam1)
    for n in range(k + 2, sequence.settled(k + 2)):
        prod *= 1 - sequence.value(n) / 3
    return prod
