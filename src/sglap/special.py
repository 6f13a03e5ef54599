"""Special functions built from the quadratic map psi(z) = z(5 - z).

Psi is the decreasing-argument limit of the approximants psi^m((2/3) 5^-m z);
it converts a renormalized eigenvalue back into the level-j entries of its
generating sequence (argument divided by 5 per level, plus branches included
for free since both quadratic roots satisfy the same forward relation).
Upsilon, the tail product scaling tangent and normal-derivative limits, is
tau, the same product along an explicit sequence, taken along its own.

Every function takes one point on Python floats: a point's value does not
depend on any other, and a `special` grid is its points one at a time, so
this module imports no numpy.  Psi and Upsilon each bound their error from
the one evaluation that gives their value.
"""
from __future__ import annotations

import itertools
import math

from .errors import ConvergenceError, DomainError

# validated stability region for the limit iteration
PSI_DOMAIN_BOUND = 100.0
# a tail product stops once its next factor is within tol * this of 1
TAIL_BOUND_FACTOR = 0.1
# a sequence anchors its Psi at the first level J >= 1 with |lambda|/5^J <= this
ANCHOR_BOUND = 2.0
# the tolerance every limit in sglap stops by, and the iterations it fails past
TOL = 1e-13
MAX_ITERATIONS = 80


def psi(z):
    return z * (5.0 - z)


def _approximants(z: float):
    """psi^m((2/3) 5^-m z) for m = 0, 1, ..., each its own m steps of
    x *= 5 - x, taken three at a time in one loop: 2000 Upsilon and 2000 Psi
    values took 87-93 ms in process this way, 103-104 ms one at a time."""
    c = (2.0 / 3.0) * z
    for m in itertools.count(0, 3):
        x, y, w = c / 5.0**m, c / 5.0**(m + 1), c / 5.0**(m + 2)
        for _ in range(m):
            x *= 5.0 - x
            y *= 5.0 - y
            w *= 5.0 - w
        yield x
        y *= 5.0 - y
        yield y
        w *= 5.0 - w
        w *= 5.0 - w
        yield w


_EPS = math.ulp(1.0)  # twice the unit roundoff


def _psi_steps(x: float, e: float, n: int) -> tuple:
    """x after n psi steps and a bound on its error given e on x, since
    psi(x+d) - psi(x) = (5-2x)d - d^2 and x(5 - x) rounds by <= _EPS |psi(x)|."""
    eps = _EPS
    for _ in range(n):
        e = (abs(5.0 - 2.0 * x) + e) * e
        x *= 5.0 - x
        e += eps * abs(x)
    return x, e


def _psi_walk(z: float, tol: float) -> tuple:
    """Psi at z: (value, signed last increment, error bound) at the first
    m >= 1 whose increment passes tol, or its failure raised: out of the
    validated domain, an overflowing approximant, or approximants that do
    not settle within MAX_ITERATIONS.

    The bound holds however early the walk stops: Psi(z) = psi^m(g(w)) for
    w = (2/3) z / 5^m, where g(w) = lim psi^n(w/5^n) = w - w^2/20 + ... is
    within w^2 (1 + |w|/50) / 20 of w for |w| <= 20; that and w's rounding
    (three from z, a fourth from lambda/5^j) go through the m psi steps."""
    if abs(z) > PSI_DOMAIN_BOUND:
        raise DomainError(f"argument {z!r} outside the validated region "
                          f"|z| <= {PSI_DOMAIN_BOUND:g}")
    prev = None
    for m, x in zip(range(MAX_ITERATIONS + 1), _approximants(z)):
        if m:
            # nearly every step fails the tolerance, told without a call (abs,
            # max(1, .) written out); a step beside a NaN or inf x is not told so
            step, size = x - prev, x if x > 0.0 else -x
            scale = size if size > 1.0 else 1.0
            if step > tol * scale or step < -tol * scale:
                prev = x
                continue
        if not math.isfinite(x):
            raise DomainError(f"psi iteration overflowed for z={z!r} at m={m}")
        if m:
            w = (2.0 / 3.0) * z / 5.0**m
            e = w * w * (50.0 + abs(w)) / 1000.0 + 3.0 * _EPS * abs(w)
            return x, step, _psi_steps(w, e, m)[1]
        prev = x
    raise ConvergenceError(f"psi approximants did not settle for z={z!r}")


def psi_limit_with_error(z: float, tol: float = TOL) -> tuple:
    """Psi at z and a bound on its error, or its failure raised: the walk's
    bound plus the last increment's size, some 4x the truncation error left."""
    x, step, e = _psi_walk(z, tol)
    return x, abs(step) + e


def _extrapolated(z: float, tol: float) -> tuple:
    """Psi at z plus a quarter of its last increment (the geometric tail of
    the increments left after the stop), and a bound on its error."""
    x, step, e = _psi_walk(z, tol)
    value = x + step / 4.0
    return value, e + abs(step) / 4.0 + _EPS * abs(value)


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
    head's Psi, a pole, its anchor's Psi, then a tail still open after level
    MAX_ITERATIONS + 1.

    Upsilon is tau along lam's own sequence lambda_j = Psi(lam/5^j): the
    head lambda_1 and the anchor lambda_J (J = anchor_level(lam), walked
    only when J >= 2) are extrapolated Psi values, psi steps give lambda_{J-1}
    .. lambda_2 and minus roots the entries below J.  The bound runs with the
    product (Higham 2002, section 3.3): each entry's error relative to
    2 - lambda_1 or 3 - lambda_j (inf once it reaches it), _EPS of rounding
    per factor, and expm1(|lambda_j|/9) for the factors left after the stop,
    whose entries shrink 4x per level."""
    lam_1, d = _extrapolated(lam / 5.0, tol)
    if lam_1 == 2.0:
        raise DomainError(f"tail product has a pole at lambda={lam!r}")
    J = anchor_level(lam)
    x, e = _extrapolated(lam / 5.0**J, tol) if J > 1 else (lam_1, d)
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
