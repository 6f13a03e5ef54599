"""Special functions built from the quadratic map psi(z) = z(5 - z).

Psi is the decreasing-argument limit of the approximants psi^m((2/3) 5^-m z);
it converts a renormalized eigenvalue back into the level-j entries of its
generating sequence (argument divided by 5 per level, plus branches included
for free since both quadratic roots satisfy the same forward relation).
Upsilon, the tail product scaling tangent and normal-derivative limits, is
tau, the same product along an explicit sequence, taken along its own.

Every function takes one point on Python floats: a point's value does not
depend on any other, and a `special` grid is its points one at a time, so
this module imports no numpy.  One walk over a Psi argument's approximants
serves every stop asked of it, which is how Upsilon's error estimate, a
second and tighter evaluation, costs no second walk.
"""
from __future__ import annotations

import itertools
import math
from typing import NamedTuple

from .errors import ConvergenceError, DomainError, SglapError

# validated stability region for the limit iteration
PSI_DOMAIN_BOUND = 100.0
# a tail product stops once its next factor is within tol * this of 1
TAIL_BOUND_FACTOR = 0.1
# a sequence anchors its Psi at the first level J >= 1 with |lambda|/5^J <= this
ANCHOR_BOUND = 2.0


class ConvergenceConfig(NamedTuple):
    tol: float = 1e-13
    max_iterations: int = 80


DEFAULT_CONFIG = ConvergenceConfig()


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


def _psi_walk(z: float, configs) -> list:
    """Psi at z under each config, from one walk over the approximants:
    per config, (value, signed last increment) at the first m >= 1 whose
    increment passes its tolerance, or the SglapError it fails with.  The
    approximants do not depend on the config, so each is computed once,
    however many stops are asked of it.  The increments shrink 5x per step,
    so the last one bounds the truncation error left."""
    if abs(z) > PSI_DOMAIN_BOUND:
        return [DomainError(f"argument {z!r} outside the validated region "
                            f"|z| <= {PSI_DOMAIN_BOUND:g}")] * len(configs)
    outcomes, prev = [None] * len(configs), None
    loosest = max(config.tol for config in configs)
    for m, x in zip(range(max(config.max_iterations for config in configs) + 1),
                    _approximants(z)):
        if m:
            # nearly every step fails the loosest tolerance, and so every one:
            # that is told without a call (abs and max(1, .) written out); a
            # step beside a NaN or infinite x is not told so
            step, size = x - prev, x if x > 0.0 else -x
            scale = size if size > 1.0 else 1.0
            if step > loosest * scale or step < -loosest * scale:
                prev = x
                continue
        if not math.isfinite(x):
            overflow = DomainError(f"psi iteration overflowed for z={z!r} at m={m}")
            outcomes = [overflow if outcome is None and m <= config.max_iterations else outcome
                        for outcome, config in zip(outcomes, configs)]
            break
        if m:
            for k, config in enumerate(configs):
                if outcomes[k] is None and m <= config.max_iterations \
                        and abs(step) <= config.tol * scale:
                    outcomes[k] = (x, step)
            if None not in outcomes:
                return outcomes
        prev = x
    failure = ConvergenceError(f"psi approximants did not settle for z={z!r}")
    return [failure if outcome is None else outcome for outcome in outcomes]


def psi_limit_with_error(z: float, config: ConvergenceConfig = DEFAULT_CONFIG) -> tuple:
    """Psi at z and its signed last increment, or its failure raised: out
    of the validated domain, an overflowing approximant, or approximants
    that do not settle within config.max_iterations."""
    outcome, = _psi_walk(z, (config,))
    if isinstance(outcome, SglapError):
        raise outcome
    return outcome


def _extrapolated(outcome) -> float:
    """A Psi walk's value plus a quarter of its last increment (the
    geometric tail of the increments left after the stop), or its failure
    raised."""
    if isinstance(outcome, SglapError):
        raise outcome
    value, step = outcome
    return value + step / 4.0


def anchor_level(lam: float) -> int:
    """The first level J >= 1 with |lam|/5^J <= ANCHOR_BOUND, where a
    generating sequence takes its one Psi value."""
    J = 1
    while abs(lam) / 5.0**J > ANCHOR_BOUND:
        J += 1
    return J


def _tail(lam: float, head: float, J: int, x: float, config: ConvergenceConfig) -> float:
    """tau's product 1/head * prod_{j >= 2} (1 - lambda_j/3) from lambda_J = x:
    exact psi steps give lambda_{J-1} .. lambda_2 and minus roots every entry
    below J, and the product stops at or below J by tau's rule."""
    rising = [x]  # lambda_J, lambda_{J-1}, ..., lambda_2
    for _ in range(J - 2):
        rising.append(psi(rising[-1]))
    prod, bound = 1.0 / head, config.tol * TAIL_BOUND_FACTOR
    for j in range(2, config.max_iterations + 2):
        x = rising[J - j] if j <= J else 2.0 * x / (5.0 + math.sqrt(25.0 - 4.0 * x))
        prod *= 1.0 - x / 3.0
        if j >= J and abs(x) / 3.0 < bound:
            return prod
    raise ConvergenceError(f"tail product did not converge for lambda={lam!r}")


_EPS = math.ulp(1.0)


def upsilon_with_error(lam: float, config: ConvergenceConfig = DEFAULT_CONFIG) -> tuple:
    """Upsilon at lam and an error estimate, or its failure raised.

    Upsilon is tau along lam's own sequence lambda_j = Psi(lam/5^j): the
    head lambda_1 and the anchor lambda_J (J = anchor_level(lam), its walk
    taken only when J >= 2) are Psi values, each extrapolated.  The error is
    the distance to an 8x tighter evaluation, with a floating-point floor so
    that it stays positive; the two evaluations share one Psi walk per
    argument.  The configured evaluation's first failure is raised: its
    head's Psi, a pole, its anchor's Psi, then a tail still open after level
    max_iterations + 1; only then the tighter evaluation's.
    """
    configs = (config, ConvergenceConfig(config.tol / 8.0, config.max_iterations + 8))
    heads, anchors, values = _psi_walk(lam / 5.0, configs), None, []
    for k, each in enumerate(configs):
        lam_1 = _extrapolated(heads[k])
        if lam_1 == 2.0:
            raise DomainError(f"tail product has a pole at lambda={lam!r}")
        if anchors is None:
            J = anchor_level(lam)
            anchors = _psi_walk(lam / 5.0**J, configs) if J > 1 else ()
        x = _extrapolated(anchors[k]) if J > 1 else lam_1
        values.append(_tail(lam, 2.0 - lam_1, J, x, each))
    value, tight = values
    return value, abs(value - tight) + 8.0 * _EPS * (1.0 + abs(value))


def tau(k: int, sequence, config: ConvergenceConfig = DEFAULT_CONFIG) -> float:
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
    for j in range(2, config.max_iterations + 2 + max(0, last_plus - k)):
        term = sequence.value(k + j)
        prod *= 1.0 - term / 3.0
        if k + j >= last_plus and abs(term) / 3.0 < config.tol * TAIL_BOUND_FACTOR:
            return prod
    raise ConvergenceError(f"tail product did not converge at k={k}")
