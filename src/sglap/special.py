"""Special functions built from the quadratic map psi(z) = z(5 - z).

Psi is the decreasing-argument limit of the approximants psi^m((2/3) 5^-m z);
it converts a renormalized eigenvalue back into the level-j entries of its
generating sequence (argument divided by 5 per level, plus branches included
for free since both quadratic roots satisfy the same forward relation).
Upsilon is the tail product scaling tangent and normal-derivative limits;
tau is the same product taken along an explicit sequence.

psi_limit_array and upsilon_with_error_array evaluate grids; a single value
is a one-element grid, since a value does not depend on the grid it is in.
psi_limit is the one exception: it runs psi_limit_array's operations for one
value on Python floats, so that a `free:` seed does not load numpy.  numpy
is imported by the functions that build arrays, so that importing this
module does not load it.
"""
from __future__ import annotations

import math
from typing import NamedTuple

from .errors import ConvergenceError, DomainError

# validated stability region for the limit iteration
PSI_DOMAIN_BOUND = 100.0
# a tail product stops once its next factor is within tol * this of 1
TAIL_BOUND_FACTOR = 0.1


class ConvergenceConfig(NamedTuple):
    tol: float = 1e-13
    max_iterations: int = 80


DEFAULT_CONFIG = ConvergenceConfig()


def psi(z):
    return z * (5.0 - z)


def _approximants(z, m: int):
    """The m-th approximants psi^m((2/3) 5^-m z) over an array or of a float."""
    x = (2.0 / 3.0) * z / 5.0**m
    for _ in range(m):
        x *= 5.0 - x
    return x


def psi_limit_array(z, config: ConvergenceConfig = DEFAULT_CONFIG):
    """Psi over a 1-D array: (values, increments, failures).

    Each element takes the approximants for m = 0, 1, ... until the
    increment passes the tolerance, and drops out once it has converged, so
    its value does not depend on the rest of the array.  The increments
    shrink 5x per step, so the last one bounds the truncation error left.
    failures maps an index to its element's SglapError, in index order;
    values and increments are NaN at those indices.
    """
    import numpy as np

    z = np.asarray(z, dtype=float)
    values = np.full(z.shape, np.nan)
    increments = np.full(z.shape, np.nan)
    failures = {}
    outside = np.abs(z) > PSI_DOMAIN_BOUND
    for i in np.flatnonzero(outside).tolist():
        failures[i] = DomainError(f"argument {float(z[i])!r} outside the validated "
                                  f"region |z| <= {PSI_DOMAIN_BOUND:g}")
    live = np.flatnonzero(~outside)
    prev = None
    # an element that overflows is reported as its failure, not as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        for m in range(config.max_iterations + 1):
            if not live.size:
                break
            cur = _approximants(z[live], m)
            drop = ~np.isfinite(cur)
            for i in live[drop].tolist():
                failures[i] = DomainError(
                    f"psi iteration overflowed for z={float(z[i])!r} at m={m}")
            if m:
                err = np.abs(cur - prev)
                done = ~drop & (err <= config.tol * np.maximum(1.0, np.abs(cur)))
                values[live[done]] = cur[done]
                increments[live[done]] = err[done]
                drop |= done
            live, prev = live[~drop], cur[~drop]
    for i in live.tolist():
        failures[i] = ConvergenceError(f"psi approximants did not settle for z={float(z[i])!r}")
    return values, increments, dict(sorted(failures.items()))


def psi_limit(z: float, config: ConvergenceConfig = DEFAULT_CONFIG) -> float:
    """Psi at one point: psi_limit_array's operations for one element, in
    its order, so that both give the same bits and raise the same failure.

    A test pins the two against each other bit for bit."""
    z = float(z)
    if abs(z) > PSI_DOMAIN_BOUND:
        raise DomainError(f"argument {z!r} outside the validated region "
                          f"|z| <= {PSI_DOMAIN_BOUND:g}")
    prev = None
    for m in range(config.max_iterations + 1):
        cur = _approximants(z, m)
        if not math.isfinite(cur):
            raise DomainError(f"psi iteration overflowed for z={z!r} at m={m}")
        if m and abs(cur - prev) <= config.tol * max(1.0, abs(cur)):
            return cur
        prev = cur
    raise ConvergenceError(f"psi approximants did not settle for z={z!r}")


def _upsilon_array(lam, config: ConvergenceConfig):
    """(values, failures) of the tail product over a 1-D array.

    The product for lambda is 1/(2 - Psi(lambda/5)) times the factors
    1 - Psi(lambda/5^j)/3 for j = 2, 3, ..., up to the first j whose
    remaining factors are bounded via |lambda_j| <= 5^-j |lambda|, a
    geometric tail of ratio 1/5.  The elements walk down the levels
    j = 1, 2, ...: each level sends the Psi arguments of the elements that
    still need it through one psi_limit_array call, and multiplies the
    factors into a running product in j order.  An element leaves the walk
    at its first failure (its head's Psi, then a pole, then the tail factors
    in j order), which is the failure it reports; one whose tail bound never
    passes walks every level and did not converge.
    """
    import numpy as np

    size = np.abs(lam)
    last = config.max_iterations + 1
    # stop[i]: the first j whose tail bound passes; 0 where none does
    stop = np.zeros(lam.size, dtype=int)
    for j in range(last, 1, -1):
        stop[size / 5.0**j / 3.0 < config.tol * TAIL_BOUND_FACTOR] = j
    depth = np.where(stop > 0, stop, last)
    prod = np.full(lam.shape, np.nan)
    failed = np.zeros(lam.size, dtype=bool)
    failures = {}
    live, j = np.arange(lam.size), 1
    with np.errstate(divide="ignore", over="ignore"):
        while live.size:
            factor, _, psi_failures = psi_limit_array(lam[live] / 5.0**j, config)
            if j > 1:
                prod[live] *= 1.0 - factor / 3.0
            else:
                head = 2.0 - factor
                # a failed head is NaN, so a pole never hides its psi failure
                for i in live[head == 0.0].tolist():
                    failures[i] = DomainError(
                        f"tail product has a pole at lambda={float(lam[i])!r}")
                    failed[i] = True
                prod[live] = 1.0 / head
            # an element that failed before has left the walk
            failures.update((int(live[k]), exc) for k, exc in psi_failures.items())
            failed[live[list(psi_failures)]] = True
            j += 1
            live = live[(depth[live] >= j) & ~failed[live]]
    for i in np.flatnonzero(stop == 0).tolist():
        failures.setdefault(i, ConvergenceError(
            f"tail product did not converge for lambda={float(lam[i])!r}"))
    prod[list(failures)] = np.nan
    return prod, dict(sorted(failures.items()))


_EPS = math.ulp(1.0)


def upsilon_with_error_array(lam, config: ConvergenceConfig = DEFAULT_CONFIG):
    """Upsilon over a 1-D array: (values, errors, failures).

    An error is the distance to an 8x tighter evaluation, with a
    floating-point floor so that it stays positive.  failures maps an index
    to the SglapError of its element, in index order; values and errors are
    NaN at those indices.
    """
    import numpy as np

    lam = np.asarray(lam, dtype=float)
    values, failures = _upsilon_array(lam, config)
    tight = ConvergenceConfig(config.tol / 8.0, config.max_iterations + 8)
    tight_values, tight_failures = _upsilon_array(lam, tight)
    errors = np.abs(values - tight_values) + 8.0 * _EPS * (1.0 + np.abs(values))
    # the configured evaluation runs first, so its failure is the one raised
    failures = dict(sorted({**tight_failures, **failures}.items()))
    values[list(failures)] = errors[list(failures)] = np.nan
    return values, errors, failures


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
