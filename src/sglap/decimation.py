"""Spectral decimation: levels, eigenvalue sequences, the Dirichlet spectrum.

A Laplacian eigenfunction is generated by a sequence (lambda_m) with
lambda_{m-1} = lambda_m (5 - lambda_m); going down a level picks one of the
two quadratic roots ("minus" decaying, "plus" large), and the eigenvalue is
lambda = (3/2) lim 5^m lambda_m.  The sequences run on Python floats and
this module imports no numpy, so that `spectrum` starts without it; the
eigenfunctions they refine are in harmonic.  The level cap and |V_m| are
here too, since the spectrum is counted against them.
"""
from __future__ import annotations

import math
import os
import sys
from typing import NamedTuple

from . import special
from .errors import (ConvergenceError, DomainError, InvariantError, LevelCapError,
                     SingularLevelError)

DEFAULT_LEVEL_CAP = 12

SINGULAR_VALUES = (2.0, 5.0, 6.0)
# sequence_from_limit snaps an entry this close to a singular value onto it
SNAP_TOL = 1e-11

SERIES_SEED = {"two": 2.0, "five": 5.0, "six": 6.0}
_SERIES_RANK = {"two": 0, "five": 1, "six": 2}


def max_level() -> int:
    """Refinement cap; the SG_MAX_LEVEL environment variable overrides it with
    an integer in 0..441, past which 1.5 * 5^j and every limit overflow."""
    raw = os.environ.get("SG_MAX_LEVEL")
    if raw is None:
        return DEFAULT_LEVEL_CAP
    try:
        cap = int(raw)
    except ValueError as exc:
        raise DomainError(f"SG_MAX_LEVEL must be an integer, got {raw!r}") from exc
    if not 0 <= cap < len(_RENORMALIZERS):
        raise DomainError(f"SG_MAX_LEVEL must be in 0..{len(_RENORMALIZERS) - 1}, got {raw!r}")
    return cap


def check_level(m: int) -> int:
    """A refinement level: DomainError below 0, LevelCapError above max_level()."""
    if m < 0:
        raise DomainError(f"level must be nonnegative, got {m}")
    cap = max_level()
    if m > cap:
        raise LevelCapError(f"level {m} exceeds cap {cap} (override with SG_MAX_LEVEL)")
    return m


def vertex_count(m: int) -> int:
    """|V_m| = (3^{m+1} + 3) / 2."""
    return (3 ** (m + 1) + 3) // 2


# 1.5 * 5.0**j for every j whose 5.0**j is a float: j <= 441
_RENORMALIZERS = tuple(1.5 * 5.0**j for j in range(int(math.log(sys.float_info.max, 5)) + 1))


def _overflow(t: int) -> DomainError:
    return DomainError(f"renormalized eigenvalue overflows at level {t}")


def _root(lam: float, plus: bool, t: int) -> float:
    """lambda_t from lambda_{t-1} = lam, the one step of every sequence.

    The minus root is evaluated as 2 lam / (5 + sqrt(25 - 4 lam)); the
    textbook (5 - sqrt(...))/2 form cancels catastrophically once lam is
    small, which it is after a handful of levels."""
    disc = 25.0 - 4.0 * lam
    if not math.isfinite(lam):
        raise DomainError(f"no refinement of the non-finite lambda={lam!r}")
    if disc < 0.0:
        raise DomainError(f"no real refinement of lambda={lam!r} (needs lambda <= 6.25)")
    root = math.sqrt(disc)
    lam = (5.0 + root) / 2.0 if plus else 2.0 * lam / (5.0 + root)
    if lam in SINGULAR_VALUES:
        raise SingularLevelError(t, lam)
    return lam


def _minus_run(t: int, lam: float, level: int, config: special.ConvergenceConfig):
    """Follow the minus root down from lambda_t = lam: (values, limit).

    values are lambda_t .. lambda_level.  From level t on, the renormalized
    1.5 * 5.0**j * lambda_j is taken until it moves by at most
    config.tol * max(1, |1.5 * 5.0**j * lambda_j|) in one level, which the
    run goes on past `level` for; limit is None if that does not happen
    within config.max_iterations levels.  A failed step raises, and so does
    a 5.0**j past the float range while the limit is open."""
    scales, tol = _RENORMALIZERS, config.tol
    if t >= len(scales):
        raise _overflow(t)
    values = [lam]
    prev, limit, last = scales[t] * lam, None, t + config.max_iterations
    while limit is None and t < last:
        t += 1
        if t == len(scales):
            raise _overflow(t)
        lam = _root(lam, False, t)
        if t <= level:
            values.append(lam)
        cur = scales[t] * lam
        size = abs(cur)
        if abs(cur - prev) <= tol * (size if size > 1.0 else 1.0):
            limit = cur
        prev = cur
    while t < level:
        t += 1
        lam = _root(lam, False, t)
        values.append(lam)
    return values, limit


class EigenvalueSequence:
    """lambda_{m0}, lambda_{m0+1}, ... determined by the seed and the set of
    levels taking the plus root.  Entries past m0 may not hit {2, 5, 6}.
    A plain class, not a dataclass, so that `spectrum` need not import
    dataclasses."""

    __slots__ = ("m0", "lambda_m0", "plus_indices", "_values", "_limits")

    def __init__(self, m0: int, lambda_m0: float, plus_indices=frozenset()):
        if m0 < 0:
            raise DomainError(f"m0 must be nonnegative, got {m0}")
        # built in ascending order, so that equal sets print alike
        self.m0, self.plus_indices = m0, frozenset(sorted(int(j) for j in plus_indices))
        if any(j <= m0 for j in self.plus_indices):
            raise DomainError("plus branches start at level m0 + 1")
        self.lambda_m0 = float(lambda_m0)
        self._values, self._limits = {m0: self.lambda_m0}, {}

    def __repr__(self) -> str:
        return (f"EigenvalueSequence(m0={self.m0!r}, lambda_m0={self.lambda_m0!r}, "
                f"plus_indices={self.plus_indices!r})")

    def value(self, j: int) -> float:
        if j < self.m0:
            raise DomainError(f"sequence starts at level {self.m0}, got {j}")
        vals = self._values
        if j not in vals:
            # each level only looks at the one above, so start from the
            # deepest known level above j
            base = max(k for k in vals if k < j)
            lam = vals[base]
            for t in range(base + 1, j + 1):
                lam = _root(lam, t in self.plus_indices, t)
            vals[j] = lam
        return vals[j]

    def limit(self, config: special.ConvergenceConfig = special.DEFAULT_CONFIG) -> float:
        """Renormalized eigenvalue (3/2) lim 5^j lambda_j, taken from the last
        plus level on."""
        if config not in self._limits:
            start = max(self.plus_indices, default=self.m0)
            if start >= len(_RENORMALIZERS):
                raise _overflow(start)
            limit = _minus_run(start, self.value(start), start, config)[1]
            if limit is None:
                raise ConvergenceError(f"renormalized eigenvalue did not settle for {self!r}")
            self._limits[config] = limit
        return self._limits[config]


def sequence_from_limit(
        lam, config: special.ConvergenceConfig = special.DEFAULT_CONFIG) -> EigenvalueSequence:
    """Invert the renormalized limit back to a sequence.

    Psi(5^-j lam) recovers lambda_j for every j, plus branches
    included.  Entries within SNAP_TOL of a singular value are snapped to it
    and the deepest such level becomes m0; the plus set is read off from
    which entries exceed 5/2 (the two roots are separated by that line).
    """
    lam = float(lam)
    if not math.isfinite(lam):
        raise DomainError(f"renormalized eigenvalue must be finite, got {lam!r}")
    J = 1
    while abs(lam) / 5.0**J > 2.0:
        J += 1
    vals = [0.0] * (J + 1)
    values, _, failures = special.psi_limit_array([lam / 5.0**J], config)
    if failures:
        raise failures[0]
    vals[J] = float(values[0])
    for j in range(J - 1, -1, -1):
        vals[j] = special.psi(vals[j + 1])
        if not math.isfinite(vals[j]):
            raise DomainError(f"lambda={lam!r} has no finite generating sequence: "
                              f"lambda_{j} overflowed")
    m0 = 0
    for j in range(J + 1):
        for s in SINGULAR_VALUES:
            if abs(vals[j] - s) <= SNAP_TOL:
                vals[j] = s
                m0 = j
    plus = frozenset(j for j in range(m0 + 1, J + 1) if vals[j] > 2.5)
    return EigenvalueSequence(m0, vals[m0], plus)


def series_multiplicity(series: str, m0: int) -> int:
    """Dimension of the Dirichlet eigenspace born at level m0."""
    if series == "two":
        if m0 != 1:
            raise DomainError("the 2-series is born at level 1 only")
        return 1
    if series == "five":
        if m0 < 1:
            raise DomainError("the 5-series needs m0 >= 1")
        return 2 if m0 == 1 else (3 ** (m0 - 1) + 3) // 2
    if series == "six":
        if m0 < 2:
            raise DomainError("the 6-series needs m0 >= 2")
        return (3**m0 - 3) // 2
    raise DomainError(f"unknown series {series!r}")


class SpectrumLine(NamedTuple):
    """One decimation family contributing to the level spectrum."""

    series: str
    m0: int
    branches: str  # "+"/"-" per level m0+1..level
    level: int
    value: float  # lambda_level
    limit: float  # the renormalized eigenvalue
    multiplicity: int


def _family_rows(series: str, m0: int, level: int, config):
    """(branches, lambda_level, limit) of every branch set of one family.

    The branch tree is walked depth first: each plus root starts a minus
    run, which gives lambda_t of every node below it on the minus side and
    the limit of the one member taking no plus root after it.  A failed step
    or an unsettled limit raises."""
    seed = SERIES_SEED[series]
    # the 6-series takes the plus root at m0 + 1
    runs = [(m0 + 1, _root(seed, True, m0 + 1), "+")] if series == "six" else [(m0, seed, "")]
    rows = []
    while runs:
        t, lam, head = runs.pop()
        values, limit = _minus_run(t, lam, level, config)
        if limit is None:
            raise ConvergenceError(f"renormalized eigenvalue did not settle below level {t}")
        if t > level:  # a 6-series born at the level: its plus root lies past it
            rows.append(("", seed, limit))
            continue
        rows.append((head + "-" * (level - t), values[-1], limit))
        for u in range(t, level):
            runs.append((u + 1, _root(values[u - t], True, u + 1), f"{head}{'-' * (u - t)}+"))
    return rows


def enumerate_dirichlet_spectrum(level: int):
    """Every (series, m0, branches) family alive at the given level, sorted by
    its lambda_level; multiplicities add up to dim = (3^{level+1} - 3) / 2."""
    if check_level(level) == 0:
        return []  # no interior vertices, empty operator, empty spectrum
    families = [("two", 1), *[("five", m0) for m0 in range(1, level + 1)],
                *[("six", m0) for m0 in range(2, level + 1)]]
    mult = {family: series_multiplicity(*family) for family in families}
    # a family has a member per branch set on its free levels m0+1..level
    total = sum(mult[series, m0] << (level - m0 - (series == "six" and m0 < level))
                for series, m0 in families)
    dim = vertex_count(level) - 3
    if total != dim:
        raise InvariantError(f"level-{level} multiplicities add up to {total}, not {dim}")
    config = special.DEFAULT_CONFIG
    rows = [(series, m0, *row) for series, m0 in families
            for row in _family_rows(series, m0, level, config)]
    rows.sort(key=lambda r: (r[3], _SERIES_RANK[r[0]], r[1], r[2]))
    return [SpectrumLine(series, m0, branches, level, value, limit, mult[series, m0])
            for series, m0, branches, value, limit in rows]
