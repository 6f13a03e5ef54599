"""Spectral decimation: levels, eigenvalue sequences, the Dirichlet spectrum.

A Laplacian eigenfunction is generated by a sequence (lambda_m) with
lambda_{m-1} = lambda_m (5 - lambda_m); going down a level picks one of the
two quadratic roots ("minus" decaying, "plus" large), and the eigenvalue is
lambda = (3/2) lim 5^m lambda_m.  The sequences run on Python floats (the
tangent's on Decimals) and this module imports no numpy, so that `spectrum`
starts without it; the eigenfunctions they refine are in harmonic.  The
level cap and |V_m| are here too, since the spectrum is counted against
them.
"""
from __future__ import annotations

import math
import os
import sys
from itertools import repeat
from operator import attrgetter
from typing import NamedTuple

from . import special
from .errors import DomainError, SglapError

DEFAULT_LEVEL_CAP = 12

SINGULAR_VALUES = (2.0, 5.0, 6.0)
# sequence_from_limit snaps an entry this close to a singular value onto it
SNAP_TOL = 1e-11

SERIES_SEED = {"two": 2.0, "five": 5.0, "six": 6.0}


def max_level() -> int:
    """Refinement cap; the SG_MAX_LEVEL environment variable overrides it with
    an integer in 0..440, past which 1.5 * 5^j and every limit overflow."""
    raw = os.environ.get("SG_MAX_LEVEL")
    if raw is None:
        return DEFAULT_LEVEL_CAP
    # an optional "-" and ASCII digits: int() would also take "+", "_",
    # surrounding whitespace and other scripts' digits
    digits = raw.removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise DomainError(f"SG_MAX_LEVEL must be an integer, got {raw!r}")
    cap = int(raw)
    if not 0 <= cap < len(_RENORMALIZERS):
        raise DomainError(f"SG_MAX_LEVEL must be in 0..{len(_RENORMALIZERS) - 1}, got {raw!r}")
    return cap


def check_level(m: int) -> int:
    """A refinement level: DomainError below 0 or above max_level()."""
    if m < 0:
        raise DomainError(f"level must be nonnegative, got {m}")
    cap = max_level()
    if m > cap:
        raise DomainError(f"level {m} exceeds cap {cap} (override with SG_MAX_LEVEL)")
    return m


def vertex_count(m: int) -> int:
    """|V_m| = (3^{m+1} + 3) / 2."""
    return (3 ** (m + 1) + 3) // 2


# 1.5 * 5.0**j for every j whose 1.5 * 5.0**j is a float: j <= 440
_RENORMALIZERS = tuple(1.5 * 5.0**j for j in range(int(math.log(sys.float_info.max / 1.5, 5)) + 1))


def _root(lam, plus: bool, t: int):
    """lambda_t from lambda_{t-1} = lam, the one step of every sequence, in
    the type of lam (a float, or a Decimal in the context's precision).

    The minus root is evaluated as 2 lam / (5 + sqrt(25 - 4 lam)); the
    textbook (5 - sqrt(...))/2 form cancels catastrophically once lam is
    small, which it is after a handful of levels.  A plus root that rounds
    to 5 from a lam other than 0 (in floats, below about 3.1e-15) is no
    singular level."""
    if lam != lam or abs(lam) == math.inf:
        raise DomainError(f"no refinement of the non-finite lambda={lam!r}")
    disc = 25 - 4 * lam
    if disc < 0:
        raise DomainError(f"no real refinement of lambda={lam!r} (needs lambda <= 6.25)")
    root = disc.sqrt() if hasattr(disc, "sqrt") else math.sqrt(disc)
    prev, lam = lam, (5 + root) / 2 if plus else 2 * lam / (5 + root)
    if lam == 5 and prev:
        raise DomainError(f"the plus root at level {t} of lambda_{t - 1} = {prev!r} rounds to "
                          f"5, past the resolution of the arithmetic, not a singular level")
    if lam in SINGULAR_VALUES:
        raise DomainError(f"eigenvalue sequence is singular at level {t}: "
                          f"lambda_{t} = {lam!r} lies in {{2, 5, 6}}")
    return lam


def _renormalized_limit(t: int, lam: float) -> float:
    """1.5 lim 5^j lambda_j of the minus run from lambda_t = lam: minus roots
    down to the first level t with |lambda_t| <= special.PHI_BOUND, then
    1.5 * 5^t * Phi(lambda_t), since Phi(lambda_{j-1}) = 5 Phi(lambda_j)
    along the run.  A failed step raises, and so does a t past the last
    float 1.5 * 5.0**t (t >= 441, past the deepest level cap)."""
    while t < len(_RENORMALIZERS):
        if abs(lam) <= special.PHI_BOUND:
            return _RENORMALIZERS[t] * special.phi(lam)
        t += 1
        lam = _root(lam, False, t)
    raise DomainError(f"renormalized eigenvalue overflows at level {t}")


class EigenvalueSequence:
    """lambda_{m0}, lambda_{m0+1}, ... determined by the seed and the set of
    levels taking the plus root.  Entries past m0 may not hit {2, 5, 6}.
    The values are computed once each, in level order, and only as far as
    they are read, in the type of lambda_m0 (a float, or a Decimal in the
    context of the reads).  A plain class, not a dataclass, so that
    `spectrum` need not import dataclasses."""

    __slots__ = ("m0", "lambda_m0", "plus_indices", "_values")

    def __init__(self, m0: int, lambda_m0, plus_indices=frozenset()):
        if m0 < 0:
            raise DomainError(f"m0 must be nonnegative, got {m0}")
        self.m0, self.plus_indices = m0, frozenset(int(j) for j in plus_indices)
        if any(j <= m0 for j in self.plus_indices):
            raise DomainError("plus branches start at level m0 + 1")
        # an int starts a float sequence: the seed values take this type
        self.lambda_m0 = float(lambda_m0) if isinstance(lambda_m0, int) else lambda_m0
        # lambda_{m0 + i} at index i
        self._values = [self.lambda_m0]

    def value(self, j: int):
        if j < self.m0:
            raise DomainError(f"sequence starts at level {self.m0}, got {j}")
        vals = self._values
        for t in range(self.m0 + len(vals), j + 1):
            vals.append(_root(vals[-1], t in self.plus_indices, t))
        return vals[j - self.m0]

    def settled(self, j: int) -> int:
        """The first level n >= j, and past every plus level, where
        1 + lambda_n rounds to 1: from there on the minus run's factors
        1 - lambda/3 and Phi(lambda)/lambda = 1 + lambda/20 + ... do too."""
        n = max(j, max(self.plus_indices, default=j))
        while 1 + self.value(n) != 1:
            n += 1
        return n

    def limit(self):
        """Renormalized eigenvalue (3/2) lim 5^j lambda_j, taken from the last
        plus level on: `spectrum`'s _renormalized_limit on floats, and
        (3/2) 5^n lambda_n at the settled level n on Decimals."""
        start = max(self.plus_indices, default=self.m0)
        if isinstance(self.lambda_m0, float):
            return _renormalized_limit(start, self.value(start))
        n = self.settled(start)
        return 3 * 5**n * self.value(n) / 2


def sequence_from_limit(lam) -> EigenvalueSequence:
    """Invert the renormalized limit back to a sequence.

    Psi(5^-j lam) recovers lambda_j for every j, plus branches
    included.  Entries within SNAP_TOL of a singular value are snapped to it
    and the deepest such level becomes m0; the plus set is read off from
    which entries exceed 5/2 (the two roots are separated by that line).
    """
    lam = float(lam)
    if not math.isfinite(lam):
        raise DomainError(f"renormalized eigenvalue must be finite, got {lam!r}")
    # the sequence takes its one Psi value at the first level J >= 1 with
    # |lam|/5^J <= 2
    J = 1
    while abs(lam) / 5.0**J > 2.0:
        J += 1
    vals = [0.0] * (J + 1)
    vals[J] = special.psi_limit_with_error(lam / 5.0**J)[0]
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
    """One decimation family of the level spectrum: the row `spectrum` prints."""

    series: str
    m0: int
    branches: str  # "+"/"-" per level m0+1..level
    value: float  # lambda_level
    limit: float  # the renormalized eigenvalue
    multiplicity: int


def _family_lines(series: str, m0: int, level: int, multiplicity: int):
    """One family's lines in ascending order of lambda_level, each made as
    it is read.

    The family is built a level at a time before this returns, from its one
    member at m0 (m0 + 1 past the 6-series' forced plus).  The minus root
    rises with lambda_{t-1} and the plus root falls, and every minus root
    lies below every plus root, so the members at level t, ascending, are
    the minus roots of those at t - 1 in their order and then the plus roots
    in reverse order.  A minus child keeps its parent's limit and a plus
    child's is that of the minus run from its plus root.  A failed step
    raises.  That order is the reflected Gray code: member r's branches are
    spelt from r ^ (r >> 1), bit k standing for the level first + k (m0 + 1,
    or m0 + 2 past the forced plus), the last level the most significant.
    Members whose floats tie there (or, against the rounding, fall) are
    sorted by (lambda_level, branches), the order of a sort of the whole
    spectrum."""
    seed, six = SERIES_SEED[series], series == "six"
    # the 6-series takes the plus root at m0 + 1; born at the level, its
    # plus root lies past it
    t, lam = (m0 + 1, _root(seed, True, m0 + 1)) if six else (m0, seed)
    values, limits = [lam if t <= level else seed], [_renormalized_limit(t, lam)]
    for t in range(t + 1, level + 1):
        minus = [_root(lam, False, t) for lam in values]
        plus = [_root(lam, True, t) for lam in reversed(values)]
        values = minus + plus
        limits += [_renormalized_limit(t, lam) for lam in plus]
    # top = len(values) is a power of two, so bin(code | top) is "0b1" and
    # the code's bits, last level first; [:2:-1] turns them round
    top, forced, branch = len(values), "+" * (six and m0 < level), str.maketrans("01", "-+")
    spelt = (forced + bin(r ^ (r >> 1) | top)[:2:-1].translate(branch) for r in range(top))
    if not all(map(float.__lt__, values, values[1:])):
        spelt = list(spelt)
        order = sorted(range(top), key=lambda r: (values[r], spelt[r]))
        values, limits, spelt = ([seq[r] for r in order] for seq in (values, limits, spelt))
    rows = zip(repeat(series), repeat(m0), spelt, values, limits, repeat(multiplicity))
    # SpectrumLine._make, but without a Python call per line
    return map(tuple.__new__, repeat(SpectrumLine), rows)


def enumerate_dirichlet_spectrum(level: int, series: str = "all"):
    """Every (series, m0, branches) family alive at the given level, as an
    iterator of SpectrumLine rows ascending in lambda_level; multiplicities add
    up to dim = (3^{level+1} - 3) / 2.

    Every family's all-minus member is stepped first, with its plus root at
    each level, whichever families `series` keeps: that member has its
    family's smallest lambda_t at every level, so its plus root is the first
    to round to 5 (at level 24), and a level past 23 is refused before a
    family holds its 2^22 members.  Each family kept is then built before
    this returns, so that a failed step raises here; the families are merged
    (heapq.merge), and each line made, as the lines are read.  Equal
    lambda_levels follow (series, m0, branches).

    A `series` other than "all" keeps the families of that series, and the
    lines are those of the whole spectrum that name it, in the same order.
    The multiplicities are still counted over every family."""
    if series != "all" and series not in SERIES_SEED:
        raise DomainError(f"unknown series {series!r}")
    if check_level(level) == 0:
        # no interior vertices, empty operator, empty spectrum
        return iter(())
    # heapq is loaded here, so that no other subcommand loads it
    import heapq

    # in (series rank, m0) order
    families = [("two", 1), *[("five", m0) for m0 in range(1, level + 1)],
                *[("six", m0) for m0 in range(2, level + 1)]]
    mult = {family: series_multiplicity(*family) for family in families}
    # a family has a member per branch set on its free levels m0+1..level
    total = sum(mult[s, m0] << (level - m0 - (s == "six" and m0 < level)) for s, m0 in families)
    dim = vertex_count(level) - 3
    if total != dim:
        raise SglapError(f"level-{level} multiplicities add up to {total}, not {dim}")
    # every family's all-minus member and its plus roots, before any is built
    for s, m0 in families:
        seed = SERIES_SEED[s]
        t, lam = (m0 + 1, _root(seed, True, m0 + 1)) if s == "six" else (m0, seed)
        for t in range(t + 1, level + 1):
            _root(lam, True, t)
            lam = _root(lam, False, t)
    streams = [_family_lines(s, m0, level, mult[s, m0]) for s, m0 in families
               if series in ("all", s)]
    # the merge breaks a tie in value by the order of the streams
    return heapq.merge(*streams, key=attrgetter("value"))
