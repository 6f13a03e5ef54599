"""Spectral decimation: eigenvalue sequences, extension, Dirichlet spectrum.

A Laplacian eigenfunction is generated by a sequence (lambda_m) with
lambda_{m-1} = lambda_m (5 - lambda_m); going down a level picks one of the
two quadratic roots ("minus" decaying, "plus" large), and the eigenvalue is
lambda = (3/2) lim 5^m lambda_m.  Values on finer graphs come from the
lambda-deformed extension matrices, which degenerate to the harmonic 1-5-5
rule at lambda = 0 and blow up at lambda in {2, 5}.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import special
from .address import (LevelGraph, build_level_graph, check_letter, check_level, check_word,
                      vertex_count)
from .errors import ConvergenceError, DomainError, InvariantError, SingularLevelError
from .harmonic import (CORNER_SWAPS, cell_values_to_vertex, extend_level, graph_laplacian,
                       vertex_to_cell_values)

SINGULAR_VALUES = (2.0, 5.0, 6.0)
# sequence_from_limit snaps an entry this close to a singular value onto it
SNAP_TOL = 1e-11

SERIES_SEED = {"two": 2.0, "five": 5.0, "six": 6.0}
_SERIES_RANK = {"two": 0, "five": 1, "six": 2}


class Branch(enum.Enum):
    """Which root of the refinement quadratic to take going down a level."""

    MINUS = "-"
    PLUS = "+"

    @classmethod
    def parse(cls, spec) -> "Branch":
        if isinstance(spec, cls):
            return spec
        if spec in ("-", "minus"):
            return cls.MINUS
        if spec in ("+", "plus"):
            return cls.PLUS
        raise DomainError(f"unknown branch {spec!r} (use '+' or '-')")


def _refine(prev, plus):
    """One refinement step over arrays: (roots, rows with no real root).

    The minus root is evaluated as 2 prev / (5 + sqrt(25 - 4 prev)); the
    textbook (5 - sqrt(...))/2 form cancels catastrophically once prev is
    small, which it is after a handful of levels.  A non-finite prev or one
    above 25/4 has no real refinement: such rows are flagged, their roots
    are meaningless, and the caller silences their floating-point warnings.
    """
    disc = 25.0 - 4.0 * prev
    bad = ~np.isfinite(prev) | (disc < 0.0)
    root = np.sqrt(disc)
    return np.where(plus, (5.0 + root) / 2.0, 2.0 * prev / (5.0 + root)), bad


def _refine_error(prev: float) -> DomainError:
    if not math.isfinite(prev):
        return DomainError(f"no refinement of the non-finite lambda={prev!r}")
    return DomainError(f"no real refinement of lambda={prev!r} (needs lambda <= 6.25)")


def _powers_of_five() -> tuple:
    """5.0**j as Python floats for every j up to the first that overflows."""
    powers = []
    try:
        while True:
            powers.append(5.0 ** len(powers))
    except OverflowError:  # near j = 441
        return tuple(powers)


_FIVE_POWERS = _powers_of_five()


def sequence_array(m0, lambda_m0, plus, level: int, config=special.DEFAULT_CONFIG):
    """lambda_level and the renormalized limit of many sequences at once.

    Row r is EigenvalueSequence(m0[r], lambda_m0[r], {t > m0[r] : plus[r, t]});
    levels past the last column of plus take the minus root.  The rows step
    down together one level at a time, each taking the scalar recursion's
    operations in its order: the refinement checks, a singular lambda_t,
    then from j = max(m0, plus levels) on the renormalized 1.5 * 5.0**j *
    lambda_j until the increment passes the tolerance.  A row drops out once
    it is past `level` and its limit is settled, so its figures do not depend
    on the other rows.  config=None skips the limits.

    Returns (values, limits, value_failures, limit_failures): the failures
    map a row to the SglapError that value(level) or limit(config) raises
    there, in row order; values and limits are NaN at those rows.
    """
    m0 = np.asarray(m0, dtype=np.int64).reshape(-1)
    seed = np.asarray(lambda_m0, dtype=float).reshape(-1)
    plus = np.asarray(plus, dtype=bool).reshape(m0.size, -1)
    values = np.where(m0 == level, seed, np.nan)
    limits = np.full(m0.size, np.nan)
    value_failures, limit_failures = {}, {}
    for i in np.flatnonzero(m0 > level).tolist():
        value_failures[i] = DomainError(f"sequence starts at level {m0[i]}, got {level}")
    limiting = np.zeros(m0.size, dtype=bool)  # rows whose limit is still open
    if config is not None:
        start = np.maximum(m0, np.max(np.where(plus, np.arange(plus.shape[1]), -1), axis=1,
                                      initial=-1))
        # 5.0**start is taken before any level down to start is refined
        limiting = start < len(_FIVE_POWERS)
        for i in np.flatnonzero(~limiting).tolist():
            limit_failures[i] = DomainError(f"renormalized eigenvalue overflows at level {start[i]}")

    def fail(i, exc, value_too):
        if value_too:
            value_failures[i] = exc
        if limiting[i]:
            limit_failures[i] = exc
            limiting[i] = False

    live = np.flatnonzero(m0 <= level)
    lam, prev = seed[live], np.full(live.size, np.nan)  # prev: the last renormalized value
    t = int(m0[live].min(initial=level))
    last_birth = int(m0.max(initial=0))
    with np.errstate(over="ignore", invalid="ignore"):
        while live.size:
            if config is not None and t >= len(_FIVE_POWERS):
                for i in live[limiting[live] & (start[live] < t)].tolist():
                    fail(i, DomainError(f"renormalized eigenvalue overflows at level {t}"), False)
            roots, bad = _refine(lam, plus[live, t] if t < plus.shape[1] else False)
            singular = (roots[:, None] == SINGULAR_VALUES).any(axis=1)
            if t <= last_birth:  # rows born at t or deeper do not step yet
                step = m0[live] < t
                bad &= step
                singular &= step
                roots = np.where(step, roots, lam)
            failed = bad | singular
            if failed.any():
                for k in np.flatnonzero(failed).tolist():
                    fail(int(live[k]), _refine_error(float(lam[k])) if bad[k]
                         else SingularLevelError(t, float(roots[k])), t <= level)
            lam = roots
            if t == level:
                values[live[~failed]] = lam[~failed]
            if config is not None and t < len(_FIVE_POWERS):
                since = t - start[live]
                going = limiting[live] & (since >= 0)
                cur = 1.5 * _FIVE_POWERS[t] * lam
                done = going & (since > 0) & (
                    np.abs(cur - prev) <= config.tol * np.maximum(1.0, np.abs(cur)))
                limits[live[done]] = cur[done]
                limiting[live[done]] = False
                prev = np.where(going, cur, prev)
                for i in live[going & ~done & (since >= config.max_iterations)].tolist():
                    levels = np.flatnonzero(plus[i, m0[i] + 1:]) + m0[i] + 1
                    seq = EigenvalueSequence(int(m0[i]), seed[i], levels.tolist())
                    fail(i, ConvergenceError(f"renormalized eigenvalue did not settle for {seq!r}"),
                         False)
            keep = ~failed & ((t < level) | limiting[live])
            if not keep.all():
                live, lam, prev = live[keep], lam[keep], prev[keep]
            t += 1
    return values, limits, dict(sorted(value_failures.items())), dict(sorted(limit_failures.items()))


@dataclass(frozen=True)
class EigenvalueSequence:
    """lambda_{m0}, lambda_{m0+1}, ... determined by the seed and the set of
    levels taking the plus root.  Entries past m0 may not hit {2, 5, 6}.
    value and limit run sequence_array on this one row."""

    m0: int
    lambda_m0: float
    plus_indices: frozenset = frozenset()

    def __post_init__(self):
        if self.m0 < 0:
            raise DomainError(f"m0 must be nonnegative, got {self.m0}")
        # built in ascending order, so that equal sets print alike
        plus = sorted(int(j) for j in self.plus_indices)
        object.__setattr__(self, "plus_indices", frozenset(plus))
        if any(j <= self.m0 for j in plus):
            raise DomainError("plus branches start at level m0 + 1")
        object.__setattr__(self, "lambda_m0", float(self.lambda_m0))
        mask = np.zeros(max(plus, default=0) + 1, dtype=bool)
        mask[plus] = True
        object.__setattr__(self, "_plus", mask)
        object.__setattr__(self, "_values", {self.m0: self.lambda_m0})
        object.__setattr__(self, "_limits", {})

    def value(self, j: int) -> float:
        if j < self.m0:
            raise DomainError(f"sequence starts at level {self.m0}, got {j}")
        vals = self._values
        if j not in vals:
            # each level only looks at the one above, so start from the
            # deepest known level above j
            base = max(k for k in vals if k < j)
            values, _, failures, _ = sequence_array([base], [vals[base]], self._plus, j, None)
            if failures:
                raise failures[0]
            vals[j] = float(values[0])
        return vals[j]

    def limit(self, config: special.ConvergenceConfig = special.DEFAULT_CONFIG) -> float:
        """Renormalized eigenvalue (3/2) lim 5^j lambda_j."""
        if config not in self._limits:
            _, limits, _, failures = sequence_array([self.m0], [self.lambda_m0], self._plus,
                                                    self.m0, config)
            if failures:
                raise failures[0]
            self._limits[config] = float(limits[0])
        return self._limits[config]


def sequence_from_limit(
        lam, config: special.ConvergenceConfig = special.DEFAULT_CONFIG) -> EigenvalueSequence:
    """Invert the renormalized limit back to a sequence.

    psi_limit(5^-j lam) recovers lambda_j for every j, plus branches
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
    vals[J] = special.psi_limit(lam / 5.0**J, config)
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


@lru_cache(maxsize=4096)
def eigen_matrices(lam: float) -> np.ndarray:
    """The three lambda-deformed extension matrices, stacked (letter, 3, 3)."""
    if not math.isfinite(lam):
        raise DomainError(f"extension matrices need a finite lambda, got {lam!r}")
    den = (5.0 - lam) * (2.0 - lam)
    if den == 0.0:
        raise DomainError(f"extension matrices are singular at lambda={lam!r}")
    a0 = np.array([[den, 0.0, 0.0], [4.0 - lam, 4.0 - lam, 2.0], [4.0 - lam, 2.0, 4.0 - lam]]) / den
    out = np.stack([s @ a0 @ s for s in CORNER_SWAPS])
    out.setflags(write=False)
    return out


def eigen_residual(graph: LevelGraph, values, lam_level: float) -> float:
    """Max interior defect of the level eigen-equation, relative to the sup
    norm; 0.0 on V_0, which has no interior vertex."""
    r = graph_laplacian(graph, values) + float(lam_level) * np.asarray(values, dtype=float)
    scale = max(1.0, float(np.max(np.abs(values))))
    return float(np.max(np.abs(r[3:]), initial=0.0)) / scale


@dataclass(frozen=True, eq=False)
class SpectralEigenfunction:
    """Seed values on V_{m0} together with the sequence that refines them."""

    sequence: EigenvalueSequence
    seed_values: np.ndarray

    def __post_init__(self):
        seed = np.array(self.seed_values, dtype=float)
        expected = vertex_count(self.m0)
        if seed.shape != (expected,):
            raise DomainError(f"need {expected} vertex values at level {self.m0}, got {seed.shape}")
        seed.setflags(write=False)
        object.__setattr__(self, "seed_values", seed)

    @property
    def m0(self) -> int:
        return self.sequence.m0

    def eigenvalue(self, config: special.ConvergenceConfig = special.DEFAULT_CONFIG) -> float:
        return self.sequence.limit(config)

    def cell_values(self, m: int) -> np.ndarray:
        """Per-cell triples on level m, refined level by level from the seed."""
        if m < self.m0:
            raise DomainError(f"level {m} below seed level {self.m0}")
        values = vertex_to_cell_values(build_level_graph(self.m0), self.seed_values)
        for j in range(self.m0 + 1, m + 1):
            values = extend_level(values, eigen_matrices(self.sequence.value(j)))
        return values

    def values_on_level(self, m: int, tol: float = 1e-9) -> np.ndarray:
        return cell_values_to_vertex(build_level_graph(m), self.cell_values(m), tol=tol)

    def value_at(self, word, letter) -> float:
        """Value at the single vertex F_word(q_letter)."""
        word = check_word(word)
        letter = check_letter(letter)
        if len(word) <= self.m0:
            # already a vertex of the seed graph
            return float(self.seed_values[build_level_graph(self.m0).index_of(word, letter)])
        return float(self.cell_triple(word)[letter])

    def cell_triple(self, word) -> np.ndarray:
        """Values at the three corners of the given cell.

        Walks one triple down the word instead of materializing whole levels,
        so arbitrarily deep cells stay cheap: letter t of the word applies
        the extension matrix at lambda_t.
        """
        word = check_word(word)
        m0 = self.m0
        if len(word) <= m0:
            return np.array([self.value_at(word, c) for c in range(3)])
        out = self.cell_triple(word[:m0])
        for t in range(m0 + 1, len(word) + 1):
            out = eigen_matrices(self.sequence.value(t))[word[t - 1]] @ out
        return out

    def residual(self, m: int) -> float:
        return eigen_residual(build_level_graph(m), self.values_on_level(m), self.sequence.value(m))


def rotate_six(corner: int) -> np.ndarray:
    """Level-1 values of the basic 6-series element with its 2 at the given
    corner: adjacent midpoints get -1, the opposite one +1, other corners 0."""
    c = int(corner)
    if c not in (0, 1, 2):
        raise DomainError(f"corner must be 0, 1 or 2: {corner!r}")
    out = np.zeros(6)
    out[c] = 2.0
    mids = {frozenset({0, 1}): 3, frozenset({0, 2}): 4, frozenset({1, 2}): 5}
    for pair, pos in mids.items():
        out[pos] = -1.0 if c in pair else 1.0
    return out


# the level-1 vertices q0, q1, q2, (0):1, (0):2, (1):2 of rotate_six's order
# as (child cell letter, corner) pairs
_LEVEL1_CHILDREN = np.array([0, 1, 2, 0, 0, 1])
_LEVEL1_CORNERS = np.array([0, 1, 2, 1, 2, 2])


def six_series_element(plus_indices=None) -> SpectralEigenfunction:
    """The basic 6-series seed: lambda_1 = 6 with the forced plus root 3.

    plus_indices defaults to {2}; any set given must contain level 2.
    """
    plus_indices = frozenset({2}) if plus_indices is None else frozenset(plus_indices)
    if 2 not in plus_indices:
        raise DomainError("the 6-series must take the plus root at level m0 + 1")
    seq = EigenvalueSequence(1, 6.0, plus_indices)
    return SpectralEigenfunction(seq, rotate_six(2))


def _two_seed_values(index: int) -> np.ndarray:
    if index != 1:
        raise DomainError("the 2-series has a single seed (index 1)")
    return np.array([0.0, 0, 0, 1, 1, 1])


def _five_level1_seed_values(index: int) -> np.ndarray:
    if index == 1:
        return np.array([0.0, 0, 0, 1, -1, 0])
    if index == 2:
        return np.array([0.0, 0, 0, 1, 0, -1])
    raise DomainError("the level-1 5-series has two seeds (index 1 or 2)")


_FIVE_LEVEL2_CHAINS = (
    {((0, 0), 1): -1.0, ((0, 1), 2): 1.0, ((2, 0), 1): -1.0, ((2, 1), 2): 1.0},
    {((0, 0), 1): 1.0, ((0, 0), 2): -1.0, ((2, 2), 0): 1.0, ((2, 2), 1): -1.0,
     ((1, 1), 2): 1.0, ((1, 1), 0): -1.0},
    {((1, 0), 2): 1.0, ((2, 0), 1): -1.0, ((2, 0), 2): 1.0, ((1, 1), 0): -1.0},
)


def _five_level2_seed_values(index: int) -> np.ndarray:
    if not 1 <= index <= 3:
        raise DomainError("the level-2 5-series has three seeds (index 1..3)")
    graph = build_level_graph(2)
    out = np.zeros(graph.size)
    for (word, letter), v in _FIVE_LEVEL2_CHAINS[index - 1].items():
        out[graph.index_of(word, letter)] = v
    return out


def _six_seed_values(m0: int, index: int) -> np.ndarray:
    coarse = build_level_graph(m0 - 1)
    n_interior = coarse.size - 3
    if not 1 <= index <= n_interior:
        raise DomainError(f"6-series index must be in 1..{n_interior} at m0={m0}")
    graph = build_level_graph(m0)
    out = np.zeros(graph.size)
    # the junction is a corner of two (m0-1)-cells; each gets the basic
    # 6-series element with its 2 there, on its three child cells
    for cell, corner in np.argwhere(coarse.cells == 2 + index).tolist():
        out[graph.cells[3 * cell + _LEVEL1_CHILDREN, _LEVEL1_CORNERS]] = rotate_six(corner)
    return out


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


def supports_closed_form(series: str, m0: int) -> bool:
    """Whether seed eigenvectors (not just multiplicities) are constructible.

    The 5-series chain constructions are wired for m0 <= 2; deeper levels
    would need the cycle combinatorics around every hole of V_{m0-1}.
    """
    if series == "two":
        return m0 == 1
    if series == "five":
        return 1 <= m0 <= 2
    if series == "six":
        return m0 >= 2
    return False


def dirichlet_seed_values(series: str, m0: int, index: int = 1) -> np.ndarray:
    mult = series_multiplicity(series, m0)
    if not supports_closed_form(series, m0):
        raise DomainError(f"no closed-form seeds for the {series}-series at m0={m0} "
                          f"(multiplicity {mult} is still counted in the spectrum)")
    if series == "two":
        return _two_seed_values(index)
    if series == "five":
        return _five_level1_seed_values(index) if m0 == 1 else _five_level2_seed_values(index)
    return _six_seed_values(m0, index)


def dirichlet_eigenfunction(series: str, m0: int, index: int = 1,
                            plus_indices=None) -> SpectralEigenfunction:
    """Seed eigenfunction of a named series with chosen branch levels."""
    if series not in SERIES_SEED:
        raise DomainError(f"unknown series {series!r}")
    if plus_indices is None:
        plus_indices = frozenset({m0 + 1}) if series == "six" else frozenset()
    plus_indices = frozenset(int(j) for j in plus_indices)
    if series == "six" and (m0 + 1) not in plus_indices:
        raise DomainError("the 6-series must take the plus root at level m0 + 1")
    seed = dirichlet_seed_values(series, m0, index)
    seq = EigenvalueSequence(m0, SERIES_SEED[series], plus_indices)
    return SpectralEigenfunction(seq, seed)


class SpectrumLine(NamedTuple):
    """One decimation family contributing to the level spectrum."""

    series: str
    m0: int
    branches: str  # "+"/"-" per level m0+1..level
    level: int
    value: float  # lambda_level
    limit: float  # the renormalized eigenvalue
    multiplicity: int


def _family_masks(level: int, m0: int, forced=()) -> np.ndarray:
    """Plus masks of every branch set on m0+1..level that takes the forced
    levels, the free levels counting up in binary.  Columns run to level + 1,
    where the 6-series born at the level itself takes its forced plus."""
    free = [j for j in range(m0 + 1, level + 1) if j not in forced]
    masks = np.zeros((1 << len(free), level + 2), dtype=bool)
    masks[:, free] = np.arange(1 << len(free))[:, None] >> np.arange(len(free)) & 1
    masks[:, list(forced)] = True
    return masks


def enumerate_dirichlet_spectrum(level: int):
    """Every (series, m0, branches) family alive at the given level, sorted by
    its lambda_level; multiplicities add up to dim = (3^{level+1} - 3) / 2.
    All families go through one sequence_array call."""
    if check_level(level) == 0:
        return []  # no interior vertices, empty operator, empty spectrum
    blocks = [("two", 1, _family_masks(level, 1))]
    blocks += [("five", m0, _family_masks(level, m0)) for m0 in range(1, level + 1)]
    blocks += [("six", m0, _family_masks(level, m0, forced=(m0 + 1,)))
               for m0 in range(2, level + 1)]
    mult = {(series, m0): series_multiplicity(series, m0) for series, m0, _ in blocks}
    total = sum(mult[series, m0] * len(masks) for series, m0, masks in blocks)
    dim = vertex_count(level) - 3
    if total != dim:
        raise InvariantError(f"level-{level} multiplicities add up to {total}, not {dim}")
    counts = [len(masks) for _, _, masks in blocks]
    series = np.repeat([s for s, _, _ in blocks], counts).tolist()
    m0s = np.repeat([m0 for _, m0, _ in blocks], counts).tolist()
    plus = np.concatenate([masks for _, _, masks in blocks])
    values, limits, value_failures, limit_failures = sequence_array(
        m0s, [SERIES_SEED[s] for s in series], plus, level)
    for failures in (value_failures, limit_failures):
        if failures:
            raise next(iter(failures.values()))
    chars = np.where(plus, "+", "-").tolist()
    branches = ["".join(row[m0 + 1:level + 1]) for row, m0 in zip(chars, m0s)]
    values, limits = values.tolist(), limits.tolist()
    order = sorted(range(len(series)), key=lambda i: (values[i], _SERIES_RANK[series[i]],
                                                       m0s[i], branches[i]))
    return [SpectrumLine(series[i], m0s[i], branches[i], level, values[i], limits[i],
                         mult[series[i], m0s[i]]) for i in order]
