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

import numpy as np

from . import special
from .address import LevelGraph, build_level_graph, check_letter, check_word, max_level
from .errors import ConvergenceError, DomainError, SingularLevelError
from .harmonic import (CORNER_SWAPS, cell_values_to_vertex, extend_level, graph_laplacian,
                       vertex_to_cell_values)

SINGULAR_VALUES = (2.0, 5.0, 6.0)

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


def lambda_next(prev: float, branch: Branch = Branch.MINUS) -> float:
    """One refinement step of the eigenvalue recursion.

    The minus root is evaluated as 2 prev / (5 + sqrt(25 - 4 prev)); the
    textbook (5 - sqrt(...))/2 form cancels catastrophically once prev is
    small, which it is after a handful of levels.
    """
    if not math.isfinite(prev):
        raise DomainError(f"no refinement of the non-finite lambda={prev!r}")
    disc = 25.0 - 4.0 * prev
    if disc < 0.0:
        raise DomainError(f"no real refinement of lambda={prev!r} (needs lambda <= 6.25)")
    root = math.sqrt(disc)
    if Branch.parse(branch) is Branch.PLUS:
        return (5.0 + root) / 2.0
    return 2.0 * prev / (5.0 + root)


@dataclass(frozen=True)
class EigenvalueSequence:
    """lambda_{m0}, lambda_{m0+1}, ... determined by the seed and the set of
    levels taking the plus root.  Entries past m0 may not hit {2, 5, 6}."""

    m0: int
    lambda_m0: float
    plus_indices: frozenset = frozenset()

    def __post_init__(self):
        if self.m0 < 0:
            raise DomainError(f"m0 must be nonnegative, got {self.m0}")
        object.__setattr__(self, "plus_indices", frozenset(int(j) for j in self.plus_indices))
        if any(j <= self.m0 for j in self.plus_indices):
            raise DomainError("plus branches start at level m0 + 1")
        object.__setattr__(self, "lambda_m0", float(self.lambda_m0))
        object.__setattr__(self, "_values", {self.m0: self.lambda_m0})
        object.__setattr__(self, "_limits", {})

    def value(self, j: int) -> float:
        if j < self.m0:
            raise DomainError(f"sequence starts at level {self.m0}, got {j}")
        vals = self._values
        top = max(vals)
        if j > top:
            cur = vals[top]
            for t in range(top + 1, j + 1):
                cur = lambda_next(cur, Branch.PLUS if t in self.plus_indices else Branch.MINUS)
                if cur in SINGULAR_VALUES:
                    raise SingularLevelError(t, cur)
                vals[t] = cur
        return vals[j]

    def limit(self, config: special.ConvergenceConfig = special.DEFAULT_CONFIG) -> float:
        """Renormalized eigenvalue (3/2) lim 5^j lambda_j."""
        if config in self._limits:
            return self._limits[config]
        j = max([self.m0, *self.plus_indices])
        try:
            prev = 1.5 * 5.0**j * self.value(j)
            for _ in range(config.max_iterations):
                j += 1
                cur = 1.5 * 5.0**j * self.value(j)
                if abs(cur - prev) <= config.tol * max(1.0, abs(cur)):
                    self._limits[config] = cur
                    return cur
                prev = cur
        except OverflowError:
            # 5.0**j leaves the float range near j = 441
            raise DomainError(f"renormalized eigenvalue overflows at level {j}") from None
        raise ConvergenceError(f"renormalized eigenvalue did not settle for {self!r}")

    def branch_string(self, upto: int) -> str:
        return "".join("+" if j in self.plus_indices else "-" for j in range(self.m0 + 1, upto + 1))


def sequence_from_limit(lam, config: special.ConvergenceConfig = special.DEFAULT_CONFIG,
                        snap_tol: float = 1e-11) -> EigenvalueSequence:
    """Invert the renormalized limit back to a sequence.

    psi_limit(5^-j lam) recovers lambda_j for every j, plus branches
    included.  Entries within snap_tol of a singular value are snapped to it
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
            if abs(vals[j] - s) <= snap_tol:
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


def eigen_matrix(i, lam: float) -> np.ndarray:
    """The letter-i extension matrix at level eigenvalue lam; degenerates to
    the harmonic matrix at lam = 0."""
    return eigen_matrices(float(lam))[check_letter(i)]


def extend_eigen(b, suffix, sequence: EigenvalueSequence, at_level: int) -> np.ndarray:
    """Walk one cell triple down the suffix letters, one level per letter.

    `at_level` is the level of the starting cell, so letter t of the suffix
    applies the extension matrix at lambda_{at_level + t}.
    """
    if at_level < sequence.m0:
        raise DomainError(f"cannot extend from level {at_level} < m0 = {sequence.m0}")
    out = np.asarray(b, dtype=float).reshape(3)
    for t, c in enumerate(check_word(suffix), start=1):
        out = eigen_matrices(sequence.value(at_level + t))[c] @ out
    return out


def extend_eigen_cells(cell_values, sequence: EigenvalueSequence, from_level: int,
                       to_level: int):
    """Refine per-cell triples from one level to another along the sequence."""
    if from_level < sequence.m0:
        raise DomainError(f"cannot extend from level {from_level} < m0 = {sequence.m0}")
    values = np.ascontiguousarray(cell_values, dtype=float).reshape(-1, 3)
    for m in range(from_level + 1, to_level + 1):
        values = extend_level(values, eigen_matrices(sequence.value(m)))
    return values


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
    label: str = ""

    def __post_init__(self):
        seed = np.array(self.seed_values, dtype=float)
        expected = (3 ** (self.m0 + 1) + 3) // 2
        if seed.shape != (expected,):
            raise DomainError(f"need {expected} vertex values at level {self.m0}, got {seed.shape}")
        seed.setflags(write=False)
        object.__setattr__(self, "seed_values", seed)
        object.__setattr__(self, "_cells", {})

    @property
    def m0(self) -> int:
        return self.sequence.m0

    def eigenvalue(self, config: special.ConvergenceConfig = special.DEFAULT_CONFIG) -> float:
        return self.sequence.limit(config)

    def cell_values(self, m: int) -> np.ndarray:
        if m < self.m0:
            raise DomainError(f"level {m} below seed level {self.m0}")
        cache = self._cells
        if m not in cache:
            base = max((k for k in cache if k < m), default=None)
            if base is None:
                start = vertex_to_cell_values(build_level_graph(self.m0), self.seed_values)
                cache[self.m0] = start
                base = self.m0
            cache[m] = extend_eigen_cells(cache[base], self.sequence, base, m)
        return cache[m]

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
        so arbitrarily deep cells stay cheap.
        """
        word = check_word(word)
        m0 = self.m0
        if len(word) <= m0:
            return np.array([self.value_at(word, c) for c in range(3)])
        base = self.cell_triple(word[:m0])
        return extend_eigen(base, word[m0:], self.sequence, m0)

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
    return SpectralEigenfunction(seq, rotate_six(2), label="six-element")


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
    return SpectralEigenfunction(seq, seed, label=f"{series}:{m0}:{index}")


@dataclass(frozen=True)
class SpectrumLine:
    """One decimation family contributing to the level spectrum."""

    series: str
    m0: int
    plus_indices: frozenset
    level: int
    value: float  # lambda_level
    multiplicity: int

    def sequence(self) -> EigenvalueSequence:
        return EigenvalueSequence(self.m0, SERIES_SEED[self.series], self.plus_indices)

    def branch_string(self) -> str:
        return self.sequence().branch_string(self.level)


def _branch_sets(first: int, last: int, forced=()):
    """All plus-index subsets of {first..last} containing `forced`."""
    free = [j for j in range(first, last + 1) if j not in forced]
    for mask in range(1 << len(free)):
        yield frozenset(forced) | frozenset(j for t, j in enumerate(free) if mask >> t & 1)


def enumerate_dirichlet_spectrum(level: int):
    """Every (series, m0, branches) family alive at the given level, sorted by
    its lambda_level; multiplicities add up to dim = (3^{level+1} - 3) / 2."""
    if level < 0:
        raise DomainError(f"level must be nonnegative, got {level}")
    if level == 0:
        return []  # no interior vertices, empty operator, empty spectrum
    cap = max_level()
    if level > cap:
        raise DomainError(f"level {level} exceeds cap {cap} (override with SG_MAX_LEVEL)")
    lines = []

    def emit(series, m0, plus):
        seq = EigenvalueSequence(m0, SERIES_SEED[series], plus)
        lines.append(SpectrumLine(series, m0, plus, level, seq.value(level),
                                  series_multiplicity(series, m0)))

    for plus in _branch_sets(2, level):
        emit("two", 1, plus)
    for m0 in range(1, level + 1):
        for plus in _branch_sets(m0 + 1, level):
            emit("five", m0, plus)
    for m0 in range(2, level + 1):
        for plus in _branch_sets(m0 + 1, level, forced=(m0 + 1,)):
            emit("six", m0, plus)

    total = sum(line.multiplicity for line in lines)
    dim = (3 ** (level + 1) - 3) // 2
    assert total == dim, (total, dim)
    lines.sort(key=lambda l: (l.value, _SERIES_RANK[l.series], l.m0, l.branch_string()))
    return lines
