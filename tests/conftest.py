"""Shared pytest wiring: the acceptance report block, and the references
that only the tests use: the one-letter extension helpers, the closed-form
tangent as it ran on numpy, the renormalized normal-derivative limit, the
whole-level residual, the dense seed, whole-level cell triples and vertex
values, a subtree walk's values stream, per-cell vertex values, the
whole-level vertex table and the scalar addressing, the psi_m approximant,
a one-point run of a special grid kernel, and the oracles' spectrum pairing
and unit-interval model."""
import cmath
import itertools
import math
from unittest import mock

import numpy as np

from sglap import harmonic
from sglap.address import (DEFAULT_CORNERS, EventuallyConstantWord, _subtree_walk,
                           build_level_graph, check_letter, check_word, subtree_walk,
                           vertex_cells)
from sglap.decimation import vertex_count
from sglap.errors import ConvergenceError, DomainError
from sglap.harmonic import (HARMONIC_INVERSES, JUNCTION_TOL, eigen_matrices, extend_level,
                            graph_laplacian, matvec)
from sglap.special import DEFAULT_CONFIG
from sglap.tangent import m0_matrix

acceptance_log = []


def pytest_terminal_summary(terminalreporter):
    # one line per acceptance criterion, emitted after capture is released so
    # the report always lands in the run log
    if acceptance_log:
        terminalreporter.section("acceptance report")
        for line in acceptance_log:
            terminalreporter.write_line(line)


# --- extension matrices ----------------------------------------------------

# CORNER_SWAPS[i] exchanges corner 0 with corner i, as float matrices:
# harmonic.conjugate permutes indices, and the numpy references multiply
CORNER_SWAPS = (((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)),
                ((0.0, 1.0, 0.0), (1.0, 0.0, 0.0), (0.0, 0.0, 1.0)),
                ((0.0, 0.0, 1.0), (0.0, 1.0, 0.0), (1.0, 0.0, 0.0)))

HARMONIC_MATRICES = np.stack(
    [s @ (np.array([[5.0, 0, 0], [2, 2, 1], [2, 1, 2]]) / 5.0) @ s for s in CORNER_SWAPS]
)
HARMONIC_MATRICES.setflags(write=False)


def harmonic_matrix(i) -> np.ndarray:
    """The extension matrix A_i sending a cell triple to the letter-i subcell."""
    return HARMONIC_MATRICES[check_letter(i)]


def extend_harmonic(b, word) -> np.ndarray:
    """A_w b: the triple of the harmonic function with data b on cell w,
    multiplied as SpectralEigenfunction.cell_triple multiplies."""
    out = np.asarray(b, dtype=float).reshape(3)
    for c in check_word(word):
        out = matvec(HARMONIC_MATRICES[c], out)
    return np.array(out)


def eigen_matrix(i, lam: float) -> np.ndarray:
    """The letter-i extension matrix at level eigenvalue lam; degenerates to
    the harmonic matrix at lam = 0."""
    return eigen_matrices(float(lam))[check_letter(i)]


def numpy_tangent(u, w) -> np.ndarray:
    """tangent.tangent_at as it ran on numpy, kept as the reference of the
    scalar closed form: the seed triple read off the level graph, and every
    3x3 product a numpy `@` (BLAS, with its fused multiply-adds)."""
    w = EventuallyConstantWord.parse(w) if isinstance(w, str) else w
    k = max(len(w.prefix), u.m0)
    word = w.truncation(k)
    s = np.array(CORNER_SWAPS[w.tail])
    tail_matrix = s @ np.array(m0_matrix(u.sequence, k)) @ s
    pullback = np.eye(3)
    for c in word:
        pullback = pullback @ np.array(HARMONIC_INVERSES[c])
    triple = seed_array(u)[build_level_graph(u.m0).cells[word_index(word[:u.m0])]]
    for t in range(u.m0 + 1, k + 1):
        triple = np.array(eigen_matrices(u.sequence.value(t)))[word[t - 1]] @ triple
    return pullback @ tail_matrix @ triple


# --- normal derivatives ----------------------------------------------------

def harmonic_normal_derivative(b, i) -> float:
    """2 b_i - b_{i+1} - b_{i+2}: the normal derivative at q_i of the
    harmonic function with boundary triple b.  Of a tangent t = T_{:i} u it
    is the normal derivative of u at q_i."""
    i = check_letter(i)
    return 2.0 * b[i] - b[(i + 1) % 3] - b[(i + 2) % 3]


def value_at(u, word, letter) -> float:
    """Value of the eigenfunction u at the single vertex F_word(q_letter):
    corner `letter` of the cell word + (letter, ..., letter) down to the seed
    level, since F_letter fixes q_letter."""
    word, letter = check_word(word), check_letter(letter)
    return u.cell_triple(word + (letter,) * (u.m0 - len(word)))[letter]


def normal_derivative_limit(value_at, corner: int, levels: int = 20):
    """Renormalized boundary difference quotient of an arbitrary function.

    `value_at(word, letter)` must return the value at F_word(q_letter).
    Returns the level-`levels` estimate
        (5/3)^M (2 f(q_i) - f(F_i^M q_{i+1}) - f(F_i^M q_{i+2}))
    and the gap to the previous estimate as an error proxy.  Raises if the
    estimates start moving apart instead of settling.
    """
    i = check_letter(corner)
    if levels < 2:
        raise DomainError(f"need at least 2 refinement levels, got {levels}")
    base = 2.0 * value_at((), i)
    estimates = []
    for m in range(max(2, levels - 2), levels + 1):
        word = (i,) * m
        est = (5.0 / 3.0) ** m * (base - value_at(word, (i + 1) % 3) - value_at(word, (i + 2) % 3))
        estimates.append(est)
    gaps = [abs(b - a) for a, b in zip(estimates, estimates[1:])]
    scale = max(1.0, abs(estimates[-1]))
    if len(gaps) >= 2 and gaps[-1] > gaps[-2] and gaps[-1] > 1e-9 * scale:
        raise ConvergenceError(
            f"normal-derivative estimates diverge at corner {i}: gaps {gaps[-2:]}"
        )
    return estimates[-1], gaps[-1]


# --- whole-level references ------------------------------------------------

def whole_level_residual(graph, values, lam_level: float) -> float:
    """harmonic.eigen_residual as it ran on the whole level graph: the max
    interior defect of the eigen-equation relative to the sup norm."""
    r = graph_laplacian(graph, values) + float(lam_level) * np.asarray(values, dtype=float)
    scale = max(1.0, float(np.max(np.abs(values))))
    return float(np.max(np.abs(r[3:]), initial=0.0)) / scale


def seed_array(u) -> np.ndarray:
    """u's seed as a dense array over V_m0, in vertex order."""
    out = np.zeros(vertex_count(u.m0))
    out[list(u.seed_values)] = list(u.seed_values.values())
    return out


def values_on_level(u, m: int, tol: float = JUNCTION_TOL) -> np.ndarray:
    """u on V_m as one array, the dense reference of eval's two passes:
    check_values with its junction check at tol, then the level_values
    stream written into one array at its stream_positions.  Non-finite
    values are returned, for the caller to reject, as eval rejects them."""
    with mock.patch.object(harmonic, "JUNCTION_TOL", tol):
        u.check_values(m)
    values = np.full(vertex_count(m), np.nan)
    for positions, part in zip(stream_positions(subtree_walk(m)), u.level_values(m),
                               strict=True):
        values[positions] = part
    return values


def stream_positions(walk) -> list:
    """The V_level positions of the values stream that walk.rows reads, as
    SpectralEigenfunction.level_values gives it: V_depth's vertices in their
    order, then the vertices each subtree adds, in cell order."""
    top = np.empty(walk.top.size, dtype=np.int64)
    top[walk.top.cells] = walk.layout[:, :3]
    added = np.arange(walk.local.size - 3)
    return [top, *(added + first for first in walk.layout[:, 3].tolist())]


def walk_stream(walk, values) -> list:
    """The values stream that walk.rows reads, taken from V_level's values
    as one array in vertex order."""
    return [values[positions] for positions in stream_positions(walk)]


def cell_values(u, m: int) -> np.ndarray:
    """u's triples on every m-cell, in cell order: the seed on the m0-cells,
    refined whole, one level at a time."""
    values = seed_array(u)[build_level_graph(u.m0).cells]
    for j in range(u.m0 + 1, m + 1):
        values = extend_level(values, eigen_matrices(u.sequence.value(j)))
    return values


def vertex_value_walks(u, m: int) -> np.ndarray:
    """u on V_m from one cell_triple walk per m-cell: a vertex's value is
    (0 + its copies, in cell order) / 2, a corner's 0 + its one copy."""
    triples = {word: u.cell_triple(word) for word in itertools.product((0, 1, 2), repeat=m)}
    out = []
    for v in range(vertex_count(m)):
        total = 0.0
        for word, corner in vertex_cells(v, m):
            total += triples[word][corner]
        out.append(total if v < 3 else total / 2)
    return np.array(out)


# --- scalar addressing -----------------------------------------------------

def level_vertices(level: int, depth=None):
    """(keys, names) of every vertex of V_level: the rows of its subtree
    walk (subtree_walk's, or the one of this depth) written into one array.
    The rows must tile the level in order, each with its values: the walk
    reads the stream of its vertices' positions, and gives each row its own."""
    walk = subtree_walk(level) if depth is None else _subtree_walk(level, depth)
    keys = np.empty((walk.size, 3), dtype=np.int64)
    names = np.empty((walk.size, level + 2), dtype=np.uint8)
    end = 0
    for lo, part_keys, part_names, part_values in walk.rows(stream_positions(walk)):
        assert lo == end and len(part_keys) == len(part_names) > 0, (lo, end)
        end = lo + len(part_keys)
        assert np.array_equal(part_values, np.arange(lo, end)), lo
        keys[lo:end], names[lo:end] = part_keys, part_names
    assert end == walk.size
    return keys, names


def word_index(word) -> int:
    """Base-3 rank of a word among words of its length: the row of its cell
    in a level graph's cells."""
    i = 0
    for c in word:
        i = 3 * i + c
    return i


def apply_ifs(word, point, corners=DEFAULT_CORNERS):
    """Image of a planar point under F_w (first letter applied last)."""
    p = np.asarray(point, dtype=float)
    for c in reversed(check_word(word)):
        p = (p + corners[c]) / 2.0
    return p


def vertex_key(word, letter: int, level: int):
    """Exact coordinates of F_w(q_letter) at the given level (|word| <= level)."""
    word = check_word(word)
    m = len(word)
    letter = check_letter(letter)
    if level < m:
        raise DomainError(f"level {level} below word length {m}")
    n = [0, 0, 0]
    for t, c in enumerate(word, start=1):
        n[c] += 1 << (m - t)
    n[letter] += 1
    shift = level - m
    return (n[0] << shift, n[1] << shift, n[2] << shift)


def _birth_key(key, level):
    n0, n1, n2 = key
    b = level
    while b > 0 and (n0 | n1 | n2) & 1 == 0:
        n0 >>= 1
        n1 >>= 1
        n2 >>= 1
        b -= 1
    return (n0, n1, n2), b


def _descend_prefix(key, b):
    # Unique path of subcells containing the point down to level 1; greedy
    # smallest-letter choice yields the lexicographically smallest word.
    cur = list(key)
    word = []
    for t in range(b, 1, -1):
        half = 1 << (t - 1)
        letter = min(c for c in range(3) if cur[c] >= half)
        word.append(letter)
        cur[letter] -= half
    return word, cur


def resolve_addresses(key, level):
    """All (word, letter) addresses of a vertex at its birth level: one for a
    boundary corner, exactly two for a junction point.  The scalar reference
    that the level graph's addresses are tested against."""
    key, b = _birth_key(key, level)
    if b == 0:
        return [((), key.index(1))]
    word, cur = _descend_prefix(key, b)
    a, c = (i for i in range(3) if cur[i] == 1)
    base = tuple(word)
    return sorted([(base + (a,), c), (base + (c,), a)])


# --- special functions -----------------------------------------------------

def psi_m(z, m: int) -> float:
    """m-th approximant: psi composed m times on (2/3) 5^-m z."""
    if m < 0:
        raise DomainError(f"composition count must be nonnegative, got {m}")
    x = (2.0 / 3.0) * float(z) / 5.0**m
    for _ in range(m):
        x = x * (5.0 - x)
    if not math.isfinite(x):
        raise DomainError(f"psi iteration overflowed for z={z!r} at m={m}")
    return x


def one_point(kernel, x, config=DEFAULT_CONFIG) -> tuple:
    """A special grid kernel on the one-point grid [x]: its columns as
    Python floats, or its failure raised.  one_point(psi_limit_array, z)[0]
    is Psi(z) and one_point(upsilon_with_error_array, lam)[0] is
    Upsilon(lam), bit for bit."""
    *columns, failures = kernel(np.array([float(x)]), config)
    if failures:
        raise failures[0]
    return tuple(float(c[0]) for c in columns)


# --- oracle helpers --------------------------------------------------------

def sorted_pairing_gap(a, b) -> float:
    """Worst gap when two spectra are paired in ascending order."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    if a.shape != b.shape:
        raise DomainError(f"multiset sizes differ: {a.shape[0]} vs {b.shape[0]}")
    if a.size == 0:
        return 0.0
    return float(np.max(np.abs(a - b)))


def interval_tangent(lam: float, x0: float, f0: float, f1: float) -> np.ndarray:
    """Endpoint values of the tangent line at x0 to the solution of
    -u'' = lam u on [0,1] with u(0)=f0, u(1)=f1.

    Written out from the sine/cosine solution; resonant lam = (pi k)^2 has no
    such interpolant.  Negative lam rides the same formulas with imaginary
    frequency, so everything stays real.
    """
    lam = float(lam)
    x0 = float(x0)
    if not 0.0 <= x0 <= 1.0:
        raise DomainError(f"x0 must lie in [0, 1], got {x0}")
    if lam == 0.0:
        return np.array([float(f0), float(f1)])
    r = cmath.sqrt(lam)
    if lam > 0:
        k = round(r.real / math.pi)
        if k >= 1 and abs(r.real - k * math.pi) < 1e-9:
            raise DomainError(f"lam={lam} is resonant ((pi k)^2 with k={k})")
    s = cmath.sin(r)
    a = cmath.sin((1.0 - x0) * r)
    atil = cmath.cos((1.0 - x0) * r)
    s0 = cmath.sin(x0 * r)
    c0 = cmath.cos(x0 * r)
    b = x0 * r * atil
    left = (f0 * (a + b) + f1 * (s0 - x0 * r * c0)) / s
    right = (f0 * (a - (1.0 - x0) * r * atil) + f1 * (s0 + (1.0 - x0) * r * c0)) / s
    return np.array([left.real, right.real])
