"""Shared pytest wiring: the acceptance report block, and the references
that only the tests use: the one-letter extension helpers, the closed-form
tangent as it ran on numpy, the Decimal tail matrix it multiplies by and a
deep Decimal direct limit, the renormalized normal-derivative limit, the
whole-level Laplacian and residual, the numpy level-graph builder that
mesh.cells replaced, the dense seed, the whole-level numpy refinement and
collapse that eval ran on before its walk, a level's walk, addresses,
points and cells joined into whole columns, per-cell vertex values, the whole-level vertex
keys and coordinates and the scalar addressing, the coefficients of g, P
and Phi in exact rationals, the psi_m approximant and 50-digit Psi and
Upsilon, the spectrum as it was walked and sorted before
its families' members were placed by rank, the dense Dirichlet oracle
that `spectrum --verify` ran before it counted eigenvalues by inertia,
and the oracles' spectrum pairing, unit-interval model and its sine fit."""
import cmath
import functools
import itertools
import math
from decimal import Context, Decimal, localcontext
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from sglap import decimation
from sglap.address import (DEFAULT_CORNERS, EventuallyConstantWord, _glue, check_letter,
                           check_word, vertex_cells)
from sglap.decimation import EigenvalueSequence, check_level, vertex_count
from sglap.errors import DomainError
from sglap.harmonic import (SpectralEigenfunction, eigen_matrices, harmonic_inverses, matmul,
                            matvec)
from sglap.mesh import addresses, cells, points, walk
from sglap.tangent import m0_matrix

acceptance_log = []


class ConvergenceError(Exception):
    """A reference limit or solve that did not settle: the normal-derivative
    estimates moving apart, or a dense eigensolve's residual."""


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


def decimal_twin(sequence) -> EigenvalueSequence:
    """A float sequence's Decimal twin, as tangent_at makes it: the same
    lambda_m0, exactly, and plus levels.  Its values take the precision of
    the decimal context they are read in."""
    return EigenvalueSequence(sequence.m0, Decimal(sequence.lambda_m0), sequence.plus_indices)


def decimal_m0_matrix(sequence, k: int, digits: int = 80) -> np.ndarray:
    """m0_matrix on the Decimal twin of a float sequence, in `digits` more
    significant digits than the 5^max(k, last plus + 1) that M0's entries
    can reach, rounded to floats once formed: the tail matrix that
    tangent_at multiplies by, without the float formula's cancellation."""
    last = max(sequence.plus_indices, default=0)
    with localcontext(Context(prec=digits + math.ceil(max(k, last + 1) * math.log10(5)))):
        return np.array(m0_matrix(decimal_twin(sequence), k), dtype=float)


def deep_tangent_limit(u, w, depth: int, digits: int) -> tuple:
    """(t, g) in Decimals: the pulled-back cell triple at `depth` of
    oracle.direct_tangent_limit's iteration, in `digits` significant digits
    with its own lambda step, and g = t - mean(t) formed before rounding."""
    with localcontext(Context(prec=digits)):
        lam, inverses = Decimal(u.sequence.lambda_m0), harmonic_inverses(Decimal(3))
        triple = [Decimal(x) for x in u.cell_triple(w.truncation(u.m0))]
        pull = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        for c in w.truncation(u.m0):
            pull = matmul(pull, inverses[c])
        for t in range(u.m0 + 1, depth + 1):
            root = (25 - 4 * lam).sqrt()
            lam = (5 + root) / 2 if t in u.sequence.plus_indices else 2 * lam / (5 + root)
            triple = matvec(eigen_matrices(lam)[w.letter(t)], triple)
            pull = matmul(pull, inverses[w.letter(t)])
        t = matvec(pull, triple)
        mean = (t[0] + t[1] + t[2]) / 3
        return t, tuple(x - mean for x in t)


def numpy_tangent(u, w) -> np.ndarray:
    """tangent.tangent_at as it ran on numpy, kept as the reference of the
    scalar closed form: the seed triple read off the level graph, every 3x3
    product a numpy `@` (BLAS, with its fused multiply-adds), and the tail
    matrix decimal_m0_matrix's."""
    k = max(len(w.prefix), u.m0)
    word = w.truncation(k)
    s = np.array(CORNER_SWAPS[w.tail])
    tail_matrix = s @ decimal_m0_matrix(u.sequence, k) @ s
    pullback = np.eye(3)
    for c in word:
        pullback = pullback @ np.array(harmonic_inverses(3.0)[c])
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

class LevelGraph(NamedTuple):
    """The graph on V_level as its cells: cells[c, i] is the vertex F_w(q_i)
    for the word w of length level whose base-3 digits spell c, vertices
    numbered in canonical address order, corners 0, 1, 2 first.

        cells  (3**level, 3) int32, read-only
    """

    level: int
    cells: np.ndarray

    @property
    def size(self) -> int:
        return vertex_count(self.level)


@functools.lru_cache(maxsize=None)
def build_level_graph(m: int) -> LevelGraph:
    """V_m's cells as address built them on numpy before mesh.cells: V_k =
    F_0 V_{k-1} u F_1 V_{k-1} u F_2 V_{k-1}, glued at the level-1 junctions
    (address._glue), whole copies at a time; the reference of the scalar
    lookups and of cells."""
    cells, size = np.array([[0, 1, 2]], dtype=np.int32), 3
    for _ in range(check_level(m)):
        n = size - 3  # interior vertices of V_{k-1}
        corners, first = _glue(n)
        # maps[j] sends V_{k-1} into V_k under F_j; column i < 3 is F_j(q_i)
        maps = np.empty((3, n + 3), dtype=np.int32)
        maps[:, :3] = corners
        maps[:, 3:] = np.add.outer(first, np.arange(n))
        cells = maps[:, cells].reshape(-1, 3)  # cell j + w is F_j of cell w
        size = 6 + 3 * n
    cells.setflags(write=False)
    return LevelGraph(m, cells)


def graph_laplacian(graph, values):
    """sum_{y~x} (u(y) - u(x)) at every vertex, boundary included: the sum
    over the level's cells of the cell Laplacian (u_0 + u_1 + u_2) - 3 u_i
    at each corner i, every edge lying in exactly one cell."""
    values = np.asarray(values, dtype=float)
    cv = values[graph.cells]
    cv = cv.sum(axis=1, keepdims=True) - 3.0 * cv
    return np.bincount(graph.cells.ravel(), weights=cv.ravel(), minlength=graph.size)


def whole_level_residual(graph, values, lam_level: float) -> float:
    """mesh.eigen_residual as it ran on the whole level graph: the max
    interior defect of the eigen-equation relative to the sup norm."""
    r = graph_laplacian(graph, values) + float(lam_level) * np.asarray(values, dtype=float)
    scale = max(1.0, float(np.max(np.abs(values))))
    return float(np.max(np.abs(r[3:]), initial=0.0)) / scale


def seed_array(u) -> np.ndarray:
    """u's seed as a dense array over V_m0, in vertex order."""
    out = np.zeros(vertex_count(u.m0))
    out[list(u.seed_values)] = list(u.seed_values.values())
    return out


def extend_level(cell_values, mats):
    """One refinement step of a whole level, as eval ran it on numpy: child
    cell 3*c + letter gets mats[letter] @ cell c, each entry summed from 0
    in matvec's order."""
    values = np.asarray(cell_values, dtype=float).reshape(-1, 1, 1, 3)
    mats = np.asarray(mats, dtype=float)
    out = np.zeros((len(values), 3, 3))
    for k in range(3):
        out += values[..., k] * mats[..., k]
    return out.reshape(-1, 3)


def cell_values_to_vertex(graph, cell_values) -> tuple:
    """Collapse per-cell triples to one value per vertex, as eval ran it on
    numpy: (values, gap, scale).  A corner of V_0 is 0 + its one copy and
    any other vertex (0 + its two copies, in cell order) / 2; gap is the
    largest distance of a copy from its vertex's value and scale
    max(1, max |copy|)."""
    cv = np.asarray(cell_values, dtype=float)
    out = np.bincount(graph.cells.reshape(-1), weights=cv.reshape(-1), minlength=graph.size)
    out[3:] /= 2.0
    gap = float(np.abs(cv - out[graph.cells]).max())
    return out, gap, max(1.0, float(cv.max()), float(-cv.min()))


def cell_values(u, m: int) -> np.ndarray:
    """u's triples on every m-cell, in cell order: the seed on the m0-cells,
    refined whole, one level at a time."""
    values = seed_array(u)[build_level_graph(u.m0).cells]
    for j in range(u.m0 + 1, m + 1):
        values = extend_level(values, eigen_matrices(u.sequence.value(j)))
    return values


def dense_values(u, m: int) -> np.ndarray:
    """u on V_m as eval computed it before its walk: the whole level's cell
    triples refined on numpy and collapsed; non-finite values are returned."""
    with np.errstate(over="ignore", invalid="ignore"):
        return cell_values_to_vertex(build_level_graph(m), cell_values(u, m))[0]


# a function whose walk gives a level's parts without computing a value
ZERO = SpectralEigenfunction(EigenvalueSequence(0, 0.0), {0: 0.0, 1: 0.0, 2: 0.0})


def level_columns(m: int, lattice) -> tuple:
    """addresses(m) and points(m, lattice) joined into whole columns:
    (addresses, xs, ys), each a list in vertex order."""
    columns = [v for part in addresses(m) for v in part], [], []
    for xs, ys in points(m, lattice):
        columns[1].extend(xs)
        columns[2].extend(ys)
    return columns


def level_cells(m: int) -> list:
    """cells(m) joined into one flat list of vertex triples, in cell
    order."""
    return [v for part in cells(m) for v in part]


def values_on_level(u, m: int) -> np.ndarray:
    """u on V_m as one array in vertex order, as eval's walk gives it."""
    return np.array([value for part in walk(u, m) for value in part])


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

def level_keys(level: int) -> np.ndarray:
    """The exact keys of V_level's vertices in vertex order: vertex_key of
    corner i of each level cell, placed by the level graph's cells."""
    graph = build_level_graph(level)
    cells = np.arange(3 ** level)
    base = np.zeros((cells.size, 3), dtype=np.int64)
    for t in range(level):  # letter t + 1 of the word adds 2^(level - 1 - t) e_letter
        base[cells, cells // 3 ** (level - 1 - t) % 3] += 1 << (level - 1 - t)
    keys = np.empty((graph.size, 3), dtype=np.int64)
    for i in range(3):
        keys[graph.cells[:, i]] = base + np.eye(3, dtype=np.int64)[i]
    return keys


def level_vertices(level: int):
    """(keys, addresses) of every vertex of V_level: level_keys, and the
    canonical addresses as mesh.addresses spells them."""
    return level_keys(level), [name for part in addresses(level) for name in part]


def key_coords(keys, level: int) -> np.ndarray:
    """Planar points of barycentric numerators over 2**level, as eval
    computed them before its lattice lines: x = (n_1 + n_2/2) / 2**level and
    y = n_2 (sqrt(3)/2) / 2**level, elementwise."""
    _, n1, n2 = np.asarray(keys).T
    scale = float(1 << level)
    return np.stack([(n1 + n2 / 2) / scale, n2 * DEFAULT_CORNERS[2][1] / scale], axis=1)


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

@functools.lru_cache(maxsize=None)
def g_coefficients(n: int) -> tuple:
    """a_1 .. a_n of g, g(5w) = psi(g(w)) with g(0) = 0 and g'(0) = 1, as
    exact rationals: (5^k - 5) a_k = -sum_{i<k} a_i a_{k-i}."""
    a = [Fraction(0), Fraction(1)]
    for k in range(2, n + 1):
        a.append(-sum(a[i] * a[k - i] for i in range(1, k)) / (5**k - 5))
    return tuple(a[1:])


@functools.lru_cache(maxsize=None)
def tail_coefficients(n: int) -> tuple:
    """p_0 .. p_n of the tail product P(y) = prod_{i>=0} (1 - g(y/5^i)/3),
    as exact rationals: P(y) = (1 - g(y)/3) P(y/5) gives p_0 = 1 and
    (1 - 5^-k) p_k = sum_{i=1..k} (-a_i/3) p_{k-i} 5^-(k-i)."""
    a, p = (0, *g_coefficients(n)), [Fraction(1)]
    for k in range(1, n + 1):
        p.append(sum(-a[i] / 3 * p[k - i] / Fraction(5) ** (k - i) for i in range(1, k + 1))
                 / (1 - Fraction(1, 5**k)))
    return tuple(p)


@functools.lru_cache(maxsize=None)
def phi_coefficients(n: int) -> tuple:
    """b_1 .. b_n of Phi = g^-1, as exact rationals: Phi(psi(x)) = 5 Phi(x)
    with Phi'(0) = 1, where [x^k] (5x - x^2)^j = C(j, k-j) 5^(2j-k)
    (-1)^(k-j), gives (5^k - 5) b_k = -sum_{k/2 <= j < k} C(j, k-j)
    5^(2j-k) (-1)^(k-j) b_j."""
    b = [Fraction(0), Fraction(1)]
    for k in range(2, n + 1):
        b.append(-sum(math.comb(j, k - j) * Fraction(5) ** (2 * j - k) * (-1) ** (k - j) * b[j]
                      for j in range((k + 1) // 2, k)) / (5**k - 5))
    return tuple(b[1:])


def horner(coefficients, x: float) -> float:
    """sum c_k x^k on floats, the coefficients c_0, c_1, ... rounded to
    the nearest float and summed from the highest down."""
    s = 0.0
    for c in reversed(coefficients):
        s = s * x + float(c)
    return s


def reference_phi(x: float) -> float:
    """Phi(x) for |x| <= 0.5: b_1 .. b_15 summed by Horner's rule, times x."""
    return horner(phi_coefficients(15), x) * x


def reference_tail(y: float) -> float:
    """P(y) for |y| <= 1: p_0 .. p_11 summed by Horner's rule."""
    return horner(tail_coefficients(11), y)


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


def mp_psi(z, dps=50):
    """Psi(z) in dps-digit mpmath, by its approximant psi^m((2/3) 5^-m z)
    with m = 1.5 dps + 10, for any z with |z| <= 100.  z may be an mpf."""
    from mpmath import mp, mpf

    with mp.workdps(dps):
        m = int(1.5 * dps) + 10
        x = (mpf(2) / 3) * mpf(z) / mpf(5) ** m
        for _ in range(m):
            x = x * (5 - x)
        return x


def mp_upsilon(lam, dps=50):
    """Upsilon(lam) in dps-digit mpmath: Psi at a level K with |lam|/5^K <=
    1e-3, psi steps up to lambda_1, and minus roots below K until
    |lambda_j| < 10^-dps.  On 8 points, 16.816 (1e-6 from the pole) among
    them, it agreed with 60-digit approximants taken at every level to
    3e-43 or better."""
    from mpmath import mp, mpf, sqrt

    with mp.workdps(dps):
        lam = mpf(lam)
        K = 1
        while abs(lam) / 5**K > mpf("1e-3"):
            K += 1
        x = mp_psi(lam / mpf(5) ** K, dps)
        sequence = [x]  # lambda_K, ..., lambda_1
        for _ in range(K - 1):
            sequence.append(sequence[-1] * (5 - sequence[-1]))
        prod = 1 / (2 - sequence[-1])
        for term in sequence[-2::-1]:
            prod *= 1 - term / 3
        while abs(x) > mpf(10) ** -dps:
            x = 2 * x / (5 + sqrt(25 - 4 * x))
            prod *= 1 - x / 3
        return prod


def true_error(value: float, reference) -> float:
    """|value - reference| for an mpmath reference, taken at 50 digits."""
    from mpmath import mp, mpf

    with mp.workdps(50):
        return float(abs(mpf(value) - reference))


# --- spectrum order ----------------------------------------------------------

_SERIES_RANK = {"two": 0, "five": 1, "six": 2}


def reference_spectrum(level: int, series: str = "all") -> list:
    """The spectrum as enumerate_dirichlet_spectrum built it before it placed
    each family's members by rank: every branch tree walked depth first
    through decimation's steps, each member's branch string spelt as it is
    reached, and every row sorted by (lambda_level, series rank, m0,
    branches).  The steps are read from the decimation module, so that a
    patched step moves both."""
    if check_level(level) == 0:
        return []
    families = [("two", 1), *[("five", m0) for m0 in range(1, level + 1)],
                *[("six", m0) for m0 in range(2, level + 1)]]
    rows = []
    for s, m0 in families:
        if series not in ("all", s):
            continue
        seed = decimation.SERIES_SEED[s]
        runs = ([(m0 + 1, decimation._root(seed, True, m0 + 1), "+")] if s == "six"
                else [(m0, seed, "")])
        while runs:
            t, lam, head = runs.pop()
            values = decimation._minus_run(t, lam, level)
            limit = decimation._renormalized_limit(t, lam)
            if t > level:
                rows.append((s, m0, "", seed, limit))
                continue
            rows.append((s, m0, head + "-" * (level - t), values[-1], limit))
            for u in range(t, level):
                runs.append((u + 1, decimation._root(values[u - t], True, u + 1),
                             f"{head}{'-' * (u - t)}+"))
    rows.sort(key=lambda r: (r[3], _SERIES_RANK[r[0]], r[1], r[2]))
    return [decimation.SpectrumLine(s, m0, branches, value, limit,
                                    decimation.series_multiplicity(s, m0))
            for s, m0, branches, value, limit in rows]


# --- dense oracle ----------------------------------------------------------

DENSE_LEVEL_CAP = 6


def dense_interior_matrix(level: int) -> np.ndarray:
    """-Delta_m with boundary rows and columns removed: row r is vertex 3 + r.

    Built edge by edge from mesh.cells (each edge lies in exactly one
    cell), not by the cell-Laplacian sum of mesh.eigen_residual.
    """
    cells = np.array(level_cells(level)).reshape(-1, 3)
    n = vertex_count(level)
    a = np.zeros((n, n))
    for i, j in ((0, 1), (1, 2), (2, 0)):
        a[cells[:, i], cells[:, j]] = a[cells[:, j], cells[:, i]] = -1.0
    a[np.diag_indices(n)] = -a.sum(axis=1)
    return a[3:, 3:]


def dense_dirichlet_spectrum(m: int) -> np.ndarray:
    """The Dirichlet spectrum of -Delta_m by LAPACK's symmetric eigensolver:
    one eigenvalue per interior vertex, ascending.  The eigenvectors are
    used only to check max|A v - v w| and are not returned."""
    if m < 0:
        raise DomainError(f"level must be nonnegative, got {m}")
    if m > DENSE_LEVEL_CAP:
        raise DomainError(f"dense solves are capped at level {DENSE_LEVEL_CAP}, got {m}")
    a = dense_interior_matrix(m)
    w, v = np.linalg.eigh(a)
    res = float(np.max(np.abs(a @ v - v * w), initial=0.0))
    # written so that a NaN residual raises too
    if not res < 1e-9:
        raise ConvergenceError(f"dense eigensolve residual {res:.3e} at level {m}")
    return w


cached_dense_spectrum = functools.lru_cache(maxsize=None)(dense_dirichlet_spectrum)

# the dense eigenvalues place an exact eigenvalue such as 5 up to 1.8e-14
# to either side of it
DENSE_TIE = 1e-9


def dense_count(m: int, x: float) -> int:
    """How many dense eigenvalues of level m lie below x, one within
    DENSE_TIE of x counted as at x, not below it."""
    return int(np.count_nonzero(cached_dense_spectrum(m) < x - DENSE_TIE))


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


def sine_fit_tangent(lam, x0, f0, f1):
    """Fit A sin(r x) + B cos(r x) through the endpoint data and return its
    first-order Taylor line at x0, evaluated at 0 and 1."""
    if lam == 0.0:
        return np.array([f0, f1])
    r = cmath.sqrt(lam)
    b = complex(f0)
    a = (f1 - f0 * cmath.cos(r)) / cmath.sin(r)

    def u(x):
        return a * cmath.sin(r * x) + b * cmath.cos(r * x)

    def du(x):
        return r * (a * cmath.cos(r * x) - b * cmath.sin(r * x))

    line = lambda x: u(x0) + du(x0) * (x - x0)
    return np.array([line(0.0).real, line(1.0).real])
