"""Shared pytest wiring: the acceptance report block, and the references
that only the tests use: the one-letter extension helpers, the scalar
addressing, the psi_m approximant, a one-point run of a special grid
kernel, and the oracles' spectrum pairing and unit-interval model."""
import cmath
import math

import numpy as np

from sglap.address import DEFAULT_CORNERS, check_letter, check_word
from sglap.errors import DomainError
from sglap.harmonic import CORNER_SWAPS, eigen_matrices
from sglap.special import DEFAULT_CONFIG

acceptance_log = []


def pytest_terminal_summary(terminalreporter):
    # one line per acceptance criterion, emitted after capture is released so
    # the report always lands in the run log
    if acceptance_log:
        terminalreporter.section("acceptance report")
        for line in acceptance_log:
            terminalreporter.write_line(line)


# --- extension matrices ----------------------------------------------------

HARMONIC_MATRICES = np.stack(
    [s @ (np.array([[5.0, 0, 0], [2, 2, 1], [2, 1, 2]]) / 5.0) @ s for s in CORNER_SWAPS]
)
HARMONIC_MATRICES.setflags(write=False)


def harmonic_matrix(i) -> np.ndarray:
    """The extension matrix A_i sending a cell triple to the letter-i subcell."""
    return HARMONIC_MATRICES[check_letter(i)]


def extend_harmonic(b, word) -> np.ndarray:
    """A_w b: the triple of the harmonic function with data b on cell w."""
    out = np.asarray(b, dtype=float).reshape(3)
    for c in check_word(word):
        out = HARMONIC_MATRICES[c] @ out
    return out


def eigen_matrix(i, lam: float) -> np.ndarray:
    """The letter-i extension matrix at level eigenvalue lam; degenerates to
    the harmonic matrix at lam = 0."""
    return eigen_matrices(float(lam))[check_letter(i)]


# --- scalar addressing -----------------------------------------------------

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
