"""Independent brute-force verifiers for the closed forms elsewhere.

Nothing here reuses a formula it is meant to check: spectra come from a
dense symmetric eigensolve of the graph Laplacian, and tangents from
literally iterating pulled-back cell triples (in high precision, since each
pullback level multiplies roundoff in the antisymmetric component by 5).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .address import EventuallyConstantWord, build_level_graph
from .errors import ConvergenceError, DomainError
from .harmonic import SpectralEigenfunction
from .tangent import TangentTriple

DENSE_LEVEL_CAP = 6
ORACLE_DPS = 50  # significant digits (stdlib decimal): headroom for 5^25 noise amplification


@dataclass(frozen=True, eq=False)
class DenseSpectrum:
    """Eigendecomposition of -Delta_m on interior vertices (Dirichlet)."""

    level: int
    eigenvalues: np.ndarray  # ascending, one per interior vertex
    eigenvectors: np.ndarray  # columns, matching order; row r is vertex 3 + r
    matrix: np.ndarray = field(repr=False, default=None)

    @property
    def count(self) -> int:
        return self.eigenvalues.shape[0]

    def residual(self) -> float:
        if self.count == 0:
            return 0.0
        defect = self.matrix @ self.eigenvectors - self.eigenvectors * self.eigenvalues
        return float(np.max(np.abs(defect)))


def dense_interior_matrix(level: int):
    """-Delta_m with boundary rows and columns removed: row r is vertex 3 + r.

    Built from the cell edges (each edge lies in exactly one cell), not from
    the cell-Laplacian sum that graph_laplacian uses.
    """
    graph = build_level_graph(level)
    cells, n = graph.cells, graph.size
    a = np.zeros((n, n))
    for i, j in ((0, 1), (1, 2), (2, 0)):
        a[cells[:, i], cells[:, j]] = a[cells[:, j], cells[:, i]] = -1.0
    a[np.diag_indices(n)] = -a.sum(axis=1)
    return a[3:, 3:]


def dense_dirichlet_spectrum(m: int) -> DenseSpectrum:
    """Full Dirichlet spectrum of -Delta_m by LAPACK's symmetric eigensolver."""
    if m < 0:
        raise DomainError(f"level must be nonnegative, got {m}")
    if m > DENSE_LEVEL_CAP:
        raise DomainError(f"dense solves are capped at level {DENSE_LEVEL_CAP}, got {m}")
    a = dense_interior_matrix(m)
    w, v = np.linalg.eigh(a)
    spec = DenseSpectrum(m, w, v, a)
    res = spec.residual()
    if res >= 1e-9:
        raise ConvergenceError(f"dense eigensolve residual {res:.3e} at level {m}")
    return spec


# --- high-precision tangent iteration -------------------------------------

def _mp_swap(i):
    s = [0, 1, 2]
    s[0], s[i] = s[i], s[0]
    return s


def _mp_matvec(m, v):
    return [sum(m[a][b] * v[b] for b in range(3)) for a in range(3)]


def _mp_matmul(m, n):
    return [[sum(m[a][t] * n[t][b] for t in range(3)) for b in range(3)] for a in range(3)]


def _mp_eigen_matrix(i, lam):
    den = (5 - lam) * (2 - lam)
    a0 = [[1, 0, 0],
          [(4 - lam) / den, (4 - lam) / den, 2 / den],
          [(4 - lam) / den, 2 / den, (4 - lam) / den]]
    s = _mp_swap(i)
    return [[a0[s[a]][s[b]] for b in range(3)] for a in range(3)]


def _mp_harmonic_inverse(i, third):
    a0inv = [[1, 0, 0],
             [-2 * third, 10 * third, -5 * third],
             [-2 * third, -5 * third, 10 * third]]
    s = _mp_swap(i)
    return [[a0inv[s[a]][s[b]] for b in range(3)] for a in range(3)]


def direct_tangent_limit(u: SpectralEigenfunction, w, m: int):
    """The pulled-back cell triple A_{w_1}^{-1}...A_{w_m}^{-1} u|cell([w]_m).

    This is the defining sequence of the harmonic tangent, iterated with no
    closed-form shortcuts; the reported error is the distance to the m-1
    iterate.  Runs in ORACLE_DPS significant decimal digits because the
    pullback amplifies the antisymmetric roundoff component five-fold per
    level.
    """
    if isinstance(w, str):
        w = EventuallyConstantWord.parse(w)
    m0 = u.m0
    if m < m0:
        raise DomainError(f"need m >= m0 = {m0}, got {m}")
    # decimal is imported here, so that only a tangent check pays for it
    from decimal import Context, Decimal, localcontext

    # a local context: the caller's decimal context is left as it was
    with localcontext(Context(prec=ORACLE_DPS)):
        third = Decimal(1) / 3
        lam = Decimal(u.sequence.lambda_m0)
        pull = [[Decimal(1 if a == b else 0) for b in range(3)] for a in range(3)]
        for c in w.truncation(m0):
            pull = _mp_matmul(pull, _mp_harmonic_inverse(c, third))
        triple = [Decimal(float(x)) for x in u.cell_triple(w.truncation(m0))]
        prev = None
        cur = _mp_matvec(pull, triple)
        for t in range(m0 + 1, m + 1):
            root = (25 - 4 * lam).sqrt()
            lam = (5 + root) / 2 if t in u.sequence.plus_indices else 2 * lam / (5 + root)
            letter = w.letter(t)
            triple = _mp_matvec(_mp_eigen_matrix(letter, lam), triple)
            pull = _mp_matmul(pull, _mp_harmonic_inverse(letter, third))
            prev = cur
            cur = _mp_matvec(pull, triple)
        out = TangentTriple(*(float(x) for x in cur))
        err = math.inf if prev is None else float(max(abs(a - b) for a, b in zip(cur, prev)))
    return out, err
