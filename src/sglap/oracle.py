"""Independent brute-force verifiers for the closed forms elsewhere; each
hands back plain numbers for the CLI to judge.

Spectra come from a dense symmetric eigensolve of the graph Laplacian, and
tangents from literally iterating pulled-back cell triples in Decimals (each
pullback level multiplies roundoff in the antisymmetric component by 5).
That iteration shares harmonic's matrices, called on its Decimals, and
conjugate, matvec and matmul, but not the closed form: nothing of tangent,
no M0, no tau, its own lambda step.
The shared matrices are checked by an mpmath transcription and by graph
residuals.  numpy and mesh, for the level's cells, are imported by the
dense solve alone, so that a tangent check loads neither, and decimal by the
tangent check alone.
"""
from __future__ import annotations

import math

from .address import EventuallyConstantWord
from .errors import ConvergenceError, DomainError

DENSE_LEVEL_CAP = 6
ORACLE_DPS = 50  # significant digits (stdlib decimal): headroom for 5^25 noise amplification


def dense_interior_matrix(level: int):
    """-Delta_m with boundary rows and columns removed: row r is vertex 3 + r.

    Built edge by edge from mesh.cells (each edge lies in exactly one
    cell), not by the cell-Laplacian sum of mesh.eigen_residual.
    """
    # mesh before numpy: compiled after it, mesh and harmonic raised the peak
    # RSS of `spectrum --verify` by 0.4-0.5 MB where no bytecode is cached
    from . import mesh
    from .decimation import vertex_count
    import numpy as np

    cells = np.array([v for part in mesh.cells(level) for v in part]).reshape(-1, 3)
    n = vertex_count(level)
    a = np.zeros((n, n))
    for i, j in ((0, 1), (1, 2), (2, 0)):
        a[cells[:, i], cells[:, j]] = a[cells[:, j], cells[:, i]] = -1.0
    a[np.diag_indices(n)] = -a.sum(axis=1)
    return a[3:, 3:]


def dense_dirichlet_spectrum(m: int):
    """The Dirichlet spectrum of -Delta_m by LAPACK's symmetric eigensolver:
    one eigenvalue per interior vertex, ascending.  The eigenvectors are
    used only to check max|A v - v w| and are not returned."""
    if m < 0:
        raise DomainError(f"level must be nonnegative, got {m}")
    if m > DENSE_LEVEL_CAP:
        raise DomainError(f"dense solves are capped at level {DENSE_LEVEL_CAP}, got {m}")
    a = dense_interior_matrix(m)  # first, since it imports mesh before numpy
    import numpy as np

    w, v = np.linalg.eigh(a)
    res = float(np.max(np.abs(a @ v - v * w), initial=0.0))
    # written so that a NaN residual raises too
    if not res < 1e-9:
        raise ConvergenceError(f"dense eigensolve residual {res:.3e} at level {m}")
    return w


# --- high-precision tangent iteration -------------------------------------

def direct_tangent_limit(u, w, m: int):
    """(triple, error): the pulled-back cell triple
    A_{w_1}^{-1}...A_{w_m}^{-1} u|cell([w]_m) of a
    harmonic.SpectralEigenfunction u, as a tuple of three floats.

    This is the defining sequence of the harmonic tangent, iterated with no
    closed-form shortcuts; the reported error is the distance to the m-1
    iterate.  Runs in ORACLE_DPS significant decimal digits because the
    pullback amplifies the antisymmetric roundoff component five-fold per
    level.  The matrices and products are harmonic's, run on Decimals.
    """
    if isinstance(w, str):
        w = EventuallyConstantWord.parse(w)
    m0 = u.m0
    if m < m0:
        raise DomainError(f"need m >= m0 = {m0}, got {m}")
    # decimal and harmonic are imported here, so that a spectrum check
    # loads neither
    from decimal import Context, Decimal, localcontext

    from .harmonic import IDENTITY, eigen_matrices, harmonic_inverses, matmul, matvec

    # a local context: the caller's decimal context is left as it was
    with localcontext(Context(prec=ORACLE_DPS)):
        inverses = harmonic_inverses(Decimal(3))
        lam = Decimal(u.sequence.lambda_m0)
        pull = IDENTITY
        for c in w.truncation(m0):
            pull = matmul(pull, inverses[c])
        triple = [Decimal(x) for x in u.cell_triple(w.truncation(m0))]
        prev = None
        cur = matvec(pull, triple)
        for t in range(m0 + 1, m + 1):
            root = (25 - 4 * lam).sqrt()
            lam = (5 + root) / 2 if t in u.sequence.plus_indices else 2 * lam / (5 + root)
            letter = w.letter(t)
            triple = matvec(eigen_matrices(lam)[letter], triple)
            pull = matmul(pull, inverses[letter])
            prev = cur
            cur = matvec(pull, triple)
        out = tuple(float(x) for x in cur)
        err = math.inf if prev is None else float(max(abs(a - b) for a, b in zip(cur, prev)))
    return out, err
