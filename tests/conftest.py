"""Shared pytest wiring: the acceptance report block, and the one-letter
extension helpers that only the tests use as references."""
import numpy as np

from sglap.address import check_letter, check_word
from sglap.harmonic import HARMONIC_MATRICES, eigen_matrices

acceptance_log = []


def pytest_terminal_summary(terminalreporter):
    # one line per acceptance criterion, emitted after capture is released so
    # the report always lands in the run log
    if acceptance_log:
        terminalreporter.section("acceptance report")
        for line in acceptance_log:
            terminalreporter.write_line(line)


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
