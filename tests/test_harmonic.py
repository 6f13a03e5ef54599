"""Harmonic extension: the 1/5-2/5 matrices, pullbacks, and the normal-derivative
limit that the tests keep as a reference."""
import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from conftest import (CORNER_SWAPS, HARMONIC_MATRICES, ConvergenceError, build_level_graph,
                      cell_values_to_vertex, dense_values, extend_harmonic, extend_level,
                      graph_laplacian, harmonic_matrix, harmonic_normal_derivative,
                      level_vertices, normal_derivative_limit, values_on_level)

from sglap import mesh
from sglap.decimation import EigenvalueSequence
from sglap.errors import DomainError
from sglap.harmonic import (
    SpectralEigenfunction,
    eigen_matrices,
    harmonic_inverses,
    harmonic_pullback,
)

triples = st.tuples(*[st.floats(-5, 5, allow_nan=False) for _ in range(3)])
short_words = st.lists(st.integers(0, 2), max_size=5).map(tuple)
# the lambda = 0 sequence: its extension matrices are the harmonic ones
HARMONIC = EigenvalueSequence(0, 0.0)


def test_base_matrix_entries():
    assert np.array_equal(harmonic_matrix(0) * 5, [[5, 0, 0], [2, 2, 1], [2, 1, 2]])


def test_matrices_are_corner_conjugates():
    for i in range(3):
        s = CORNER_SWAPS[i]
        assert np.array_equal(harmonic_matrix(i), s @ harmonic_matrix(0) @ s)
    with pytest.raises(DomainError):
        harmonic_matrix(3)


def _numpy_conjugates(a0):
    """The corner conjugates as numpy built them, s @ a0 @ s through BLAS."""
    return np.stack([s @ a0 @ s for s in np.array(CORNER_SWAPS)])


@given(st.one_of(st.floats(-60.0, 6.25), st.floats(2.0, 5.0),
                 st.sampled_from([0.0, -0.0, 3.0, 4.0, 4.5, 1e-320])))
def test_matrix_tuples_equal_the_numpy_stacks_bit_for_bit(lam):
    # zero signs included: for 2 < lam < 5 the corner-0 matrix has -0.0
    # entries, which the BLAS sums turn into 0.0, and so do matmul's
    assume(lam not in (2.0, 5.0))
    den = (5.0 - lam) * (2.0 - lam)
    a0 = np.array([[den, 0.0, 0.0], [4.0 - lam, 4.0 - lam, 2.0], [4.0 - lam, 2.0, 4.0 - lam]])
    assert np.array(eigen_matrices(lam)).tobytes() == _numpy_conjugates(a0 / den).tobytes()
    inverse = np.array([[3.0, 0, 0], [-2, 10, -5], [-2, -5, 10]]) / 3.0
    assert np.array(harmonic_inverses(3.0)).tobytes() == _numpy_conjugates(inverse).tobytes()


def test_rows_sum_to_one():
    # constants extend to constants
    assert np.allclose(HARMONIC_MATRICES.sum(axis=2), 1.0, atol=1e-15)


def test_inverses():
    for i in range(3):
        p = HARMONIC_MATRICES[i] @ harmonic_inverses(3.0)[i]
        assert np.allclose(p, np.eye(3), atol=1e-15)


@given(triples, short_words)
def test_pullback_inverts_extension(b, word):
    down = extend_harmonic(np.array(b), word)
    assert np.allclose(harmonic_pullback(word, 3.0) @ down, b, atol=1e-9)


@given(triples)
def test_extension_is_discrete_harmonic(b):
    vals = values_on_level(SpectralEigenfunction(HARMONIC, dict(enumerate(b))), 3)
    defect = graph_laplacian(build_level_graph(3), vals)[3:]
    assert float(np.abs(defect).max()) < 1e-12 * max(1.0, float(np.abs(vals).max()))


@given(triples)
def test_maximum_principle(b):
    vals = values_on_level(SpectralEigenfunction(HARMONIC, dict(enumerate(b))), 4)
    assert vals.min() >= min(b) - 1e-12
    assert vals.max() <= max(b) + 1e-12


def test_extensions_are_nested_across_levels():
    b = (1.0, -0.5, 2.0)
    u = SpectralEigenfunction(HARMONIC, dict(enumerate(b)))
    v2, v3 = values_on_level(u, 2), values_on_level(u, 3)
    index3 = {tuple(key): j for j, key in enumerate(level_vertices(3)[0].tolist())}
    for i, key in enumerate(level_vertices(2)[0].tolist()):
        j = index3[tuple(2 * n for n in key)]
        assert v3[j] == pytest.approx(v2[i], abs=1e-13)


def test_cell_vertex_round_trip():
    g = build_level_graph(3)
    vals = values_on_level(SpectralEigenfunction(HARMONIC, {0: 0.3, 1: 1.0, 2: -2.0}), 3)
    cv = vals[g.cells]
    out, gap, scale = cell_values_to_vertex(g, cv)
    assert np.array_equal(out, vals) and gap == 0.0
    assert scale == max(1.0, float(np.abs(vals).max()))


def test_junction_mismatch_is_rejected(monkeypatch):
    # a midpoint is a corner of two subcells, which the walk gives one value:
    # a level whose two matrices give it by different rows, or whose matrix
    # moves its own corner, raises before the walk yields anything
    original, planted = mesh.eigen_matrices, []

    def eigen_matrices(lam):
        mats = [list(map(list, mat)) for mat in original(lam)]
        if lam == u.sequence.value(2):
            mats[planted[0]][planted[1]][2] += 1e-3
        return tuple(tuple(map(tuple, mat)) for mat in mats)

    u = SpectralEigenfunction(EigenvalueSequence(0, 3.0), {0: 1.0, 1: 0.0, 2: 0.0})
    values_on_level(u, 2)
    monkeypatch.setattr(mesh, "eigen_matrices", eigen_matrices)
    for row in [(0, 1), (1, 0), (0, 0), (2, 1), (1, 2)]:
        planted[:] = row
        walk = mesh.walk(u, 2)
        with pytest.raises(DomainError, match="matrices of level 2 give a vertex two values"):
            next(walk)


def test_extend_cells_matches_vertex_extension():
    # three 1-5-5 steps from the boundary triple, collapsed to vertices, give
    # the lambda = 0 eigenfunction's values bit for bit
    b = np.array([1.0, 2.0, -1.0])
    cv = b[None, :]
    for _ in range(3):
        cv = extend_level(cv, HARMONIC_MATRICES)
    vals, gap, _ = cell_values_to_vertex(build_level_graph(3), cv)
    assert gap == 0.0
    u = SpectralEigenfunction(HARMONIC, dict(enumerate(b)))
    assert np.array_equal(vals, values_on_level(u, 3))
    assert np.array_equal(vals, dense_values(u, 3))


def test_extend_level_splits_cells():
    rng = np.random.default_rng(5)
    vals = rng.standard_normal((9, 3))
    out = extend_level(vals, HARMONIC_MATRICES)
    assert out.shape == (27, 3)
    for c in range(9):
        for letter in range(3):
            assert np.allclose(out[3 * c + letter], HARMONIC_MATRICES[letter] @ vals[c])


@given(st.integers(0, 10_000))
def test_laplacian_is_linear_and_kills_constants(seed):
    g = build_level_graph(2)
    rng = np.random.default_rng(seed)
    x, y = rng.standard_normal((2, g.size))
    lap = lambda v: graph_laplacian(g, v)
    assert np.allclose(lap(x) + lap(y), lap(x + y), atol=1e-12)
    assert np.array_equal(lap(np.ones(g.size)), np.zeros(g.size))


def test_laplacian_boundary_is_exactly_the_first_three_vertices():
    # graph_laplacian(g, v)[3:] is the interior: the corners of V_0, the only
    # vertices with two neighbours, are vertices 0, 1, 2
    g = build_level_graph(2)
    degree = np.array([-graph_laplacian(g, e)[j] for j, e in enumerate(np.eye(g.size))])
    assert np.array_equal(degree, np.where(np.arange(g.size) < 3, 2.0, 4.0))


def test_normal_derivative_closed_form_and_limit():
    b = np.array([1.0, -0.5, 2.0])
    assert harmonic_normal_derivative(b, 0) == 2 * 1.0 - (-0.5) - 2.0
    assert harmonic_normal_derivative(b, 2) == 2 * 2.0 - 1.0 - (-0.5)

    def value_at(word, letter):
        return extend_harmonic(b, word)[letter]

    for corner in range(3):
        est, gap = normal_derivative_limit(value_at, corner, levels=12)
        assert est == pytest.approx(harmonic_normal_derivative(b, corner), abs=1e-9)
        assert gap < 1e-9


def test_normal_derivative_limit_guards():
    with pytest.raises(DomainError):
        normal_derivative_limit(lambda w, c: 0.0, 0, levels=1)
    with pytest.raises(DomainError):
        harmonic_normal_derivative((1.0, 0.0, 0.0), 5)

    def noisy(word, letter):
        # deterministic garbage; the renormalized differences blow up on it
        return 0.1 * ((hash((tuple(word), letter)) % 7) - 3)

    with pytest.raises(ConvergenceError):
        normal_derivative_limit(noisy, 0, levels=12)
