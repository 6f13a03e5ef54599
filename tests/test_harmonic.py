"""Harmonic extension: the 1/5-2/5 matrices, pullbacks, normal derivatives."""
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import HARMONIC_MATRICES, extend_harmonic, harmonic_matrix

from sglap import harmonic
from sglap.address import build_level_graph
from sglap.decimation import EigenvalueSequence
from sglap.errors import ConvergenceError, DomainError
from sglap.harmonic import (
    CORNER_SWAPS,
    HARMONIC_INVERSES,
    SpectralEigenfunction,
    extend_level,
    graph_laplacian,
    harmonic_normal_derivative,
    harmonic_pullback,
    normal_derivative_limit,
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


def test_rows_sum_to_one():
    # constants extend to constants
    assert np.allclose(HARMONIC_MATRICES.sum(axis=2), 1.0, atol=1e-15)


def test_inverses():
    for i in range(3):
        p = HARMONIC_MATRICES[i] @ HARMONIC_INVERSES[i]
        assert np.allclose(p, np.eye(3), atol=1e-15)


@given(triples, short_words)
def test_pullback_inverts_extension(b, word):
    down = extend_harmonic(np.array(b), word)
    assert np.allclose(harmonic_pullback(word) @ down, b, atol=1e-9)


@given(triples)
def test_extension_is_discrete_harmonic(b):
    vals = SpectralEigenfunction(HARMONIC, b).values_on_level(3, tol=1e-12)
    defect = graph_laplacian(build_level_graph(3), vals)[3:]
    assert float(np.abs(defect).max()) < 1e-12 * max(1.0, float(np.abs(vals).max()))


@given(triples)
def test_maximum_principle(b):
    vals = SpectralEigenfunction(HARMONIC, b).values_on_level(4, tol=1e-12)
    assert vals.min() >= min(b) - 1e-12
    assert vals.max() <= max(b) + 1e-12


def test_extensions_are_nested_across_levels():
    b = (1.0, -0.5, 2.0)
    u = SpectralEigenfunction(HARMONIC, b)
    v2, v3 = u.values_on_level(2, tol=1e-12), u.values_on_level(3, tol=1e-12)
    g2, g3 = build_level_graph(2), build_level_graph(3)
    index3 = {tuple(key): j for j, key in enumerate(g3.keys.tolist())}
    for i, key in enumerate(g2.keys.tolist()):
        j = index3[tuple(2 * n for n in key)]
        assert v3[j] == pytest.approx(v2[i], abs=1e-13)


def test_cell_vertex_round_trip():
    g = build_level_graph(3)
    vals = SpectralEigenfunction(HARMONIC, (0.3, 1.0, -2.0)).values_on_level(3, tol=1e-12)
    cv = vals[g.cells]
    assert np.array_equal(harmonic.cell_values_to_vertex(g, cv), vals)


def test_junction_mismatch_is_rejected():
    g = build_level_graph(1)
    cv = SpectralEigenfunction(HARMONIC, (1.0, 0.0, 0.0)).cell_values(1)
    cv[0, 1] += 1e-3
    with pytest.raises(DomainError):
        harmonic.cell_values_to_vertex(g, cv)


def test_extend_cells_matches_vertex_extension():
    # three 1-5-5 steps from the boundary triple, collapsed to vertices, give
    # the lambda = 0 eigenfunction's values bit for bit
    b = np.array([1.0, 2.0, -1.0])
    cv = b[None, :]
    for _ in range(3):
        cv = extend_level(cv, HARMONIC_MATRICES)
    vals = harmonic.cell_values_to_vertex(build_level_graph(3), cv, tol=1e-12)
    assert np.array_equal(vals, SpectralEigenfunction(HARMONIC, b).values_on_level(3, tol=1e-12))


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
