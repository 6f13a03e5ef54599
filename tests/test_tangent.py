"""Tangent triples: the closed-form tail matrix and its exact identities."""
import itertools
import math
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import extend_harmonic

from sglap.address import EventuallyConstantWord
from sglap.decimation import EigenvalueSequence, sequence_from_limit
from sglap.errors import DomainError
from sglap.harmonic import (SpectralEigenfunction, dirichlet_eigenfunction,
                            normal_derivative_limit)
from sglap.special import tau
from sglap.tangent import TangentTriple, m0_matrix, normal_derivative, tangent_at

SEQUENCES = [
    EigenvalueSequence(0, 1.0),
    EigenvalueSequence(0, 4.3, {1}),
    EigenvalueSequence(0, 0.7, {2, 3}),
    EigenvalueSequence(1, 6.0, {2}),
    EigenvalueSequence(1, 2.0, {3}),
]


def test_tail_matrix_eigen_identities():
    # M0 alpha = 4 c tau alpha, M0 beta = 2 c beta, M0 gamma_k = (4,4,4)
    alpha, beta = np.array([0.0, 1.0, 1.0]), np.array([0.0, 1.0, -1.0])
    for seq in SEQUENCES:
        # k = m0 exercises singular head values (2 and 6), which M0 allows
        for k in (seq.m0, seq.m0 + 2):
            m = m0_matrix(seq, k)
            lam, lam_k = seq.limit(), seq.value(k)
            c = lam / (3.0 * 5.0**k * lam_k)
            t = tau(k, seq)
            gamma = np.array([4.0, 4.0 - lam_k, 4.0 - lam_k])
            assert np.allclose(m @ alpha, 4.0 * c * t * alpha, atol=1e-12)
            assert np.allclose(m @ beta, 2.0 * c * beta, atol=1e-12)
            assert np.allclose(m @ gamma, [4.0, 4.0, 4.0], atol=1e-10)


def test_tail_matrix_guards():
    with pytest.raises(DomainError):
        m0_matrix(EigenvalueSequence(1, 2.0), 0)  # cut below the sequence start
    assert np.array_equal(m0_matrix(EigenvalueSequence(0, 0.0), 3), np.eye(3))


@pytest.mark.parametrize("lam", [1e-320, 1e-318, 1e-315, -3e-322])
def test_subnormal_lambda_k_gives_the_identity_tail_matrix(lam):
    # M0 = I + O(lambda_k); dividing by a subnormal lambda_k (or one that has
    # underflowed to 0) gave a matrix off by up to 2e-2, or a DomainError
    seq = sequence_from_limit(lam)
    assert seq.lambda_m0 != 0.0 and abs(seq.lambda_m0) < sys.float_info.min
    for k in range(7):
        assert np.array_equal(m0_matrix(seq, k), np.eye(3))


def test_six_element_tangent_closed_form():
    u = dirichlet_eigenfunction("six", 1)
    lam = u.sequence.limit()
    t = tangent_at(u, ":0")
    assert isinstance(t, TangentTriple)
    assert np.allclose(t.as_array(), lam / 9.0 * np.array([0.0, 1.0, -1.0]), atol=1e-12)


def test_harmonic_tangent_is_the_function_itself():
    u = SpectralEigenfunction(EigenvalueSequence(0, 0.0), [0.3, -1.2, 2.0])
    for w in (":0", "21:0", "102:2", "0012:1"):
        assert np.allclose(tangent_at(u, w).as_array(), [0.3, -1.2, 2.0], atol=1e-12)


def test_cut_independence():
    u = dirichlet_eigenfunction("two", 1, plus_indices={2})
    w = EventuallyConstantWord((0, 1), 2)
    base = tangent_at(u, w).as_array()
    assert np.abs(base).max() > 1e-3  # in the support, so the check is not vacuous
    for cut in (3, 5, 8):
        assert np.allclose(tangent_at(u, w, cut=cut).as_array(), base, atol=1e-9)
    with pytest.raises(DomainError):
        tangent_at(u, w, cut=1)


def test_six_mirror_symmetry_at_the_center_junction():
    # the element is invariant under the q0 <-> q1 swap, which exchanges the
    # two one-sided tangents at the shared midpoint and permutes their triples
    u = dirichlet_eigenfunction("six", 1)
    a = tangent_at(u, "0:1").as_array()
    b = tangent_at(u, "1:0").as_array()
    assert np.allclose(a, b[[1, 0, 2]], atol=1e-10)


def test_junction_sides_differ_for_an_asymmetric_function():
    u = SpectralEigenfunction(sequence_from_limit(7.25), [1.0, -0.4, 0.7])
    a = tangent_at(u, "0:1").as_array()
    b = tangent_at(u, "1:0").as_array()
    assert np.abs(a - b[[1, 0, 2]]).max() > 1e-3


def test_gradient_is_mean_free():
    u = dirichlet_eigenfunction("six", 1)
    triple = tangent_at(u, "010:2")
    g = triple.gradient()
    assert g.sum() == pytest.approx(0.0, abs=1e-12)
    t = triple.as_array()
    assert np.array_equal(g, t - t.mean())


# Worst relative gap measured: 7.7e-13 over 2000 random draws x 6
# permutations with prefixes of length 5, 5.5e-13 over 4000 examples of the
# test below.  A prefix letter can amplify the cell triple's roundoff
# five-fold and 5^5 eps = 6.9e-13, so the tolerance is set for length-5
# prefixes, with room for about 2.6 times the worst gap seen.
D3_TOL = 2e-12


@settings(max_examples=150, deadline=None)
@given(st.floats(-60.0, 60.0).filter(lambda lam: lam == 0.0 or abs(lam) >= 1e-9),
       st.tuples(*[st.floats(-5.0, 5.0)] * 3),
       st.lists(st.integers(0, 2), max_size=5).map(tuple),
       st.integers(0, 2))
def test_free_seed_tangents_are_d3_equivariant(lam, b, prefix, tail):
    # permuting the corners by p (boundary b[p[i]] at q_i, letter c read as
    # p.index(c)) permutes the tangent triple the same way: T' = T[p]
    seq = sequence_from_limit(lam)
    assume(seq.m0 == 0)  # a free: seed
    b = np.array(b)
    t = tangent_at(SpectralEigenfunction(seq, b), EventuallyConstantWord(prefix, tail)).as_array()
    scale = max(1.0, float(np.abs(t).max()))
    for p in itertools.permutations(range(3)):
        w = EventuallyConstantWord(tuple(p.index(c) for c in prefix), p.index(tail))
        moved = tangent_at(SpectralEigenfunction(seq, b[list(p)]), w).as_array()
        assert float(np.abs(moved - t[list(p)]).max()) <= D3_TOL * scale, p


def test_tangent_osculates_the_function():
    # harmonically extending the tangent triple down the address reproduces
    # u's cell triples with an error that dies out at the point
    u = dirichlet_eigenfunction("six", 1)
    w = EventuallyConstantWord((0, 1), 2)
    t = tangent_at(u, w).as_array()
    gaps = []
    for m in (5, 10, 15, 20):
        down = extend_harmonic(t, w.truncation(m))
        gaps.append(float(np.abs(down - u.cell_triple(w.truncation(m))).max()))
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < 1e-10


def test_normal_derivative_harmonic_case():
    u = SpectralEigenfunction(EigenvalueSequence(0, 0.0), [2.0, -1.0, 0.5])
    assert normal_derivative(u, 0) == 2 * 2.0 - (-1.0) - 0.5
    with pytest.raises(DomainError):
        normal_derivative(u, 3)


def test_normal_derivative_closed_vs_limit():
    u = SpectralEigenfunction(sequence_from_limit(9.5), [1.0, 0.3, -0.8])
    assert u.m0 == 0
    for i in range(3):
        est, _ = normal_derivative_limit(u.value_at, i, levels=20)
        assert normal_derivative(u, i) == pytest.approx(est, abs=1e-6)


def test_normal_derivative_dirichlet_uses_the_limit():
    u = dirichlet_eigenfunction("two", 1)
    nd = [normal_derivative(u, i) for i in range(3)]
    assert all(math.isfinite(x) for x in nd)
    # the two-series seed is symmetric under all corner swaps
    assert nd[0] == pytest.approx(nd[1], rel=1e-9)
    assert nd[1] == pytest.approx(nd[2], rel=1e-9)
