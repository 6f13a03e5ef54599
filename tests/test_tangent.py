"""Tangent triples: the closed-form tail matrix and its exact identities, and
the corner normal derivatives they give."""
import itertools
import math
import sys
from functools import partial

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import (cell_values, extend_harmonic, harmonic_normal_derivative,
                      normal_derivative_limit, numpy_tangent, value_at)

from sglap.address import EventuallyConstantWord
from sglap.cli import parse_seed
from sglap.decimation import EigenvalueSequence, sequence_from_limit, series_multiplicity
from sglap.errors import DomainError
from sglap.harmonic import (SpectralEigenfunction, conjugate, dirichlet_eigenfunction,
                            eigen_matrices, harmonic_pullback, matmul, matvec)
from sglap.oracle import direct_tangent_limit
from sglap.special import tau
from sglap.tangent import TangentTriple, m0_matrix, tangent_at

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
    assert np.allclose(np.array(t), lam / 9.0 * np.array([0.0, 1.0, -1.0]), atol=1e-12)


def test_harmonic_tangent_is_the_function_itself():
    u = SpectralEigenfunction(EigenvalueSequence(0, 0.0), [0.3, -1.2, 2.0])
    for w in (":0", "21:0", "102:2", "0012:1"):
        assert np.allclose(np.array(tangent_at(u, w)), [0.3, -1.2, 2.0], atol=1e-12)


def test_cut_independence():
    u = dirichlet_eigenfunction("two", 1, plus_indices={2})
    w = EventuallyConstantWord((0, 1), 2)
    base = np.array(tangent_at(u, w))
    assert np.abs(base).max() > 1e-3  # in the support, so the check is not vacuous
    # the factorization at cuts past max(|prefix|, m0) = 2, as tangent_at
    # makes it at that cut
    for cut in (3, 5, 8):
        word = w.truncation(cut)
        tail_matrix = conjugate(m0_matrix(u.sequence, cut), w.tail)
        triple = matvec(matmul(harmonic_pullback(word), tail_matrix), u.cell_triple(word))
        assert np.allclose(np.array(triple), base, atol=1e-9)


def test_six_mirror_symmetry_at_the_center_junction():
    # the element is invariant under the q0 <-> q1 swap, which exchanges the
    # two one-sided tangents at the shared midpoint and permutes their triples
    u = dirichlet_eigenfunction("six", 1)
    a = np.array(tangent_at(u, "0:1"))
    b = np.array(tangent_at(u, "1:0"))
    assert np.allclose(a, b[[1, 0, 2]], atol=1e-10)


def test_junction_sides_differ_for_an_asymmetric_function():
    u = SpectralEigenfunction(sequence_from_limit(7.25), [1.0, -0.4, 0.7])
    a = np.array(tangent_at(u, "0:1"))
    b = np.array(tangent_at(u, "1:0"))
    assert np.abs(a - b[[1, 0, 2]]).max() > 1e-3


def test_gradient_is_mean_free():
    u = dirichlet_eigenfunction("six", 1)
    triple = tangent_at(u, "010:2")
    g = triple.gradient()
    assert sum(g) == pytest.approx(0.0, abs=1e-12)
    t = np.array(triple)
    assert np.array_equal(g, t - t.mean())  # numpy's mean, bit for bit


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
    t = np.array(tangent_at(SpectralEigenfunction(seq, b), EventuallyConstantWord(prefix, tail)))
    scale = max(1.0, float(np.abs(t).max()))
    for p in itertools.permutations(range(3)):
        w = EventuallyConstantWord(tuple(p.index(c) for c in prefix), p.index(tail))
        moved = np.array(tangent_at(SpectralEigenfunction(seq, b[list(p)]), w))
        assert float(np.abs(moved - t[list(p)]).max()) <= D3_TOL * scale, p


@st.composite
def tangent_cases(draw):
    """(eigenfunction, word): a series seed with random branches, or a free
    seed, and a prefix of up to 6 letters.  The branches are up to 6 random
    letters, or a 15-21-letter minus run, a plus and up to 3 random letters,
    after a forced plus for the 6-series: the tail products must wait for
    that plus.  From 22 minus letters the plus root rounds to 5.0, which
    test_oracle keeps as a strict xfail."""
    if draw(st.booleans()):
        series, m0 = draw(st.sampled_from([("two", 1), ("five", 1), ("five", 2), ("six", 1),
                                           ("six", 2), ("six", 3)]))
        count = 1 if (series, m0) == ("six", 1) else series_multiplicity(series, m0)
        if draw(st.booleans()):
            branches = draw(st.text("+-", max_size=6))
        else:
            branches = ("+" * (series == "six") + "-" * draw(st.integers(15, 21)) + "+"
                        + draw(st.text("+-", max_size=3)))
        plus = {m0 + 1 + t for t, ch in enumerate(branches) if ch == "+"}
        if series == "six":
            plus.add(m0 + 1)
        u = dirichlet_eigenfunction(series, m0, draw(st.integers(1, count)), plus)
    else:
        seq = sequence_from_limit(draw(st.floats(-100.0, 21.75)))
        assume(seq.m0 == 0)
        u = SpectralEigenfunction(seq, draw(st.tuples(*[st.floats(-5.0, 5.0)] * 3)))
    prefix = tuple(draw(st.lists(st.integers(0, 2), max_size=6)))
    return u, EventuallyConstantWord(prefix, draw(st.integers(0, 2)))


# The scalar products round each product and sum where numpy's BLAS fuses a
# multiply-add, so the last bits move, by a few roundings of the terms each
# product adds.  The scale of those terms is the walk and the pullback run on
# absolute values, |P| |S M0 S| |E_k| ... |E_{m0+1}| |u|, with P the pullback
# and E_t the extension matrices; a plus branch below the cut makes the walk
# cancel, so max |t| alone is no scale.  Worst gap measured against it:
# 4.5e-16 over 32000 random cases with prefixes of up to 6 letters; relative
# to max |t| it was 3.6e-12 for the seeds the benchmark draws, and 1.1e-10
# with deep plus branches.  Over 3000 draws of tangent_cases with its 15-21-
# letter minus runs it was 3.5e-16, with no exception raised.  Each side
# rounds about 20 times for prefixes this short, which allows 4.4e-15.
SCALAR_TOL = 1e-14


@settings(max_examples=200, deadline=None)
@given(tangent_cases())
def test_scalar_closed_form_matches_the_numpy_formula(case):
    u, w = case
    t = np.array(tangent_at(u, w))
    k = max(len(w.prefix), u.m0)
    word = w.truncation(k)
    walk = np.abs(u.cell_triple(word[:u.m0]))
    for j in range(u.m0 + 1, k + 1):
        walk = np.abs(eigen_matrices(u.sequence.value(j))[word[j - 1]]) @ walk
    tail_matrix = conjugate(m0_matrix(u.sequence, k), w.tail)
    terms = np.abs(harmonic_pullback(word)) @ np.abs(tail_matrix) @ walk
    assert float(np.abs(t - numpy_tangent(u, w)).max()) <= SCALAR_TOL * float(terms.max())


def test_tangent_osculates_the_function():
    # harmonically extending the tangent triple down the address reproduces
    # u's cell triples with an error that dies out at the point
    u = dirichlet_eigenfunction("six", 1)
    w = EventuallyConstantWord((0, 1), 2)
    t = np.array(tangent_at(u, w))
    gaps = []
    for m in (5, 10, 15, 20):
        down = extend_harmonic(t, w.truncation(m))
        gaps.append(float(np.abs(down - u.cell_triple(w.truncation(m))).max()))
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < 1e-10


def test_normal_derivative_harmonic_case():
    # a harmonic function is its own tangent, so the identity is exact
    u = SpectralEigenfunction(EigenvalueSequence(0, 0.0), [2.0, -1.0, 0.5])
    assert harmonic_normal_derivative(tangent_at(u, ":0"), 0) == 2 * 2.0 - (-1.0) - 0.5
    with pytest.raises(DomainError):
        tangent_at(u, ":3")


def test_normal_derivative_closed_vs_limit():
    u = SpectralEigenfunction(sequence_from_limit(9.5), [1.0, 0.3, -0.8])
    assert u.m0 == 0
    for i in range(3):
        est, _ = normal_derivative_limit(partial(value_at, u), i, levels=20)
        assert harmonic_normal_derivative(tangent_at(u, f":{i}"), i) == pytest.approx(est, abs=1e-6)


def test_normal_derivative_dirichlet_uses_the_limit():
    # the renormalized limit is the reference for a Dirichlet seed; the
    # two-series seed is symmetric under all corner swaps
    u = dirichlet_eigenfunction("two", 1)
    nd = [harmonic_normal_derivative(tangent_at(u, f":{i}"), i) for i in range(3)]
    assert all(math.isfinite(x) for x in nd)
    assert nd[0] == pytest.approx(nd[1], rel=1e-9)
    assert nd[1] == pytest.approx(nd[2], rel=1e-9)
    for i in range(3):
        est, _ = normal_derivative_limit(partial(value_at, u), i, levels=20)
        assert nd[i] == pytest.approx(est, rel=1e-9)


def paper_normal_derivative(u, i) -> float:
    """The paper's closed form for m0 = 0, kept as a reference:
    ((4 - lambda_0) b_i - 2 b_{i+1} - 2 b_{i+2}) 2 lambda tau_0 / (3 lambda_0),
    with b the boundary triple and tau_0 the tail product Upsilon(lambda)."""
    b, seq = u.cell_triple(()), u.sequence
    lam0 = seq.value(0)
    factor = 2.0 * seq.limit() * tau(0, seq) / (3.0 * lam0)
    return ((4.0 - lam0) * b[i] - 2.0 * b[(i + 1) % 3] - 2.0 * b[(i + 2) % 3]) * factor


# Relative gaps of the tangent's normal derivative to the oracle's at depth
# (last plus level) + 45, measured: 1.7e-14 for two:1:1:--------+ and
# 1.6e-14 for five:1:2:-+ (the renormalized limit at 20 levels was 1.0e-7
# and 1.2e-12 off), 2.0e-14 at most for the free: seeds, and 1.8e-15
# absolute at six:1:1's zero corner 2 (the limit: 2.6e-8).  The tolerance
# allows 50 times the worst.  The paper's closed form and the tangent differ
# by 7.6e-16 relative at most.
NORMAL_DERIVATIVE_SEEDS = ["two:1:1:--------+", "five:1:2:-+", "six:1:1", "two:1:1:+-",
                           "free:7.3:1,-2,3", "free:40:1,0,0", "free:-3.5:0.2,1,-0.7",
                           "free:21.7:1,2,3", "free:0.5:1,0,0", "free:-80:1,-1,0.5",
                           "free:200:0.3,0.1,-1"]


@pytest.mark.parametrize("seed", NORMAL_DERIVATIVE_SEEDS)
def test_normal_derivative_is_the_tangents(seed):
    # d_n u(q_i) = 2 t_i - t_{i+1} - t_{i+2} with t = T_{:i} u: the limit
    # (5/3)^M (2 u(q_i) - u(F_i^M q_{i+1}) - u(F_i^M q_{i+2})) is the
    # harmonic normal derivative of the pulled-back triple A_i^{-M} u|F_i^M,
    # since harmonic normal derivatives scale by 3/5 under restriction
    u = parse_seed(seed)
    depth = max(u.sequence.plus_indices, default=u.m0) + 45
    for i in range(3):
        nd = harmonic_normal_derivative(tangent_at(u, f":{i}"), i)
        ref = harmonic_normal_derivative(direct_tangent_limit(u, f":{i}", depth)[0], i)
        assert abs(nd - ref) <= (1e-12 * abs(ref) if ref != 0.0 else 1e-12), i
        if u.m0 == 0:
            assert paper_normal_derivative(u, i) == pytest.approx(nd, rel=1e-13, abs=0.0)


@st.composite
def gauss_green_cases(draw):
    """A series seed whose last plus level is at most 4, or a free seed with
    |lambda| <= 100.  Gauss-Green is linear in u, so a free seed's values are
    0 or at least 1e-6 in size: nine levels below a value near the bottom of
    the float range, the cell values underflow."""
    if draw(st.booleans()):
        series, m0 = draw(st.sampled_from([("two", 1), ("five", 1), ("five", 2), ("six", 1),
                                           ("six", 2), ("six", 3)]))
        count = 1 if (series, m0) == ("six", 1) else series_multiplicity(series, m0)
        branches = draw(st.text("+-", max_size=3 - m0))
        plus = {m0 + 1 + t for t, ch in enumerate(branches) if ch == "+"}
        if series == "six":
            plus.add(m0 + 1)
        return dirichlet_eigenfunction(series, m0, draw(st.integers(1, count)), plus)
    seq = sequence_from_limit(draw(st.floats(-100.0, 100.0)))
    assume(seq.m0 == 0)
    value = st.floats(-5.0, 5.0).filter(lambda x: x == 0.0 or abs(x) >= 1e-6)
    return SpectralEigenfunction(seq, draw(st.tuples(value, value, value)))


# Gauss-Green, sum_i d_n u(q_i) = -lambda int u dmu, ties the tangent's
# normal derivatives to the decimation's cell values.  The integral is the
# level-m cell mean I_m after one Richardson step, (5 I_{m+1} - I_m) / 4, and
# the gap is divided by sum_i |d_n u(q_i)| + |lambda| mean |u|, since both
# sides are 0 by symmetry for many series seeds.  The discretization error
# shrinks like (lambda / 5^m)^2, so m runs 6 levels past the last plus level
# and at least to 8; up to the last plus level the gap is 1.0.  Worst gap
# measured over 4000 draws of gauss_green_cases: 3.2e-12, for two:1:1:+-;
# 1.3e-12 for free: seeds, 1.0e-13 for free:40:1,0,0, 4.5e-15 for
# free:7.3:1,-2,3, and 5.5e-17 for six:1:1, where the renormalized limit at
# 20 levels gave 2.8e-10.  The tolerance allows about 3 times the worst.
# The normal derivatives are differences of tangent entries the size of u,
# so they carry an absolute rounding of a few eps mean |u| too, which is all
# of the gap when u is near a constant and lambda is small: over 1500 such
# free: seeds with |lambda| from 1e-300 to 100, the gap past the tolerance
# was at most 7.8 eps mean |u|.  The floor allows 4 times that.
GAUSS_GREEN_TOL = 1e-11
GAUSS_GREEN_FLOOR = 32 * sys.float_info.epsilon


@settings(max_examples=40, deadline=None)
@given(gauss_green_cases())
@example(parse_seed("free:7.3:1,-2,3"))
@example(parse_seed("free:40:1,0,0"))
@example(parse_seed("two:1:1:+-"))
@example(parse_seed("six:1:1"))
def test_gauss_green_for_the_corner_normal_derivatives(u):
    m = max(8, max(u.sequence.plus_indices, default=u.m0) + 6)
    coarse, fine = cell_values(u, m), cell_values(u, m + 1)
    integral = (5.0 * fine.mean() - coarse.mean()) / 4.0
    nd = [harmonic_normal_derivative(tangent_at(u, f":{i}"), i) for i in range(3)]
    lam, size = u.sequence.limit(), float(np.abs(fine).mean())
    scale = sum(map(abs, nd)) + abs(lam) * size
    assert abs(sum(nd) + lam * integral) <= GAUSS_GREEN_TOL * scale + GAUSS_GREEN_FLOOR * size
