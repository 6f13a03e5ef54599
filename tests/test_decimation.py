"""Spectral decimation: sequences, seed eigenfunctions, spectrum enumeration."""
import hashlib
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import eigen_matrix, harmonic_matrix, resolve_addresses, vertex_key

from sglap import address, decimation
from sglap.address import build_level_graph
from sglap.decimation import (
    SERIES_SEED,
    SINGULAR_VALUES,
    EigenvalueSequence,
    enumerate_dirichlet_spectrum,
    sequence_from_limit,
    series_multiplicity,
)
from sglap.errors import (ConvergenceError, DomainError, InvariantError, SglapError,
                          SingularLevelError)
from sglap.harmonic import (
    SpectralEigenfunction,
    dirichlet_eigenfunction,
    dirichlet_seed_values,
    eigen_matrices,
    eigen_residual,
    graph_laplacian,
    rotate_six,
)
from sglap.special import DEFAULT_CONFIG, ConvergenceConfig

CLOSED_FORM_SEEDS = [
    ("two", 1, 1),
    ("five", 1, 1),
    ("five", 1, 2),
    ("five", 2, 1),
    ("five", 2, 2),
    ("five", 2, 3),
    ("six", 2, 1),
    ("six", 2, 2),
    ("six", 2, 3),
    ("six", 3, 1),
]


def test_lambda_next_inverts_the_quadratic():
    # one refinement step: lambda_1 of a sequence seeded at level 0
    for lam in (0.3, 1.7, 2.0, 4.0):
        for plus in (set(), {1}):
            nxt = EigenvalueSequence(0, lam, plus).value(1)
            assert nxt * (5.0 - nxt) == pytest.approx(lam, rel=1e-14, abs=1e-14)
    assert EigenvalueSequence(0, 6.0, {1}).value(1) == 3.0  # the forced 6-series step
    with pytest.raises(SingularLevelError, match="lambda_1 = 2.0 "):
        EigenvalueSequence(0, 6.0).value(1)  # the minus root of 6 is 2


@pytest.mark.parametrize("bad", [math.nan, -math.inf, math.inf])
def test_lambda_next_rejects_non_finite_input(bad):
    for plus in (set(), {1}):
        with pytest.raises(DomainError, match="non-finite"):
            EigenvalueSequence(0, bad, plus).value(1)


@pytest.mark.parametrize("bad", [math.nan, -math.inf, math.inf])
def test_eigen_matrices_reject_non_finite_input(bad):
    with pytest.raises(DomainError):
        eigen_matrices(bad)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_sequence_from_limit_rejects_non_finite_input(bad):
    with pytest.raises(DomainError):
        sequence_from_limit(bad)


@pytest.mark.parametrize("lam", [1e12, -1e10, 1e300, -1e300])
def test_sequence_from_limit_rejects_an_overflowing_back_iteration(lam):
    # psi squares its argument per level on the way down; these lambdas
    # leave the float range before reaching lambda_0
    with pytest.raises(DomainError, match="no finite generating sequence"):
        sequence_from_limit(lam)


def test_limit_overflow_is_a_domain_error():
    # 5.0**j overflows past j = 441, which a long enough plus run reaches
    with pytest.raises(DomainError, match="overflows"):
        EigenvalueSequence(1, 2.0, range(2, 450)).limit()


def test_minus_branch_is_cancellation_free():
    seq = EigenvalueSequence(0, 4.9)
    lam = seq.value(200)
    # far below the scale where the textbook form has gone to exact zero
    assert 0.0 < lam < 1e-130
    assert seq.value(201) / lam == pytest.approx(0.2, rel=1e-6)


def test_singular_levels_raise():
    with pytest.raises(SingularLevelError):
        EigenvalueSequence(1, 6.0).value(2)  # minus root of 6 is 2
    assert EigenvalueSequence(1, 6.0, plus_indices={2}).value(2) == 3.0


def test_sequence_validation():
    with pytest.raises(DomainError):
        EigenvalueSequence(-1, 2.0)
    with pytest.raises(DomainError):
        EigenvalueSequence(2, 5.0, plus_indices={2})  # plus starts at m0 + 1
    with pytest.raises(DomainError):
        EigenvalueSequence(1, 2.0).value(0)


def test_limit_is_the_renormalized_tail():
    seq = EigenvalueSequence(1, 2.0)
    assert seq.limit() == pytest.approx(1.5 * 5.0**30 * seq.value(30), rel=1e-12)


@given(st.floats(-60, 60))
def test_limit_round_trip(lam):
    seq = sequence_from_limit(lam)
    assert seq.limit() == pytest.approx(lam, rel=1e-9, abs=1e-9)


def test_six_element_eigenvalue_constant():
    # frozen from a 60-digit recomputation of the renormalized limit
    assert dirichlet_eigenfunction("six", 1).sequence.limit() == pytest.approx(
        135.57212699578887, rel=1e-13)


def test_seed_eigen_equations_are_integer_exact():
    # (Delta_m0 + lambda_m0) u = 0 in exact integer arithmetic
    for series, m0, index in CLOSED_FORM_SEEDS:
        u = dirichlet_eigenfunction(series, m0, index)
        g = build_level_graph(m0)
        defect = graph_laplacian(g, u.seed_values) + u.sequence.lambda_m0 * u.seed_values
        assert np.array_equal(defect[3:], np.zeros(g.size - 3)), (
            series,
            m0,
            index,
        )
        assert np.array_equal(u.seed_values[:3], np.zeros(3))  # Dirichlet


# sha256 of the seed vectors, computed by the key-dict/scalar-address
# construction these ones replaced: per m0 over every 6-series seed in index
# order, and per index for the three level-2 5-series seeds
SIX_SEEDS_SHA256 = {
    2: "bef8ef564e8ead32efb6f4738351cf113ef06948b625f1706de8fcbeae2d1a88",
    3: "c337d479599812f3fd1dadf488101d2090665cd87b6626810990787fc1df5c13",
    4: "b281d7849fc19c99c3ceb3e663719088c169cc217f8346f2f17e3ea953515e48",
    5: "fb914a814c78a1ce5529541de964b5821c88329c6381c58a140388615670e79a",
}
FIVE_LEVEL2_SEEDS_SHA256 = {
    1: "72241e16a9f6f018b16b9379e2523b07b841e769c3360b3aa4624b05bd4906bd",
    2: "794cb15476e89b6cda2bceddd2fed14d59f7cc4cdf4049295277ce516325dcf0",
    3: "7b7d77e80a8b28248c5b92e12f5c50d6714df3875c92056d5092ff7df65d683d",
}


@pytest.mark.parametrize("m0", sorted(SIX_SEEDS_SHA256))
def test_six_seeds_are_pinned(m0):
    digest = hashlib.sha256()
    for index in range(1, series_multiplicity("six", m0) + 1):
        digest.update(dirichlet_seed_values("six", m0, index).tobytes())
    assert digest.hexdigest() == SIX_SEEDS_SHA256[m0]


@pytest.mark.parametrize("index", sorted(FIVE_LEVEL2_SEEDS_SHA256))
def test_five_level2_seeds_are_pinned(index):
    seed = dirichlet_seed_values("five", 2, index)
    assert hashlib.sha256(seed.tobytes()).hexdigest() == FIVE_LEVEL2_SEEDS_SHA256[index]


def test_residuals_stay_tiny_under_refinement():
    funcs = [
        dirichlet_eigenfunction("two", 1),
        dirichlet_eigenfunction("five", 1, 2),
        dirichlet_eigenfunction("six", 2, 1),
        dirichlet_eigenfunction("six", 1),
    ]
    for u in funcs:
        for m in range(u.m0, 7):
            assert eigen_residual(build_level_graph(m), u.values_on_level(m),
                                  u.sequence.value(m)) < 1e-11


def test_junction_values_agree_from_both_addresses():
    u = dirichlet_eigenfunction("five", 2, 1, plus_indices={3})
    key = vertex_key((0, 1, 2), 1, 3)
    (w1, l1), (w2, l2) = resolve_addresses(key, 3)
    assert u.value_at(w1, l1) == pytest.approx(u.value_at(w2, l2), abs=1e-12)


def test_values_on_level_shape_and_boundary():
    u = dirichlet_eigenfunction("two", 1, plus_indices={2})
    v = u.values_on_level(4, tol=1e-10)
    assert v.shape == (build_level_graph(4).size,)
    assert np.array_equal(v[:3], np.zeros(3))


def test_cell_triple_matches_bulk_values():
    u = dirichlet_eigenfunction("five", 1, 2, plus_indices={3})
    g = build_level_graph(3)
    vals = u.values_on_level(3)
    word = (0, 2, 1)
    expect = [vals[g.index_of(word, c)] for c in range(3)]
    assert np.allclose(u.cell_triple(word), expect, atol=1e-12)


@st.composite
def walk_cases(draw):
    """(eigenfunction, level m <= 5, word of length 0..m, letter): a series
    seed, the basic 6-series element included, with random branches, or a
    free seed."""
    if draw(st.booleans()):
        series, m0, index = draw(st.sampled_from([*CLOSED_FORM_SEEDS, ("six", 1, 1)]))
        plus = {m0 + 1 + t for t, ch in enumerate(draw(st.text("+-", max_size=5))) if ch == "+"}
        if series == "six":
            plus.add(m0 + 1)
        u = dirichlet_eigenfunction(series, m0, index, plus)
    else:
        seq = sequence_from_limit(draw(st.floats(-60, 60)))
        assume(seq.m0 == 0)
        u = SpectralEigenfunction(seq, draw(st.lists(st.floats(-2, 2), min_size=3, max_size=3)))
    m = draw(st.integers(u.m0, 5))
    word = tuple(draw(st.lists(st.integers(0, 2), max_size=m)))
    return u, m, word, draw(st.integers(0, 2))


@settings(deadline=None)
@given(walk_cases())
def test_single_walk_matches_bulk_values(case):
    u, m, word, letter = case
    g = build_level_graph(m)
    vals = u.values_on_level(m)
    atol = 1e-12 * max(1.0, float(np.abs(vals).max()))
    assert u.value_at(word, letter) == pytest.approx(vals[g.index_of(word, letter)], abs=atol)
    if len(word) >= u.m0:
        expect = [vals[g.index_of(word, c)] for c in range(3)]
        assert np.allclose(u.cell_triple(word), expect, rtol=0.0, atol=atol)
    else:
        with pytest.raises(DomainError):
            u.cell_triple(word)


def test_enumeration_dimension_and_order():
    for m in (1, 2, 3):
        lines = enumerate_dirichlet_spectrum(m)
        assert sum(line.multiplicity for line in lines) == (3 ** (m + 1) - 3) // 2
        vals = [line.value for line in lines]
        assert vals == sorted(vals)
    # branch strings cover levels m0+1..level, the first character at m0+1
    lines = enumerate_dirichlet_spectrum(4)
    assert sorted(l.branches for l in lines if l.series == "two") == sorted(
        a + b + c for a in "+-" for b in "+-" for c in "+-")
    assert {l.m0: l.branches for l in lines if l.series == "six" and "-" not in l.branches} == {
        2: "++", 3: "+", 4: ""}
    assert enumerate_dirichlet_spectrum(0) == []
    with pytest.raises(DomainError):
        enumerate_dirichlet_spectrum(-1)


def test_level1_spectrum_is_two_five_five():
    lines = enumerate_dirichlet_spectrum(1)
    flat = sorted(x for line in lines for x in [line.value] * line.multiplicity)
    assert flat == [2.0, 5.0, 5.0]


def test_six_element_is_interior_eigen_but_not_dirichlet():
    u = dirichlet_eigenfunction("six", 1)
    assert u.seed_values[2] == 2.0  # nonzero on a boundary corner
    assert eigen_residual(build_level_graph(5), u.values_on_level(5),
                          u.sequence.value(5)) < 1e-12


def test_rotate_six_permutes_the_seed():
    for corner in range(3):
        v = rotate_six(corner)
        assert sorted(v) == [-1, -1, 0, 0, 1, 2]
        assert v[corner] == 2.0
    with pytest.raises(DomainError):
        rotate_six(4)


def test_closed_form_support_flags():
    with pytest.raises(DomainError):
        dirichlet_eigenfunction("five", 3)
    with pytest.raises(DomainError):
        dirichlet_eigenfunction("six", 2, plus_indices=frozenset())
    with pytest.raises(DomainError):
        dirichlet_eigenfunction("ten", 1)


def test_dirichlet_seed_names_a_basis_function():
    u = dirichlet_eigenfunction("two", 1, plus_indices={2, 4})
    assert u.sequence.plus_indices == frozenset({2, 4})
    assert u.m0 == 1
    with pytest.raises(DomainError):
        dirichlet_eigenfunction("seven", 1)


def test_six_element_branches():
    assert dirichlet_eigenfunction("six", 1).sequence.plus_indices == frozenset({2})
    u = dirichlet_eigenfunction("six", 1, 1, {2, 4})
    assert u.sequence.plus_indices == frozenset({2, 4})
    assert eigen_residual(build_level_graph(5), u.values_on_level(5),
                          u.sequence.value(5)) < 1e-12
    with pytest.raises(DomainError):
        dirichlet_eigenfunction("six", 1, 1, {3})  # level 2 must take the plus root


def test_eigen_matrix_degenerates_to_harmonic():
    for i in range(3):
        assert np.array_equal(eigen_matrix(i, 0.0), harmonic_matrix(i))


def test_eigen_matrix_singularities():
    for lam in (2.0, 5.0):
        with pytest.raises(SglapError):
            eigen_matrix(0, lam)


def test_seed_shape_is_validated():
    with pytest.raises(DomainError):
        SpectralEigenfunction(EigenvalueSequence(1, 2.0), [0.0, 1.0, 2.0])


# The scalar recursion EigenvalueSequence once ran, kept literally as the reference.
def reference_lambda_next(prev, plus):
    if not math.isfinite(prev):
        raise DomainError(f"no refinement of the non-finite lambda={prev!r}")
    disc = 25.0 - 4.0 * prev
    if disc < 0.0:
        raise DomainError(f"no real refinement of lambda={prev!r} (needs lambda <= 6.25)")
    root = math.sqrt(disc)
    if plus:
        return (5.0 + root) / 2.0
    return 2.0 * prev / (5.0 + root)


class ReferenceSequence:
    def __init__(self, m0, lambda_m0, plus_indices):
        self.seq = EigenvalueSequence(m0, lambda_m0, plus_indices)  # validation and repr
        self.m0, self.plus_indices = m0, self.seq.plus_indices
        self.vals = {m0: self.seq.lambda_m0}

    def value(self, j):
        vals = self.vals
        top = max(vals)
        if j > top:
            cur = vals[top]
            for t in range(top + 1, j + 1):
                cur = reference_lambda_next(cur, t in self.plus_indices)
                if cur in SINGULAR_VALUES:
                    raise SingularLevelError(t, cur)
                vals[t] = cur
        return vals[j]

    def limit(self, config):
        j = max([self.m0, *self.plus_indices])
        try:
            prev = 1.5 * 5.0**j * self.value(j)
            for _ in range(config.max_iterations):
                j += 1
                cur = 1.5 * 5.0**j * self.value(j)
                if abs(cur - prev) <= config.tol * max(1.0, abs(cur)):
                    return cur
                prev = cur
        except OverflowError:
            raise DomainError(f"renormalized eigenvalue overflows at level {j}") from None
        raise ConvergenceError(f"renormalized eigenvalue did not settle for {self.seq!r}")


def outcome(fn, *args):
    """The value's repr (equal NaNs compare equal, and 0.0 differs from -0.0),
    or the exception's class and message."""
    try:
        return repr(float(fn(*args)))
    except SglapError as exc:
        return type(exc), str(exc)


def test_spectrum_matches_the_scalar_recursion_bit_for_bit():
    for level in range(1, 11):
        for line in enumerate_dirichlet_spectrum(level):
            plus = {line.m0 + 1 + i for i, c in enumerate(line.branches) if c == "+"}
            if line.series == "six":
                plus.add(line.m0 + 1)  # the forced plus, past the string at m0 = level
            ref = ReferenceSequence(line.m0, SERIES_SEED[line.series], plus)
            assert line.value == ref.value(level) and line.limit == ref.limit(DEFAULT_CONFIG)
            seq = EigenvalueSequence(line.m0, SERIES_SEED[line.series], plus)
            assert line.value == seq.value(level) and line.limit == seq.limit()


plus_sets = st.one_of(
    st.sets(st.integers(1, 14), max_size=6),
    # a plus level near 441, where 5.0**j leaves the float range
    st.tuples(st.integers(1, 8), st.integers(436, 446)).map(lambda ab: set(range(ab[0], ab[1]))),
)
seeds = st.one_of(st.sampled_from([2.0, 5.0, 6.0, 0.0, 6.25, 7.0, -1e308, math.nan, math.inf]),
                  st.floats(-50.0, 6.5))
rows = st.lists(st.tuples(st.integers(0, 4), seeds, plus_sets), min_size=1, max_size=5)
sequence_configs = st.builds(ConvergenceConfig, tol=st.floats(1e-16, 1e-3),
                             max_iterations=st.sampled_from([80, 80, 30, 5, 1, 0]))


@settings(max_examples=60, deadline=None)
@given(rows, st.integers(0, 12), sequence_configs)
def test_eigenvalue_sequence_matches_the_reference_recursion(rows, depth, config):
    # plus levels at or below m0 are not part of a sequence
    rows = [(m0, seed, {j for j in plus if j > m0}) for m0, seed, plus in rows]
    level = max(m0 for m0, _, _ in rows) + depth
    for m0, seed, plus in rows:
        expected_value = outcome(ReferenceSequence(m0, seed, plus).value, level)
        expected_limit = outcome(ReferenceSequence(m0, seed, plus).limit, config)
        # values and limits: a float's repr, or the failure's class and message
        seq = EigenvalueSequence(m0, seed, plus)
        assert outcome(seq.value, level) == expected_value
        assert outcome(seq.limit, config) == expected_limit
        # asked for levels out of order, the limit first
        seq = EigenvalueSequence(m0, seed, plus)
        assert outcome(seq.limit, config) == expected_limit
        assert outcome(seq.value, level) == expected_value
        assert outcome(seq.value, max(m0, level - 3)) == outcome(
            ReferenceSequence(m0, seed, plus).value, max(m0, level - 3))
    # one step from each seed, both roots: the non-finite, 7.0 and -1e308 seeds included
    for _, seed, _ in rows:
        for plus in (set(), {1}):
            assert outcome(EigenvalueSequence(0, seed, plus).value, 1) == outcome(
                ReferenceSequence(0, seed, plus).value, 1)


def test_eigenvalue_sequence_reports_each_failure_kind():
    config = ConvergenceConfig(tol=1e-13, max_iterations=5)
    cases = [EigenvalueSequence(1, 6.0), EigenvalueSequence(1, 6.0, {2}),
             EigenvalueSequence(1, 2.0, range(2, 445)), EigenvalueSequence(1, 7.0),
             EigenvalueSequence(3, 2.0)]
    values = [outcome(seq.value, 3) for seq in cases]
    limits = [outcome(seq.limit, config) for seq in cases]
    assert values[0][0] is SingularLevelError  # minus root of 6 is 2
    assert values[1] == repr(EigenvalueSequence(1, 6.0, {2}).value(3))
    assert limits[2] == (DomainError, "renormalized eigenvalue overflows at level 444")
    assert "no real refinement of lambda=7.0" in values[3][1]
    assert limits[1][0] is ConvergenceError
    assert [i for i, v in enumerate(values) if isinstance(v, tuple)] == [0, 3]
    assert all(isinstance(limit, tuple) for limit in limits)
    for seq, value, limit in zip(cases, values, limits):
        ref = ReferenceSequence(seq.m0, seq.lambda_m0, seq.plus_indices)
        assert (value, limit) == (outcome(ref.value, 3), outcome(ref.limit, config))


@pytest.mark.parametrize("singular, max_iterations, error", [
    # every 6-series fails at its forced plus root
    ((2.0, 5.0, 6.0, 3.0), 80, SingularLevelError),
    # the 2-series members with a plus at level 2
    ((2.0, 5.0, 6.0, 4.561552812808831), 80, SingularLevelError),
    ((2.0, 5.0, 6.0), 3, ConvergenceError),  # no limit settles
])
@pytest.mark.parametrize("level", [3, 4])
def test_spectrum_failures_raise_from_the_walk(singular, max_iterations, error, level,
                                               monkeypatch):
    monkeypatch.setattr(decimation, "SINGULAR_VALUES", singular)
    monkeypatch.setattr(decimation.special, "DEFAULT_CONFIG",
                        ConvergenceConfig(max_iterations=max_iterations))
    with pytest.raises(SglapError) as info:
        enumerate_dirichlet_spectrum(level)
    assert type(info.value) is error


def test_vertex_count_check_raises(monkeypatch):
    monkeypatch.setattr(address, "vertex_count", lambda m: 7)
    with pytest.raises(InvariantError, match="level-2 graph has 15 vertices, not 7"):
        address._build_level_graph.__wrapped__(2)


def test_multiplicity_check_raises(monkeypatch):
    count = decimation.series_multiplicity
    monkeypatch.setattr(decimation, "series_multiplicity",
                        lambda series, m0: count(series, m0) + (series == "six"))
    with pytest.raises(InvariantError, match="level-3 multiplicities add up to 41, not 39"):
        enumerate_dirichlet_spectrum(3)
