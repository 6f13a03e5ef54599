"""Independent verification routes: inertia counts against dense spectra, brute tangent
limits, 1-D calculus."""
import decimal
import hashlib
import math
import sys
from functools import lru_cache

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (ConvergenceError, build_level_graph, cached_dense_spectrum, dense_count,
                      dense_dirichlet_spectrum, dense_interior_matrix, graph_laplacian,
                      interval_tangent, sine_fit_tangent, sorted_pairing_gap, values_on_level)

from sglap.address import EventuallyConstantWord
from sglap.decimation import enumerate_dirichlet_spectrum, sequence_from_limit
from sglap.errors import DomainError
from sglap.harmonic import (SpectralEigenfunction, dirichlet_eigenfunction, eigen_matrices,
                            harmonic_inverses, matmul)
from sglap.oracle import bracket_half_widths, dirichlet_count, direct_tangent_limit
from sglap.tangent import tangent_at


def test_level1_dense_spectrum():
    assert np.allclose(dense_dirichlet_spectrum(1), [2.0, 5.0, 5.0], atol=1e-12)


def test_dense_residual_and_orthogonality():
    w = dense_dirichlet_spectrum(3)
    assert w.shape == ((3**4 - 3) // 2,)
    assert np.all(np.diff(w) >= 0)  # spectrum --verify pairs blocks in order
    # the solve that dense_dirichlet_spectrum checks and keeps only the values of
    a = dense_interior_matrix(3)
    values, v = np.linalg.eigh(a)
    assert np.array_equal(values, w)
    assert np.abs(a @ v - v * values).max() < 1e-10
    assert np.allclose(v.T @ v, np.eye(w.size), atol=1e-9)


def test_dense_spectrum_checks_its_own_residual(monkeypatch):
    eigh = np.linalg.eigh

    def off_by_a_millionth(a):
        # scaling the vectors instead would scale the residual A v - v w
        # with them and leave it at roundoff
        w, v = eigh(a)
        return w * (1.0 + 1e-6), v

    monkeypatch.setattr(np.linalg, "eigh", off_by_a_millionth)
    with pytest.raises(ConvergenceError, match="dense eigensolve residual"):
        dense_dirichlet_spectrum(2)


def test_dense_level_caps():
    with pytest.raises(DomainError):
        dense_dirichlet_spectrum(7)
    with pytest.raises(DomainError):
        dense_dirichlet_spectrum(-1)


def test_enumeration_matches_dense():
    for m in (1, 2, 3):
        lines = list(enumerate_dirichlet_spectrum(m))
        listed = np.sort(
            np.repeat([line.value for line in lines], [line.multiplicity for line in lines])
        )
        assert sorted_pairing_gap(listed, dense_dirichlet_spectrum(m)) < 1e-9


@pytest.mark.parametrize("m", range(1, 7))
def test_inertia_count_equals_the_dense_count(m):
    # random shifts over the spectrum and past both of its ends, then 2, 5
    # and 6, at which some midpoint block is exactly singular
    rng = np.random.default_rng(m)
    for x in [*rng.uniform(-0.5, 6.5, 300).tolist(), 2.0, 5.0, 6.0]:
        assert dirichlet_count(x, m) == dense_count(m, x), x
    for line in enumerate_dirichlet_spectrum(m):
        # a float lambda_m lies a few ulps to either side of its eigenvalue,
        # closer than conftest.DENSE_TIE
        gained = dirichlet_count(line.value, m) - dense_count(m, line.value)
        assert gained in (0, line.multiplicity), line


def test_inertia_count_between_neighbouring_lines_is_the_cumulative_multiplicity():
    lines = list(enumerate_dirichlet_spectrum(8))
    assert dirichlet_count(lines[0].value / 2, 8) == 0
    below = 0
    for line, above in zip(lines, lines[1:]):
        below += line.multiplicity
        if above.value != line.value:
            assert dirichlet_count((line.value + above.value) / 2, 8) == below, line
    assert dirichlet_count(8.0, 8) == (3**9 - 3) // 2


def _widths(level, lines):
    """The half-widths of bracket_half_widths(level, lines), after checking
    that its pairs carry the lines in input order and then None."""
    pairs = list(bracket_half_widths(level, lines))
    assert [line for line, _ in pairs] == [*lines, None]
    return [width for _, width in pairs]


def test_bracket_half_widths_fail_lines_out_of_order_or_of_equal_value():
    two, five = enumerate_dirichlet_spectrum(1)
    assert max(_widths(1, [two, five])) < 1e-15
    huge = sys.float_info.max
    assert _widths(1, [five, two]) == [huge, huge, 0.0]
    # the 5-eigenspace as two lines of one value
    halves = [five._replace(multiplicity=1)] * 2
    assert _widths(1, [two, *halves])[1:] == [huge, huge, 0.0]
    # the last figure counts the eigenvalues above the last line
    assert _widths(1, [two])[1] == _widths(1, [])[0] == huge
    assert _widths(0, []) == [0.0]


def test_pairing_gap_shape_guard():
    with pytest.raises(DomainError):
        sorted_pairing_gap([1.0, 2.0], [1.0])


# sha256 of dense_interior_matrix(m).tobytes(), computed by the CSR-walking
# construction this one replaced; the entries are small integers, so any
# correct construction reproduces them bit for bit
DENSE_MATRIX_SHA256 = {
    0: "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    1: "185bee422b10f6028c9169f38125103fc1ec92c42a3908977b36cfb6651ed99a",
    2: "f83671493d0715bc729a5451ddfe24bd497c7283f2576eee761f5a82d8feb891",
    3: "9d0f85f11d981e62033b85c451b8d646fbbd08f9668f25759a43f5d3cb9786be",
    4: "08e704a2449be5caf2dc591f0280f963df8becf9086d661d21afc6cc864b0c56",
    5: "47b03af943fb8650ad73b6bc04eca1e039d16766497be85c24a775050b1403b8",
    6: "9678deb3a7838764b75e25db5fae8ce5917c2a1fb3546dc0f2486b3751ad74ad",
}


@pytest.mark.parametrize("m", sorted(DENSE_MATRIX_SHA256))
def test_dense_matrix_is_pinned(m):
    a = dense_interior_matrix(m)
    assert hashlib.sha256(a.tobytes()).hexdigest() == DENSE_MATRIX_SHA256[m]
    assert a.shape == (build_level_graph(m).size - 3,) * 2


def test_dense_matrix_agrees_with_the_graph_laplacian():
    rng = np.random.default_rng(11)
    for m in range(1, 7):
        g = build_level_graph(m)
        a = dense_interior_matrix(m)
        for _ in range(3):
            v = rng.standard_normal(g.size)
            v[:3] = 0.0  # Dirichlet: the interior block is the whole operator
            assert np.allclose(a @ v[3:], -graph_laplacian(g, v)[3:], rtol=0, atol=1e-12)


def test_decimated_functions_solve_the_dense_problem():
    m = 3
    a = dense_interior_matrix(m)
    for u in (
        dirichlet_eigenfunction("two", 1, plus_indices={2}),
        dirichlet_eigenfunction("five", 2, 2),
        dirichlet_eigenfunction("six", 2, 3),
    ):
        v = values_on_level(u, m)[3:]
        lam = u.sequence.value(m)
        assert np.abs(a @ v - lam * v).max() < 1e-9 * max(1.0, np.abs(v).max())


_dense_matrix = lru_cache(maxsize=None)(dense_interior_matrix)


@st.composite
def closed_form_seeds(draw):
    """(series, m0, index, branch string down to a level m <= 6)."""
    series = draw(st.sampled_from(["two", "five", "six"]))
    if series == "two":
        m0, index = 1, 1
    elif series == "five":
        m0 = draw(st.integers(1, 2))
        index = draw(st.integers(1, 2 if m0 == 1 else 3))
    else:
        m0 = draw(st.integers(2, 6))
        index = draw(st.integers(1, build_level_graph(m0 - 1).size - 3))
    m = draw(st.integers(m0, 6))
    return series, m0, index, draw(st.text("+-", min_size=m - m0, max_size=m - m0))


@settings(deadline=None, max_examples=60)
@given(closed_form_seeds())
def test_random_seeds_solve_the_dense_problem(seed):
    series, m0, index, branches = seed
    m = m0 + len(branches)
    plus = {m0 + 1 + t for t, ch in enumerate(branches) if ch == "+"}
    if series == "six":
        plus.add(m0 + 1)  # the 6-series always takes the plus root there
    u = dirichlet_eigenfunction(series, m0, index, plus)
    lam = u.sequence.value(m)
    v = values_on_level(u, m)[3:]
    scale = np.abs(v).max()
    assert scale > 0.0
    assert np.abs(_dense_matrix(m) @ v - lam * v).max() < 1e-9 * max(1.0, scale)
    assert np.abs(cached_dense_spectrum(m) - lam).min() < 1e-9


def _oracle_digits(m):
    """The working precision direct_tangent_limit documents for depth m."""
    return math.ceil(m * math.log10(5)) + 32


def test_direct_limit_matches_the_closed_tangent():
    u = dirichlet_eigenfunction("six", 1)
    for w in map(EventuallyConstantWord.parse, (":0", "0:1", "20:1")):
        triple, err = direct_tangent_limit(u, w, 25)
        assert np.abs(np.array(triple) - np.array(tangent_at(u, w)[0])).max() < 1e-9
        assert err < 1e-9


def test_direct_limit_error_contracts_by_three():
    u = dirichlet_eigenfunction("six", 1)
    w = EventuallyConstantWord.parse("0:1")
    errs = [direct_tangent_limit(u, w, m)[1] for m in (14, 17, 20)]
    assert errs[0] > errs[1] > errs[2] > 0.0
    # the per-level Cauchy ratio tends to 3 from below
    assert (errs[1] / errs[2]) ** (1.0 / 3.0) > 2.9
    assert errs[1] / errs[2] == pytest.approx(27.0, rel=0.15)


def test_direct_limit_rejects_short_truncations():
    u = dirichlet_eigenfunction("six", 2, 1)
    with pytest.raises(DomainError):
        direct_tangent_limit(u, EventuallyConstantWord.parse(":0"), 1)  # below the seed level


# The mpmath reference's own matrices, as the oracle coded them before it
# took harmonic's: the lambda-deformed extension matrices and the harmonic
# inverses, conjugated to corner i by index permutation.

def _mp_swap(i):
    s = [0, 1, 2]
    s[0], s[i] = s[i], s[0]
    return s


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


def _mp_matvec(m, v):
    return [sum(m[a][b] * v[b] for b in range(3)) for a in range(3)]


def _mp_matmul(m, n):
    return [[sum(m[a][t] * n[t][b] for t in range(3)) for b in range(3)] for a in range(3)]


@pytest.mark.parametrize("lam", [-37.5, -1.0, -1e-9, 0.0, 1e-9, 0.5, 3.0, 4.75, 6.0])
def test_decimal_matrices_match_the_mpmath_transcription(lam):
    digits = _oracle_digits(25)
    with decimal.localcontext(decimal.Context(prec=digits)), mpmath.workdps(digits):
        got = eigen_matrices(decimal.Decimal(lam))
        for i in range(3):
            ref = _mp_eigen_matrix(i, mpmath.mpf(lam))
            assert max(abs(mpmath.mpf(str(got[i][a][b])) - ref[a][b])
                       for a in range(3) for b in range(3)) < 1e-45


def test_decimal_inverses_invert_the_decimal_harmonic_matrices():
    with decimal.localcontext(decimal.Context(prec=_oracle_digits(25))):
        harmonic = eigen_matrices(decimal.Decimal(0))
        for inverse, matrix in zip(harmonic_inverses(decimal.Decimal(3)), harmonic):
            product = matmul(inverse, matrix)
            assert max(abs(product[a][b] - (a == b))
                       for a in range(3) for b in range(3)) < decimal.Decimal("1e-45")


def _mpmath_tangent_limit(u, w, m):
    """direct_tangent_limit as it ran on mpmath before it moved to stdlib
    decimal, transcribed literally: the reference of the differential test."""
    m0 = u.m0
    if m < m0:
        raise DomainError(f"need m >= m0 = {m0}, got {m}")
    mp, mpf = mpmath.mp, mpmath.mpf

    with mp.workdps(_oracle_digits(m)):
        third = mpf(1) / 3
        lam = mpf(u.sequence.lambda_m0)
        pull = [[mpf(1 if a == b else 0) for b in range(3)] for a in range(3)]
        word = w.truncation(m)
        for c in word[:m0]:
            pull = _mp_matmul(pull, _mp_harmonic_inverse(c, third))
        triple = [mpf(float(x)) for x in u.cell_triple(word[:m0])]
        prev = None
        cur = _mp_matvec(pull, triple)
        for t in range(m0 + 1, m + 1):
            root = mp.sqrt(25 - 4 * lam)
            lam = (5 + root) / 2 if t in u.sequence.plus_indices else 2 * lam / (5 + root)
            letter = word[t - 1]
            triple = _mp_matvec(_mp_eigen_matrix(letter, lam), triple)
            pull = _mp_matmul(pull, _mp_harmonic_inverse(letter, third))
            prev = cur
            cur = _mp_matvec(pull, triple)
        out = tuple(float(x) for x in cur)
        err = math.inf if prev is None else float(max(abs(a - b) for a, b in zip(cur, prev)))
    return out, err


ORACLE_DEPTH_CAP = 30


@st.composite
def oracle_seeds(draw):
    """Series seeds with random branches down to the depth cap, and free:
    seeds across the lambda range, near 0 and at the lambda_0 -> 25/4 edge
    (free:21.75625 has lambda_0 = 6.2499999987)."""
    if draw(st.booleans()):
        series, m0, index, _ = draw(closed_form_seeds())
        branches = draw(st.text("+-", max_size=ORACLE_DEPTH_CAP - m0))
        plus = {m0 + 1 + t for t, ch in enumerate(branches) if ch == "+"}
        if series == "six" and draw(st.booleans()):
            return dirichlet_eigenfunction("six", 1, 1, plus | {2})  # the basic element
        if series == "six":
            plus.add(m0 + 1)
        return dirichlet_eigenfunction(series, m0, index, plus)
    lam = draw(st.one_of(
        st.floats(-100.0, 21.75625),
        st.floats(-1e-6, 1e-6),
        st.floats(21.7, 21.8),
        st.sampled_from([0.0, 1e-9, -1e-9, 21.75625]),
    ))
    seq = sequence_from_limit(lam)
    assume(seq.m0 == 0)  # a free: seed starts on V_0
    triple = draw(st.lists(st.floats(-5.0, 5.0), min_size=3, max_size=3))
    return SpectralEigenfunction(seq, dict(enumerate(triple)))


def _outcome(fn, *args):
    try:
        return fn(*args), None
    except Exception as exc:  # compared by class below
        return None, exc


@settings(deadline=None, max_examples=300)
@given(oracle_seeds(),
       st.builds(EventuallyConstantWord, st.lists(st.integers(0, 2), max_size=6).map(tuple),
                 st.integers(0, 2)),
       st.data())
def test_decimal_oracle_matches_the_mpmath_loop(u, w, data):
    m = data.draw(st.integers(max(u.m0 - 1, 0), ORACLE_DEPTH_CAP), label="m")
    context = decimal.getcontext()
    state = repr(context)
    got, got_exc = _outcome(direct_tangent_limit, u, w, m)
    assert decimal.getcontext() is context and repr(context) == state
    ref, ref_exc = _outcome(_mpmath_tangent_limit, u, w, m)
    if ref_exc is not None or got_exc is not None:
        # decimal's DivisionByZero is a ZeroDivisionError, as mpmath's is
        assert isinstance(got_exc, type(ref_exc)), (ref_exc, got_exc)
        return
    (triple, err), (ref_triple, ref_err) = got, ref
    # d decimal digits and mpmath's bits for d digits round differently, and
    # each pullback level amplifies that five-fold, so the exact results may
    # part by this floor (1e-30 of the triple at m = 30), and their floats by
    # the floor and one ulp. Beyond an ulp, only a component whose exact
    # value is 0, or an increment that has reached the floor, can show the
    # floor.
    floor = 5.0**m * 10.0 ** (2 - _oracle_digits(m)) * np.abs(np.array(ref_triple)).max()
    for x, y in zip([*triple, err], [*ref_triple, ref_err]):
        assert x == y or abs(x - y) <= floor + math.ulp(max(abs(x), abs(y)))


# The closed form walks u's cell triple down the prefix and pulls it back
# up: each letter can amplify the triple's roundoff (by 3 along this run of
# 0s).  For the 2-series seed at 0...01:2 the tangent stays near
# (0, 2.30452, 2.30452) whatever the prefix length; while the closed form
# ran in floats it gave a t2 of 2.30469 at length 25, a t1 of 2.27372 at 30
# and a t1 of -40362.9 at 43, and the last exited 0 without --verify.
LONG_PREFIXES = [30, 43]


def _two_series_long_prefix(length):
    return dirichlet_eigenfunction("two", 1), EventuallyConstantWord((0,) * (length - 1) + (1,), 2)


@pytest.mark.parametrize("length", LONG_PREFIXES)
def test_direct_limit_settles_past_a_long_prefix(length):
    u, w = _two_series_long_prefix(length)
    ref, err = direct_tangent_limit(u, w, length + 20)
    assert err < 1e-15
    assert np.array(ref) == pytest.approx([0.0, 2.30452, 2.30452], abs=1e-5)


@pytest.mark.parametrize("length", LONG_PREFIXES)
def test_closed_form_tangent_after_a_long_prefix(length):
    u, w = _two_series_long_prefix(length)
    ref, _ = direct_tangent_limit(u, w, length + 20)  # settled, as checked above
    assert np.abs(np.array(tangent_at(u, w)[0]) - np.array(ref)).max() < 1e-7


# After a long minus run lambda_t is tiny, so the factors of the tail
# product tau reach 1 to the tolerance above the plus level that follows;
# that level's factor, 1 - lambda/3 ~ -2/3, and every one below it still
# count.  A tau that stopped early gave a t0 of 3.652e15 for the 2-series at
# 20 minus letters, where the direct limit gives -1.155e15.  From 22 minus
# letters the float plus root rounds to 5.0; the closed form's Decimal
# sequence steps past it.
@pytest.mark.parametrize("series, minus", [
    ("two", 20), ("two", 21), ("five", 20), ("five", 21), ("two", 22),
])
def test_closed_form_tangent_after_a_long_minus_run(series, minus):
    # the seed series:1:1: with `minus` minus letters and then a plus
    u = dirichlet_eigenfunction(series, 1, 1, {minus + 2})
    corner = EventuallyConstantWord((), 1)
    ref, _ = direct_tangent_limit(u, corner, 1 + (minus + 1) + 45)
    gap = np.abs(np.array(tangent_at(u, corner)[0]) - np.array(ref)).max()
    assert gap <= 1e-12 * np.abs(np.array(ref)).max()


def test_interval_tangent_matches_the_sine_fit():
    for lam in (-9.0, -1.0, 0.0, 0.5, 2.0, 7.3, 30.0):
        for x0 in (0.0, 0.25, 0.5, 0.8, 1.0):
            got = interval_tangent(lam, x0, 1.3, -0.7)
            assert np.allclose(got, sine_fit_tangent(lam, x0, 1.3, -0.7), atol=1e-10)


def test_interval_tangent_line_through_the_data():
    # at x0 = 0 the tangent line starts at the left datum
    out = interval_tangent(5.5, 0.0, 2.0, -1.0)
    assert out[0] == pytest.approx(2.0, abs=1e-12)


def test_interval_tangent_guards():
    with pytest.raises(DomainError):
        interval_tangent(math.pi**2, 0.5, 1.0, 0.0)  # sin(sqrt lam) = 0
    with pytest.raises(DomainError):
        interval_tangent((2 * math.pi) ** 2, 0.5, 1.0, 0.0)
    with pytest.raises(DomainError):
        interval_tangent(1.0, 1.5, 1.0, 0.0)
    with pytest.raises(DomainError):
        interval_tangent(1.0, -0.1, 1.0, 0.0)
