"""The quadratic-iteration limit function and the tail product."""
import math
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (g_coefficients, mp_psi, mp_upsilon, phi_coefficients, psi_m,
                      reference_tail, tail_coefficients, true_error)

from sglap import special
from sglap.decimation import EigenvalueSequence, sequence_from_limit
from sglap.errors import DomainError, SglapError
from sglap.special import (
    PHI_BOUND,
    PSI_DOMAIN_BOUND,
    phi,
    psi,
    psi_limit_with_error,
    tau,
    upsilon_with_error,
)


def test_psi_polynomial():
    assert psi(2.0) == 6.0
    assert psi(5.0) == 0.0
    assert psi(6.0) == -6.0


def test_psi_m_composes():
    # one extra composition eats one factor of 5 in the argument
    z = 7.3
    assert psi(psi_m(z / 5.0, 3)) == pytest.approx(psi_m(z, 4), rel=1e-13)


def test_psi_m_guards():
    with pytest.raises(DomainError):
        psi_m(1.0, -1)
    with pytest.raises(DomainError):
        psi_m(1e300, 40)  # overflows the iteration


def test_limit_values():
    assert psi_limit_with_error(0.0) == (0.0, 0.0)
    # the error bound is the series' bound carried through the psi steps;
    # the reference pins it
    _, error = psi_limit_with_error(1.0)
    assert 0.0 < error < 1e-12
    h = 1e-6
    slope = (psi_limit_with_error(h)[0] - psi_limit_with_error(-h)[0]) / (2 * h)
    assert slope == pytest.approx(2.0 / 3.0, abs=1e-6)


@given(st.floats(-10, 10))
def test_functional_equation(z):
    v = psi_limit_with_error(z)[0]
    assert v * (5.0 - v) == pytest.approx(psi_limit_with_error(5.0 * z)[0], abs=1e-10)


def test_domain_guard():
    with pytest.raises(DomainError):
        psi_limit_with_error(PSI_DOMAIN_BOUND * 1.01)
    psi_limit_with_error(PSI_DOMAIN_BOUND)  # the boundary itself converges
    psi_limit_with_error(-PSI_DOMAIN_BOUND)


def test_upsilon_at_zero():
    assert upsilon_with_error(0.0)[0] == pytest.approx(0.5, abs=1e-14)
    val, err = upsilon_with_error(3.7)
    assert 0 < err < 1e-11


@given(st.floats(-40, 40))
def test_tau_equals_upsilon_of_scaled_argument(lam):
    seq = sequence_from_limit(lam)
    lim = seq.limit()
    for k in range(seq.m0 + 1, seq.m0 + 4):
        upsilon = upsilon_with_error(lim / 5.0**k)[0]
        assert tau(k, seq) == pytest.approx(upsilon, abs=1e-12)


def test_tau_through_plus_branches():
    seq = EigenvalueSequence(1, 6.0, plus_indices={2})  # the 6-series head
    lam = seq.limit()
    for k in range(2, 7):
        upsilon = upsilon_with_error(lam / 5.0**k)[0]
        assert tau(k, seq) == pytest.approx(upsilon, abs=1e-12)


def test_tau_pole():
    # lambda_{k+1} = 2 makes the head factor blow up
    with pytest.raises(DomainError):
        tau(0, EigenvalueSequence(1, 2.0))


# Independent transcriptions of the definitions, kept as the references: g's,
# P's and Phi's coefficients from their recurrences in exact rationals
# (conftest), and Psi's and Upsilon's sums and bounds term by term as the
# docstrings in sglap.special state them.
EPS = math.ulp(1.0)
COEFFICIENTS = g_coefficients(40)


def reference_psi_limit(z):
    """Psi(z) = psi^m(g(w)), w = (2/3) z / 5^m with the smallest m for which
    |w| <= 1, g summed to a_12 from the highest coefficient down, and its
    bound: Horner's gamma_25 and the coefficients' u, times sum |a_k| <=
    1.0509, w's three roundings through |g'| <= 1.11, the tail, two
    subnormal roundings, then the psi steps."""
    if not abs(z) <= PSI_DOMAIN_BOUND:
        raise DomainError(f"argument {z!r} outside the validated region |z| <= {PSI_DOMAIN_BOUND:g}")
    m = 0
    while abs((2.0 / 3.0) * z / 5.0**m) > 1.0:
        m += 1
    w = (2.0 / 3.0) * z / 5.0**m
    x = 0.0
    for a in reversed(COEFFICIENTS[:12]):
        x = x * w + float(a)
    x *= w
    u = EPS / 2.0
    gamma_25 = 25.0 * u / (1.0 - 25.0 * u)
    e = ((gamma_25 + u) * 1.0509 + 3.0 * EPS * 1.11 + 4.6e-32) * abs(w)
    if w:
        e += 2.0 * math.ulp(0.0)
    for _ in range(m):
        x, e = reference_psi_step(x, e)
    return x, e


def reference_psi_step(x, e):
    """psi(x) and its error bound, given e on x."""
    e = (abs(5.0 - 2.0 * x) + e) * e
    y = psi(x)
    return y, e + EPS * abs(y)


def reference_relative(e, size):
    return e / (size - e) if e < size else math.inf


def reference_upsilon_with_error(lam):
    """P(y) / (2 - lambda_1), lambda_j = Psi(lam/5^j): the head's Psi, a
    factor 1 - lambda_j/3 for each j >= 2 with |y| = |(2/3) lam/5^j| > 1,
    then P summed at the first y within 1.  Each factor carries a relative
    bound: a Psi's error relative to 2 - lambda_1 or 3 - lambda_j, or P's
    bound, Horner's gamma_22 and the coefficients' u times 1 + sum
    |p_k| <= 1.4654, y's three roundings through |P'| <= 0.5165 and the
    tail, relative to P's sum; and EPS of rounding.  The bounds compound
    as the product runs."""
    lam_1, d = reference_psi_limit(lam / 5.0)
    head = 2.0 - lam_1
    if head == 0.0:
        raise DomainError(f"tail product has a pole at lambda={lam!r}")
    factors = [(1.0 / head, reference_relative(d, abs(head)) + EPS)]
    j = 2
    while abs((2.0 / 3.0) * lam / 5.0**j) > 1.0:
        x, e = reference_psi_limit(lam / 5.0**j)
        factors.append((1.0 - x / 3.0, reference_relative(e + EPS * abs(x), abs(3.0 - x)) + EPS))
        j += 1
    s = reference_tail((2.0 / 3.0) * lam / 5.0**j)
    u = EPS / 2.0
    p_error = (22.0 * u / (1.0 - 22.0 * u) + u) * 1.4654 + 3.0 * EPS * 0.5165 + 7.2e-23
    factors.append((s, reference_relative(p_error, abs(s)) + EPS))
    prod, rel = 1.0, 0.0
    for factor, bound in factors:
        prod *= factor
        rel += bound * (1.0 + rel)
    return prod, abs(prod) * rel if rel < math.inf else math.inf


def assert_matches_reference(function, reference, *args):
    """The function's floats bit for bit where the reference returns, and
    the same failure class and message where it raises."""
    try:
        expected = reference(*args)
    except SglapError as exc:
        with pytest.raises(SglapError) as raised:
            function(*args)
        assert type(raised.value) is type(exc) and str(raised.value) == str(exc)
        return
    assert [v.hex() for v in function(*args)] == [v.hex() for v in expected]


# the failures and edges a point can take besides the ranges: NaN, the
# infinities (outside the domain), the domain's ends, a subnormal, -0.0, and
# the arguments whose reduced w lands on +-1 (m = 0 and 1)
EDGES = [math.nan, math.inf, -math.inf, 100.0, -100.0, 1e-320, -0.0, 1.5, -7.5]
points = st.one_of(st.floats(-120.0, 120.0), st.sampled_from(EDGES))


@settings(max_examples=300, deadline=None)
@given(st.one_of(points, st.floats(-1e-3, 1e-3)))
def test_psi_limit_matches_the_reference(z):
    assert_matches_reference(psi_limit_with_error, reference_psi_limit, z)


@settings(max_examples=200, deadline=None)
@given(st.one_of(points, st.floats(-600.0, 600.0)))
@example(108.55)  # one reduction factor, at lambda/25
@example(-300.0)  # two, at lambda/25 and lambda/125
@example(37.5)  # y lands on 1: no reduction
@example(16.81599889)  # next to the pole
def test_upsilon_matches_the_reference(lam):
    # value and bound bit for bit, failures included.  Past |lambda| = 37.5
    # P takes a reduction factor, past 187.5 two, past 500 the head is
    # outside the domain
    assert_matches_reference(upsilon_with_error, reference_upsilon_with_error, lam)


def test_sequence_from_limit_raises_the_kernel_failure(monkeypatch):
    # the one Psi of a generating sequence, psi_limit_with_error, and its
    # failure: 3/5 is outside a region narrowed to 0.5
    monkeypatch.setattr(special, "PSI_DOMAIN_BOUND", 0.5)
    with pytest.raises(DomainError,
                       match=r"^argument 0\.6 outside the validated region \|z\| <= 0\.5$"):
        sequence_from_limit(3.0)


def wrong_literals(name, table, exact):
    """The entries of a coefficient table that are not the float nearest
    their exact rational, each with the literal it should hold."""
    wrong = [f"{name}[{i}] = {v!r} should be {float(x)!r}"
             for i, (v, x) in enumerate(zip(table, exact)) if v != float(x)]
    if len(table) != len(exact):
        wrong.append(f"{name} has {len(table)} entries, not {len(exact)}")
    return wrong


def test_the_coefficients_are_the_recurrence_rounded():
    # each literal is the float nearest its exact rational: a_12 .. a_1 of g,
    # p_11 .. p_0 of P and b_15 .. b_1 of Phi
    wrong = [*wrong_literals("_G_COEFFICIENTS", special._G_COEFFICIENTS, COEFFICIENTS[11::-1]),
             *wrong_literals("_P_COEFFICIENTS", special._P_COEFFICIENTS,
                             tail_coefficients(11)[::-1]),
             *wrong_literals("_PHI_COEFFICIENTS", special._PHI_COEFFICIENTS,
                             phi_coefficients(15)[::-1])]
    assert not wrong, "\n".join(wrong)
    # Phi's coefficients, taken from Phi(psi(x)) = 5 Phi(x), are g's series
    # reversion: g(Phi(x)) = x + O(x^21)
    n, b = 20, (0, *phi_coefficients(20))
    power, composed = [Fraction(0)] * (n + 1), [Fraction(0)] * (n + 1)
    power[0] = Fraction(1)
    for a in COEFFICIENTS[:n]:
        power = [sum(power[i] * b[k - i] for i in range(k)) for k in range(n + 1)]
        composed = [c + a * q for c, q in zip(composed, power)]
    assert composed == [0, 1] + [0] * (n - 1)


def test_the_tail_constants_hold():
    # g's: a_13 = 4.53e-32, and the ratios |a_{k+1} / a_k| shrink, below
    # 1e-4 by a_40 (3.9e-141), so the terms past a_40 sum to less than a_40.
    # P's likewise, below 1e-3 by p_40: sum_{k>11} |p_k| <= 7.2e-23, with
    # sum_{k>=1} |p_k| <= 0.4654, sum k |p_k| >= |P'| and P(1) >= 0.62
    ratios = [abs(b / a) for a, b in zip(COEFFICIENTS[1:], COEFFICIENTS[2:])]
    assert all(r < q for q, r in zip(ratios, ratios[1:])) and ratios[-1] < Fraction(1, 10**4)
    assert sum(map(abs, COEFFICIENTS[12:])) + abs(COEFFICIENTS[-1]) <= Fraction(4.6e-32)
    assert sum(map(abs, COEFFICIENTS[:12])) <= Fraction(1.0509)
    p = tail_coefficients(40)
    ratios = [abs(b / a) for a, b in zip(p, p[1:])]
    assert all(r < q for q, r in zip(ratios, ratios[1:])) and ratios[-1] < Fraction(1, 10**3)
    assert sum(map(abs, p[12:])) + abs(p[-1]) <= Fraction(7.2e-23)
    assert sum(map(abs, p[1:])) + abs(p[-1]) <= Fraction(0.4654)
    assert sum(k * abs(c) for k, c in enumerate(p)) + 41 * abs(p[-1]) <= Fraction(0.5165)
    assert sum(p) - abs(p[-1]) >= Fraction(0.62)
    # Phi's: every b_k is positive and the ratios b_{k+1} / b_k rise towards
    # 1/6.25, so on |x| <= 1/2 the terms past b_15 sum to at most
    # b_16 2^-15 |x| / (1 - 0.08), and the first 15 to 1.0261 |x|
    b = phi_coefficients(60)
    ratios = [d / c for c, d in zip(b, b[1:])]
    assert all(c > 0 for c in b)
    assert all(q < r < Fraction(4, 25) for q, r in zip(ratios, ratios[1:]))
    assert b[15] / 2**15 / (1 - Fraction(2, 25)) <= Fraction(4.7e-19)
    assert sum(c / 2**k for k, c in enumerate(b[:15])) <= Fraction(1.0261)


def mp_tail(y, dps=50):
    """P(y) in dps-digit mpmath: its factors 1 - g(y/5^i)/3, g(w) = Psi(1.5 w),
    until g's argument is below 10^-dps."""
    from mpmath import mp, mpf

    with mp.workdps(dps):
        prod, w = mpf(1), mpf(y)
        while abs(w) > mpf(10) ** -dps:
            prod *= 1 - mp_psi(mpf(3) / 2 * w, dps) / 3
            w /= 5
        return prod


def mp_phi(x, dps=50):
    """Phi(x) in dps-digit mpmath: 5^j lambda_j down the minus root from
    lambda_0 = x until |lambda_j| < 10^-dps, where Phi(lambda_j) is within
    lambda_j^2 of lambda_j."""
    from mpmath import mp, mpf, sqrt

    with mp.workdps(dps):
        x, j = mpf(x), 0
        while abs(x) > mpf(10) ** -dps:
            x, j = 2 * x / (5 + sqrt(25 - 4 * x)), j + 1
        return 5**j * x


def exact_sum(coefficients, x):
    """sum c_k x^k in 50-digit mpmath, from the exact rationals."""
    from mpmath import mp, mpf

    with mp.workdps(50):
        return sum(mpf(c.numerator) / c.denominator * mpf(x) ** k
                   for k, c in enumerate(coefficients))


@pytest.mark.parametrize("y", [-1.0, -0.37, 0.5, 1.0])
def test_the_tail_series_meets_its_stated_bound(y):
    # the truncation p_0 .. p_11 is within 7.2e-23 of a 50-digit P on
    # |y| <= 1, ends included, and the float sum within _P_ERROR
    assert abs(exact_sum(tail_coefficients(11), y) - mp_tail(y)) <= 7.2e-23
    assert true_error(special._horner(special._P_COEFFICIENTS, y), mp_tail(y)) <= special._P_ERROR


@pytest.mark.parametrize("x", [-0.5, -0.21, 0.3, 0.5])
def test_the_phi_series_meets_its_stated_bound(x):
    # the truncation b_1 .. b_15 is within 4.7e-19 |x| of a 50-digit Phi on
    # |x| <= PHI_BOUND, ends included, and the float sum within a few ulps
    assert abs(x) <= PHI_BOUND
    assert abs(exact_sum((0, *phi_coefficients(15)), x) - mp_phi(x)) <= 4.7e-19 * abs(x)
    assert true_error(phi(x), mp_phi(x)) <= 4.0 * EPS * abs(x)


def test_the_derivative_bound_holds_on_the_reduced_interval():
    # |g'(w)| <= 1.11 for |w| <= 1, which carries w's roundings: g' is
    # alternating and largest at w = -1, where it is 1.1025
    slope = sum(k * abs(a) for k, a in enumerate(COEFFICIENTS, 1))
    assert slope <= Fraction(1.11)


def test_special_loads_no_fractions_decimal_or_numpy():
    # every command imports special, so what it loads at import and on a
    # grid every command pays for at start-up
    script = """if True:
        import contextlib, io, sys
        import sglap.cli
        for fn in ("psi", "upsilon"):
            with contextlib.redirect_stdout(io.StringIO()):
                assert sglap.cli.main(["special", "--fn", fn, "--range=-40:90:50"]) == 0
        print(sorted({"fractions", "decimal", "numpy"} & set(sys.modules)))
    """
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


@settings(max_examples=200, deadline=None)
@given(st.floats(-300.0, -3.0).map(lambda t: 10.0**t), st.sampled_from([1.0, -1.0]))
@example(1e-3, 1.0)
@example(5e-324, -1.0)
def test_psi_keeps_its_relative_digits_below_one(size, sign):
    # the walk this series replaced stopped on an absolute increment and
    # kept about 1e-13 / |Psi| of relative accuracy: 1.6e-8 at |z| < 1e-3.
    # Measured over 1000 log-uniform draws: worst 2.1e-16.  A subnormal
    # Psi keeps what its spacing allows
    z = sign * size
    value, error = psi_limit_with_error(z)
    reference = mp_psi(z)
    assert true_error(value, reference) <= max(1e-15 * float(abs(reference)), math.ulp(0.0))
    assert error >= true_error(value, reference)


@settings(max_examples=300, deadline=None)
@given(st.floats(-300.0, 3.0).map(lambda t: 10.0**t), st.sampled_from([1.0, -1.0]))
@example(1e-6, 1.0)
@example(1e-300, -1.0)
def test_sequence_from_limit_keeps_its_relative_digits(size, sign):
    # lambda -> its generating sequence -> its renormalized limit gives
    # lambda back.  Measured over 3000 log-uniform draws of +-[1e-300, 1e3]:
    # worst 2.5e-14 relative, where the walk this series replaced read
    # 1.2e-8 (1.3e-9 at 1e-6)
    lam = sign * size
    assert abs(sequence_from_limit(lam).limit() / lam - 1.0) <= 1e-13


def counting_evaluations(monkeypatch):
    """The argument of every Psi evaluated from here on."""
    arguments, evaluate = [], special.psi_limit_with_error

    def counting(z):
        arguments.append(z)
        return evaluate(z)

    monkeypatch.setattr(special, "psi_limit_with_error", counting)
    return arguments


def failure_class(exc):
    """Where an Upsilon evaluation failed, or "converged"."""
    if exc is None:
        return "converged"
    # "argument": the head outside the domain, or NaN
    return str(exc).split(" ")[0]


def mixed_grid(n):
    rng = np.random.default_rng(n)
    k = n // 100
    lam = np.concatenate([rng.uniform(-8.0, 8.0, 47 * k), rng.uniform(-120.0, 120.0, 33 * k),
                          rng.uniform(500.0, 1e4, 13 * k) * rng.choice([-1.0, 1.0], 13 * k),
                          rng.uniform(-1e-3, 1e-3, 6 * k), np.full(k, math.nan)])
    rng.shuffle(lam)
    return lam


def reduction_arguments(x):
    """lambda/5^j for each j >= 2 with |(2/3) lambda/5^j| > 1: the Psi
    arguments of P's reduction factors."""
    j, arguments = 2, []
    while abs((2.0 / 3.0) * x / 5.0**j) > 1.0:
        arguments.append(x / 5.0**j)
        j += 1
    return arguments


@pytest.mark.parametrize("lam, classes", [
    pytest.param(np.linspace(-1e20, 1e20, 4096), {"argument"}, id="wide"),
    pytest.param(mixed_grid(1500), {"converged", "argument"}, id="1500"),
    pytest.param(mixed_grid(2500), {"converged", "argument"}, id="2500"),
    pytest.param(np.linspace(108.5, 108.6, 21), {"converged"}, id="anchor")])
def test_upsilon_one_walk_per_psi_argument(lam, classes, monkeypatch):
    # an evaluation sums Psi at the head's argument lambda/5 once and at
    # each reduction factor's once, however it ends: every point of the wide
    # grid fails at its head, the mixed grids hold both classes, and near
    # 108.55, where the tail's loop was anchored at J = 3, every point takes
    # its head and one reduction factor (at lambda/25).  A sample of 7
    # points of each class matches the reference
    walks, members = counting_evaluations(monkeypatch), {}
    for x in lam.tolist():
        walks.clear()
        try:
            upsilon_with_error(x)
            exc = None
        except SglapError as failure:
            exc = failure
        assert len(walks) <= 3 and len({z.hex() for z in walks}) == len(walks)
        assert [z.hex() for z in walks[:1]] == [(x / 5.0).hex()] * bool(walks)
        if exc is None:
            assert [z.hex() for z in walks[1:]] == [z.hex() for z in reduction_arguments(x)]
        members.setdefault(failure_class(exc), []).append(x)
    assert set(members) == classes
    if classes == {"converged"}:
        assert all(len(reduction_arguments(x)) == 1 for x in lam.tolist())
    monkeypatch.undo()
    for sample in members.values():
        for x in sample[:7]:
            assert_matches_reference(upsilon_with_error, reference_upsilon_with_error, x)


def test_upsilon_pole_hides_a_later_failure_of_the_same_call(monkeypatch):
    # no float lambda has Psi(lambda/5) == 2 exactly, so a stand-in Psi
    # makes one: 100 gets a pole at its head and a failing Psi at its
    # reduction factor's argument 100/5^2; the pole is its first failure,
    # and without the pole the reduction's failure shows
    evaluate, pole = special.psi_limit_with_error, [True]

    def stand_in(z):
        if z == 100.0 / 5.0 and pole[0]:
            return 2.0, 0.0
        if z == 100.0 / 5.0**2:
            raise DomainError("stand-in")
        return evaluate(z)

    monkeypatch.setattr(special, "psi_limit_with_error", stand_in)
    with pytest.raises(DomainError, match=r"^tail product has a pole at lambda=100\.0$"):
        upsilon_with_error(100.0)
    pole[0] = False
    with pytest.raises(DomainError, match=r"^stand-in$"):
        upsilon_with_error(100.0)


def test_upsilon_accuracy_against_mpmath():
    # 60 seeded draws: 36 uniform in [-60, 60], 9 within 0.05 of the pole at
    # 16.81599889, 15 uniform in [-480, 480].  Measured here: median relative
    # error 2.2e-16 and worst 2.9e-13 (1.4e-15 and 1.3e-12 while the tail was
    # a product stopped on a tolerance), the worst next to the pole, where
    # 1/(2 - Psi(lambda/5)) amplifies Psi's rounding.  Taking every lambda_j
    # from its own Psi call, not extrapolated, read 5.3e-14 and 1.2e-11 on
    # these draws and failed both bounds
    rng = np.random.default_rng(31)
    lam = np.concatenate([rng.uniform(-60.0, 60.0, 36), rng.uniform(16.766, 16.866, 9),
                          rng.uniform(-480.0, 480.0, 15)])
    errors = [float(abs(upsilon_with_error(x)[0] / mp_upsilon(x) - 1)) for x in lam.tolist()]
    assert np.median(errors) < 5e-15 and max(errors) < 5e-12


def test_upsilon_error_bounds_the_true_error_next_to_the_pole():
    # 30 seeded draws within 0.05 of the pole at 16.81599889, where the
    # 8x-tighter second evaluation this bound replaced fell short in 11 of
    # ROADMAP item 13's 200 draws, by up to 130x
    rng = np.random.default_rng(13)
    for x in rng.uniform(16.766, 16.866, 30).tolist():
        value, error = upsilon_with_error(x)
        true = true_error(value, mp_upsilon(x))
        assert error >= true, (x, error, true)


@settings(max_examples=150, deadline=None)
@given(st.one_of(st.floats(-60.0, 60.0), st.floats(16.766, 16.866), st.floats(-1e3, 1e3)))
@example(99.0243699145322)
@example(107.008951656843)
def test_upsilon_error_bounds_the_true_error(lam):
    # against a 50-digit Upsilon, uniformly in +-60, within 0.05 of the pole
    # at 16.816 and in +-1e3, where |lambda| > 500 fails at its head.
    # Measured over 6,000 draws of this mix (4,976 converged): no miss and
    # no inf; reported over true error median 59, worst 9.5.  The examples
    # are two draws that a quarter of the last increment, as the head's
    # truncation term, fell short on by up to 4.3x, when Psi was a walk
    # stopped on a tolerance
    try:
        value, error = upsilon_with_error(lam)
    except SglapError:
        return
    assert error >= true_error(value, mp_upsilon(lam))


@settings(max_examples=150, deadline=None)
@given(st.floats(-PSI_DOMAIN_BOUND, PSI_DOMAIN_BOUND))
@example(1.9000000000000001)
@example(98.42262988118054)
def test_psi_error_bounds_the_true_error(z):
    # against a 50-digit Psi.  The two examples fell short under the
    # approximant walk this series replaced: the first printed error 0.0
    # with a true error of 2.2e-16, and the second, at tol 0.01, stopped
    # before the increments settled.  Psi no longer takes a tolerance.
    # Measured over 3000 draws (uniform in +-100, in +-20, and log-uniform
    # in +-[1e-300, 100]): no miss, reported over true error median 49,
    # worst 3.5
    value, error = psi_limit_with_error(z)
    assert error >= true_error(value, mp_psi(z))
