"""The quadratic-iteration limit function and the tail product."""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import one_point, psi_m

from sglap import special
from sglap.decimation import EigenvalueSequence, sequence_from_limit
from sglap.errors import ConvergenceError, DomainError, SglapError
from sglap.special import (
    PSI_DOMAIN_BOUND,
    TAIL_BOUND_FACTOR,
    ConvergenceConfig,
    psi,
    psi_limit,
    psi_limit_array,
    tau,
    upsilon_with_error_array,
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
    assert one_point(psi_limit_array, 0.0)[0] == 0.0
    _, err = one_point(psi_limit_array, 1.0)
    assert 0 <= err < 1e-12
    h = 1e-6
    slope = (one_point(psi_limit_array, h)[0] - one_point(psi_limit_array, -h)[0]) / (2 * h)
    assert slope == pytest.approx(2.0 / 3.0, abs=1e-6)


@given(st.floats(-10, 10))
def test_functional_equation(z):
    v = one_point(psi_limit_array, z)[0]
    assert v * (5.0 - v) == pytest.approx(one_point(psi_limit_array, 5.0 * z)[0], abs=1e-10)


def test_domain_guard():
    with pytest.raises(DomainError):
        one_point(psi_limit_array, PSI_DOMAIN_BOUND * 1.01)
    one_point(psi_limit_array, PSI_DOMAIN_BOUND)  # the boundary itself converges
    one_point(psi_limit_array, -PSI_DOMAIN_BOUND)


def test_config_is_frozen_and_hashable():
    cfg = ConvergenceConfig(tol=1e-10)
    assert {cfg: 1}[cfg] == 1
    with pytest.raises(AttributeError):
        cfg.tol = 1.0


def test_upsilon_at_zero():
    assert one_point(upsilon_with_error_array, 0.0)[0] == pytest.approx(0.5, abs=1e-14)
    val, err = one_point(upsilon_with_error_array, 3.7)
    assert 0 < err < 1e-11


@given(st.floats(-40, 40))
def test_tau_equals_upsilon_of_scaled_argument(lam):
    seq = sequence_from_limit(lam)
    lim = seq.limit()
    for k in range(seq.m0 + 1, seq.m0 + 4):
        upsilon = one_point(upsilon_with_error_array, lim / 5.0**k)[0]
        assert tau(k, seq) == pytest.approx(upsilon, abs=1e-12)


def test_tau_through_plus_branches():
    seq = EigenvalueSequence(1, 6.0, plus_indices={2})  # the 6-series head
    lam = seq.limit()
    for k in range(2, 7):
        upsilon = one_point(upsilon_with_error_array, lam / 5.0**k)[0]
        assert tau(k, seq) == pytest.approx(upsilon, abs=1e-12)


def test_tau_pole():
    # lambda_{k+1} = 2 makes the head factor blow up
    with pytest.raises(DomainError):
        tau(0, EigenvalueSequence(1, 2.0))


# The scalar loops the array kernels replaced, kept literally as the reference.
def reference_psi_limit(z, config):
    if abs(z) > PSI_DOMAIN_BOUND:
        raise DomainError(f"argument {z!r} outside the validated region |z| <= {PSI_DOMAIN_BOUND:g}")
    prev = psi_m(z, 0)
    for m in range(1, config.max_iterations + 1):
        cur = psi_m(z, m)
        err = abs(cur - prev)
        if err <= config.tol * max(1.0, abs(cur)):
            return cur, err
        prev = cur
    raise ConvergenceError(f"psi approximants did not settle for z={z!r}")


def reference_upsilon(lam, config):
    head = 2.0 - reference_psi_limit(lam / 5.0, config)[0]
    if head == 0.0:
        raise DomainError(f"tail product has a pole at lambda={lam!r}")
    prod = 1.0 / head
    for j in range(2, config.max_iterations + 2):
        prod *= 1.0 - reference_psi_limit(lam / 5.0**j, config)[0] / 3.0
        if abs(lam) / 5.0**j / 3.0 < config.tol * TAIL_BOUND_FACTOR:
            return prod
    raise ConvergenceError(f"tail product did not converge for lambda={lam!r}")


def reference_upsilon_with_error(lam, config):
    val = reference_upsilon(lam, config)
    tight = ConvergenceConfig(config.tol / 8.0, config.max_iterations + 8)
    return val, abs(val - reference_upsilon(lam, tight)) + 8.0 * math.ulp(1.0) * (1.0 + abs(val))


def assert_matches_reference(kernel, reference, points, config, indices=None):
    """Bit-equal columns where the reference returns, the same exception where
    it raises: at every point, or at the given indices."""
    *columns, failures = kernel(np.array(points), config)
    for i in range(len(points)) if indices is None else indices:
        x = points[i]
        try:
            expected = reference(x, config)
        except SglapError as exc:
            assert type(failures[i]) is type(exc) and str(failures[i]) == str(exc)
            assert all(math.isnan(c[i]) for c in columns)
            continue
        assert i not in failures
        assert tuple(float(c[i]) for c in columns) == expected


grid_points = st.lists(st.one_of(st.floats(-120.0, 120.0), st.just(math.nan)),
                       min_size=1, max_size=6)
configs = st.builds(ConvergenceConfig, tol=st.floats(1e-15, 1e-6),
                    max_iterations=st.sampled_from([80, 80, 30, 12, 3]))


@settings(max_examples=60, deadline=None)
@given(grid_points, configs)
def test_psi_limit_array_matches_the_scalar_loop(points, config):
    assert_matches_reference(psi_limit_array, reference_psi_limit, points, config)


@settings(max_examples=30, deadline=None)
@given(grid_points, configs)
def test_upsilon_array_matches_the_scalar_loop(points, config):
    assert_matches_reference(upsilon_with_error_array, reference_upsilon_with_error,
                             points, config)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.floats(-100.0, 100.0), st.floats(-120.0, 120.0),
                 st.sampled_from([math.nan, math.inf, 100.0, -100.0, 1e-320, -0.0])), configs)
def test_psi_limit_is_the_one_element_grid_bit_for_bit(z, config):
    # the one scalar twin of a grid kernel: the same bits, or the same
    # failure (out of domain, overflowed, did not settle) with its message
    values, _, failures = psi_limit_array(np.array([z]), config)
    try:
        value = psi_limit(z, config)
    except SglapError as exc:
        assert type(failures[0]) is type(exc) and str(failures[0]) == str(exc)
        return
    assert not failures and value.hex() == float(values[0]).hex()


def test_sequence_from_limit_raises_the_kernel_failure():
    # the one runtime Psi of a single value, psi_limit
    with pytest.raises(ConvergenceError, match=r"^psi approximants did not settle for z=0\.6$"):
        sequence_from_limit(3.0, ConvergenceConfig(tol=1e-15, max_iterations=2))


def test_empty_grids():
    for kernel in (psi_limit_array, upsilon_with_error_array):
        *columns, failures = kernel(np.array([]))
        assert [c.shape for c in columns] == [(0,), (0,)] and failures == {}


def counting_psi_calls(monkeypatch):
    """The argument count of every psi_limit_array call made from here on."""
    sizes = []

    def counting(z, config):
        sizes.append(len(z))
        return psi_limit_array(z, config)

    monkeypatch.setattr(special, "psi_limit_array", counting)
    return sizes


@pytest.mark.parametrize("grid, bound", [((-30.3, 45.2, 2000), 1.5e6),
                                         ((-1e20, 1e20, 4096), 6e6)])
def test_upsilon_working_memory(grid, bound):
    # the tail walk holds one level's Psi arguments at a time; one
    # (levels x points) psi_limit_array call traced 3.9 MB and 57 MB here
    lam = np.linspace(*grid)
    tracemalloc.start()
    try:
        upsilon_with_error_array(lam)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound


def test_upsilon_stops_at_the_first_failure(monkeypatch):
    # every element of this grid fails at its head, so each of the two
    # evaluations reads one level, in one call; all levels would be 396,910
    # arguments
    sizes = counting_psi_calls(monkeypatch)
    lam = np.linspace(-1e20, 1e20, 4096)
    *_, failures = upsilon_with_error_array(lam)
    assert len(failures) == lam.size
    assert sizes == [lam.size, lam.size]


def failure_class(lam, exc):
    """Where an Upsilon element failed, or "converged"."""
    if exc is None:
        return "converged"
    text = str(exc)
    if text.startswith("psi approximants"):
        return "head psi" if text.endswith(f"z={lam / 5.0!r}") else "tail psi"
    # "argument" (head outside the domain), "psi" (a NaN head), "tail" (no convergence)
    return text.split(" ")[0]


@pytest.mark.parametrize("n", [1500, 2500])
def test_upsilon_first_failure_across_level_groups(n, monkeypatch):
    # each evaluation makes one psi_limit_array call per level, over the
    # elements still live, so a tail failure comes from a later call than
    # its head's; elements that never converge walk every level.  The
    # sample takes 7 elements of each class.
    rng = np.random.default_rng(n)
    k = n // 100
    lam = np.concatenate([rng.uniform(-8.0, 8.0, 47 * k), rng.uniform(-120.0, 120.0, 33 * k),
                          rng.uniform(500.0, 1e4, 13 * k) * rng.choice([-1.0, 1.0], 13 * k),
                          rng.uniform(-1e-3, 1e-3, 6 * k), np.full(k, math.nan)])
    rng.shuffle(lam)
    points, config = lam.tolist(), ConvergenceConfig(tol=1e-9, max_iterations=12)
    sizes = counting_psi_calls(monkeypatch)
    *_, failures = upsilon_with_error_array(lam, config)
    # the two evaluations' calls: each starts at the whole grid and shrinks,
    # and the configured one, whose "tail" elements never converge, walks
    # every level
    starts = [i for i in range(len(sizes)) if i == 0 or sizes[i] > sizes[i - 1]]
    runs = [sizes[a:b] for a, b in zip(starts, starts[1:] + [len(sizes)])]
    assert len(runs) == 2 and len(runs[0]) == config.max_iterations + 1
    assert all(run[0] == n and run == sorted(run, reverse=True) for run in runs)
    classes = {}
    for i, x in enumerate(points):
        classes.setdefault(failure_class(x, failures.get(i)), []).append(i)
    assert set(classes) == {"converged", "head psi", "tail psi", "argument", "psi", "tail"}
    sample = [i for members in classes.values() for i in members[:7]]
    assert_matches_reference(upsilon_with_error_array, reference_upsilon_with_error,
                             points, config, sample)


def test_upsilon_pole_hides_a_later_failure_of_the_same_call(monkeypatch):
    # no float lambda has Psi(lambda/5) == 2 exactly, so a stand-in Psi makes
    # one: 16 gets a pole at its head and a failing factor at j = 2, which
    # share a call in a 1500-point grid; the pole is its first failure
    def stand_in(z, config):
        values, increments, failures = psi_limit_array(z, config)
        values[z == 16.0 / 5.0] = 2.0
        for k in np.flatnonzero(z == 16.0 / 25.0).tolist():
            values[k], failures[k] = np.nan, DomainError("stand-in")
        return values, increments, dict(sorted(failures.items()))

    monkeypatch.setattr(special, "psi_limit_array", stand_in)
    lam = np.linspace(-8.0, 8.0, 1500)
    lam[700] = 16.0
    values, _, failures = upsilon_with_error_array(lam)
    assert list(failures) == [700] and math.isnan(values[700])
    assert str(failures[700]) == "tail product has a pole at lambda=16.0"
