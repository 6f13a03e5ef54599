"""The quadratic-iteration limit function and the tail product."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sglap.decimation import EigenvalueSequence, sequence_from_limit
from sglap.errors import ConvergenceError, DomainError, SglapError
from sglap.special import (
    PSI_DOMAIN_BOUND,
    TAIL_BOUND_FACTOR,
    ConvergenceConfig,
    psi,
    psi_limit,
    psi_limit_array,
    psi_limit_with_error,
    psi_m,
    tau,
    upsilon,
    upsilon_with_error,
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
    assert psi_limit(0.0) == 0.0
    _, err = psi_limit_with_error(1.0)
    assert 0 <= err < 1e-12
    h = 1e-6
    slope = (psi_limit(h) - psi_limit(-h)) / (2 * h)
    assert slope == pytest.approx(2.0 / 3.0, abs=1e-6)


@given(st.floats(-10, 10))
def test_functional_equation(z):
    v = psi_limit(z)
    assert v * (5.0 - v) == pytest.approx(psi_limit(5.0 * z), abs=1e-10)


def test_domain_guard():
    with pytest.raises(DomainError):
        psi_limit(PSI_DOMAIN_BOUND * 1.01)
    psi_limit(PSI_DOMAIN_BOUND)  # the boundary itself converges
    psi_limit(-PSI_DOMAIN_BOUND)


def test_config_is_frozen_and_hashable():
    cfg = ConvergenceConfig(tol=1e-10)
    assert {cfg: 1}[cfg] == 1
    with pytest.raises(AttributeError):
        cfg.tol = 1.0


def test_upsilon_at_zero():
    assert upsilon(0.0) == pytest.approx(0.5, abs=1e-14)
    val, err = upsilon_with_error(3.7)
    assert val == pytest.approx(upsilon(3.7))
    assert 0 < err < 1e-11


@given(st.floats(-40, 40))
def test_tau_equals_upsilon_of_scaled_argument(lam):
    seq = sequence_from_limit(lam)
    lim = seq.limit()
    for k in range(seq.m0 + 1, seq.m0 + 4):
        assert tau(k, seq) == pytest.approx(upsilon(lim / 5.0**k), abs=1e-12)


def test_tau_through_plus_branches():
    seq = EigenvalueSequence(1, 6.0, plus_indices={2})  # the 6-series head
    lam = seq.limit()
    for k in range(2, 7):
        assert tau(k, seq) == pytest.approx(upsilon(lam / 5.0**k), abs=1e-12)


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


def assert_matches_reference(kernel, reference, points, config):
    """Bit-equal columns where the reference returns, the same exception where it raises."""
    *columns, failures = kernel(np.array(points), config)
    for i, x in enumerate(points):
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


def test_scalar_forms_return_python_floats_and_raise_the_failure():
    values = [psi_limit(1.5), *psi_limit_with_error(1.5), upsilon(3.0), *upsilon_with_error(3.0)]
    assert all(type(v) is float for v in values)
    with pytest.raises(DomainError, match=r"psi iteration overflowed for z=nan at m=0"):
        psi_limit(math.nan)
    with pytest.raises(ConvergenceError, match=r"did not settle for z=3\.0"):
        psi_limit(3.0, ConvergenceConfig(tol=1e-15, max_iterations=2))
    with pytest.raises(ConvergenceError, match=r"tail product did not converge for lambda=0\.0001"):
        upsilon(1e-4, ConvergenceConfig(max_iterations=12))
    with pytest.raises(DomainError, match=r"argument 200\.0 outside"):
        upsilon_with_error(1000.0)


def test_empty_grids():
    for kernel in (psi_limit_array, upsilon_with_error_array):
        *columns, failures = kernel(np.array([]))
        assert [c.shape for c in columns] == [(0,), (0,)] and failures == {}
