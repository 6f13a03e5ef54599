"""End-to-end acceptance criteria.

Each criterion is one test named test_criterion_NN_*, so `pytest -v` yields a
single pass/fail line per criterion; every test additionally records an
`ACCEPTANCE NN PASS|FAIL ...` line with the measured figure and its
tolerance, printed as a report block at the end of the run (see conftest).
"""
import cmath
import subprocess
import sys
import time

import mpmath as mp
import numpy as np

from conftest import (acceptance_log, eigen_matrix, extend_harmonic, harmonic_matrix,
                      interval_tangent, one_point, sorted_pairing_gap)

from sglap.address import build_level_graph
from sglap.decimation import (EigenvalueSequence, enumerate_dirichlet_spectrum,
                               sequence_from_limit)
from sglap.harmonic import (SpectralEigenfunction, dirichlet_eigenfunction, eigen_residual,
                            normal_derivative_limit)
from sglap.oracle import dense_dirichlet_spectrum, direct_tangent_limit
from sglap.special import psi_limit_array, tau, upsilon_with_error_array
from sglap.tangent import m0_matrix, normal_derivative, tangent_at


def _report(num, ok, detail):
    line = f"ACCEPTANCE {num:>2} {'PASS' if ok else 'FAIL'} {detail}"
    acceptance_log.append(line)
    print(line)
    assert ok, line


def _enumerated_multiset(m):
    lines = enumerate_dirichlet_spectrum(m)
    return np.sort(np.repeat([l.value for l in lines], [l.multiplicity for l in lines]))


def test_criterion_01_level1_dense_spectrum():
    t0 = time.perf_counter()
    dense = dense_dirichlet_spectrum(1).eigenvalues
    listed = _enumerated_multiset(1)
    dt = time.perf_counter() - t0
    ok = (
        np.allclose(dense, [2.0, 5.0, 5.0], atol=1e-12)
        and np.array_equal(listed, [2.0, 5.0, 5.0])
        and dt < 1.0
    )
    _report(1, ok, f"dense level-1 spectrum {{2,5,5}}, enumeration exact ({dt:.3f}s < 1s)")


def test_criterion_02_spectrum_equivalence():
    t0 = time.perf_counter()
    worst = 0.0
    for m in range(1, 7):
        gap = sorted_pairing_gap(_enumerated_multiset(m), dense_dirichlet_spectrum(m).eigenvalues)
        worst = max(worst, gap)
    dt = time.perf_counter() - t0
    _report(
        2,
        worst < 1e-9 and dt < 30.0,
        f"decimated vs dense multisets m=1..6: worst gap {worst:.3e} < 1e-9 ({dt:.2f}s < 30s)",
    )


def test_criterion_03_eigen_equation_residuals():
    funcs = [
        dirichlet_eigenfunction("two", 1),
        dirichlet_eigenfunction("two", 1, plus_indices={2}),
        dirichlet_eigenfunction("five", 1, 1),
        dirichlet_eigenfunction("five", 1, 2, plus_indices={3}),
        dirichlet_eigenfunction("five", 2, 1),
        dirichlet_eigenfunction("five", 2, 2),
        dirichlet_eigenfunction("five", 2, 3),
        dirichlet_eigenfunction("six", 2, 1),
        dirichlet_eigenfunction("six", 2, 2, plus_indices={3, 4}),
        dirichlet_eigenfunction("six", 3, 1),
        dirichlet_eigenfunction("six", 1),
    ]
    worst = 0.0
    slowest = 0.0
    for u in funcs:
        t0 = time.perf_counter()
        worst = max(worst, max(eigen_residual(build_level_graph(m), u.values_on_level(m),
                                              u.sequence.value(m)) for m in range(u.m0, 9)))
        slowest = max(slowest, time.perf_counter() - t0)
    _report(
        3,
        worst < 1e-9 and slowest < 10.0,
        f"{len(funcs)} eigenfunctions, residual at m<=8: worst {worst:.3e} < 1e-9 "
        f"(slowest {slowest:.2f}s < 10s/function)",
    )


def _mp_a0(lam):
    den = (5 - lam) * (2 - lam)
    r = (4 - lam) / den
    s = 2 / den
    one = mp.mpf(1)
    return [[one, one * 0, one * 0], [r, r, s], [r, s, r]]


_MP_A0_INV = [
    [mp.mpf(1), mp.mpf(0), mp.mpf(0)],
    [mp.mpf(-2) / 3, mp.mpf(10) / 3, mp.mpf(-5) / 3],
    [mp.mpf(-2) / 3, mp.mpf(-5) / 3, mp.mpf(10) / 3],
]


def _mp_apply(mat, v):
    return [sum(row[j] * v[j] for j in range(3)) for row in mat]


def _brute_limit_action(seq, vec, k=25):
    """A0^-k A0(lambda_{m0+k}) ... A0(lambda_{m0+1}) vec, literal products."""
    with mp.workdps(50):
        lam = mp.mpf(seq.lambda_m0)
        acc = [mp.mpf(float(x)) for x in vec]
        for j in range(seq.m0 + 1, seq.m0 + k + 1):
            root = mp.sqrt(25 - 4 * lam)
            lam = (5 + root) / 2 if j in seq.plus_indices else 2 * lam / (5 + root)
            acc = _mp_apply(_mp_a0(lam), acc)
        for _ in range(k):
            acc = _mp_apply(_MP_A0_INV, acc)
        return np.array([float(x) for x in acc])


def test_criterion_04_limit_action_closed_forms():
    seqs = [
        EigenvalueSequence(0, 1.0),
        EigenvalueSequence(0, 3.3, {1}),
        EigenvalueSequence(0, 0.5, {1, 2}),
        EigenvalueSequence(0, 4.4, {2}),
        EigenvalueSequence(1, 2.0),
        EigenvalueSequence(1, 2.0, {2}),
        EigenvalueSequence(1, 6.0, {2}),
        EigenvalueSequence(2, 5.0),
        EigenvalueSequence(2, 5.0, {3}),
        EigenvalueSequence(2, 6.0, {3}),
    ]
    worst = 0.0
    for seq in seqs:
        lam0 = seq.value(seq.m0)
        tail = m0_matrix(seq, seq.m0)
        # alpha, beta and gamma_{m0}
        for vec in ([0.0, 1.0, 1.0], [0.0, 1.0, -1.0], [4.0, 4.0 - lam0, 4.0 - lam0]):
            brute = _brute_limit_action(seq, vec, k=25)
            closed = tail @ np.array(vec)
            worst = max(worst, float(np.abs(brute - closed).max()))
    _report(
        4,
        worst < 1e-8,
        f"truncated products k=25 vs closed forms, 10 sequences x 3 vectors: "
        f"worst entry gap {worst:.3e} < 1e-8",
    )


def test_criterion_05_tangents_against_direct_limits():
    funcs = [
        dirichlet_eigenfunction("six", 1),
        dirichlet_eigenfunction("two", 1, plus_indices={2}),
        dirichlet_eigenfunction("five", 1, 2),
        dirichlet_eigenfunction("six", 2, 1),
        SpectralEigenfunction(sequence_from_limit(7.25), [1.0, -0.4, 0.7]),
    ]
    words = [":0", ":1", "0:1", "1:0", "01:2"]  # all three tails + a junction double pair
    worst = 0.0
    pairs = 0
    for u in funcs:
        for w in words:
            brute, _ = direct_tangent_limit(u, w, 25)
            closed = tangent_at(u, w).as_array()
            worst = max(worst, float(np.abs(brute.as_array() - closed).max()))
            pairs += 1
    _report(
        5,
        pairs >= 20 and worst < 1e-7,
        f"tangent_at vs direct limit at m=25, {pairs} pairs: worst gap {worst:.3e} < 1e-7",
    )


def test_criterion_06_six_series_worked_tangent():
    u = dirichlet_eigenfunction("six", 1)
    want = u.sequence.limit() / 9.0 * np.array([0.0, 1.0, -1.0])
    closed = tangent_at(u, ":0").as_array()
    brute, _ = direct_tangent_limit(u, ":0", 25)
    gap_closed = float(np.abs(closed - want).max())
    gap_brute = float(np.abs(brute.as_array() - want).max())
    _report(
        6,
        gap_closed < 1e-7 and gap_brute < 1e-7,
        f"6-series tangent = (lambda/9)(0,1,-1): closed {gap_closed:.3e}, "
        f"oracle {gap_brute:.3e}, both < 1e-7",
    )


def test_criterion_07_normal_derivative_corollary():
    lams = [0.8, 1.9, 3.1, 4.2, 5.5, 7.0, 9.5, 12.0, 20.0, 33.0]
    triples = [(1.0, 0.0, 0.0), (0.2, -1.0, 0.5), (1.0, 1.0, 1.0), (-0.3, 0.9, 2.2)]
    worst = 0.0
    for lam in lams:
        seq = sequence_from_limit(lam)
        assert seq.m0 == 0  # non-Dirichlet by construction
        for b in triples:
            u = SpectralEigenfunction(seq, np.array(b))
            for i in range(3):
                est, _ = normal_derivative_limit(u.value_at, i, levels=20)
                worst = max(worst, abs(normal_derivative(u, i) - est))
    _report(
        7,
        worst < 1e-6,
        f"normal derivative closed form vs limit at M=20, 10 lambdas x 4 triples: "
        f"worst gap {worst:.3e} < 1e-6",
    )


def test_criterion_08_special_functions():
    def psi_limit(z):
        return one_point(psi_limit_array, z)[0]

    ok = psi_limit(0.0) == 0.0
    h = 1e-6
    slope = (psi_limit(h) - psi_limit(-h)) / (2 * h)
    ok = ok and abs(slope - 2.0 / 3.0) <= 1e-6
    worst_feq = max(
        abs(psi_limit(z) * (5.0 - psi_limit(z)) - psi_limit(5.0 * z))
        for z in np.linspace(-10.0, 10.0, 201)
    )
    ok = ok and worst_feq < 1e-10
    seq = sequence_from_limit(4.7)
    lam = seq.limit()
    worst_tau = max(abs(tau(k, seq) - one_point(upsilon_with_error_array, lam / 5.0**k)[0])
                    for k in range(1, 7))
    ok = ok and worst_tau < 1e-12
    _report(
        8,
        ok,
        f"psi(0)=0, FD slope {slope:.9f} = 2/3 +- 1e-6, functional eq {worst_feq:.3e} < 1e-10 "
        f"on 201 points, tau vs upsilon k=1..6 {worst_tau:.3e} < 1e-12",
    )


def test_criterion_09_harmonic_degeneration():
    zero = EigenvalueSequence(0, 0.0)
    b = np.array([0.7, -0.2, 1.4])
    word = (0, 2, 1, 1, 0)
    u = SpectralEigenfunction(zero, b)
    ok = np.array_equal(u.cell_triple(word), extend_harmonic(b, word))
    for i in range(3):
        ok = ok and np.array_equal(eigen_matrix(i, 0.0), harmonic_matrix(i))
    devs = {}
    for lam in (1e-5, -1e-5, 1e-6):
        seq = sequence_from_limit(lam)
        devs[lam] = float(np.abs(m0_matrix(seq, 0) - np.eye(3)).max())
        ok = ok and devs[lam] < 1e-6
    ok = ok and 5.0 < devs[1e-5] / devs[1e-6] < 20.0  # deviation vanishes linearly
    worst_t = max(
        float(np.abs(tangent_at(u, w).as_array() - b).max()) for w in (":1", "012:0", "2101:2")
    )
    ok = ok and worst_t < 1e-12
    _report(
        9,
        ok,
        f"lambda=0: extension exactly harmonic, M0 -> I (worst {max(devs.values()):.3e} < 1e-6 "
        f"for |lambda| <= 1e-5), harmonic tangent gap {worst_t:.3e}",
    )


def _sine_fit_tangent(lam, x0, f0, f1):
    if lam == 0.0:
        return np.array([f0, f1])
    r = cmath.sqrt(lam)
    bcoef = complex(f0)
    acoef = (f1 - f0 * cmath.cos(r)) / cmath.sin(r)

    def du(x):
        return r * (acoef * cmath.cos(r * x) - bcoef * cmath.sin(r * x))

    def uval(x):
        return acoef * cmath.sin(r * x) + bcoef * cmath.cos(r * x)

    return np.array([(uval(x0) + du(x0) * (0.0 - x0)).real, (uval(x0) + du(x0) * (1.0 - x0)).real])


def test_criterion_10_interval_oracle():
    worst = 0.0
    for lam in (-25.0, -9.0, -2.0, -0.5, 0.0, 0.3, 1.7, 4.0, 8.0, 30.0, 60.0):
        for x0 in (0.0, 0.125, 1.0 / 3.0, 0.5, 0.77, 1.0):
            for f0, f1 in ((1.3, -0.7), (0.4, 2.2)):
                gap = np.abs(interval_tangent(lam, x0, f0, f1) - _sine_fit_tangent(lam, x0, f0, f1))
                worst = max(worst, float(gap.max()))
    _report(
        10,
        worst < 1e-10,
        f"interval tangent vs sine-fit oracle on a non-resonant grid: worst {worst:.3e} < 1e-10",
    )


def test_criterion_11_cli_determinism_and_verify_exit():
    base = [sys.executable, "-m", "sglap.cli"]
    commands = [
        ["spectrum", "--level", "2", "--verify"],
        ["eval", "--seed", "six:2:1", "--level", "3", "--format", "json"],
        ["tangent", "--seed", "six:1:1", "--word", ":0", "--format", "csv"],
        ["special", "--fn", "psi", "--range=-5:5:11"],
    ]
    ok = True
    for cmd in commands:
        first = subprocess.run(base + cmd, capture_output=True)
        second = subprocess.run(base + cmd, capture_output=True)
        ok = ok and first.returncode == 0 and len(first.stdout) > 0 and first.stdout == second.stdout
    failing = subprocess.run(
        base + ["tangent", "--seed", "six:1:1", "--word", ":0", "--verify", "--verify-tol", "0"],
        capture_output=True,
    )
    ok = ok and failing.returncode == 4
    _report(
        11,
        ok,
        f"4 commands byte-identical across repeated runs; --verify failure exits "
        f"{failing.returncode} (= 4)",
    )
