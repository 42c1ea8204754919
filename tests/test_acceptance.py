"""Acceptance checks for the package, one per numbered guarantee.

Each test prints exactly one `ACCEPTANCE nn: PASS/FAIL` line (with capture
suspended, so the lines always reach the terminal) and then asserts, so a
failing guarantee is visible both in the log and in the pytest summary.
"""

from __future__ import annotations

import json
import math
import time

import numpy as np
import pytest

from weylsys import (
    MFunctionEvaluator,
    PoleError,
    Potential,
    accretivity_and_sectoriality,
    bessel_m_closed_form,
    class_angles_from_alpha,
    classify_s_beta12,
    duality_check,
    impedance,
    impedance_from_transfer,
    kernel_matrix,
    kernel_psd_test,
    limit_at_minus_infinity,
    limit_at_minus_zero,
    make_lsystem,
    m_infinity,
    sector_angle_from_gap,
    sector_angle_from_product,
    stieltjes_test,
    transfer,
    transfer_from_impedance,
    xi_parameter,
)
from weylsys.cli import main
from weylsys.forms import TestFunction, evaluate_form, generate_test_functions
from weylsys.mfunc import NAMED_GRIDS

BESSEL = Potential.bessel()
CLOSED = MFunctionEvaluator(BESSEL, mode="closed_form")
NUMERIC = MFunctionEvaluator(BESSEL, mode="numeric")

# numeric m values on the real axis are reused across several criteria
_M_CACHE: dict[complex, complex] = {}


def _m_numeric(z) -> complex:
    z = complex(z)
    if z not in _M_CACHE:
        _M_CACHE[z] = m_infinity(NUMERIC, z)
    return _M_CACHE[z]


@pytest.fixture
def report(capfd):
    def _report(num: int, passed: bool, detail: str) -> None:
        line = f"ACCEPTANCE {num:2d}: {'PASS' if passed else 'FAIL'} — {detail}"
        with capfd.disabled():
            print(line, flush=True)
        assert passed, line

    return _report


def test_criterion_01_numeric_m_matches_the_closed_form(report):
    start = time.monotonic()
    worst = 0.0
    for z in NAMED_GRIDS["default"]:
        exact = bessel_m_closed_form(z)
        got = m_infinity(NUMERIC, z)
        worst = max(worst, abs(got - exact) / abs(exact))
    elapsed = time.monotonic() - start
    report(
        1,
        worst <= 1e-6 and elapsed < 10.0,
        f"numeric m (disk + backward-Riccati paths) vs closed form on the "
        f"default grid: max rel err {worst:.3g}, {elapsed:.2f}s",
    )


def test_criterion_02_limits_at_the_axis_ends(report):
    m0 = limit_at_minus_zero(_m_numeric)
    at_minus_1e6 = _m_numeric(-1e6).real
    diverges = limit_at_minus_infinity(_m_numeric) == math.inf
    ok = abs(m0 - 1.0) <= 1e-4 and at_minus_1e6 > 1e3 and diverges
    report(
        2,
        ok,
        f"m(-0) = {m0:.6f} (target 1 ± 1e-4); m(-1e6) = {at_minus_1e6:.1f} > 1e3 "
        f"and the -infinity limit extrapolates to +inf",
    )


def test_criterion_03_exact_angle_and_numeric_class_of_one_over_m(report):
    rep = accretivity_and_sectoriality(1j, math.inf, 1.0)
    beta1, beta2 = classify_s_beta12(lambda x: 1.0 / _m_numeric(x))
    ok = (
        rep.tan_theta == 1.0
        and beta1 <= 1e-3
        and abs(math.tan(beta2) - 1.0) <= 1e-3
    )
    report(
        3,
        ok,
        f"tan(theta) = {rep.tan_theta} exactly for h = i, m0 = 1; numeric class "
        f"of 1/m: beta1 = {beta1:.2e}, tan(beta2) = {math.tan(beta2):.6f} "
        f"(the (0, pi/4) class)",
    )


def test_criterion_04_rotated_class_angles_across_alpha(report):
    alphas = [0.9, 1.0, 1.1, 1.2, 1.3, 1.4, 1.5]
    worst_limit = 0.0
    worst_gap = 0.0
    for alpha in alphas:
        sa, ca = math.sin(alpha), math.cos(alpha)

        def neg_m_alpha(x):
            m = _m_numeric(x)
            return -(sa + m * ca) / (ca - m * sa)

        expected = class_angles_from_alpha(alpha, m0=1.0)
        got1 = limit_at_minus_infinity(neg_m_alpha)
        got2 = limit_at_minus_zero(neg_m_alpha)
        worst_limit = max(
            worst_limit,
            abs(got1 - math.tan(expected.beta1)),
            abs(got2 - math.tan(expected.beta2)),
        )
        gap = math.atan(got2) - math.atan(got1)
        worst_gap = max(worst_gap, abs(gap - math.pi / 4.0))
    ok = worst_limit <= 1e-3 and worst_gap <= 1e-3
    report(
        4,
        ok,
        f"for alpha in {{0.9..1.5}} the numeric limits of -m_alpha match the "
        f"closed-form class tangents (max err {worst_limit:.2e}) and "
        f"beta2 - beta1 = pi/4 ± {worst_gap:.2e}",
    )


def test_criterion_05_impedance_realization_identities(report):
    grid = NAMED_GRIDS["classify-default"]
    sys_zero = make_lsystem(BESSEL, mu=0.0, h=1j)
    sys_inf = make_lsystem(BESSEL, mu=math.inf, h=1j)
    worst_zero = worst_inf = worst_alpha = 0.0
    alphas = (0.3, 0.7, 1.0, 1.9, 2.6)
    rotated = {alpha: make_lsystem(BESSEL, mu=math.tan(alpha), h=1j) for alpha in alphas}
    for z in grid:
        m = bessel_m_closed_form(z)
        worst_zero = max(worst_zero, abs(impedance(sys_zero, z, CLOSED) - (-m)))
        worst_inf = max(worst_inf, abs(impedance(sys_inf, z, CLOSED) - 1.0 / m))
        for alpha, system in rotated.items():
            sa, ca = math.sin(alpha), math.cos(alpha)
            m_alpha_val = (sa + m * ca) / (ca - m * sa)
            worst_alpha = max(
                worst_alpha, abs(impedance(system, z, CLOSED) + m_alpha_val)
            )
    ok = max(worst_zero, worst_inf, worst_alpha) <= 1e-10
    report(
        5,
        ok,
        f"on {len(grid)} grid points: |V(mu=0) + m| <= {worst_zero:.2e}, "
        f"|V(mu=inf) - 1/m| <= {worst_inf:.2e}, |V(mu=tan a) + m_a| <= "
        f"{worst_alpha:.2e} for 5 boundary angles (all within 1e-10)",
    )


def test_criterion_06_duality_residuals(report):
    rng = np.random.default_rng(1234)
    worst_v = worst_w = worst_invol = 0.0
    for _ in range(50):
        h = complex(rng.uniform(-2.0, 2.0), rng.uniform(0.2, 3.0))
        mu = float(rng.uniform(-4.0, 4.0))
        while abs(mu - h.real) < 0.05:
            mu = float(rng.uniform(-4.0, 4.0))
        z = complex(rng.uniform(-3.0, 3.0), rng.uniform(0.15, 3.0))
        rep = duality_check(make_lsystem(BESSEL, mu=mu, h=h), z, CLOSED)
        worst_v = max(worst_v, rep.impedance_residual)
        worst_w = max(worst_w, rep.transfer_residual)
        worst_invol = max(
            worst_invol, abs(xi_parameter(rep.xi, h) - mu) / max(1.0, abs(mu))
        )
    ok = worst_v <= 1e-10 and worst_w <= 1e-10 and worst_invol <= 1e-12
    report(
        6,
        ok,
        f"over 50 random (mu, h, z): impedance duality residual <= {worst_v:.2e}, "
        f"transfer residual <= {worst_w:.2e}, coupling involution error <= "
        f"{worst_invol:.2e}",
    )


def test_criterion_07_moebius_consistency(report):
    rng = np.random.default_rng(1234)
    worst_round = 0.0
    for _ in range(100):
        v = complex(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0))
        if abs(v - 1j) < 0.1:
            continue
        back = impedance_from_transfer(transfer_from_impedance(v))
        worst_round = max(worst_round, abs(back - v) / max(1.0, abs(v)))
    worst_link = 0.0
    for _ in range(100):
        h = complex(rng.uniform(-2.0, 2.0), rng.uniform(0.2, 3.0))
        mu = float(rng.uniform(-4.0, 4.0))
        if abs(mu - h.real) < 0.05:
            mu = h.real + 0.5
        z = complex(rng.uniform(-3.0, 3.0), rng.uniform(0.15, 3.0))
        system = make_lsystem(BESSEL, mu=mu, h=h)
        direct = transfer(system, z, CLOSED)
        linked = transfer_from_impedance(impedance(system, z, CLOSED))
        worst_link = max(worst_link, abs(direct - linked))
    ok = worst_round <= 1e-12 and worst_link <= 1e-10
    report(
        7,
        ok,
        f"V <-> W round-trip error <= {worst_round:.2e} on 100 points; direct "
        f"transfer vs the Moebius of the impedance <= {worst_link:.2e} on 100 "
        f"random systems",
    )


def test_criterion_08_kernel_positivity(report):
    def one_over_m(z):
        return 1.0 / bessel_m_closed_form(z)

    psd = kernel_psd_test(one_over_m, math.pi / 4.0, trials=100, seed=1729)
    worst = [complex(*p) for p in psd.witness["points"]]
    scale = max(1.0, float(np.abs(kernel_matrix(one_over_m, math.pi / 4.0, worst)).max()))
    single = kernel_matrix(one_over_m, math.pi / 4.0, [1j])[0, 0].real
    ok = psd.passed and abs(single - 0.121320) <= 1e-6
    report(
        8,
        ok,
        f"quarter-pi kernel of 1/m is PSD over 100 seeded point sets (worst "
        f"scaled eigenvalue {psd.value / scale:.2e}); "
        f"single-point value {single:.9f} matches 0.121320 within 1e-6",
    )


def test_criterion_09_stieltjes_trichotomy(report):
    def minus_m(z):
        return -bessel_m_closed_form(z)

    def one_over_m(z):
        return 1.0 / bessel_m_closed_form(z)

    def neg_m_alpha(t):
        def f(z):
            m = bessel_m_closed_form(z)
            return (t + m) / (t * m - 1.0)
        return f

    fail_minus_m = stieltjes_test(minus_m)
    verdicts = {t: stieltjes_test(neg_m_alpha(t)).passed for t in (0.5, 1.0, 2.0)}
    pass_one_over_m = stieltjes_test(one_over_m)
    ok = (
        not fail_minus_m.passed
        and fail_minus_m.witness is not None
        and verdicts == {0.5: False, 1.0: True, 2.0: True}
        and pass_one_over_m.passed
    )
    report(
        9,
        ok,
        f"-m fails the Stieltjes test with witness at z = "
        f"{complex(*fail_minus_m.witness['point']) if fail_minus_m.witness else None}; "
        f"-m_alpha passes iff tan(alpha) >= 1 (got {verdicts}); 1/m passes",
    )


def test_criterion_10_boundary_form_inequality(report):
    worst_ratio = -math.inf
    for y in generate_test_functions(100, seed=2024):
        worst_ratio = max(worst_ratio, evaluate_form(y).ratio)
    witness_ratio = evaluate_form(TestFunction.power()).ratio
    ok = worst_ratio <= 1.0 + 1e-9 and abs(witness_ratio - 1.0) <= 1e-6
    report(
        10,
        ok,
        f"boundary-to-energy form ratio <= 1 + 1e-9 for 100 generated test "
        f"functions (max {worst_ratio:.12f}); the 1/x equality witness reaches "
        f"{witness_ratio:.9f}",
    )


def test_criterion_11_both_sector_angle_formulas_are_exposed(report):
    b1, b2 = math.pi / 6.0, 5.0 * math.pi / 12.0
    tan_product = math.tan(sector_angle_from_product(b1, b2))
    tan_gap = math.tan(sector_angle_from_gap(b1, b2))
    ok = (
        abs(tan_product - 3.5131299192244385) <= 1e-6
        and abs(tan_gap - 6.431211569767402) <= 1e-6
        and abs(tan_product - tan_gap) > 1.0
    )
    report(
        11,
        ok,
        f"product formula gives tan {tan_product:.9f}, gap formula gives tan "
        f"{tan_gap:.9f} at (pi/6, 5pi/12); both frozen values hold and the "
        f"formulas demonstrably differ",
    )


def test_criterion_12_byte_identical_reports(report, tmp_path):
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    argv = ["verify", "--suite", "all", "--seed", "42"]
    code1 = main(argv + ["--out", str(first)])
    code2 = main(argv + ["--out", str(second)])
    same = first.read_bytes() == second.read_bytes()
    ok = code1 == 0 and code2 == 0 and same
    payload = json.loads(first.read_text())
    report(
        12,
        ok and payload["pass"] is True,
        f"two runs of the full verification suite with seed 42 exit 0 and "
        f"produce byte-identical JSON ({len(first.read_bytes())} bytes, "
        f"{len(payload['checks'])} checks)",
    )
