"""Herglotz/Stieltjes verification and sectorial classification.

Grid-based positivity tests for Herglotz and Stieltjes functions, the
beta-kernel positive-semidefiniteness test, classification by the two
boundary limits along the negative real axis (angles beta1 at -infinity and
beta2 at -0), closed-form angle relations for the rotated-boundary family,
and the accretivity/sectoriality classification of the boundary operator
and its coupled systems.  A coupled system's class limits need no samples
beyond m0 = m_inf(-0): they are its impedance at m = inf and at m0.

Two published formulas for the sector angle beta in terms of (beta1, beta2)
disagree away from the edge cases; both are exposed, under distinct names,
and the example suite asserts the discrepancy rather than hiding it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from typing import NamedTuple, Sequence

import numpy as np
import numpy.random  # noqa: F401  numpy loads it lazily: load it with this module

from .errors import DomainError, WeylsysError
from .mfunc import (
    MINUS_INFINITY_LADDER,
    MINUS_ZERO_LADDER,
    NAMED_GRIDS,
    MFunctionEvaluator,
    bessel_m_closed_form,
    bessel_neg_m_alpha_closed_form,
    bessel_w_closed_form,
    limit_at_minus_infinity,
    limit_at_minus_zero,
    m_alpha,
    m_alpha_direct,
    m_infinity_batch,
)
from .lsystem import as_extended_real, check_h, impedance, impedance_limit, make_lsystem, transfer
from .potentials import Potential
from .reporting import Check, CheckReport

__all__ = [
    "DEFAULT_KERNEL_SEED",
    "herglotz_test",
    "stieltjes_test",
    "check_beta",
    "kernel_matrix",
    "kernel_point_sets",
    "kernel_psd_test",
    "sampled_points",
    "ClassAngles",
    "class_angles_from_limits",
    "classify_s_beta12",
    "class_angles_from_alpha",
    "sector_angle_from_product",
    "sector_angle_from_gap",
    "AccretivityReport",
    "accretivity_and_sectoriality",
    "impedance_class_limits",
    "verify_example_suite",
]

_HALF_PI = math.pi / 2.0

# default grids of the checks: the upper-half-plane and the negative-axis
# points of the classify-default grid, in its order
_GRID = NAMED_GRIDS["classify-default"]
_UPPER_GRID = tuple(z for z in _GRID if z.imag > 0.0)
_NEGATIVE_GRID = tuple(z.real for z in _GRID if z.imag == 0.0)

DEFAULT_KERNEL_SEED = 1729

# tolerances of the three tests, and the largest kernel point set drawn
_HERGLOTZ_TOL = 1e-9
_STIELTJES_TOL = 1e-9
_KERNEL_TOL = 1e-8
_KERNEL_N_MAX = 6


def _witness(point: complex, value: complex, note: str) -> dict:
    """A point demonstrating a failed (or extremal) check, as a report witness."""
    return {"point": [point.real, point.imag], "value": [value.real, value.imag], "note": note}


def _eval_at(f, z: complex) -> complex:
    """f(z); an error that does not carry its point in ``z`` gets z named in its message."""
    try:
        return complex(f(z))
    except WeylsysError as exc:
        if exc.z is None and exc.args and isinstance(exc.args[0], str):
            exc.args = (f"{exc.args[0]} (while sampling at z = {complex(z)})",) + exc.args[1:]
        raise


def herglotz_test(f, grid: Sequence[complex] | None = None) -> Check:
    """Check Im f(z) >= -1e-9 over an upper-half-plane grid.

    The "herglotz" check carries the minimum of Im f in its value and the
    point where it is attained in its witness.  A non-finite value fails the
    check, with its point as the witness.
    """
    pts = _UPPER_GRID if grid is None else tuple(map(complex, grid))
    if not pts:
        raise DomainError("herglotz_test needs a nonempty grid")
    worst_im = math.inf
    worst = None
    for z in pts:
        if z.imag <= 0.0:
            raise DomainError(f"herglotz_test grid must lie in the upper half-plane, got {z}")
        val = _eval_at(f, z)
        if not cmath.isfinite(val):
            return Check("herglotz", False, "f is not finite on the grid", "pass", None,
                         _witness(z, val, "non-finite value"))
        if val.imag < worst_im:
            worst_im = val.imag
            worst = _witness(z, val, "minimum of Im f over the grid")
    detail = f"min Im f = {worst_im:.6g} over {len(pts)} grid points"
    return Check("herglotz", worst_im >= -_HERGLOTZ_TOL, detail, "pass", None, worst)


def stieltjes_test(
    f,
    complex_grid: Sequence[complex] | None = None,
    negative_grid: Sequence[float] | None = None,
) -> Check:
    """Grid test of the Stieltjes property.

    Checks that f is finite and Im(z f(z))/Im z >= -1e-9 on the complex grid,
    and that f is finite, real, nonnegative and nondecreasing along the
    negative real axis.  The "stieltjes" check carries a description in its
    value; its witness is the first offending point and value on failure,
    else the point of the least Im(z f)/Im z.
    """
    tol = _STIELTJES_TOL
    cpts = _UPPER_GRID if complex_grid is None else tuple(map(complex, complex_grid))
    xs = (_NEGATIVE_GRID if negative_grid is None
          else tuple(sorted(float(x) for x in negative_grid)))
    if any(x >= 0.0 for x in xs):
        raise DomainError("negative_grid must lie strictly on the negative real axis")

    def result(passed: bool, detail: str, witness: dict | None) -> Check:
        return Check("stieltjes", passed, detail, "pass", None, witness)

    worst_ratio = math.inf
    ratio_witness = None
    for z in cpts:
        if z.imag == 0.0:
            raise DomainError(f"complex grid point {z} lies on the real axis")
        val = _eval_at(f, z)
        if not cmath.isfinite(val):
            return result(False, "f is not finite on the complex grid",
                          _witness(z, val, "non-finite value on the complex grid"))
        ratio = (z * val).imag / z.imag
        if ratio < worst_ratio:
            worst_ratio = ratio
            ratio_witness = _witness(z, val, f"Im(z f)/Im z = {ratio:.6g}")

    if worst_ratio < -tol:
        return result(False, "Im(z f(z))/Im z negative on the complex grid", ratio_witness)

    vals = []
    for x in xs:
        val = _eval_at(f, complex(x))
        if not cmath.isfinite(val):
            return result(False, "f is not finite on (-inf, 0)",
                          _witness(complex(x), val, "non-finite value on the negative real axis"))
        if abs(val.imag) > 1e-8 * max(1.0, abs(val)):
            return result(False, "f is not real on (-inf, 0)",
                          _witness(complex(x), val, "non-real value on the negative real axis"))
        vals.append(val.real)
    for x, v in zip(xs, vals):
        if v < -tol * max(1.0, abs(v)):
            return result(False, "f takes negative values on (-inf, 0)",
                          _witness(complex(x), complex(v), "negative value on the negative real axis"))
    for (x0, v0), (x1, v1) in zip(zip(xs, vals), zip(xs[1:], vals[1:])):
        if v1 < v0 - tol * max(1.0, abs(v0)):
            return result(False, "f is not nondecreasing on (-inf, 0)",
                          _witness(complex(x1), complex(v1),
                                   f"f({x1:.6g}) = {v1:.6g} < f({x0:.6g}) = {v0:.6g}"))
    return result(
        True,
        f"min Im(z f)/Im z = {worst_ratio:.6g}; negative-axis checks passed at {len(xs)} points",
        ratio_witness,
    )


def check_beta(beta: float) -> float:
    """beta as a float; DomainError unless it lies in (0, pi/2] with cot(beta) finite.

    Below about 5.6e-309, cot(beta) = 1/tan(beta) overflows, and every
    kernel entry with it.
    """
    beta = float(beta)
    if not (0.0 < beta <= _HALF_PI and math.isfinite(1.0 / math.tan(beta))):
        raise DomainError(f"sector angle beta must lie in (0, pi/2] with finite cot, got {beta}")
    return beta


def _kernel_points(points: Sequence[complex]) -> tuple[complex, ...]:
    """The points of one kernel set; DomainError unless nonempty, in the open upper half-plane."""
    pts = tuple(complex(z) for z in points)
    if not pts:
        raise DomainError("kernel_matrix needs at least one point")
    for z in pts:
        if z.imag <= 0.0:
            raise DomainError(f"kernel points must lie in the open upper half-plane, got {z}")
    return pts


def _kernel_values(f, pts: tuple[complex, ...]) -> list[complex]:
    """f at the points of one set; DomainError naming the first point where it is not finite."""
    fs = [_eval_at(f, z) for z in pts]
    for z, val in zip(pts, fs):
        if not cmath.isfinite(val):
            raise DomainError(f"kernel function value {val} is not finite at z = {z}")
    return fs


def _kernels(beta: float, zs: np.ndarray, fs: np.ndarray) -> np.ndarray:
    """The kernels of :func:`kernel_matrix` of the sets zs, with values fs: (..., n) to (..., n, n).

    DomainError, naming beta, where an entry is not finite: just above the
    edge of :func:`check_beta`, cot(beta) |f|^2 can leave the floats.
    """
    cot = 0.0 if beta == _HALF_PI else 1.0 / math.tan(beta)
    zf = zs * fs
    num = zf[..., :, None] - np.conj(zf)[..., None, :]
    den = zs[..., :, None] - np.conj(zs)[..., None, :]
    with np.errstate(over="ignore", invalid="ignore"):
        kern = num / den - cot * np.conj(fs)[..., None, :] * fs[..., :, None]
        kern = (kern + np.conj(kern).swapaxes(-1, -2)) / 2.0
    if not np.isfinite(kern).all():
        raise DomainError(f"sector angle beta = {beta:g}: the kernel is not finite, since "
                          f"cot(beta) |f|^2 leaves the floats (cot(beta) = {cot:.3g})")
    return kern


def kernel_matrix(f, beta: float, points: Sequence[complex]) -> np.ndarray:
    """Hermitian sector kernel K[k,l] for the angle beta at the given points.

    K[k,l] = (z_k f_k - conj(z_l f_l)) / (z_k - conj z_l) - cot(beta) conj(f_l) f_k,
    with all points required in the open upper half-plane (so the denominator
    never vanishes).  A non-finite value of f raises DomainError naming the
    point.
    """
    beta = check_beta(beta)
    pts = _kernel_points(points)
    return _kernels(beta, np.array(pts, dtype=complex),
                    np.array(_kernel_values(f, pts), dtype=complex))


def kernel_point_sets(trials: int, seed: int) -> list[tuple[complex, ...]]:
    """The seeded point sets of :func:`kernel_psd_test`.

    `trials` sets of size 1..6, with real parts uniform in [-5, 5] and
    imaginary parts log-uniform in [0.1, 10].
    """
    if trials < 1:
        raise DomainError("kernel_psd_test needs trials >= 1")
    rng = np.random.default_rng(seed)
    sets = []
    for _ in range(int(trials)):
        n = int(rng.integers(1, _KERNEL_N_MAX + 1))
        res = rng.uniform(-5.0, 5.0, n)
        ims = 10.0 ** rng.uniform(-1.0, 1.0, n)
        sets.append(tuple(complex(a, b) for a, b in zip(res, ims)))
    return sets


def sampled_points(
    complex_grid: Sequence[complex] | None = None,
    negative_grid: Sequence[float] | None = None,
    trials: int = 100,
    seed: int = DEFAULT_KERNEL_SEED,
) -> list[complex]:
    """Every point at which ``weylsys classify`` samples f.

    Those are the points of the Herglotz, Stieltjes and kernel tests, whose
    arguments these are, and of m0 = m_inf(-0) (:data:`MINUS_ZERO_LADDER`),
    the one limit classify extrapolates; the points repeat where the tests
    share them.  The impedance's class limits are its values at m = inf and
    at m0, so :data:`MINUS_INFINITY_LADDER`, which :func:`classify_s_beta12`
    reads, is not among them.  A caller can evaluate f at all of them at
    once, as classify does with one stacked m-function sweep.
    """
    pts = list(_UPPER_GRID if complex_grid is None else map(complex, complex_grid))
    pts += map(complex, _NEGATIVE_GRID if negative_grid is None else negative_grid)
    pts += map(complex, MINUS_ZERO_LADDER)
    for point_set in kernel_point_sets(trials, seed):
        pts += point_set
    return pts


def kernel_psd_test(
    f,
    beta: float,
    points: Sequence[complex] | None = None,
    trials: int = 100,
    seed: int = DEFAULT_KERNEL_SEED,
) -> Check:
    """Positive-semidefiniteness of the beta-kernel over random point sets.

    With explicit points, a single matrix is tested.  Otherwise the test
    runs over the `trials` seeded point sets of :func:`kernel_point_sets`,
    so results are reproducible.  PSD means the minimum eigenvalue is
    >= -1e-8 * max(1, max |entry|) for every set.  The "kernel-psd" check
    carries the minimum eigenvalue of the worst set in its value, and beta
    and the worst set's points in its witness.

    f is evaluated at the points of every set, set by set in draw order, so
    the first DomainError is the one a loop of :func:`kernel_matrix` raises.
    The kernels of the sets of one size are built in one array expression,
    the one of :func:`kernel_matrix`, and diagonalised in one ``eigvalsh``
    call; the sets are then walked in draw order for the worst margin, the
    verdict and the witness.  Each set's values are bit for bit those of
    :func:`kernel_matrix` and ``eigvalsh`` on that set alone.
    """
    beta = check_beta(beta)
    sets = ([_kernel_points(points)] if points is not None
            else kernel_point_sets(trials, seed))
    values = [_kernel_values(f, pts) for pts in sets]
    by_size: dict[int, list[int]] = {}
    for i, pts in enumerate(sets):
        by_size.setdefault(len(pts), []).append(i)
    min_eigs, scales = [0.0] * len(sets), [0.0] * len(sets)
    for group in by_size.values():
        kerns = _kernels(beta, np.array([sets[i] for i in group], dtype=complex),
                         np.array([values[i] for i in group], dtype=complex))
        for i, top, low in zip(group, np.abs(kerns).max(axis=(1, 2)).tolist(),
                               np.linalg.eigvalsh(kerns).min(axis=1).tolist()):
            min_eigs[i], scales[i] = low, max(1.0, top)

    psd = True
    worst_margin = math.inf
    worst_eig = math.inf
    worst_pts = sets[0]
    for pts, min_eig, scale in zip(sets, min_eigs, scales):
        margin = min_eig / scale
        if margin < worst_margin:
            worst_margin = margin
            worst_eig = min_eig
            worst_pts = pts
        if min_eig < -_KERNEL_TOL * scale:
            psd = False
    witness = {"beta": beta, "points": [[p.real, p.imag] for p in worst_pts]}
    return Check("kernel-psd", psd, worst_eig, "min eigenvalue >= -tol * scale", _KERNEL_TOL,
                 witness)


class ClassAngles(NamedTuple):
    beta1: float
    beta2: float


def class_angles_from_limits(lim_inf: float, lim_zero: float) -> ClassAngles:
    """Angles (beta1, beta2) of a Stieltjes function from its limits at -infinity and at -0.

    beta1 = arctan lim_inf, beta2 = arctan lim_zero, with a limit of +inf
    mapped to pi/2.  A NaN, negative or -inf limit, or beta1 > beta2, raises
    DomainError: no Stieltjes function has it.  A limit a hair below 0 is
    clamped to 0, and beta2 a hair below beta1 to beta1.  ``weylsys
    classify`` and the example suite pass the impedance's limits of
    :func:`impedance_class_limits`: its values at m = inf and at m0.
    """
    angles = []
    for value, where in ((lim_inf, "-infinity"), (lim_zero, "-0")):
        if math.isnan(value):
            raise DomainError(f"limit at {where} is NaN")
        if value == -math.inf:
            raise DomainError(f"limit at {where} diverges to -infinity; not a Stieltjes function")
        if value < -1e-9 * max(1.0, abs(value)):
            raise DomainError(f"limit at {where} is negative ({value}); not a Stieltjes function")
        angles.append(_HALF_PI if value == math.inf else math.atan(max(value, 0.0)))
    beta1, beta2 = angles
    if beta1 > beta2 + 1e-9:
        raise DomainError(f"limits are not ordered (beta1 = {beta1} > beta2 = {beta2}); "
                          "not a Stieltjes function")
    return ClassAngles(beta1, max(beta1, beta2))


def classify_s_beta12(f) -> ClassAngles:
    """Angles (beta1, beta2) from the extrapolated limits of a general f at -infinity and at -0.

    The limits are :func:`limit_at_minus_infinity` and
    :func:`limit_at_minus_zero`, and the angles follow from them by
    :func:`class_angles_from_limits`.  This serves an f given only by its
    values; nothing in the package calls it.  ``weylsys classify`` and the
    example suite read an impedance, whose limits are its values at m = inf
    and at m0 (:func:`impedance_class_limits`).
    """
    return class_angles_from_limits(limit_at_minus_infinity(f), limit_at_minus_zero(f))


def class_angles_from_alpha(alpha: float, m0: float) -> ClassAngles:
    """Closed-form class angles of the rotated-boundary function -m_alpha.

    m0 is m_inf(-0) of the potential (1 for the Bessel 3/2 example).
    For 0 < alpha < pi/2 with tan(alpha) * m0 > 1 (the sectorial regime),
    tan beta1 = cot(alpha) and tan beta2 = (tan(alpha) + m0)/(tan(alpha) m0 - 1).
    """
    alpha = float(alpha)
    m0 = float(m0)
    if not (math.isfinite(m0) and m0 > 0.0):
        raise DomainError(f"m0 must be finite and positive, got {m0}")
    if not (0.0 < alpha < _HALF_PI):
        raise DomainError(f"alpha must lie in (0, pi/2), got {alpha}")
    t = math.tan(alpha)
    if t * m0 <= 1.0:
        raise DomainError(
            f"tan(alpha) * m0 = {t * m0} must exceed 1 for the sectorial regime"
        )
    beta1 = math.atan(1.0 / t)
    beta2 = math.atan((t + m0) / (t * m0 - 1.0))
    return ClassAngles(beta1, beta2)


def _check_beta12(beta1: float, beta2: float) -> tuple[float, float]:
    beta1 = float(beta1)
    beta2 = float(beta2)
    if not (0.0 <= beta1 <= beta2 <= _HALF_PI + 1e-15):
        raise DomainError(f"need 0 <= beta1 <= beta2 <= pi/2, got ({beta1}, {beta2})")
    return beta1, min(beta2, _HALF_PI)


def sector_angle_from_product(beta1: float, beta2: float) -> float:
    """Sector angle via tan(beta) = tan(beta1) + 2 sqrt(tan(beta1) tan(beta2)).

    Not a bound on the exact sectoriality angle: it returns 0 whenever
    beta1 = 0, and at the class angles of h = i, mu = 10 on the built-in
    example it gives tan beta = 0.80 against the exact tan theta = 1.
    """
    beta1, beta2 = _check_beta12(beta1, beta2)
    if beta1 == 0.0:
        if beta2 >= _HALF_PI:
            raise DomainError("indeterminate product formula at beta1 = 0, beta2 = pi/2")
        return 0.0
    if beta2 >= _HALF_PI:
        return _HALF_PI
    t1 = math.tan(beta1)
    t2 = math.tan(beta2)
    return math.atan(t1 + 2.0 * math.sqrt(t1 * t2))


def sector_angle_from_gap(beta1: float, beta2: float) -> float:
    """Sector angle via tan(beta) = tan(beta2) + 2 sqrt(tan(beta1)(tan(beta2) - tan(beta1))).

    Requires beta2 < pi/2 (finite tan beta2).  Reduces to beta2 at both edge
    cases beta1 = 0 and beta1 = beta2.
    """
    beta1, beta2 = _check_beta12(beta1, beta2)
    if beta2 >= _HALF_PI:
        raise DomainError("sector_angle_from_gap needs beta2 < pi/2 (finite tan beta2)")
    t1 = math.tan(beta1)
    t2 = math.tan(beta2)
    return math.atan(t2 + 2.0 * math.sqrt(max(t1 * (t2 - t1), 0.0)))


@dataclass(frozen=True)
class AccretivityReport:
    """Accretivity/sectoriality of the boundary operator and its coupled system.

    `operator_*` fields classify the boundary operator alone (they depend
    only on h and m0 = m(-0)); `system_*` fields classify the coupled system
    for the given mu and are None when m0 = +inf makes them undecidable.
    tan_theta is the exact sector tangent Im h / (Re h + m0), infinite for
    accretive-but-not-sectorial operators.
    """

    h: complex
    mu: float
    m0: float
    operator_accretive: bool
    operator_sectorial: bool
    tan_theta: float
    theta: float
    mu_threshold: float | None
    system_accretive: bool | None
    system_extremal: bool | None
    system_sectorial: bool | None
    preserves_exact_angle: bool | None
    notes: tuple[str, ...] = ()


def accretivity_and_sectoriality(h: complex, mu, m0: float) -> AccretivityReport:
    """Classify the boundary operator for h and the coupled system for (mu, h).

    The operator is accretive iff Re h >= -m0 and sectorial iff Re h > -m0,
    with exact angle tan(theta) = Im h / (Re h + m0).  For finite mu the
    system is accretive iff mu >= Im(h)^2/(m0 + Re h) + Re h, extremal
    exactly at the threshold, and sectorial above it; mu = inf preserves the
    operator's classification and exact angle.
    """
    h = check_h(h)
    mu = as_extended_real(mu)
    m0 = float(m0)
    if math.isnan(m0) or m0 == -math.inf:
        raise DomainError(f"m0 must be a real number or +inf, got {m0}")

    notes: list[str] = []
    # m0 = +inf gives an accretive and sectorial operator with theta = 0 by the
    # same formulas; only the system's accretivity threshold degenerates
    op_accretive = h.real >= -m0
    op_sectorial = h.real > -m0
    if op_sectorial:
        tan_theta = h.imag / (h.real + m0)
        theta = math.atan(tan_theta)
        mu_threshold = h.real + h.imag**2 / (m0 + h.real)
    else:
        tan_theta = math.inf
        theta = _HALF_PI
        mu_threshold = math.inf if op_accretive else None
        if op_accretive:
            notes.append("operator is accretive but extremal; no finite mu gives an accretive system")
        else:
            notes.append("operator is not accretive; no coupled system is accretive")

    if math.isinf(m0):
        notes.append("m0 = +inf: only mu-independent operator statements are decidable")
        mu_threshold = sys_accretive = sys_extremal = sys_sectorial = preserves = None
    elif math.isinf(mu):
        sys_accretive = op_accretive
        sys_extremal = op_accretive and not op_sectorial
        sys_sectorial = op_sectorial
        preserves = op_sectorial
    elif mu_threshold is None or math.isinf(mu_threshold):
        sys_accretive = False
        sys_extremal = False
        sys_sectorial = False
        preserves = False
    else:
        slack = 1e-12 * max(1.0, abs(mu_threshold))
        sys_accretive = mu >= mu_threshold - slack
        sys_extremal = sys_accretive and abs(mu - mu_threshold) <= slack
        sys_sectorial = sys_accretive and not sys_extremal
        preserves = False
    return AccretivityReport(
        h=h,
        mu=mu,
        m0=m0,
        operator_accretive=op_accretive,
        operator_sectorial=op_sectorial,
        tan_theta=tan_theta,
        theta=theta,
        mu_threshold=mu_threshold,
        system_accretive=sys_accretive,
        system_extremal=sys_extremal,
        system_sectorial=sys_sectorial,
        preserves_exact_angle=preserves,
        notes=tuple(notes),
    )


def impedance_class_limits(system, accr: AccretivityReport) -> tuple[float, float]:
    """The limits of the system's impedance V at -infinity and at -0, with no samples.

    m_inf -> +inf at -infinity, so V tends to its value at m = inf.  At -0 it
    tends to V(m0), with m0 = m_inf(-0) the one of ``accr``, the system's
    report; or to +inf where that report finds the system not sectorial: at
    the extremal coupling V's pole sits at m0, and below it no coupled system
    is accretive.  Both come from :func:`weylsys.lsystem.impedance_limit`.
    """
    return (impedance_limit(system, math.inf),
            math.inf if accr.system_sectorial is False else impedance_limit(system, accr.m0))


# frozen reference values for the built-in example suite
_KERNEL_SINGLE_POINT = 3.0 / math.sqrt(2.0) - 2.0  # K_{pi/4}[1/m] at z = i
_PRODUCT_TAN_REFERENCE = 3.5131299192244385  # product formula at (pi/6, 5 pi/12)
_GAP_TAN_REFERENCE = 6.431211569767402  # gap formula at (pi/6, 5 pi/12)


def verify_example_suite(tol: float = MFunctionEvaluator.tol) -> CheckReport:
    """Run the built-in exactly-solvable example end to end.

    Cross-checks the numeric m-function paths, run at the truncation
    tolerance ``tol``, against the closed form,
    boundary limits, realization identities, kernel positivity, the
    trichotomy of derived Stieltjes functions, and the two sector-angle
    formulas.  Returns a CheckReport; every check carries its tolerance.
    """
    pot = Potential.bessel()
    closed = MFunctionEvaluator(pot, mode="closed_form")
    numeric = MFunctionEvaluator(pot, mode="numeric", tol=tol)
    checks: list[Check] = []

    zs = (1j, -1.0 + 1j, 2.0 + 0.5j, 1.0 - 1j)
    xs = (-0.5, -1.0, -25.0)
    # the check points and the samples of both limits, in one stacked sweep
    batch = m_infinity_batch(numeric, zs + xs + MINUS_ZERO_LADDER + MINUS_INFINITY_LADDER)

    def m_numeric(z):
        return batch.at(z).value

    def rel_err(points):
        return max(abs(m_numeric(z) - bessel_m_closed_form(z)) / abs(bessel_m_closed_form(z))
                   for z in points)

    checks.append(Check.within("m-disk-vs-closed-max-rel-err", rel_err(zs), 0.0, 1e-6))
    checks.append(Check.within("m-riccati-vs-closed-max-rel-err", rel_err(xs), 0.0, 1e-6))

    m0 = limit_at_minus_zero(m_numeric)
    checks.append(Check.within("m-limit-at-minus-zero", m0, 1.0, 1e-4))
    # m(-k^2) = k + o(1) at a regular ell, so m -> +inf: the far end of the
    # ladder within its bound of the closed form, and m(x)/sqrt(-x) nearing 1
    x_far = MINUS_INFINITY_LADDER[-1]
    far = batch.at(x_far)
    gaps = [abs(m_numeric(x).real / math.sqrt(-x) - 1.0) for x in MINUS_INFINITY_LADDER]
    checks.append(Check(
        "m-at-minus-infinity-over-sqrt",
        abs(far.value - bessel_m_closed_form(x_far)) <= far.error_bound
        and all(b < a for a, b in zip(gaps, gaps[1:])) and gaps[-1] <= 1e-6,
        far.value.real / math.sqrt(-x_far), 1.0, 1e-6))

    alphas = (0.6, 1.0, _HALF_PI, 2.2, math.pi)
    lft_err = max(
        abs(bessel_neg_m_alpha_closed_form(a, z) + m_alpha(closed, a, z))
        for a in alphas
        for z in (1j, -2.0 + 0.5j)
    )
    checks.append(Check.within("rotated-m-transform-vs-closed", lft_err, 0.0, 1e-10))

    a0 = math.pi / 3.0
    rotated_err = abs(m_alpha_direct(pot, a0, 1j, tol) - m_alpha(closed, a0, 1j))
    checks.append(Check.within("rotated-m-numeric-vs-closed", rotated_err, 0.0, 1e-6))

    sys_zero = make_lsystem(pot, mu=0.0, h=1j)
    sys_inf = make_lsystem(pot, mu=math.inf, h=1j)
    grid_m = [(z, bessel_m_closed_form(z)) for z in _GRID]
    err_zero = max(abs(impedance(sys_zero, m, z) + m) for z, m in grid_m)
    checks.append(Check.within("impedance-anchor-mu-zero", err_zero, 0.0, 1e-10))
    err_inf = max(abs(impedance(sys_inf, m, z) - 1.0 / m) for z, m in grid_m)
    checks.append(Check.within("impedance-anchor-mu-inf", err_inf, 0.0, 1e-10))
    err_w = max(abs(transfer(sys_inf, bessel_m_closed_form(z), z) - bessel_w_closed_form(z))
                for z in _UPPER_GRID)
    checks.append(Check.within("transfer-anchor-mu-inf", err_w, 0.0, 1e-10))

    zs_m = [(z, bessel_m_closed_form(z)) for z in zs]
    err_rot = 0.0
    for a in (0.3, 0.7, 1.0, 1.9, 2.6):
        sys_rot = make_lsystem(pot, mu=math.tan(a), h=1j)
        err_rot = max(
            err_rot,
            max(abs(impedance(sys_rot, m, z) + m_alpha(closed, a, z)) for z, m in zs_m),
        )
    checks.append(Check.within("impedance-anchor-mu-tan-alpha", err_rot, 0.0, 1e-10))

    # the class limits of 1/m = V at mu = inf, h = i, from the same m0
    report = accretivity_and_sectoriality(1j, math.inf, m0)
    tan_b1, tan_b2 = impedance_class_limits(sys_inf, report)
    angles = class_angles_from_limits(tan_b1, tan_b2)
    checks.append(Check.within("class-tan-beta1-at-zero", tan_b1, 0.0, 1e-3))
    checks.append(Check.within("class-tan-beta2-at-one", tan_b2, 1.0, 1e-3))
    checks.append(
        Check.within("angle-from-limit-vs-quarter-pi", angles.beta2, math.pi / 4.0, 1e-3)
    )

    checks.append(Check.within("exact-angle-tan-theta", report.tan_theta, 1.0, 1e-3))

    def inv_m_closed(z):
        return 1.0 / bessel_m_closed_form(z)

    k11 = kernel_matrix(inv_m_closed, math.pi / 4.0, (1j,))[0, 0].real
    checks.append(Check.within("kernel-single-point-value", k11, _KERNEL_SINGLE_POINT, 1e-9))
    kern = kernel_psd_test(inv_m_closed, math.pi / 4.0, trials=100, seed=DEFAULT_KERNEL_SEED)
    checks.append(replace(kern, name="kernel-psd-one-over-m",
                          expected="min eigenvalue >= -1e-8 * scale",
                          witness={"points": kern.witness["points"]}))
    checks.append(replace(stieltjes_test(inv_m_closed), name="stieltjes-one-over-m",
                          witness=None))
    neg = stieltjes_test(lambda z: -bessel_m_closed_form(z))
    checks.append(replace(neg, name="stieltjes-minus-m-rejected",
                          passed=not neg.passed and neg.witness is not None,
                          expected="fail with witness"))

    prod = math.tan(sector_angle_from_product(math.pi / 6.0, 5.0 * math.pi / 12.0))
    gap = math.tan(sector_angle_from_gap(math.pi / 6.0, 5.0 * math.pi / 12.0))
    checks.append(
        Check.within("sector-angle-product-formula", prod, _PRODUCT_TAN_REFERENCE, 1e-6)
    )
    checks.append(Check.within("sector-angle-gap-formula", gap, _GAP_TAN_REFERENCE, 1e-6))
    checks.append(
        Check("sector-angle-formulas-differ", gap - prod > 1e-3, gap - prod, "> 0", 1e-3)
    )

    return CheckReport(tuple(checks), meta={"suite": "example"})
