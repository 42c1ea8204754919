"""Weyl-Titchmarsh functions m_inf(z) and m_alpha(z) on the half-line.

Conventions
-----------
The fundamental solutions of ``-y'' + q y = z y`` carry the boundary data ::

    phi_alpha(ell) = sin(alpha),   phi_alpha'(ell) = -cos(alpha),
    theta_alpha(ell) = cos(alpha), theta_alpha'(ell) = sin(alpha),

so ``alpha = pi`` reproduces the reference pair ``phi_1 = phi_pi``
(Dirichlet-normalized, phi_1(ell) = 0, phi_1'(ell) = 1) and
``phi_2 = theta_pi`` (phi_2(ell) = -1, phi_2'(ell) = 0).  The
Weyl-Titchmarsh function m_alpha(z) is the unique coefficient making
``theta_alpha + m_alpha phi_alpha`` square-integrable at infinity
(limit-point case); for the decaying solution ``psi`` this means
``m_inf(z) = -psi'(ell)/psi(ell)``.

The square root uses the branch with argument in ``[0, 2*pi)``
(``Im sqrt(z) >= 0``), which is the unique choice giving conjugate
symmetry ``m(conj z) = conj(m(z))`` and the Herglotz sign of ``-m``.

Numeric path
------------
Every z off [0, inf) takes one route: backward integration of the Riccati
equation ``u' = q - z - u^2`` for ``u = psi'/psi``, so that
``m_inf = -u(ell)``.  Off the real axis psi has no zero on [ell, inf) (a
zero would be a Dirichlet eigenfunction with a non-real eigenvalue), so u
has no pole, and it does not oscillate.  The sweep starts at the decaying
fixed point ``u(X) = -sqrt(q(X) - z)`` (the root with positive real part),
which the backward flow attracts at the rate ``2 Re sqrt(q - z)``; forward
integration would be exponentially unstable.

* Truncation.  A start error shrinks like ``exp(-2 kappa (X - ell))`` with
  the decay rate ``kappa = Im sqrt_upper(z)``, which is ``sqrt|z|`` on the
  negative axis.  The first truncation is ``X - ell = ln(1/tol) / (2 kappa)``
  (kappa floored at 1e-3), so the sweep contracts a start error by ``tol``.
  On the real axis, while ``q(X) - z <= 0`` there (a well of q near ell),
  the distance doubles before any solve.
* Off the axis, before any solve, the WKB exponent
  ``2 int Re sqrt(q - z) dx`` up to the largest X is summed from a few
  potential values; below ``ln(1/tol)`` the flow cannot contract enough
  (limit-circle behavior, or z too close to [0, inf)) and
  :class:`ConvergenceError` is raised at once.
* One DOP853 sweep per truncation also sums ``w = int 2u`` from its stage
  values and steps exactly onto the midpoint ``X/2 = ell + (X - ell)/2``,
  where it records u and w.  The start error of
  the X/2 truncation, ``|u(X/2) - u_start(X/2)|``, reaches ell damped by
  ``|exp(w(X/2) - w(ell))|``; divided by ``|cos a + u sin a|^2`` it is the
  gap between the X/2 and X answers.  X - ell doubles only while that gap
  exceeds ``max(1e-10, tol * |m|)``.
* ``error_bound`` is that gap plus an integration term,
  ``_INTEGRATION_ERROR (_ATOL + _RTOL |u(ell)|) / |cos a + u sin a|^2``
  with ``_INTEGRATION_ERROR = 100``.  The contraction
  damps the step errors made far from ell, so the global error is a fixed
  multiple of the per-step allowance; the largest multiple seen against the
  half-integer Bessel closed forms (nu to 19/2, ell in [1/4, 4], both
  half-planes and the negative axis) was 42, an error of 0.42 error_bound.

Stepper
-------
The sweeps use the module's own DOP853 stepper, :func:`_dop853`, with the
coefficients of Hairer and Wanner's dop853.f (Solving ODEs I, II.10) and the
step control of scipy's DOP853.  A sweep of one z runs in x with a Python
scalar state, a loop over the tableau per stage.  For a sampled potential
it also stops on every spline knot between X and ell, so no step crosses a
jump of the third derivative of q (of the first, at the last knot), which
the error estimate does not see.  The error norm reads u only, never w.

Stacked sweep
-------------
:func:`m_infinity_batch` solves many z in one stepper call.  Column j
integrates u_j in ``s = (x - ell) / (X_j - ell)`` from 1 to 0, so it keeps
its own truncation X_j, midpoint s = 1/2, gap test and ``error_bound``
exactly as above, and only the columns whose gap fails are doubled and
swept again.  The stages are (12, N) arrays, and the error norm of a step
is the largest of the columns' own norms at ``_RTOL`` and ``_ATOL``, so each
column has exactly the local error control of a sweep of its own.  One
column keeps the scalar sweep in x; a sampled potential sweeps its columns
one at a time, since its knots fall at a different s in each.  A z whose
evaluation fails keeps its own error, raised when its entry is read; if a
stacked sweep fails, its columns are solved again one by one, so each error
names its z.  The steps of a stacked sweep are shared, so a z's last digits
can differ between batches, always within its ``error_bound``.

``tol`` on :class:`MFunctionEvaluator` is the only solver option; the ODE
tolerances, the largest X and the number of samples behind a real-axis
limit are the fixed constants below.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from collections.abc import Callable, Sequence

import numpy as np

from .errors import (ConvergenceError, DomainError, ExtrapolationError,
                     PoleError, StiffnessError, WeylsysError)
from .potentials import Potential

__all__ = [
    "MFunctionEvaluator", "MEvaluation",
    "sqrt_upper", "half_integer_bessel_m", "bessel_m_closed_form",
    "bessel_neg_m_alpha_closed_form", "bessel_w_closed_form", "check_alpha",
    "m_infinity", "m_infinity_info", "MBatch", "m_infinity_batch",
    "m_alpha", "m_alpha_info", "rotate_evaluation", "m_alpha_direct",
    "m_infinity_limit_at_zero", "m_infinity_limit_at_minus_infinity",
    "MINUS_ZERO_LADDER", "MINUS_INFINITY_LADDER", "limit_at_minus_zero",
    "limit_at_minus_infinity", "safe_div", "NAMED_GRIDS",
]

def sqrt_upper(z: complex) -> complex:
    """Square root with the branch cut along [0, inf), arg(z) in [0, 2*pi).

    Maps the upper half-plane into itself and sends ``-s`` to ``i*sqrt(s)``
    for ``s > 0``; real nonnegative arguments keep their usual root.
    """
    w = cmath.sqrt(z)
    return -w if w.imag < 0 else w


def half_integer_bessel_m(nu: float, ell: float, z: complex) -> complex:
    """m_inf(z) for q = (nu^2 - 1/4)/x^2 on [ell, inf), nu = n + 1/2, n = 0, 1, ...

    psi = sqrt(x) K_nu(k x) with k = sqrt(-z), Re k > 0, so m = n/ell + k r
    with r = K_{nu-1}(t)/K_nu(t) = p_{n-1}(t)/p_n(t) at t = k ell, p_n the
    polynomial factor of K_{n+1/2}: e^-t cancels, so nothing underflows.
    r comes from K_{nu+1} = K_{nu-1} + (2 nu/t) K_nu and K_{-1/2} = K_{1/2};
    each step adds two terms with Re >= 0.  n = 0 is q = 0: m = k for any ell.
    """
    n = round(nu - 0.5)
    if n < 0 or abs(nu - 0.5 - n) > 1e-12:
        raise DomainError(f"the closed form needs nu - 1/2 a non-negative integer, got {nu}")
    k = -1j * sqrt_upper(z)
    ratio = 1.0
    for j in range(n):
        ratio = 1.0 / (ratio + (2 * j + 1) / (k * ell))
    return k * ratio + (n / ell if n else 0.0)


def bessel_m_closed_form(z: complex) -> complex:
    """m_inf(z) = 1 - i z / (sqrt(z) + i) for the Bessel potential nu=3/2, ell=1."""
    return half_integer_bessel_m(1.5, 1.0, z)


def bessel_neg_m_alpha_closed_form(alpha: float, z: complex) -> complex:
    """Explicit -m_alpha(z) for the Bessel 3/2 example.

    -m_alpha = ((sqrt(z)-iz+i) cos(a) + (sqrt(z)+i) sin(a))
             / ((sqrt(z)-iz+i) sin(a) - (sqrt(z)+i) cos(a)).
    """
    w = sqrt_upper(z)
    p = w - 1j * z + 1j          # = m_inf * (sqrt(z) + i)
    r = w + 1j
    sa, ca = _alpha_data(alpha)
    return safe_div(p * ca + r * sa, p * sa - r * ca, z=z,
                    what="closed-form -m_alpha")


def bessel_w_closed_form(z: complex) -> complex:
    """Transfer function of the mu = inf, h = i system in the Bessel example.

    W(z) = ((1-i) sqrt(z) - iz + 1+i) / ((1+i) sqrt(z) - iz - 1+i).
    """
    w = sqrt_upper(z)
    num = (1 - 1j) * w - 1j * z + 1 + 1j
    den = (1 + 1j) * w - 1j * z - 1 + 1j
    return safe_div(num, den, z=z, what="closed-form transfer function")


def safe_div(num: complex, den: complex, z: complex | None = None,
             what: str = "expression") -> complex:
    """Division that raises :class:`PoleError` near vanishing denominators.

    The threshold is ``1e-13 * max(1, |num|)`` (relative to the numerator
    scale) so huge finite values are never fabricated next to a pole.
    """
    if abs(den) < 1e-13 * max(1.0, abs(num)):
        loc = f" at z = {z}" if z is not None else ""
        raise PoleError(f"denominator of {what} vanishes{loc}", z=z)
    return num / den


def _alpha_data(alpha: float) -> tuple[float, float]:
    """(sin(alpha), cos(alpha)) with exact values at the pi/2 and pi corners."""
    if alpha == math.pi:
        return 0.0, -1.0
    if alpha == math.pi / 2:
        return 1.0, 0.0
    return math.sin(alpha), math.cos(alpha)


def check_alpha(alpha: float) -> None:
    """Raise DomainError unless the boundary angle alpha lies in (0, pi]."""
    if not (0.0 < alpha <= math.pi + 1e-12):
        raise DomainError(f"alpha must lie in (0, pi], got {alpha}")


# ---------------------------------------------------------------------------
# solver constants
# ---------------------------------------------------------------------------

_RTOL = 1e-10                 # DOP853 relative tolerance of a Riccati sweep
_ATOL = 1e-12                 # DOP853 absolute tolerance of a Riccati sweep
_X_MAX_FACTOR = 2.0 ** 20     # truncation X stops at this times max(ell, 1)
_EXTRAPOLATION_POINTS = 8     # K samples -10**(-k) / -10**k of a real-axis limit
_PLATEAU_TOL = 1e-10          # relative plateau of an extrapolated sequence
_DIVERGENCE_GUARD = 1e12      # a limit sample beyond this reads as divergent
_INTEGRATION_ERROR = 100.0    # global DOP853 error of a sweep, in _RTOL |u(ell)| + _ATOL


def _check_tol(tol: float) -> None:
    if not tol > 0:
        raise DomainError(f"tol must be positive, got {tol}")


# ---------------------------------------------------------------------------
# DOP853 stepper
# ---------------------------------------------------------------------------

# Dormand and Prince's explicit order-8 pair with its order-5 and order-3
# error estimators (Hairer, Norsett and Wanner, Solving ODEs I, II.10; the
# coefficients of their code dop853.f, to 30 digits), with the step control
# of scipy's DOP853.  _ROWS holds (c, nonzero (j, a_j)) of stages 1-11;
# stage 0 has c = 0.  _B holds the order-8 weights, _E5 the order-5 error
# weights, and the order-3 error weights are _B less _BHH at stages 0, 8
# and 11.  Stages 1-4 carry no weight, and neither estimator reads the
# stage after the step, so _FINAL lists (j, b, order-5 weight, order-3
# weight) of the stages that carry one.
_STAGES = 12
_ROWS = [
    (0.526001519587677318785587544488e-01, [(0, 5.26001519587677318785587544488e-2)]),
    (0.789002279381515978178381316732e-01, [(0, 1.97250569845378994544595329183e-2),
                                            (1, 5.91751709536136983633785987549e-2)]),
    (0.118350341907227396726757197510, [(0, 2.95875854768068491816892993775e-2),
                                        (2, 8.87627564304205475450678981324e-2)]),
    (0.281649658092772603273242802490, [(0, 2.41365134159266685502369798665e-1),
                                        (2, -8.84549479328286085344864962717e-1),
                                        (3, 9.24834003261792003115737966543e-1)]),
    (0.333333333333333333333333333333, [(0, 3.7037037037037037037037037037e-2),
                                        (3, 1.70828608729473871279604482173e-1),
                                        (4, 1.25467687566822425016691814123e-1)]),
    (0.25, [(0, 3.7109375e-2),
            (3, 1.70252211019544039314978060272e-1),
            (4, 6.02165389804559606850219397283e-2),
            (5, -1.7578125e-2)]),
    (0.307692307692307692307692307692, [(0, 3.70920001185047927108779319836e-2),
                                        (3, 1.70383925712239993810214054705e-1),
                                        (4, 1.07262030446373284651809199168e-1),
                                        (5, -1.53194377486244017527936158236e-2),
                                        (6, 8.27378916381402288758473766002e-3)]),
    (0.651282051282051282051282051282, [(0, 6.24110958716075717114429577812e-1),
                                        (3, -3.36089262944694129406857109825),
                                        (4, -8.68219346841726006818189891453e-1),
                                        (5, 2.75920996994467083049415600797e1),
                                        (6, 2.01540675504778934086186788979e1),
                                        (7, -4.34898841810699588477366255144e1)]),
    (0.6, [(0, 4.77662536438264365890433908527e-1),
           (3, -2.48811461997166764192642586468),
           (4, -5.90290826836842996371446475743e-1),
           (5, 2.12300514481811942347288949897e1),
           (6, 1.52792336328824235832596922938e1),
           (7, -3.32882109689848629194453265587e1),
           (8, -2.03312017085086261358222928593e-2)]),
    (0.857142857142857142857142857142, [(0, -9.3714243008598732571704021658e-1),
                                        (3, 5.18637242884406370830023853209),
                                        (4, 1.09143734899672957818500254654),
                                        (5, -8.14978701074692612513997267357),
                                        (6, -1.85200656599969598641566180701e1),
                                        (7, 2.27394870993505042818970056734e1),
                                        (8, 2.49360555267965238987089396762),
                                        (9, -3.0467644718982195003823669022)]),
    (1.0, [(0, 2.27331014751653820792359768449),
           (3, -1.05344954667372501984066689879e1),
           (4, -2.00087205822486249909675718444),
           (5, -1.79589318631187989172765950534e1),
           (6, 2.79488845294199600508499808837e1),
           (7, -2.85899827713502369474065508674),
           (8, -8.87285693353062954433549289258),
           (9, 1.23605671757943030647266201528e1),
           (10, 6.43392746015763530355970484046e-1)]),
]
_B = np.array([5.42937341165687622380535766363e-2, 0.0, 0.0, 0.0, 0.0,
               4.45031289275240888144113950566, 1.89151789931450038304281599044,
               -5.8012039600105847814672114227, 3.1116436695781989440891606237e-1,
               -1.52160949662516078556178806805e-1, 2.01365400804030348374776537501e-1,
               4.47106157277725905176885569043e-2])
_E5 = np.array([0.1312004499419488073250102996e-1, 0.0, 0.0, 0.0, 0.0,
                -0.1225156446376204440720569753e+1, -0.4957589496572501915214079952,
                0.1664377182454986536961530415e+1, -0.3503288487499736816886487290,
                0.3341791187130174790297318841, 0.8192320648511571246570742613e-1,
                -0.2235530786388629525884427845e-1])
_BHH = {0: 0.244094488188976377952755905512, 8: 0.733846688281611857341361741547,
        11: 0.220588235294117647058823529412e-1}
_E3 = _B - np.array([_BHH.get(j, 0.0) for j in range(_STAGES)])
_FINAL = [(j, b, e5, e3) for j, (b, e5, e3)
          in enumerate(zip(_B.tolist(), _E5.tolist(), _E3.tolist())) if b or e5 or e3]
# the dense stage coefficients of the stacked step, :func:`_array_step`
_C = np.array([0.0] + [c for c, _ in _ROWS])
_A = np.array([[dict(row).get(j, 0.0) for j in range(_STAGES)]
               for _, row in [(0.0, [])] + _ROWS])
_TINY = np.finfo(float).tiny
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_EXPONENT = -1.0 / 8.0          # -1 / (order of the error estimator + 1)
_TOO_SMALL_STEP = "Required step size is less than spacing between numbers."


@dataclass(frozen=True)
class _Solution:
    """The state ``y`` and ``integral = int_t0^t y dt`` at each stop; ``nfev`` RHS calls."""

    y: list
    integral: list
    nfev: int


def _scalar_step(rhs, t, y, f, h, rtol, atol):
    """One DOP853 step of a Python-scalar state: (y(t + h), int y dt, error norm).

    Each stage is a Python loop over the nonzero tableau entries; the
    integral weighs the stage values with b, as a component ``w' = y``
    would, and stays out of the error norm.
    """
    k = [f]
    stage = [y]
    for c, row in _ROWS:
        acc = 0.0
        for j, a in row:
            acc += a * k[j]
        ys = y + h * acc
        stage.append(ys)
        k.append(rhs(t + c * h, ys))
    slope = mean = err5 = err3 = 0.0
    for j, b, e5, e3 in _FINAL:
        kj = k[j]
        slope += b * kj
        mean += b * stage[j]
        err5 += e5 * kj
        err3 += e3 * kj
    y_new = y + h * slope
    integral = h * mean
    try:
        scale = atol + rtol * max(abs(y), abs(y_new))
        n5 = abs(err5) / scale
        n3 = abs(err3) / scale
    except OverflowError:       # the modulus of a complex state beyond the float range
        return y_new, integral, math.inf
    n5 *= n5
    n3 *= n3
    if n5 == 0.0 and n3 == 0.0:
        return y_new, integral, 0.0
    return y_new, integral, abs(h) * n5 / math.sqrt(n5 + 0.01 * n3)


def _array_step(rhs, t, y, f, h, rtol, atol):
    """:func:`_scalar_step` for an array of independent columns.

    The stages are the rows of a (12, N) array, each formed by one
    ``row @ K`` product.  The error norm is the largest of the columns'
    own norms, so each column gets the step control of a sweep of its own.
    """
    k = np.empty((_STAGES,) + f.shape, dtype=np.result_type(y, f))
    stage = np.empty_like(k)
    k[0] = f
    stage[0] = y
    for s in range(1, _STAGES):
        stage[s] = y + h * (_A[s, :s] @ k[:s])
        k[s] = rhs(t + _C[s] * h, stage[s])
    y_new = y + h * (_B @ k)
    scale = atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
    n5 = np.abs(_E5 @ k) / scale
    n3 = np.abs(_E3 @ k) / scale
    n5 *= n5
    n3 *= n3
    # a column with n5 = n3 = 0 has norm 0; a NaN column stays NaN and fails the step
    norms = n5 / np.sqrt(np.maximum(n5 + 0.01 * n3, _TINY))
    return y_new, h * (_B @ stage), abs(h) * float(norms.max())


def _initial_step(rhs, t0, y0, f0, span, direction, rtol, atol) -> float:
    """scipy's first DOP853 step from (t0, y0), the smallest over the columns."""
    y0a, f0a = np.atleast_1d(y0), np.atleast_1d(f0)
    scale = atol + rtol * np.abs(y0a)
    d0 = (np.abs(y0a) / scale).tolist()
    d1 = (np.abs(f0a) / scale).tolist()
    h0 = min(span, min(1e-6 if a < 1e-5 or b < 1e-5 else 0.01 * a / b
                       for a, b in zip(d0, d1)))
    f1 = rhs(t0 + direction * h0, y0 + direction * h0 * f0)
    d2 = (np.abs(np.atleast_1d(f1) - f0a) / scale / h0).tolist()
    h1 = min(max(1e-6, 1e-3 * h0) if b <= 1e-15 and c <= 1e-15
             else (0.01 / max(b, c)) ** (-_EXPONENT) for b, c in zip(d1, d2))
    return min(100.0 * h0, h1, span)


def _dop853(rhs, t0: float, y0, stops: Sequence[float], rtol: float,
            atol: float) -> _Solution:
    """Integrate ``y' = rhs(t, y)`` from t0 through the monotone ``stops``.

    The steps land exactly on each stop.  A Python scalar y0 takes
    :func:`_scalar_step`, an array of columns :func:`_array_step`.  The
    step control is scipy's DOP853: safety 0.9, step factors within
    [0.2, 10] with exponent -1/8, and its first-step rule.  A step cut short
    to land on a stop does not shrink the step planned after it.  A step
    size below ten spacings of the floats at t raises
    :class:`StiffnessError`.
    """
    step = _array_step if isinstance(y0, np.ndarray) else _scalar_step
    direction = math.copysign(1.0, stops[-1] - t0)
    f = rhs(t0, y0)
    h_abs = _initial_step(rhs, t0, y0, f, abs(stops[-1] - t0), direction, rtol, atol)
    nfev = 2
    t, y, integral = t0, y0, 0.0
    ys, integrals = [], []
    for stop in stops:
        while t != stop:
            min_step = 10.0 * abs(math.nextafter(t, direction * math.inf) - t)
            h_abs = max(h_abs, min_step)
            rejected = False
            while True:
                if h_abs < min_step:
                    raise StiffnessError(_TOO_SMALL_STEP)
                t_new = t + direction * h_abs
                clipped = direction * (t_new - stop) > 0
                if clipped:
                    t_new = stop
                h = t_new - t
                y_new, step_integral, err = step(rhs, t, y, f, h, rtol, atol)
                nfev += _STAGES - 1
                if err < 1.0:
                    break
                h_abs = abs(h) * max(_MIN_FACTOR, _SAFETY * err ** _EXPONENT)
                rejected = True
            factor = (_MAX_FACTOR if err == 0.0
                      else min(_MAX_FACTOR, _SAFETY * err ** _EXPONENT))
            if rejected:
                factor = min(1.0, factor)
            h_abs = max(h_abs, abs(h) * factor) if clipped else abs(h) * factor
            t, y = t_new, y_new
            integral = integral + step_integral     # not +=: the stops keep their arrays
            f = rhs(t, y)
            nfev += 1
        ys.append(y)
        integrals.append(integral)
    return _Solution(ys, integrals, nfev)


# perfbench/spans.py times each sweep and sums its ``nfev`` under this name
solve_ivp = _dop853


# ---------------------------------------------------------------------------
# backward Riccati path (every z off [0, inf))
# ---------------------------------------------------------------------------

def _check_contraction(potential: Potential, z: complex, dist: float,
                       x_max: float, target: float) -> None:
    """Raise ConvergenceError unless the backward flow can contract by e^-target.

    The WKB exponent ``2 int_ell^x_max Re sqrt(q - z) dx`` is summed by the
    trapezoid rule over ell and the ladder ``ell + dist 2^j``, j >= -10,
    which holds every planned truncation X: one potential call per rung.
    """
    ell = potential.ell
    xs = [ell]
    dist /= 1024.0
    while ell + dist <= x_max:
        xs.append(ell + dist)
        dist *= 2.0
    rates = [cmath.sqrt(potential(x) - z).real for x in xs]
    exponent = sum((b - a) * (ra + rb)
                   for a, b, ra, rb in zip(xs, xs[1:], rates, rates[1:]))
    if exponent < target:
        raise ConvergenceError(
            f"the backward Riccati flow contracts by only e^-{exponent:.3g} "
            f"up to X_max = {x_max:g} at z = {z}; limit-circle behavior, or z "
            "too close to [0, inf)")


def _first_distance(potential: Potential, z: complex, tol: float,
                    x_max: float) -> float:
    """X - ell of the first truncation at z (module docstring).

    On the real axis the distance doubles while q(X) - z <= 0 there; off it
    the WKB contraction check runs, before any solve.
    """
    ell = potential.ell
    # X - ell contracts a start error by tol (module docstring); so close to
    # ell a well of q may dip below z, and only the tail may raise DomainError
    target = math.log(1.0 / tol)
    dist = target / (2.0 * max(sqrt_upper(z).imag, 1e-3))
    if z.imag == 0.0:
        while potential(ell + dist) - z.real <= 0 and ell + 2.0 * dist <= x_max:
            dist *= 2.0
    else:
        _check_contraction(potential, z, dist, x_max, target)
    return dist


def _sweep(potential: Potential, zq: list, tops: list[float],
           starts: list) -> tuple[list, list]:
    """One DOP853 sweep of ``u' = q - z - u^2`` per column, with ``w = int 2u``.

    Column j runs from ``u = starts[j]``, ``w = 0`` at ``tops[j]`` down to
    ell.  Returns (u, w), each a list of (midpoint value, ell value) pairs,
    one per column, with the midpoint ``ell + (X - ell)/2``.  One column runs
    in x with a scalar right-hand side, and also stops on every knot of a
    sampled potential, so no step crosses a jump of a derivative of q.
    Several run in ``s = (x - ell)/(X_j - ell)`` from 1 to 0 with a numpy
    right-hand side.
    """
    ell = potential.ell
    if len(zq) == 1:
        z, top = zq[0], tops[0]
        mid = ell + 0.5 * (top - ell)
        knots = [] if potential.grid is None else [x for x in potential.grid.tolist()
                                                   if ell < x < top]
        stops = sorted({mid, ell, *knots}, reverse=True)
        sol = _dop853(lambda x, u: potential(x) - z - u * u, top, starts[0], stops,
                      _RTOL, _ATOL)
        i = stops.index(mid)
        return ([(sol.y[i], sol.y[-1])],
                [(2.0 * sol.integral[i], 2.0 * sol.integral[-1])])
    d = np.array(tops) - ell
    zs = np.array(zq)
    sol = _dop853(lambda s, u: d * (potential(ell + s * d) - zs - u * u), 1.0,
                  np.array(starts), [0.5, 0.0], _RTOL, _ATOL)
    return (list(zip(*sol.y)), list(zip(*(2.0 * d * w for w in sol.integral))))


def _riccati_batch(potential: Potential, alpha: float, zs: list[complex],
                   tol: float) -> list:
    """(m_alpha(z), truncation X, error bound), or z's error, for distinct zs off [0, inf).

    Every truncation round sweeps the columns still open in one
    :func:`_sweep`; a column whose gap fails doubles its X - ell and joins
    the next round.  If a stacked sweep fails, each of its columns is solved
    again on its own, so an error names its z.  The knots of a sampled
    potential fall at a different s in each column, so its columns are
    swept one at a time.
    """
    if potential.grid is not None and len(zs) > 1:
        return [_riccati_batch(potential, alpha, [z], tol)[0] for z in zs]
    ell = potential.ell
    x_max = _X_MAX_FACTOR * max(ell, 1.0)
    sa, ca = _alpha_data(alpha)
    real = [z.imag == 0.0 for z in zs]
    zq = [z.real if r else z for z, r in zip(zs, real)]
    out: list = [None] * len(zs)
    dist: dict[int, float] = {}
    for j, z in enumerate(zs):
        try:
            dist[j] = _first_distance(potential, z, tol, x_max)
        except WeylsysError as exc:
            out[j] = exc
    top = {j: min(ell + d, x_max) for j, d in dist.items()}

    def settle(j, result):
        out[j] = result
        del dist[j]

    while dist:
        cols, starts = [], []
        for j in list(dist):
            s = potential(top[j]) - zq[j]
            if real[j] and s <= 0:
                settle(j, DomainError(
                    f"q(X) - z = {s:g} <= 0 at X = {top[j]:g}; the real-axis path "
                    "requires z strictly below the potential tail "
                    "(nonnegative-operator regime)"))
                continue
            u_start = -cmath.sqrt(s)
            cols.append(j)
            starts.append(u_start.real if real[j] else u_start)
        if not cols:
            break
        try:
            us, ws = _sweep(potential, [zq[j] for j in cols], [top[j] for j in cols], starts)
        except WeylsysError as exc:
            for j in cols:
                settle(j, exc if len(cols) == 1
                       else _riccati_batch(potential, alpha, [zs[j]], tol)[0])
            continue
        for j, (u_half, u), (w_half, w) in zip(cols, us, ws):
            if real[j]:
                u_half, u = u_half.real, u.real
            try:
                m = complex(safe_div(sa - u * ca, ca + u * sa, z=zq[j], what="m_alpha"))
            except PoleError as exc:
                settle(j, exc)
                continue
            den2 = abs(ca + u * sa) ** 2
            # the X/2 truncation's start error, carried to ell by the flow
            x_half = ell + 0.5 * (top[j] - ell)
            damping = math.exp(min((w_half - w).real, 700.0))
            gap = abs(u_half + cmath.sqrt(potential(x_half) - zq[j])) * damping / den2
            if gap <= max(1e-10, tol * abs(m)):
                step_error = _INTEGRATION_ERROR * (_ATOL + _RTOL * abs(u)) / den2
                settle(j, (m, top[j], float(gap + step_error)))
                continue
            dist[j] *= 2.0
            top[j] = ell + dist[j]
            if top[j] > x_max:
                settle(j, ConvergenceError(
                    f"Riccati truncation exceeded X_max = {x_max:g} "
                    f"without the value settling (z = {zq[j]})"))
    return out


# ---------------------------------------------------------------------------
# evaluator
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MEvaluation:
    """A single m-function value plus the diagnostics of its computation.

    ``value`` is a Python complex and ``error_bound`` a Python float: the
    gap of the X/2 truncation plus the integration term (module docstring)
    on the numeric path, and 0 for closed forms.  ``path`` names the
    half-plane for the same sweep: ``"weyl-disk"`` off the real axis (the
    name of the integrator it replaced, which the benchmark's spans key
    on), ``"riccati"`` on the negative axis, or ``"closed-form"``.
    """

    value: complex
    truncation_X: float
    error_bound: float
    path: str


@dataclass(frozen=True)
class MFunctionEvaluator:
    """Immutable evaluator of m_inf(z) for one potential.

    ``mode`` is ``"numeric"`` or ``"closed_form"``; the closed form,
    :func:`half_integer_bessel_m`, exists for a Bessel potential with
    half-integer nu (any ell > 0) and for the free potential.  ``tol`` is the
    truncation tolerance of the numeric path: it sizes the first X, and
    the gap of the X/2 truncation must fall to ``max(1e-10, tol * |m|)``.
    All operations are pure, so concurrent use from several threads is safe.
    """

    potential: Potential
    mode: str = "numeric"
    tol: float = 1e-8

    def __post_init__(self):
        _check_tol(self.tol)
        if self.mode not in ("numeric", "closed_form"):
            raise DomainError(f"unknown evaluator mode {self.mode!r}")
        if self.mode == "closed_form" and not self.has_closed_form(self.potential):
            raise DomainError("closed_form mode needs the free potential or a bessel "
                              "potential with nu - 1/2 a non-negative integer, got "
                              f"{self.potential.label or self.potential.kind}")

    @staticmethod
    def has_closed_form(potential: Potential) -> bool:
        if potential.kind == "bessel":
            return abs(potential.nu - 0.5 - round(potential.nu - 0.5)) <= 1e-12
        return potential.kind == "expression" and potential.label == "free"


def _check_spectral_point(z: complex) -> complex:
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise DomainError(f"non-finite spectral point {z}")
    if z.imag == 0.0 and z.real >= 0.0:
        raise DomainError(f"z = {z} lies on [0, inf); m is not defined there")
    return z


class MBatch(Sequence):
    """The evaluations of :func:`m_infinity_batch`, in the order of its points.

    Indexing, iteration and :meth:`at` give an :class:`MEvaluation`.  The
    entry of a point whose evaluation failed raises that point's own error
    (``DomainError``, ``ConvergenceError``, ...) when it is read, and only
    then, so one bad point does not take the others down.
    """

    def __init__(self, points: Sequence[complex], outcomes: Sequence):
        self.points = tuple(points)
        self._outcomes = tuple(outcomes)
        self._index = {z: i for i, z in enumerate(self.points)}

    def __len__(self) -> int:
        return len(self._outcomes)

    def __getitem__(self, i: int) -> MEvaluation:
        out = self._outcomes[i]
        if isinstance(out, WeylsysError):
            raise out
        return out

    def at(self, z: complex) -> MEvaluation:
        """The evaluation at the point z, which must be one of ``points``."""
        return self[self._index[complex(z)]]


def m_infinity_batch(evaluator: MFunctionEvaluator, zs: Sequence[complex]) -> MBatch:
    """m_inf at every point of zs, the distinct numeric ones in one stacked sweep.

    Each distinct z is one column of the sweep, with its own truncation X,
    gap test and ``error_bound`` (module docstring); only the columns whose
    gap fails are doubled and swept again.  A z's last digits can differ
    from those of another batch, always within its ``error_bound``.  A
    batch of one point is exactly :func:`m_infinity_info`.
    """
    points = [complex(z) for z in zs]
    outcomes: list = [None] * len(points)
    columns: dict[complex, list[int]] = {}
    pot = evaluator.potential
    nu = 0.5 if pot.nu is None else pot.nu      # the free potential is nu = 1/2
    for i, z in enumerate(points):
        try:
            _check_spectral_point(z)
        except DomainError as exc:
            outcomes[i] = exc
            continue
        if evaluator.mode == "closed_form":
            outcomes[i] = MEvaluation(half_integer_bessel_m(nu, pot.ell, z), math.inf, 0.0,
                                      "closed-form")
        else:
            columns.setdefault(z, []).append(i)
    distinct = list(columns)
    solved = _riccati_batch(evaluator.potential, math.pi, distinct, evaluator.tol)
    for z, out in zip(distinct, solved):
        if not isinstance(out, WeylsysError):
            out = MEvaluation(*out, "weyl-disk" if z.imag != 0.0 else "riccati")
        for i in columns[z]:
            outcomes[i] = out
    return MBatch(points, outcomes)


def m_infinity_info(evaluator: MFunctionEvaluator, z: complex) -> MEvaluation:
    """m_inf(z) together with truncation point and error bound."""
    return m_infinity_batch(evaluator, (z,))[0]


def m_infinity(evaluator: MFunctionEvaluator, z: complex) -> complex:
    """The Weyl-Titchmarsh function m_inf(z)."""
    return m_infinity_info(evaluator, z).value


def rotate_evaluation(info: MEvaluation, alpha: float, z: complex) -> MEvaluation:
    """The m_alpha(z) evaluation from the m_inf(z) one; see :func:`m_alpha_info`."""
    if alpha == math.pi:
        return info
    sa, ca = _alpha_data(alpha)
    den = ca - info.value * sa
    value = safe_div(sa + info.value * ca, den, z=complex(z), what="m_alpha")
    return replace(info, value=value, error_bound=info.error_bound / abs(den) ** 2)


def m_alpha_info(evaluator: MFunctionEvaluator, alpha: float,
                 z: complex) -> MEvaluation:
    """m_alpha(z) = (sin a + m cos a) / (cos a - m sin a) with m = m_inf(z).

    The rotation has derivative ``1/(cos a - m sin a)^2`` in m, so the
    bound of m_inf(z) is propagated as ``error_bound / |cos a - m sin a|^2``.
    ``alpha = pi`` returns the m_inf(z) evaluation unchanged, and
    ``alpha = pi/2`` reduces to ``-1/m_inf(z)`` exactly.
    """
    check_alpha(alpha)
    return rotate_evaluation(m_infinity_info(evaluator, z), alpha, z)


def m_alpha(evaluator: MFunctionEvaluator, alpha: float, z: complex) -> complex:
    """m_alpha(z); see :func:`m_alpha_info` for the transform."""
    return m_alpha_info(evaluator, alpha, z).value


def m_alpha_direct(potential: Potential, alpha: float, z: complex,
                   tol: float = 1e-8) -> complex:
    """m_alpha(z) from the rotated boundary data, bypassing the transform.

    Applies the boundary data of alpha at ell to the same backward Riccati
    sweep as :func:`m_infinity_info`, with the truncation tolerance ``tol``
    of :class:`MFunctionEvaluator`; agrees with :func:`m_alpha` within the
    combined error bounds.
    """
    _check_tol(tol)
    check_alpha(alpha)
    z = _check_spectral_point(z)
    out = _riccati_batch(potential, alpha, [z], tol)[0]
    if isinstance(out, WeylsysError):
        raise out
    return out[0]


# ---------------------------------------------------------------------------
# real-axis limits
# ---------------------------------------------------------------------------

def _aitken_sweep(seq: list[float]) -> list[float]:
    out = []
    for a, b, c in zip(seq, seq[1:], seq[2:]):
        d2 = c - 2.0 * b + a
        if abs(d2) < 1e-14 * max(abs(a), abs(b), abs(c), 1e-300):
            out.append(c)
        else:
            out.append(c - (c - b) ** 2 / d2)
    return out


def _extrapolate(vals: list[float]) -> float:
    scale = max(1.0, max(abs(v) for v in vals))
    slack = max(1e-12 * scale, _PLATEAU_TOL * scale)
    diffs = [b - a for a, b in zip(vals, vals[1:])]
    rising = any(d > slack for d in diffs)
    falling = any(d < -slack for d in diffs)
    if rising and falling:
        raise ExtrapolationError(
            "sampled sequence is not monotone; the limit-point/limit-circle "
            f"assumption may fail (samples: {vals})")
    # divergence: overflow guard, or persistently non-contracting increments
    if abs(vals[-1]) > _DIVERGENCE_GUARD:
        return math.copysign(math.inf, vals[-1])
    ratios = [abs(b) / abs(a) for a, b in zip(diffs, diffs[1:])
              if abs(a) > slack and abs(b) > slack]
    if len(ratios) >= 3 and sorted(ratios[-3:])[1] >= 0.95:
        return math.inf if rising else -math.inf
    if abs(diffs[-1]) <= slack:
        return vals[-1]
    seq = list(vals)
    best = seq[-1]
    while len(seq) >= 3:
        seq = _aitken_sweep(seq)
        if abs(seq[-1] - best) <= _PLATEAU_TOL * max(1.0, abs(seq[-1])):
            return seq[-1]
        best = seq[-1]
    return best


def _sample_real(f: Callable[[float], complex], x: float) -> float:
    v = complex(f(x))
    if abs(v.imag) > 1e-8 * max(1.0, abs(v.real)):
        raise ExtrapolationError(
            f"limit samples must be real; got {v} at x = {x}")
    return v.real


#: The points at which the real-axis limits sample f: x_k = -10**(-k)
#: toward -0 and x_k = -10**k toward -inf, k = 1..8.
MINUS_ZERO_LADDER = tuple(-10.0 ** (-k) for k in range(1, _EXTRAPOLATION_POINTS + 1))
MINUS_INFINITY_LADDER = tuple(-10.0 ** k for k in range(1, _EXTRAPOLATION_POINTS + 1))


def limit_at_minus_zero(f: Callable[[float], complex]) -> float:
    """Extrapolated limit of f(x) as x -> -0 along :data:`MINUS_ZERO_LADDER`."""
    return _extrapolate([_sample_real(f, x) for x in MINUS_ZERO_LADDER])


def limit_at_minus_infinity(f: Callable[[float], complex]) -> float:
    """Extrapolated limit of f(x) as x -> -inf along :data:`MINUS_INFINITY_LADDER`."""
    return _extrapolate([_sample_real(f, x) for x in MINUS_INFINITY_LADDER])


def m_infinity_limit_at_zero(evaluator: MFunctionEvaluator) -> float:
    """m_inf(-0), the boundary value controlling accretivity thresholds."""
    return limit_at_minus_zero(lambda x: m_infinity(evaluator, x))


def m_infinity_limit_at_minus_infinity(evaluator: MFunctionEvaluator) -> float:
    """Limit of m_inf(x) as x -> -inf (+inf for the operators treated here)."""
    return limit_at_minus_infinity(lambda x: m_infinity(evaluator, x))


# ---------------------------------------------------------------------------
# named evaluation grids
# ---------------------------------------------------------------------------

def _tensor_grid(res, ims) -> tuple[complex, ...]:
    return tuple(complex(re, im) for re in res for im in ims)


_ACCEPTANCE_COMPLEX = (_tensor_grid((-2.0, -1.0, 0.0, 1.0, 2.0), (0.5, 1.0, 2.0))
                       + _tensor_grid((-1.0, 1.0), (-0.5, -1.0)))
_ACCEPTANCE_NEGATIVE = tuple(
    complex(x) for x in (-1e-3, -1e-2, -0.1, -1.0, -10.0, -100.0))

#: The grids the CLI's ``--grid`` flag accepts by name.  ``default`` is the
#: acceptance grid: 19 complex points, four of them below the real axis, and
#: 6 negative reals.  ``classify-default`` is the grid of the Herglotz,
#: Stieltjes and example-suite checks: an 11 x 7 tensor grid with Re z in
#: [-5, 5] and Im z log-spaced in [0.1, 10], then 25 log-spaced reals
#: ascending from -1e6 to -1e-6.
NAMED_GRIDS: dict[str, tuple[complex, ...]] = {
    "default": _ACCEPTANCE_COMPLEX + _ACCEPTANCE_NEGATIVE,
    "complex-default": _ACCEPTANCE_COMPLEX,
    "negative-default": _ACCEPTANCE_NEGATIVE,
    "classify-default": (
        _tensor_grid(np.linspace(-5.0, 5.0, 11), np.logspace(-1.0, 1.0, 7))
        + tuple(complex(-x) for x in np.logspace(6.0, -6.0, 25))),
}
