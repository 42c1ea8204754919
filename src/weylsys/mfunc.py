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
has no pole, and it does not oscillate.  The sweep starts at the WKB
(Liouville-Green) series through its third correction,
``u(X) = -k + u1 + u2 + u3`` with ``k = sqrt(q(X) - z)`` (the root that
decays along the path swept, ``Re((X - ell) k) > 0``),
``u1 = -q'/(4 k^2)``, ``u2 = 5 q'^2/(32 k^5) - q''/(8 k^3)``
and ``u3 = (u2' + 2 u1 u2)/(2k)`` (:func:`_wkb_terms`); q', q'' and q''' are
differences over five potential values.  The backward flow attracts the
decaying solution at the rate ``2 Re k``, while forward integration would
be exponentially unstable.  What the start misses is about the next term
u4; the truncation below predicts it by the last term kept, |u3|, which
overestimates it where the terms fall (:func:`_wkb_terms`).

* Truncation.  A start error shrinks like ``exp(-2 kappa (X - ell))`` with
  the decay rate ``kappa = Im sqrt_upper(z)``, which is ``sqrt|z|`` on the
  negative axis.  The contraction distance ``ln(1/tol) / (2 kappa)`` (kappa
  floored at 1e-3) contracts any start error by ``tol``; it is the first
  ``X - ell`` before the WKB prediction below.  On the real axis, while
  ``q(X) - z <= 0`` there (a well of q near ell), the distance doubles.
* Before any solve, the WKB exponent ``2 int_ell^x Re sqrt(q - z) dx`` is
  summed by the trapezoid rule over ell and the ladder ``ell + d 2^j``
  (d the contraction distance, j >= -10) up to the largest X, one
  potential value per rung, one array pass for a stack (Stacked sweep).
  Off the axis, an exponent below ``ln(1/tol)`` means that the flow
  cannot contract enough (limit-circle behavior, or z too close to
  [0, inf)), and :class:`ConvergenceError` is raised at once.
  The gap test below is predicted to pass when the start's |u3| at the
  certified point ``ell + d/2`` of the distance d, damped by the exponent
  over [ell, ell + d/2], is at most ``max(1e-10, tol |sqrt(q(ell) - z)|)``.
  Off the axis, for a potential whose q is analytic on [ell, inf)
  (``Potential.analytic``), the first distance halves while the halved
  truncation's test is predicted to pass, down to the ladder's lowest
  rung: the WKB start is far more accurate than an arbitrary one, and at
  1e4+i this cuts X - ell from 1,842 to 3.6.  A halving step also needs
  the WKB terms to fall at the halved certified point, ``|u3| <= |u2|``:
  where they no longer fall (near a small ell with a large nu) |u3| can
  fall short of the start error.  On the negative axis
  the contraction distance is a few decay lengths, cheap already, and
  stays.  A sampled or general expression potential keeps the contraction
  distance, since a gap measured inside [ell, X] cannot see a kink of q
  beyond X, such as the end of a table.  When no halving is predicted to
  pass, the distance doubles while the test is predicted to fail, at most
  three times, up to the ladder's top rung ``ell + 2 d``; past it only the
  sweep's own gap test doubles X.
* An off-axis z may sweep a complex ray instead (Stacked sweep): each
  off-axis column of a stack, and a lone z near the positive axis.  Its
  contraction distance, ladder, exponent and predictions then take the
  ray's decay rate ``Re(e^(i theta) sqrt(q - z))``, with the root that
  decays along the ray, which is ``|sqrt z|`` far out, and X - ell is the
  path length.  The ray's own exponent, up to the path length
  ``x_max - ell``, decides its ConvergenceError: psi has no zero on the
  ray, so u is carried along it to ell, and the real axis, which the
  column never sweeps, says nothing of whether its flow contracts.  So
  5+1e-9i on bessel(3/2, 1), whose real-axis exponent up to X_max is
  only 2.6e-4, rides its ray.  The ray's prediction often doubles the
  first distance once, near ell, where q slows the decay along the ray.
* Range.  Past ``|z| = 1e26``, the top of the range the sweeps are checked
  over, and within 2048 float spacings of ell, where the lowest
  truncation's certified point may round to ell and leave q' no
  difference step, :class:`DomainError` is raised, naming z, before any solve.  A large m
  is a value, not a pole: ``m_inf = -u(ell)`` divides by nothing.
* On the real axis a start whose terms do not fall, not
  ``|u3| <= |u2| <= sqrt(q(X) - z)``, and are not negligible beside that
  root, at most ``_RTOL`` times it, can lie past the repelling root +k of
  the backward flow, which then runs into a pole.  Such a start is still
  swept, since its gap test decides and many succeed; if the sweep fails
  with the stepper's step-size error, :class:`ConvergenceError` names z and
  the start's terms instead.
* One DOP853 sweep per truncation also sums ``w = int 2u`` from its stage
  values and steps exactly onto the certified point ``c = ell + d/2``,
  where it records u and w.  The start error of the truncation at c,
  ``|u(c) - u_start(c)|`` with the same start formula at c, reaches ell
  damped by ``|exp(w(c) - w(ell))|``; that is the gap between the c and X
  answers, in u's units, since ``m_inf = -u(ell)``.  d, and with it X,
  doubles only while that gap exceeds ``max(1e-10, tol * |m|)``.
* Reference leg.  The leg [c, X] is swept only to give the gap test its
  value at c, and a sweep costs in proportion to its path: the contracting
  mode holds DOP853's step near ``|h 2u| = 0.7``, as for any explicit
  method on a stiff problem (Hairer and Wanner, Solving ODEs II, IV.2).  So
  the first sweep starts at ``X - ell = d / sqrt 2``, with c at ``s = 1 /
  sqrt 2`` of [ell, X], where that shorter leg still contracts the start's
  error tenfold on its own: its WKB exponent ``2 int Re(e sqrt(q - z))``,
  by the trapezoid rule over the leg's two ends, reaches ln 10, and X lies
  outside any well (:func:`_certified_marks`).  Elsewhere, and after any
  doubling, ``X - ell = d`` and c is the midpoint, s = 1/2.  At 1e3+i and
  1e4+i the leg falls short and X keeps its length; from the short X,
  1e4+i would fail its first gap test and sweep twice.  On 800 points of
  the points benchmark (seeds 1 and 2, batches 0 and 1) the short leg cut
  the RHS calls from 344,551 to 267,430, the largest error over its
  ``error_bound`` staying 0.013.
* ``error_bound`` is that gap plus an integration term,
  ``_INTEGRATION_ERROR (_ATOL + _RTOL |u(ell)|)`` with
  ``_INTEGRATION_ERROR = 300``; every m_alpha is the rotation of m_inf,
  its bound propagated through it (:func:`m_alpha_info`).  The contraction
  damps the step errors made far from ell, so the global error is a fixed
  multiple of the per-step allowance; the largest multiple seen against the
  half-integer Bessel closed forms (nu to 19/2, ell in [1/4, 4], both
  half-planes and the negative axis) was 98, at nu = 7/2, ell = 1.125 and
  z = -0.05, where the error estimate of the steps next to ell falls short.
  The rays keep the same bound: on 87 stacks of 136 z against scipy's
  Hankel functions (nu in (0.05, 10), ell in (0.05, 4), both half-planes
  with |Im z| down to 1e-2, |z| up to 1e4, a fifth on the negative axis)
  no error passed its ``error_bound`` (the largest error was 0.57 of it),
  and the largest off-axis error was 221 times ``_ATOL + _RTOL |m|``, gap
  included; the real-axis sweeps of the first 12 of them reached 273.

Stepper
-------
The sweeps use the module's own DOP853 stepper, :func:`_dop853`, with the
coefficients of Hairer and Wanner's dop853.f (Solving ODEs I, II.10) and
the step control of scipy's DOP853, capped by Gustafsson's predictive
factor (ACM TOMS 20, 1994, 496-517; Solving ODEs II, IV.8): a step whose
``|h| err^(-1/8)`` fell from the last one's shrinks the next by that
ratio.  Toward z = -0 a sweep runs into the 1/x^2 tail, whose length scale
shrinks with x; there the plain control proposes each step about a fifth
too long and rejects every other one.  Each kind of state has one compiled
sweep: the step control is written once, as the source template
``_SWEEP``, and compiled with the step in its loop.  A sweep of one z runs
in x with a Python scalar state, or in s on its ray (Stacked sweep), its
step straight-line code written out from the tableau, so the state stays
in floats between step attempts.  A
complex state is held as two floats, its real and imaginary parts, since a
boxed complex operation costs about three float ones in CPython; q is
real, and the float sums and products are those of complex arithmetic, so
a finite state keeps every bit (only an exact zero can change its sign).
The potential supplies a one-z sweep's stage forcing, ``Potential.stage_q``:
on a Bessel potential with ``c = nu^2 - 1/4 != 0`` it is c, written into
each stage as ``c / (x * x) - z``, the floats that ``scalar_q`` returns;
every other potential's sweep calls ``scalar_q``, the free one too, since
its sweep reaches x = 0 when ell = 0.  On its ray a one-z sweep's
forcing is complex, ``c / (s + e)^2 - d^2 z``, written in on float pairs
as well.  The complex Bessel sweep compiles at import, the other scalar
sweeps, the ray's among them, on first use.  A stack's sweep runs the
same step control around :func:`_array_step`.  The first-step rule is one
rule over columns, a scalar state being a stack of one; each column's
norms are floats, with numpy's complex modulus, which can round apart
from ``abs``.  A sweep also stops on every knot of a sampled potential
(``Potential.knots``) between X and ell, so no step crosses a jump of the
third derivative of q (of the first, at the last knot), which the error
estimate does not see.  The error norm reads u only, never w; it sums
the squares of the two error estimates, and a sum past the float range
fails the step instead of reading as a norm of 0 (below x = 1e-147 or so,
where u is about 1/x, such sums occur).  A step's stage 11 lies at its
end, so its forcing gives the next slope, and a sweep's ``nfev`` is 2
plus 11 per step attempt.

Stacked sweep
-------------
:func:`m_infinity_batch` solves many z in one stepper call on a potential
that stacks (``Potential.stacks``: the Bessel kind, the free potential
included), whose q is one numpy call over the stack and whose off-axis
columns ride their rays.  Every other potential sweeps its columns one at
a time, each exactly as alone: an expression's q is a Python call per
value, so its stack would share only the step of its hardest column, and
a sampled potential's knots fall at a different s in each column.  Column j
integrates in ``s`` from 1 to 0 along ``x = ell + s d_j``, so it keeps
its own truncation X_j, certified point (s = 1/sqrt 2 or s = 1/2), gap
test and ``error_bound`` exactly as above, and only the columns whose gap
fails are doubled and swept again; a stack that holds both kinds of
column stops at both points.  It carries ``v_j = d_j u_j``, so
``v' = G_j(s) - v^2`` with ``G_j = d_j^2 (q(ell + s d_j) - z_j)`` and
``int v ds = int u dx``.  A
step's error norm is the largest of the columns' own norms at ``_RTOL``
and ``|d_j| _ATOL`` (u's tolerances in v's units), so each column has
exactly the local error control of a sweep of its own.

On the real axis ``d_j = X_j - ell``.  There psi decays only at the rate
``Im sqrt(z)``, about 0.02 at 5+0.1i, so a near-axis column would run
50-90 units of x and set the shared step.  On a Bessel potential
(``Potential.rays``: q analytic, and psi zero-free, in the sector swept)
an off-axis column instead runs along the ray
``d_j = (X_j - ell) e^(i theta_j)``, ``theta = pi/2 - arg sqrt(z)``
(negative below the axis): psi = sqrt(x) H1_nu(sqrt(z) x) is analytic for
Re x > 0, and has no zero while ``Im(sqrt(z) x) >= 0`` since the zeros of
H1_nu for real nu lie in the lower half-plane (Watson, A Treatise on the
Theory of Bessel Functions, ch. XV), so u = psi'/psi can be carried to ell
along the ray and m = -u(ell) does not change.  Along the ray psi decays
at the full rate |sqrt z| (2.24 at 5+0.1i) and does not oscillate.  The
differences of the WKB start are then complex derivatives along the ray
(:func:`_wkb_terms`), and X_j stays a float, ell plus the path length.
On the classify stack this takes one sweep of 1,080 RHS calls; on the
real axis, from the full first X, it took 2,400.  Real-axis columns, a
column whose ray's first truncation lies within 2048 float spacings of
ell, and every column where
``x_max / ell > 1e150`` or ``|c| (x_max / ell)^2 > 1e300`` (c of the
Bessel ``q = c / x^2``), where the scaled state of a ray could leave the
floats (:func:`_directions`), stay on the real axis.

A lone z rides its ray where ``Im sqrt(z) <= _LONE_RAY |sqrt z|``, with
``_LONE_RAY = 0.45``: ``Im sqrt(z) / |sqrt z|`` is the ray's contraction
distance over the real axis's.  A ray's step attempt costs about 1.2 real
ones, since each stage forms ``c / (s + e)^2`` on float pairs, and its
sizing, whose ladder starts from the ray's shorter distance and so has
more rungs out to x_max, about 38 us against 32 us on the real axis (411
lone rays on bessel(3/2, 1)).  The threshold is where
the two cost the same: timed alternately on the off-axis points of the
points benchmark's seeds 500-503, the time on the ray over the time on
the real axis was 0.59, 0.72, 0.81, 0.93, 1.06 and 1.18 for
``Im sqrt(z) / |sqrt z|`` in the bins 0-0.1, ..., 0.5-0.6, and 1.1-1.3
above; on seeds 504-509 it was 1.02, 0.99 and 1.09 for 0.35-0.40,
0.40-0.45 and 0.45-0.50.  At 5+0.1i the ray takes 54 step attempts
against 165; at 5e25+1e20i, 68 RHS calls against 17.2 M.

G does not depend on v, so a step evaluates q once, at its 11 stage
abscissae; each stage is then one product of ``[1, h a_s]`` with the rows
``[v, k_0, ...]`` of a workspace built once per sweep, a square and a
subtraction.  A stack is sized in one array pass, which gives each column
the distance or error of its own sizing: one potential call for the
wells, one for the ladders, each column's along its own path (the real
axis, or its ray), whose exponents decide the errors and damp the
predictions, and one for the WKB terms on their rungs (:func:`_ladders`).
A round's starts at X and at the certified points are one array call
each, and so are the q values at the ends of the first round's legs.  One
column keeps the scalar sizing, starts and sweep, on the real axis or on its ray,
since the array pass costs one column two to four times as much; so does
the last column still open in a later round.  On a ray the scalar pass
takes the five samples of q behind each WKB term in one array call, as
the array pass does: their differences magnify the rounding of q, which
numpy's complex product and quotient round apart from Python's, and the
same samples give the column the same first X in either pass.  A z whose
evaluation fails keeps its own error, raised when its entry is read.  A
Bessel q raises nothing, so a stacked sweep fails only in the stepper;
its columns are then solved again one by one, so each error names its z.
An error of the potential or the stepper names x only, so its column's
copy of the same type ends with ``(z = ...)`` (``IntegrationError.z``).
The steps of a stacked sweep are shared, so on a Bessel potential a z's
last digits can differ between batches, always within its
``error_bound``; on every other kind a z's value is its lone value, bit
for bit.

``tol`` on :class:`MFunctionEvaluator` is the only solver option; the ODE
tolerances, the largest X and the number of samples behind a real-axis
limit are the fixed constants below.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from collections.abc import Callable, Sequence
from typing import NamedTuple

import numpy as np

from .errors import (ConvergenceError, DomainError, ExtrapolationError, IntegrationError,
                     PoleError, StiffnessError, WeylsysError)
from .potentials import Potential, half_integer_bessel_m, sqrt_upper

__all__ = [
    "MFunctionEvaluator", "MEvaluation",
    "sqrt_upper", "half_integer_bessel_m", "bessel_m_closed_form",
    "bessel_neg_m_alpha_closed_form", "bessel_w_closed_form", "check_alpha", "check_tol",
    "m_infinity", "m_infinity_info", "MBatch", "m_infinity_batch",
    "m_alpha", "m_alpha_info", "rotate_evaluation", "m_alpha_direct",
    "m_infinity_limit_at_zero",
    "MINUS_ZERO_LADDER", "MINUS_INFINITY_LADDER", "limit_at_minus_zero",
    "limit_at_minus_infinity", "safe_div", "NAMED_GRIDS",
]

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
    return safe_div(p * ca + r * sa, p * sa - r * ca, z=z, what="closed-form -m_alpha",
                    scale=abs(p * sa) + abs(r * ca))


def bessel_w_closed_form(z: complex) -> complex:
    """Transfer function of the mu = inf, h = i system in the Bessel example.

    W(z) = ((1-i) sqrt(z) - iz + 1+i) / ((1+i) sqrt(z) - iz - 1+i).
    """
    w = sqrt_upper(z)
    num = (1 - 1j) * w - 1j * z + 1 + 1j
    den = (1 + 1j) * w - 1j * z - 1 + 1j
    return safe_div(num, den, z=z, what="closed-form transfer function",
                    scale=abs((1 + 1j) * w) + abs(z) + abs(-1 + 1j))


def safe_div(num: complex, den: complex, z: complex | None = None,
             what: str = "expression", scale: float | None = None) -> complex:
    """Division that raises :class:`PoleError` near vanishing denominators.

    The threshold is ``1e-13 * max(1, scale)``.  ``scale`` is the size of the
    terms that form ``den``, so that a large quotient over a denominator far
    from 0 is not read as a pole; it defaults to ``|num|``, which keeps huge
    finite values from being fabricated next to a pole.
    """
    if abs(den) < 1e-13 * max(1.0, abs(num) if scale is None else scale):
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
_INTEGRATION_ERROR = 300.0    # global DOP853 error of a sweep, in _RTOL |u(ell)| + _ATOL
_GAP_FLOOR = 1e-10            # the gap test passes below max(_GAP_FLOOR, tol |m|)
_DIFF_STEP = 1e-4             # difference step of q', q'' and q''', in units of x - ell
_Z_MAX = 1e26                 # the top of the |z| range the sweeps are checked over
_TOP_RUNG = 12                # the sizing's last rung, ell + 2 d: a first X - ell <= 8 d
_LONE_RAY = 0.45              # a lone z rides its ray where Im sqrt(z) <= this |sqrt z|
_SHORT_MARK = 2.0 ** -0.5     # s of the certified point of a short first X; its X - ell / dist
_LEG_CONTRACTION = math.log(10.0)   # the exponent a short first X's reference leg must reach


def check_tol(tol: float) -> None:
    """Raise DomainError unless the truncation tolerance lies in (0, 1) with 1/tol finite.

    The first truncation distance grows with ln(1/tol).  At tol >= 1 it is
    not positive and the sweep's ladder of X never ends; below about
    5.6e-309, 1/tol overflows and the distance is infinite.
    """
    if not (0.0 < tol < 1.0 and math.isfinite(1.0 / tol)):
        raise DomainError(f"tol must lie in (0, 1) with 1/tol finite, got {tol}")


# ---------------------------------------------------------------------------
# DOP853 stepper
# ---------------------------------------------------------------------------

# Dormand and Prince's explicit order-8 pair with its order-5 and order-3
# error estimators (Hairer, Norsett and Wanner, Solving ODEs I, II.10; the
# coefficients of their code dop853.f, to 30 digits), with the step control
# of scipy's DOP853 capped by Gustafsson's predictive factor (:func:`_dop853`).
# _ROWS holds (c, nonzero (j, a_j)) of stages 1-11; stage 0 has c = 0.  _B
# holds the order-8 weights, _E5 the order-5 error weights, and the order-3
# error weights are _B less _BHH at stages 0, 8 and 11.  Stages 1-4 carry
# no weight, and neither estimator reads the stage after the step, so _FINAL
# lists (j, b, order-5 weight, order-3 weight) of the stages that carry one.
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


class _Solution(NamedTuple):
    """The state ``y`` and ``integral = int_t0^t y dt`` at each stop; ``nfev`` RHS calls.

    ``rejected`` counts the step attempts whose error norm reached 1, so a
    sweep made ``(nfev - 2) / 11`` attempts and kept all but ``rejected``.
    A named tuple, not a frozen dataclass: building the dataclass cost about
    0.3 ms of the module's import.
    """

    y: list
    integral: list
    nfev: int
    rejected: int


# Every sweep is written out from this one source, so the step control
# exists once; the step goes into its loop as straight-line code from _ROWS
# and _FINAL (each sum in the order of the tables), or as a call of
# :func:`_array_step` for a stack.  Python loops over the tableau, and a
# function call per attempt, cost a scalar sweep more than the arithmetic.
_SWEEP = '''\
def {name}(rhs, t, y, f, stops, rtol, atol, h_abs, direction):
    """The DOP853 sweep of {what}; see _dop853."""
{setup}
    nfev = 2
    rejections = 0
    r_last = 0.0                # the last accepted step's r; 0 when there is none
    ys, integrals = [], []
    for stop in stops:
        while t != stop:
            min_step = 10.0 * abs(nextafter(t, direction * inf) - t)
            if h_abs < min_step:
                h_abs = min_step
            rejected = False
            while True:
                if h_abs < min_step:
                    raise StiffnessError(TOO_SMALL_STEP)
                t_new = t + direction * h_abs
                clipped = direction * (t_new - stop) > 0
                if clipped:
                    t_new = stop
                h = t_new - t
{step}
                nfev += {attempt_calls}
                if err < 1.0:
                    break
                h_abs = abs(h) * max({min_factor}, {safety} * err ** {exponent})
                rejected = True
                rejections += 1
            if err == 0.0:
                factor, r_last = {max_factor}, 0.0
            else:
                # Gustafsson's cap: a step whose r fell from the last one's
                # shrinks the next by the same ratio (r carries the safety
                # factor here, which cancels in the ratio)
                factor = {safety} * err ** {exponent}
                r = abs(h) * factor
                if r < r_last:
                    factor *= r / r_last
                r_last = r
                if factor > {max_factor}:
                    factor = {max_factor}
            if rejected:
                factor = min(1.0, factor)
            h_abs = max(h_abs, abs(h) * factor) if clipped else abs(h) * factor
            t = t_new
{accept}
{record}
    return ys, integrals, nfev, rejections
'''

# The error norm of a scalar step, with ``ay = |y|`` kept from the step that
# made y.  max(|y|, |y_new|) is written out in max's order: a nan |y| is
# kept, and a nan |y_new| is passed over.  A sum of squares n53 past the
# float range fails the step, where n5 / sqrt(inf) would read as 0 and pass it
_SCALAR_NORM = """\
try:
    ay_new = abs({y_new})
    scale = atol + rtol * (ay_new if ay_new > ay else ay)
    n5 = abs({err5}) / scale
    n3 = abs({err3}) / scale
except OverflowError:       # the modulus of a complex state beyond the float range
    err = inf
else:
    n5 *= n5
    n53 = n5 + 0.01 * (n3 * n3)
    err = 0.0 if n53 == 0.0 else inf if n53 == inf else abs(h) * n5 / sqrt(n53)"""

# The lines of each state that _SWEEP wraps: before the loop, after an
# accepted step, and at a stop.  A scalar state's step is written from the
# tableau by _scalar_stages, a stack's is one call
_STATES = {
    "float": {
        "setup": ["w = 0.0", "ay = abs(y)"],
        "accept": ["y = y_new", "ay = ay_new", "w = w + w_step", "f = g - y * y"],
        "record": ["ys.append(y)", "integrals.append(w)"],
    },
    # y = yr + i yi, held as two floats.  q is real, so every stage's
    # g = gr + i gi has the same gi, and k = (gr - (yr yr - yi yi)) + i (gi -
    # 2 yr yi), as complex arithmetic forms it (its yr yi + yi yr is exactly
    # 2 (yr yi)).  A |y0| beyond the float range reads as nan, which fails
    # every step, as the overflow it stands for does
    "complex": {
        "setup": ["yr, yi, fr, fi = y.real, y.imag, f.real, f.imag",
                  "zr, gi = z.real, (0.0 - z).imag     # the imaginary part of q - z",
                  "wr = wi = 0.0",
                  "try:",
                  "    ay = abs(y)",
                  "except OverflowError:",
                  "    ay = nan"],
        "accept": ["yr, yi = y_newr, y_newi", "ay = ay_new",
                   "wr, wi = wr + w_stepr, wi + w_stepi",
                   "fr = gr - (yr * yr - yi * yi)", "fi = gi - 2.0 * (yr * yi)"],
        "record": ["ys.append(complex(yr, yi))", "integrals.append(complex(wr, wi))"],
    },
    "array": {
        "setup": ["w = 0.0"],
        "step": ["y_new, w_step, err, g = array_step(rhs, t, t_new, y, f, rtol, atol)"],
        "accept": ["y = y_new", "w = w + w_step      # not +=: the stops keep their arrays",
                   "f = g - y * y"],
        "record": ["ys.append(y)", "integrals.append(w)"],
    },
}

# The lines that unpack rhs before the loop, for each form of a scalar
# state's forcing (:func:`_scalar_stages`).  A complex state on a ray runs in
# s with v = d u, and rhs is (c, e, Z) with e = ell / d and Z = d^2 z
_FORMS = {
    "c": ["c, z = rhs"],
    "q": ["q, z = rhs"],
    "ray": ["c, e, z = rhs", "er, zi = e.real, z.imag",
            "ei2, nei2 = e.imag * e.imag, -2.0 * e.imag"],
}


def _tableau_sums() -> tuple[list, list]:
    """The sums of the straight-line step, each v marked "#" for its part's suffix.

    Stage s is ``y_s = y + h sum_j a_sj k_j`` and ``k_s = g - y_s^2``, where
    ``g = q(t + c_s h) - z``; stage 0 is y with its slope f, and stage 11
    (c = 1) takes t_new itself, so its g gives the next slope.  y_new sums
    the slopes with b, and the step's integral the stage values, as a
    component ``w' = y`` would, outside the norm.  Returns (abscissa, sum)
    of stages 1-11, and (name, sum) of y_new, the integral and both error
    estimates.
    """
    def dot(terms):
        return " + ".join([f"{w!r} * {v}#" for w, v in terms])

    k = ["f"] + [f"k{s}" for s in range(1, _STAGES)]
    stage = ["y"] + [f"y{s}" for s in range(1, _STAGES)]
    rows = [("t_new" if c == 1.0 else f"t + {c!r} * h", dot((a, k[j]) for j, a in row))
            for c, row in _ROWS]
    finals = [("y_new", f"y# + h * ({dot((b, k[j]) for j, b, _, _ in _FINAL)})"),
              ("w_step", f"h * ({dot((b, stage[j]) for j, b, _, _ in _FINAL)})"),
              ("err5", dot((e5, k[j]) for j, _, e5, _ in _FINAL)),
              ("err3", dot((e3, k[j]) for j, _, _, e3 in _FINAL))]
    return rows, finals


def _scalar_stages(state: str, form: str) -> list[str]:
    """The straight-line step of a scalar state from :func:`_tableau_sums`, down to ``err``.

    In the form "c", q is the Bessel c / x^2 and rhs holds c; the form "q"
    calls rhs's q.  The form "ray" is a complex state in s on a ray, whose
    forcing ``G = c / (s + e)^2 - Z`` is complex.  With ``den = |s + e|^2``
    it is formed as ``(c / den) conj(s + e)^2 / den - Z``, each product and
    quotient from the left: no partial result passes |G| or |c| in size, so
    nothing under- or overflows where |s + e|^2 and G are floats (the rays
    that could leave them are refused, :func:`_directions`), and each keeps
    its bits under conjugation.  Each stage's ``s + e_r`` adds the stage's
    ``c_s h`` to ``t + e_r``, formed once per attempt.  The complex state
    repeats each sum over the real parts (suffix r) and the imaginary parts
    (suffix i).
    """
    parts = ["r", "i"] if state == "complex" else [""]
    rows, finals = _tableau_sums()
    lines = ["te = t + er"] if form == "ray" else []
    for s, (x, total) in enumerate(rows, 1):
        line = f"y{s}# = y# + h * ({total})"
        lines += [line.replace("#", p) for p in parts]
        if form == "ray":
            se = "t_new + er" if x == "t_new" else x.replace("t + ", "te + ")
            lines += [f"se = {se}", "ss = se * se", "den = ss + ei2", "cd = c / den",
                      "gr = cd * (ss - ei2) / den - zr", "gi = cd * se * nei2 / den - zi"]
        else:
            if form == "q":
                forcing = f"q({x})"
            elif x == "t_new":
                forcing = "c / (t_new * t_new)"
            else:
                lines.append(f"x = {x}")
                forcing = "c / (x * x)"
            lines.append(f"gr = {forcing} - zr" if state == "complex" else f"g = {forcing} - z")
        lines += ([f"k{s}r = gr - (y{s}r * y{s}r - y{s}i * y{s}i)",
                   f"k{s}i = gi - 2.0 * (y{s}r * y{s}i)"] if state == "complex"
                  else [f"k{s} = g - y{s} * y{s}"])
    lines += [f"{name}{p} = {total.replace('#', p)}" for name, total in finals for p in parts]
    value = (lambda name: f"complex({name}r, {name}i)") if state == "complex" else str
    norm = _SCALAR_NORM.format(y_new=value("y_new"), err5=value("err5"), err3=value("err3"))
    return lines + norm.splitlines()


def _write_sweeps(*keys: str) -> list:
    """The sweeps of ``keys``, compiled from _SWEEP in one pass.

    A key is "array", or a scalar state, "float" or "complex", and the form
    of its forcing, "c", "q" or, for a complex state on a ray, "ray"
    (:func:`_scalar_stages`, _FORMS).  The tableau and the step control's
    constants enter as literals.
    """
    def indent(lines, depth):
        return "\n".join(" " * depth + line for line in lines)

    names = ["_" + key.replace(" ", "_") + "_sweep" for key in keys]
    sources = []
    for key, name in zip(keys, names):
        state, _, form = key.partition(" ")
        lines = _STATES[state]
        setup, step = lines["setup"], lines.get("step")
        if form:
            setup = _FORMS[form] + setup
            step = _scalar_stages(state, form)
        sources.append(_SWEEP.format(
            name=name, what=f"a {key} state",
            setup=indent(setup, 4), step=indent(step, 16), accept=indent(lines["accept"], 12),
            record=indent(lines["record"], 8), attempt_calls=_STAGES - 1, safety=repr(_SAFETY),
            min_factor=repr(_MIN_FACTOR), max_factor=repr(_MAX_FACTOR),
            exponent=repr(_EXPONENT)))
    namespace = {"nextafter": math.nextafter, "sqrt": math.sqrt, "inf": math.inf,
                 "nan": math.nan, "StiffnessError": StiffnessError,
                 "TOO_SMALL_STEP": _TOO_SMALL_STEP, "array_step": _array_step}
    exec(compile("\n\n".join(sources), "<weylsys.mfunc sweeps>", "exec"), namespace)
    return [namespace[name] for name in names]


def _array_workspace(dtype, n: int) -> tuple:
    """The arrays of :func:`_array_step` for n columns, and their views per stage.

    ``known`` holds the rows v, k_0, ..., k_11 and ``stages`` v_0 = v, v_1,
    ..., v_11.  Rows 0-10 of ``coef`` are ``[1, h a_s]`` of stages 1-11,
    rows 11-13 ``[1, h b]``, ``[0, e5]`` and ``[0, e3]``; a step writes the
    h columns.  All are in the stack's dtype, so no product casts a row.
    """
    known = np.empty((_STAGES + 1, n), dtype)
    stages = np.empty((_STAGES, n), dtype)
    coef = np.zeros((_STAGES + 2, _STAGES + 1), dtype)
    coef[:_STAGES, 0] = 1.0
    coef[-2:, 1:] = _E5, _E3
    plan = [(coef[s - 1, :s + 1], known[:s + 1], stages[s], known[s + 1])
            for s in range(1, _STAGES)]
    return known, stages, coef, np.empty(n, dtype), plan


def _array_step(rhs, t, t_new, y, f, rtol, atol):
    """One DOP853 step of a stack of scaled Riccati columns ``v' = G(t) - v^2``.

    ``rhs`` is G and the workspace of :func:`_array_workspace`, and atol
    holds one tolerance per column.  One G call gives all eleven stage
    abscissae; each stage is one ``[1, h a_s] @ [v, k_0, ...]`` product, a
    square and a subtraction.  The error norm is the largest of the columns'
    own norms, so each column gets the step control of a sweep of its own.
    One modulus gives |y_new| and both error estimates.
    Returns y_new, the step's integral of v, the error norm and G at t_new.
    """
    forcing, (known, stages, coef, square, plan) = rhs
    h = t_new - t
    ts = t + _C[1:] * h
    ts[-1] = t_new                  # stage 11 (c = 1) exactly at the step's end
    g = forcing(ts)
    np.multiply(_A[1:], h, out=coef[:-3, 1:])
    np.multiply(_B, h, out=coef[-3, 1:])
    known[0] = stages[0] = y
    known[1] = f
    for (row, below, stage, k), g_s in zip(plan, g):
        np.matmul(row, below, out=stage)
        np.multiply(stage, stage, out=square)
        np.subtract(g_s, square, out=k)
    sums = coef[-3:] @ known
    y_new = sums[0]
    size = np.abs(sums)
    scale = atol + rtol * np.maximum(np.abs(y), size[0])
    n5, n3 = (size[1:] / scale) ** 2
    n53 = n5 + 0.01 * n3
    # a column with n5 = n3 = 0 has norm 0; a NaN column stays NaN and fails the
    # step, as does one whose n53 passes the float range (0 * inf is NaN), which
    # n5 / sqrt(inf) alone would read as 0
    norms = n5 / np.sqrt(np.maximum(n53, _TINY)) + 0.0 * n53
    return y_new, coef[-3, 1:] @ stages, abs(h) * float(norms.max()), g[-1]


def _initial_step(rhs, t0, y0, f0, stop, rtol, atol) -> float:
    """scipy's first DOP853 step from (t0, y0) toward ``stop``, the smallest over the columns.

    A Python scalar y0 is a stack of one column.  Each column's norms are
    Python floats from numpy's modulus, which for a complex number can
    round apart from ``abs``; a scalar takes it without an array, and a
    float its ``abs``.  The smallest first trial h0 over the columns gives
    one slope probe, and the smallest second trial the step.  An
    infinite slope (h0 = 0) gives 0.0.  The trial step h0 is at most
    |stop - t0|, but t0 + h0 can round past stop (to x = 0 from a tiny
    ell); the slope is then probed at stop, so q is never called outside
    the sweep.
    """
    span, direction = abs(stop - t0), math.copysign(1.0, stop - t0)
    size = lambda v: (np.abs(v).ravel().tolist() if isinstance(v, np.ndarray)
                      else [float(abs(v) if isinstance(v, float) else np.abs(v))])
    y0_size = size(y0)
    atols = atol.ravel().tolist() if isinstance(atol, np.ndarray) else [atol] * len(y0_size)
    scale = [a + rtol * y for a, y in zip(atols, y0_size)]
    d0 = [y / s for y, s in zip(y0_size, scale)]
    d1 = [f / s for f, s in zip(size(f0), scale)]
    h0 = min(span, min(1e-6 if a < 1e-5 or b < 1e-5 else 0.01 * a / b
                       for a, b in zip(d0, d1)))
    if h0 == 0.0:
        return 0.0
    t1 = t0 + direction * h0
    f1 = rhs(stop if direction * (t1 - stop) > 0 else t1, y0 + direction * h0 * f0)
    d2 = [f / s / h0 for f, s in zip(size(f1 - f0), scale)]
    h1 = min(max(1e-6, 1e-3 * h0) if b <= 1e-15 and c <= 1e-15
             else (0.01 / max(b, c)) ** (-_EXPONENT) for b, c in zip(d1, d2))
    return min(100.0 * h0, h1, span)


# the sweeps of a complex Bessel state and of a stack compile at import, the
# others on first use: each costs 0.5-1 ms, and only a one-z sweep on the
# negative axis or on its ray, or one that calls q, needs them
_SWEEPS = dict(zip(("complex c", "array"), _write_sweeps("complex c", "array")))


def _dop853(rhs, t0: float, y0, stops: Sequence[float], rtol: float,
            atol: float) -> _Solution:
    """Integrate the Riccati equation of the pair rhs from t0 through the monotone ``stops``.

    The steps land exactly on each stop.  A Python scalar y0 is a Riccati
    state ``y' = q(t) - z - y^2`` with a real q, a float state on the real
    axis or a complex one, and rhs is the pair (q, z): q is a callable of t,
    or a float c that stands for the Bessel ``q = c / t^2``, which the
    sweep writes into its stages.  A complex y0 with rhs the triple (c, e,
    Z) is the scaled state of a ray, ``v' = c / (t + e)^2 - Z - v^2`` in s
    (:func:`_sweep`), its forcing also written into its stages; atol is
    then the ray's ``|d| _ATOL``.  An array y0 is a stack of scaled Riccati
    columns ``v = d u``, ``v' = G(t) - v^2``, whose steps are
    :func:`_array_step`; rhs is then the pair (G, d), G giving an array of
    shape ``t.shape + y0.shape``, and a column's absolute tolerance is
    ``|d| atol`` (d is complex for a column on a ray).  Each kind is one
    function written from _SWEEP, compiled at import or on first use
    (_SWEEPS).  A step's stage 11
    lies at its end, so its forcing gives the next slope: nfev counts 2 for
    the first step and 11 per attempt.  The step control is scipy's DOP853
    (safety 0.9, step factors within [0.2, 10] with exponent -1/8, and its
    first-step rule, one rule for a scalar state and a stack in
    :func:`_initial_step`) capped by Gustafsson's predictive factor (ACM
    TOMS 20, 1994, 496-517; Hairer and Wanner, Solving ODEs II, IV.8, as in
    radau5.f): with ``r = |h| err^(-1/8)`` of each accepted step, the next
    factor is ``min(10, 0.9 err^(-1/8) min(1, r / r_last))``, so on a tail
    whose length scale shrinks with t the steps shrink with it instead of
    each being rejected once.  There is no r_last at the start or after a
    step with err = 0, which grows by 10.  After a rejection the next step
    does not grow.  A step cut short to land on a stop does not shrink the
    step planned after it.  A step size below ten spacings of the floats at t
    raises :class:`StiffnessError`.
    """
    if isinstance(y0, np.ndarray):
        forcing, d = rhs
        atol = np.abs(d) * atol
        slope = lambda t, y: forcing(t) - y * y
        f = slope(t0, y0)
        key, rhs = "array", (forcing, _array_workspace(np.result_type(y0, f), len(y0)))
    else:
        key = "complex" if isinstance(y0, complex) else "float"
        if len(rhs) == 3:
            c, e, z = rhs
            q = lambda t: c / ((t + e) * (t + e))
            key += " ray"
        else:
            q, z = rhs
            if isinstance(q, float):
                c = q
                q = lambda t: c / (t * t)
                key += " c"
            else:
                key += " q"
        slope = lambda t, y: q(t) - z - y * y
        f = slope(t0, y0)
    direction = math.copysign(1.0, stops[-1] - t0)
    sweep = _SWEEPS.get(key)
    if sweep is None:
        sweep = _SWEEPS[key] = _write_sweeps(key)[0]
    if key != "array":
        h_abs = _initial_step(slope, t0, y0, f, stops[-1], rtol, atol)
        return _Solution(*sweep(rhs, t0, y0, f, stops, rtol, atol, h_abs, direction))
    # a trial stage of a stack near the top of the numeric range, or the
    # first step's slope probe, can overflow: the step's nan norm rejects
    # such a step, as OverflowError does in a scalar sweep, so numpy need
    # not warn
    with np.errstate(over="ignore", invalid="ignore"):
        h_abs = _initial_step(slope, t0, y0, f, stops[-1], rtol, atol)
        return _Solution(*sweep(rhs, t0, y0, f, stops, rtol, atol, h_abs, direction))


# perfbench/spans.py times each sweep and sums its ``nfev`` under this name
solve_ivp = _dop853


# ---------------------------------------------------------------------------
# backward Riccati path (every z off [0, inf))
# ---------------------------------------------------------------------------

def _wkb_terms(potential: Potential, x: float, z: complex) -> tuple:
    """(q(x) - z, the WKB start u(x) through its third correction, |u2|, |u3|).

    With ``k = sqrt(q - z)``, ``Re((x - ell) k) > 0``, the decaying solution of
    ``u' = q - z - u^2`` is the Liouville-Green series
    ``u = -k + u1 + u2 + u3 + ...`` (Olver, Asymptotics and Special
    Functions, ch. 6), each term ``(u_{n-1}' + sum_{i+j=n} u_i u_j)/(2k)``:
    ``u1 = -q'/(4 k^2)``, ``u2 = 5 q'^2/(32 k^5) - q''/(8 k^3)`` and
    ``u3 = (u2' + 2 u1 u2)/(2k)``.  Where the terms fall, the last term
    kept, |u3|, overestimates the start error, which is about |u4|.  q' and
    q'' are central differences with the step ``h = _DIFF_STEP (x - ell)``
    and q''' the five-point difference over x +- h, x +- 2h, so no sample
    falls below ell.  A complex x lies on a ray from ell (module docstring):
    the differences are then complex derivatives along it, and k is the
    root that decays along the ray, which is not the principal one where
    q - z crosses its branch cut (a Bessel c < 0 near the positive axis,
    where Im q has the opposite sign to Im z); on the real axis it is the
    principal root.  |u2| and |u3| do not depend on the sign of k.  An
    array x, and a lone complex one, take their samples in one potential
    call, so both see the same q; the complex products and quotients after
    it may round apart.
    An array's turning points get u = 0 and |u2| = |u3| = inf.
    """
    h = _DIFF_STEP * (x - potential.ell)
    array = isinstance(x, np.ndarray)
    if array:
        samples = potential(x + np.multiply.outer(np.arange(-2.0, 3.0), h))
    elif isinstance(x, complex):
        # one array call, as in the array pass: the differences magnify the
        # rounding of q, and numpy's complex product and quotient round
        # apart from Python's, so a lone ray takes the stack's samples
        samples = potential(x + np.arange(-2.0, 3.0) * h).tolist()
    else:
        samples = (potential(x - 2.0 * h), potential(x - h), potential(x), potential(x + h),
                   potential(x + 2.0 * h))
    below2, below, q, above, above2 = samples
    dq = (above - below) / (2.0 * h)
    ddq = (above - 2.0 * q + below) / (h * h)
    dddq = (above2 - 2.0 * above + 2.0 * below - below2) / (2.0 * h ** 3)
    s = q - z
    # on a ray q - z can cross the principal root's branch cut (docstring)
    if array:
        turning = s == 0
        k = np.sqrt(np.where(turning, 1.0, s))
        k = np.where(((x - potential.ell) * k).real < 0, -k, k)
    elif s == 0:        # a turning point has no WKB value; the real axis rejects it
        return s, 0j, math.inf, math.inf
    else:
        k = cmath.sqrt(s)
        if ((x - potential.ell) * k).real < 0:
            k = -k
    k2 = k * k
    u1 = -dq / (4.0 * k2)
    u2 = (5.0 * dq * dq / (32.0 * k2) - ddq / 8.0) / (k2 * k)
    du2 = (-dddq / 8.0 + (dq * ddq / 2.0 - 25.0 * dq ** 3 / (64.0 * k2)) / k2) / (k2 * k)
    u3 = (du2 + 2.0 * u1 * u2) / (2.0 * k)
    u = -k + u1 + u2 + u3
    if array:
        return (s, np.where(turning, 0j, u), np.where(turning, np.inf, np.abs(u2)),
                np.where(turning, np.inf, np.abs(u3)))
    return s, u, abs(u2), abs(u3)


def _wkb_starts(potential: Potential, xs: list, zs: list) -> list:
    """:func:`_wkb_terms` at each x and z: several, a stack's, in one array call.

    Only a potential that ``stacks`` has several, and its q raises nothing,
    so an error here is a lone column's, raised to :func:`_riccati_batch`.
    """
    if len(xs) > 1:
        return list(zip(*(a.tolist() for a in _wkb_terms(potential, np.array(xs),
                                                         np.array(zs, dtype=complex)))))
    return [_wkb_terms(potential, xs[0], zs[0])]


def _leave_well(potential: Potential, z: complex, dist: float, q: float, x_max: float) -> float:
    """dist, doubled while ``q(ell + dist) - z <= 0`` on the real axis, q being the first value."""
    ell = potential.ell
    while q - z.real <= 0 and ell + 2.0 * dist <= x_max:
        dist *= 2.0
        q = potential(ell + dist)
    return dist


def _range_error(z: complex, dist: float, ell: float, tol: float) -> DomainError | None:
    """The DomainError of a z out of the numeric range (module docstring), or None."""
    # dist/4096 above half a float spacing keeps the lowest certified point,
    # dist/1024, off ell
    huge = abs(z) > _Z_MAX
    if huge or ell + dist / 4096.0 == ell:
        why = (f"|z| > {_Z_MAX:g}, beyond the range the sweeps are checked over" if huge
               else f"at tol = {tol:g} the first truncation X - ell = {dist:.3g} lies "
               f"within 2048 float spacings of ell = {ell:g}")
        return DomainError(f"z = {z} is out of the numeric range: {why}")
    return None


def _contraction_distance(z: complex, direction, target: float) -> float:
    """The path length along direction over which the flow contracts by ``e^-target``.

    The decay rate is ``Im(sqrt(z) direction)``, floored at 1e-3: ``Im sqrt(z)``
    on the real axis (direction 1.0) and ``|sqrt z|`` on the ray.
    """
    return target / (2.0 * max((sqrt_upper(z) * direction).imag, 1e-3))


def _ray_c(potential: Potential) -> float:
    """c of the Bessel ``q = c / x^2`` that a ray's stages write in; 0 for the free potential."""
    return potential.stage_q if isinstance(potential.stage_q, float) else 0.0


def _directions(potential: Potential, zs: list[complex], tol: float) -> list:
    """The direction from ell of each column of zs: e^(i theta) on its ray, else 1.0.

    An off-axis z rides the ray ``theta = pi/2 - arg sqrt(z)``, where psi
    decays at the full rate ``|sqrt z|`` and does not oscillate, on a
    potential that allows it (``Potential.rays``), unless the ray's first
    truncation lies within 2048 float spacings of ell (:func:`_range_error`).
    A lone z rides it only near the positive axis, where
    ``Im sqrt(z) <= _LONE_RAY |sqrt z|``: the ray is then that much shorter
    than the real axis, which pays for its dearer step (module docstring).

    No z rides a ray whose scaled state the floats may not hold.  Along a
    path no longer than x_max the Bessel forcing ``c / (s + e)^2`` has
    ``|s + e| >= ell / x_max``, so with ``r = x_max / ell`` it is at most
    ``|c| r^2``; the rays are refused unless ``r <= 1e150`` and
    ``|c| r^2 <= 1e300``, so that ``|s + e|^2`` stays a normal float and G
    finite.  The free potential (c = 0), whose forcing is ``-d^2 z``,
    needs neither.
    """
    c, ell = _ray_c(potential), potential.ell
    r = _X_MAX_FACTOR * max(ell, 1.0) / ell if c else 0.0
    rays = potential.rays and r <= 1e150 and abs(c) * r * r <= 1e300
    target = math.log(1.0 / tol)
    lone = len(zs) == 1
    out = []
    for z in zs:
        direction = 1.0
        if rays and z.imag != 0.0:
            w = sqrt_upper(z)
            size = abs(w)
            if not lone or w.imag <= _LONE_RAY * size:
                ray = 1j * w.conjugate() / size
                if _range_error(z, _contraction_distance(z, ray, target), ell, tol) is None:
                    direction = ray
        out.append(direction)
    return out


def _ladders(potential: Potential, zs, directions, dists, x_max: float, low: int) -> tuple:
    """Each column's sizing ladder, along the path it sweeps, out to x_max.

    Rung 0 is ell and rung i >= 1 is ``ell + d 2^(i - 11) e``, d the
    column's distance and e its direction: 1.0 on the real axis, or
    e^(i theta) on its ray.  Returns, one entry per column, the WKB
    exponent, the trapezoid sum of ``2 Re(e sqrt(q - z))`` with the root
    that decays along e, from ell to its last rung within x_max, and
    ``sqrt(q(ell) - z)``; then, one row per rung from low to ``_TOP_RUNG``,
    the start's last kept term |u3| there damped by the exponent up to it,
    and whether ``|u3| <= |u2|``.  A rung whose path length passes
    ``x_max - ell`` gets no value of q and adds nothing to the exponent,
    and the sizing reads no prediction there.
    """
    e, zc = np.array(directions), np.array(zs)
    powers = np.arange(-10, 2 + int(math.log2(x_max / min(dists))))
    lengths = np.vstack([np.zeros(len(e)), np.ldexp(dists, powers[:, None])])
    valid = potential.ell + lengths <= x_max
    xs = potential.ell + lengths * e
    q = np.zeros(xs.shape, xs.dtype)
    q[valid] = potential(xs[valid])
    roots = np.sqrt(q - zc)
    rates = np.abs((e * roots).real)
    steps = np.where(valid[1:], np.abs(np.diff(xs, axis=0)) * (rates[:-1] + rates[1:]), 0)
    exponents = np.cumsum(np.vstack([np.zeros(len(e)), steps]), axis=0)
    _, _, next_last, last = _wkb_terms(potential, xs[low:_TOP_RUNG + 1], zc)
    with np.errstate(invalid="ignore"):     # a turning point's inf times e^-inf
        table = last * np.exp(-exponents[low:_TOP_RUNG + 1])
    return exponents[-1], roots[0], table, last <= next_last


def _halve_then_double(potential: Potential, z: complex, dist: float, tol: float,
                       x_max: float, exponent: float, k_ell: complex, predict):
    """The first X - ell from the contraction distance dist, or its ConvergenceError.

    ``exponent`` is the WKB exponent along the column's path (the real
    axis, or its ray) up to x_max, ``k_ell = sqrt(q(ell) - z)`` and
    ``predict(i)`` gives, at rung i of the same ladder (rung 10 is the
    certified point ``ell + dist/2``), the gap test's predicted term
    ``|u3| e^-exponent`` and whether the WKB terms still fall there,
    ``|u3| <= |u2|``.  A halving step needs both at the halved certified point.
    The doubling reads rungs up to ``_TOP_RUNG`` only, so X - ell ends at
    most 8 dist; past it the sweep's own gap test doubles X.
    """
    if z.imag != 0.0 and exponent < math.log(1.0 / tol):
        return ConvergenceError(
            f"the backward Riccati flow contracts by only e^-{exponent:.3g} "
            f"up to X_max = {x_max:g} at z = {z}; limit-circle behavior, or z "
            "too close to [0, inf)")
    # m is about sqrt(q(ell) - z)
    threshold = max(_GAP_FLOOR, tol * abs(k_ell))
    i = 10
    if z.imag != 0.0 and potential.analytic:
        # q is analytic on [ell, inf), so no feature beyond X escapes the gap;
        # where |u3| > |u2| the series no longer falls, and |u3| may fall short
        while i > 1:
            prediction, falls = predict(i - 1)
            if not (falls and prediction <= threshold):
                break
            dist *= 0.5
            i -= 1
        if i < 10:      # rung i passed, so the doubling below would stop at once
            return dist
    while i <= _TOP_RUNG and potential.ell + 2.0 * dist <= x_max and not predict(i)[0] <= threshold:
        dist *= 2.0
        i += 1
    return dist


def _first_distances(potential: Potential, zs: list[complex], tol: float,
                     x_max: float, directions: list) -> list:
    """X - ell of the first truncation at each z, or its error (module docstring).

    The contraction distance, doubled on the real axis while q(X) - z <= 0
    there, and off it checked against the WKB exponent along the column's
    path up to x_max, before any solve.  The gap test's term is predicted
    from the start's last kept term |u3| at the certified point ell + d/2
    (:func:`_wkb_terms`), damped by the exponent up to it.  Off the axis,
    on an analytic potential (``Potential.analytic``), the distance halves
    while that prediction passes for the halved truncation and the WKB
    terms still fall at its certified point, |u3| <= |u2|, down to the
    ladder's lowest rung.  Then it doubles while the prediction fails.  Out
    of the numeric range the error is DomainError.  A column whose
    direction (:func:`_directions`) is a ray is sized along it instead: its
    X - ell is a path length, and its contraction distance, exponent, error
    and predictions are the ray's.

    One z takes the scalar pass, on the real axis or on its ray, and the
    z of a stack (``Potential.stacks``) the array pass (module
    docstring).  Each builds one ladder per column, along its direction
    (:func:`_ladders`), and takes from it the exponent up to x_max,
    ``sqrt(q(ell) - z)`` at rung 0 and the predictions.  The scalar pass forms the WKB terms only at the rungs
    that :func:`_halve_then_double` reads; the array pass's prediction rows
    end at the top rung, where every doubling ends.  Both passes share
    every check and rule (:func:`_leave_well`, :func:`_range_error`,
    :func:`_halve_then_double`), and differ in how they evaluate q, except
    for the samples behind a WKB term on a ray, which both take in one
    array call (:func:`_wkb_terms`).
    """
    ell = potential.ell
    # X - ell contracts a start error by tol (module docstring); so close to
    # ell a well of q may dip below z, and only the tail may raise DomainError
    target = math.log(1.0 / tol)
    if len(zs) == 1:
        z, e = zs[0], directions[0]
        dist = _contraction_distance(z, e, target)
        if z.imag == 0.0:
            dist = _leave_well(potential, z, dist, potential(ell + dist), x_max)
        error = _range_error(z, dist, ell, tol)
        if error is not None:
            return [error]
        # rung 0 is ell and rung i >= 1 is ell + dist 2^(i - 11) e, as _ladders
        # sums them.  The predictions read rungs up to _TOP_RUNG, and the
        # exponent, which only grows, decides an off-axis error alone: so the
        # ladder stops once both are settled, and a failing z sums every rung
        k_ell = cmath.sqrt(potential(ell) - z)
        xs, exponents, rate, step = [ell], [0.0], abs((e * k_ell).real), dist / 1024.0
        while ell + step <= x_max:
            x = ell + step * e
            next_rate = abs((e * cmath.sqrt(potential(x) - z)).real)
            exponents.append(exponents[-1] + abs(x - xs[-1]) * (rate + next_rate))
            xs.append(x)
            rate = next_rate
            step *= 2.0
            if len(xs) > _TOP_RUNG and (z.imag == 0.0 or exponents[-1] >= target):
                break

        def predict(i):
            _, _, next_last, last = _wkb_terms(potential, xs[i], z)
            return last * math.exp(-exponents[i]), last <= next_last

        return [_halve_then_double(potential, z, dist, tol, x_max, exponents[-1], k_ell,
                                   predict)]
    out: list = [_contraction_distance(z, e, target) for z, e in zip(zs, directions)]
    real = [j for j, z in enumerate(zs) if z.imag == 0.0]
    if real:
        # past x = 1.3e154 a Bessel q's x * x overflows, and q reads 0: so far
        # out the range check below fails every column anyway
        with np.errstate(over="ignore"):
            wells = potential(ell + np.array([out[j] for j in real])).tolist()
        for j, q in zip(real, wells):
            out[j] = _leave_well(potential, zs[j], out[j], q, x_max)
    out = [_range_error(z, d, ell, tol) or d for z, d in zip(zs, out)]
    cols = [j for j, d in enumerate(out) if not isinstance(d, DomainError)]
    if not cols:
        return out
    # the rows from rung low, where the halving starts, to the top rung
    low = 1 if potential.analytic and any(zs[j].imag != 0.0 for j in cols) else 10
    exponents, roots, table, falls = _ladders(potential, [zs[j] for j in cols],
                                              [directions[j] for j in cols],
                                              [out[j] for j in cols], x_max, low)
    rows = zip(cols, exponents.tolist(), roots.tolist(), table.T.tolist(), falls.T.tolist())
    for j, exponent, k_ell, p, f in rows:
        out[j] = _halve_then_double(potential, zs[j], out[j], tol, x_max, exponent, k_ell,
                                    lambda i: (p[i - low], f[i - low]))
    return out


def _sweep(potential: Potential, zq: list, tops: list[float], starts: list,
           marks: list[float]) -> tuple[list, list]:
    """One DOP853 sweep of ``u' = q - z - u^2`` per column, with ``w = int 2u``.

    Column j runs from ``u = starts[j]``, ``w = 0`` at ``tops[j]`` down to
    ell: X_j, or the complex end of a ray.  Returns (u, w), each a list of
    (certified-point value, ell value) pairs, one per column, with the
    certified point ``ell + marks[j] (X - ell)``, at s = 1/2 or s = 1/sqrt 2
    (:func:`_riccati_batch`).  A ray's column runs in ``s = (x - ell)/d_j``,
    ``d_j = X_j - ell``, from 1 to 0, stopping at its mark, in the scaled
    state ``v = d_j u``, so ``v' = G_j(s) - v^2`` with ``G_j = d_j^2 (q(ell +
    s d_j) - z_j)``.  One column runs on a scalar state: on the real axis in
    x, stopping also on every knot of a sampled potential, so no step
    crosses a jump of a derivative of q; on its ray in s, with the Bessel
    ``G = c / (s + e)^2 - Z``, ``e = ell / d`` and ``Z = d^2 z``, written
    into its stages (:func:`_scalar_stages`).  Several run in s with a
    numpy right-hand side, each column on its own path, and stop at every
    mark the stack holds.
    """
    ell = potential.ell
    if len(zq) == 1:
        (z,), (top,), (start,), (mark,) = zq, tops, starts, marks
        if isinstance(top, complex):
            d = top - ell
            c = _ray_c(potential)
            # with c = 0 (free) G = -Z for any e: e = 1 keeps 1/(s + e)
            # finite at s = 0 when ell = 0
            sol = _dop853((c, ell / d if c else 1.0, d * d * z), 1.0, d * start, [mark, 0.0],
                          _RTOL, abs(d) * _ATOL)
            return [(sol.y[0] / d, sol.y[1] / d)], [(2.0 * sol.integral[0],
                                                    2.0 * sol.integral[1])]
        mid = ell + mark * (top - ell)
        stops = sorted({mid, ell, *[x for x in potential.knots if ell < x < top]},
                       reverse=True)
        sol = _dop853((potential.stage_q, z), top, start, stops, _RTOL, _ATOL)
        i = stops.index(mid)
        return ([(sol.y[i], sol.y[-1])],
                [(2.0 * sol.integral[i], 2.0 * sol.integral[-1])])
    d = np.array(tops) - ell
    d2 = d * d
    zs = np.array(zq)
    stops = sorted(set(marks), reverse=True) + [0.0]
    sol = _dop853((lambda s: d2 * (potential(ell + np.multiply.outer(s, d)) - zs), d), 1.0,
                  d * np.array(starts), stops, _RTOL, _ATOL)
    us = [v / d for v in sol.y]
    at = [stops.index(mark) for mark in marks]
    return ([(us[i][j], us[-1][j]) for j, i in enumerate(at)],
            [(2.0 * sol.integral[i][j], 2.0 * sol.integral[-1][j]) for j, i in enumerate(at)])


def _certified_marks(potential: Potential, zq: list, directions: list,
                     dists: list[float]) -> list[float]:
    """The certified point s of each first-round column: 1/sqrt 2 where its leg contracts, else 1/2.

    The certified point stays ``ell + dist/2``, dist the first distance
    (:func:`_first_distances`).  A column starts at ``X - ell = dist /
    sqrt 2``, with that point at ``s = 1/sqrt 2``, where the reference leg
    from it out to X still contracts the start's error tenfold on its own:
    its WKB exponent ``2 int Re(e sqrt(q - z))``, a trapezoid over the leg's
    two ends, reaches ln 10, and X lies outside any well, ``Re(e sqrt(q(X)
    - z)) > 0``.  Elsewhere X - ell stays dist, with the point at s = 1/2.
    A stack takes q at both ends in one array call.
    """
    ell = potential.ell
    ends = [[ell + 0.5 * d * e, ell + _SHORT_MARK * d * e] for d, e in zip(dists, directions)]
    if len(ends) > 1:
        # complex, so a real column in a well of q takes an imaginary root
        roots = np.sqrt(potential(np.array(ends)) - np.array(zq, complex)[:, None]).tolist()
    else:
        roots = [[cmath.sqrt(potential(x) - zq[0]) for x in ends[0]]]
    marks = []
    for d, e, (root_mid, root_top) in zip(dists, directions, roots):
        rate_mid, rate_top = abs((e * root_mid).real), abs((e * root_top).real)
        leg = (_SHORT_MARK - 0.5) * d * (rate_mid + rate_top)
        marks.append(_SHORT_MARK if rate_top > 0.0 and leg >= _LEG_CONTRACTION else 0.5)
    return marks


def _naming_z(outcome, z):
    """outcome, or, if it is an error, that error carrying z in its ``z``.

    An error of the potential or the stepper names x but not z: it is
    copied, keeping its type, with a message that ends with ``(z = ...)``.
    """
    if type(outcome) is tuple:
        return outcome
    if isinstance(outcome, IntegrationError) and outcome.z is None:
        outcome = type(outcome)(f"{outcome} (z = {z})")
    outcome.z = z
    return outcome


def _riccati_batch(potential: Potential, zs: list[complex], tol: float) -> list:
    """(m_inf(z), truncation X, error bound), or z's error, for distinct zs off [0, inf).

    The value is ``m_inf = -u(ell)``, and its gap and integration term are
    in u's units (module docstring); every m_alpha is its rotation
    (:func:`rotate_evaluation`).  Each column keeps the certified point
    ``ell + d/2`` of its distance d.  In the first round X - ell is d /
    sqrt 2 where the reference leg out from that point contracts tenfold
    (:func:`_certified_marks`), else d.  Every truncation round sweeps the
    columns still open in one :func:`_sweep`, each stopping at its
    certified point; a column whose gap fails doubles d, takes X - ell = d,
    and joins the next round.  An off-axis column sweeps its ray where
    :func:`_directions` allows; X is then ell plus the path length, a float.
    A round of one column, alone or the last one open, takes the scalar
    sweep, on the real axis or on its ray.  Only a potential that
    ``stacks`` (the Bessel kind) sweeps several columns at once; every
    other kind solves its zs one at a time, each exactly as alone.
    An error raised in a round settles the columns still open in one
    place: a lone column takes it, and a stack's columns are each solved
    again alone, so each error names its z.
    """
    if len(zs) > 1 and not potential.stacks:
        return [_riccati_batch(potential, [z], tol)[0] for z in zs]
    ell = potential.ell
    x_max = _X_MAX_FACTOR * max(ell, 1.0)
    real = [z.imag == 0.0 for z in zs]
    zq = [z.real if r else z for z, r in zip(zs, real)]
    directions = _directions(potential, zs, tol)
    out: list = [None] * len(zs)
    dist: dict = {}
    loose: dict = {}

    def settle(j, result):
        out[j] = _naming_z(result, zq[j])
        dist.pop(j, None)

    try:
        for j, d in enumerate(_first_distances(potential, zs, tol, x_max, directions)):
            if isinstance(d, WeylsysError):
                settle(j, d)
            else:
                dist[j] = d
        mark = dict(zip(dist, _certified_marks(
            potential, [zq[j] for j in dist], [directions[j] for j in dist],
            list(dist.values())))) if dist else {}
        # the certified point ell + dist/2 lies at s = mark of [ell, X]
        top = {j: min(ell + 0.5 * d / mark[j], x_max) for j, d in dist.items()}
        while dist:
            cols, ends, starts, loose = [], [], [], {}
            # X, or on a ray its complex end
            xs = [top[j] if directions[j] == 1.0 else ell + (top[j] - ell) * directions[j]
                  for j in dist]
            for j, x, (s, u_start, u2, u3) in zip(list(dist), xs, _wkb_starts(
                    potential, xs, [zq[j] for j in dist])):
                if real[j] and s.real <= 0:
                    settle(j, DomainError(
                        f"q(X) - z = {s.real:g} <= 0 at X = {top[j]:g}; the real-axis path "
                        "requires z strictly below the potential tail "
                        f"(nonnegative-operator regime) (z = {zq[j]})"))
                    continue
                if real[j]:
                    k = math.sqrt(s.real)
                    if not (u3 <= u2 <= k or max(u2, u3) <= _RTOL * k):
                        # the series does not fall, and its terms are not negligible
                        # beside k: if the sweep from it fails, this is why
                        loose[j] = (u_start.real, u2, u3, k)
                cols.append(j)
                ends.append(x)
                starts.append(u_start.real if real[j] else u_start)
            if not cols:
                break
            marks = [mark[j] for j in cols]
            us, ws = _sweep(potential, [zq[j] for j in cols], ends, starts, marks)
            mids = _wkb_starts(potential, [ell + s * (end - ell) for s, end in zip(marks, ends)],
                               [zq[j] for j in cols])
            for j, (u_mid, u), (w_mid, w), (_, u_start, _, _) in zip(cols, us, ws, mids):
                if real[j]:
                    u_mid, u = u_mid.real, u.real
                # the start error of the truncation at the certified point, carried
                # to ell by the flow
                damping = math.exp(min((w_mid - w).real, 700.0))
                gap = abs(u_mid - u_start) * damping
                if gap <= max(_GAP_FLOOR, tol * abs(u)):
                    step_error = _INTEGRATION_ERROR * (_ATOL + _RTOL * abs(u))
                    settle(j, (complex(-u), top[j], float(gap + step_error)))
                    continue
                dist[j] *= 2.0
                mark[j] = 0.5
                top[j] = ell + dist[j]
                if top[j] > x_max:
                    settle(j, ConvergenceError(
                        f"Riccati truncation exceeded X_max = {x_max:g} "
                        f"without the value settling (z = {zq[j]})"))
    except WeylsysError as exc:
        still = [j for j, o in enumerate(out) if o is None]
        if len(still) > 1:
            for j in still:
                settle(j, _riccati_batch(potential, [zs[j]], tol)[0])
        else:
            (j,) = still
            if isinstance(exc, StiffnessError) and j in loose:
                u0, a2, a3, k = loose[j]
                exc = ConvergenceError(
                    f"the WKB start at X = {top[j]:g} does not fall (u = {u0:.3g}, |u2| = "
                    f"{a2:.3g} and |u3| = {a3:.3g} against sqrt(q(X) - z) = {k:.3g}): q varies "
                    "too fast for q - z there, and the backward flow from the start ran into "
                    f"a pole (z = {zq[j]})")
            settle(j, exc)
    return out


# ---------------------------------------------------------------------------
# evaluator
# ---------------------------------------------------------------------------

class MEvaluation(NamedTuple):
    """A single m-function value plus the diagnostics of its computation.

    ``value`` is a Python complex and ``error_bound`` a Python float: the
    gap of the truncation at the certified point ``ell + d/2`` plus the
    integration term (module docstring) on the numeric path, and 0 for
    closed forms.  ``truncation_X`` is the X of the sweep that settled:
    ``ell + d / sqrt 2`` from a first sweep whose reference leg contracts
    tenfold, else ``ell + d``, ell plus the path length on a ray.  ``path`` names the
    half-plane for the same sweep: ``"weyl-disk"`` off the real axis (the
    name of the integrator it replaced, which the benchmark's spans key
    on), ``"riccati"`` on the negative axis, or ``"closed-form"``.  A named
    tuple, so it unpacks and compares equal to the tuple of its fields.
    """

    value: complex
    truncation_X: float
    error_bound: float
    path: str


@dataclass(frozen=True)
class MFunctionEvaluator:
    """Immutable evaluator of m_inf(z) for one potential.

    ``mode`` is ``"numeric"`` or ``"closed_form"``; the closed form is the
    potential's own ``Potential.closed_form``, which is set, to
    :func:`half_integer_bessel_m`, for a Bessel potential with half-integer
    nu, the free potential nu = 1/2 among them (any ell > 0, and ell = 0 too
    when nu = 1/2).  ``tol`` is the truncation tolerance of
    the numeric path: it sizes the first distance d, and the gap of the
    truncation at the certified point ``ell + d/2`` must fall to
    ``max(1e-10, tol * |m|)``.
    All operations are pure, so concurrent use from several threads is safe.
    """

    potential: Potential
    mode: str = "numeric"
    tol: float = 1e-8

    def __post_init__(self):
        check_tol(self.tol)
        if self.mode not in ("numeric", "closed_form"):
            raise DomainError(f"unknown evaluator mode {self.mode!r}")
        if self.mode == "closed_form" and not self.has_closed_form(self.potential):
            raise DomainError("closed_form mode needs a bessel potential with "
                              "nu - 1/2 a non-negative integer, got "
                              f"{self.potential.label or self.potential.kind}")

    @staticmethod
    def has_closed_form(potential: Potential) -> bool:
        return potential.closed_form is not None


def _check_spectral_point(z: complex) -> complex:
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise DomainError(f"non-finite spectral point z = {z}")
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

    The stack is the Bessel kind's (``Potential.stacks``): each distinct z
    is one column of the sweep, with its own truncation X, gap test and
    ``error_bound`` (module docstring); only the columns whose gap fails
    are doubled and swept again.  Every off-axis column sweeps its complex
    ray, while one distinct z does so only near the positive axis,
    ``Im sqrt(z) <= 0.45 |sqrt z|``, and runs on a scalar state
    (:func:`_directions`).  On a Bessel potential a z's last digits can
    differ from those of another batch, always within its ``error_bound``.
    Every other kind sweeps its distinct z one at a time, so each entry is
    that z's :func:`m_infinity_info`, bit for bit.  A batch of one point
    is exactly :func:`m_infinity_info`.
    """
    points = [complex(z) for z in zs]
    outcomes: list = [None] * len(points)
    columns: dict[complex, list[int]] = {}
    pot = evaluator.potential
    for i, z in enumerate(points):
        try:
            _check_spectral_point(z)
        except DomainError as exc:
            exc.z = z
            outcomes[i] = exc
            continue
        if evaluator.mode == "closed_form":
            outcomes[i] = MEvaluation(pot.closed_form(z), math.inf, 0.0, "closed-form")
        else:
            columns.setdefault(z, []).append(i)
    distinct = list(columns)
    solved = _riccati_batch(pot, distinct, evaluator.tol) if distinct else []
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
    """The m_alpha(z) evaluation from the m_inf(z) one; see :func:`m_alpha_info`.

    A pole's :class:`PoleError` names a real z as a float, as the sweep's errors do.
    """
    if alpha == math.pi:
        return info
    sa, ca = _alpha_data(alpha)
    den = ca - info.value * sa
    value = safe_div(sa + info.value * ca, den, z=z.real if z.imag == 0.0 else z,
                     what="m_alpha")
    return info._replace(value=value, error_bound=info.error_bound / abs(den) ** 2)


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
                   tol: float = MFunctionEvaluator.tol) -> complex:
    """:func:`m_alpha` with its evaluator built from (potential, tol).

    It stays because the example suite's numeric-versus-closed rotation
    check and the benchmark's spans name it.  It reads m_inf from
    :func:`m_infinity_batch`, not :func:`m_infinity_info`, so a traced run
    counts one evaluation here, not two nested ones.
    """
    evaluator = MFunctionEvaluator(potential, tol=tol)
    check_alpha(alpha)
    return rotate_evaluation(m_infinity_batch(evaluator, (z,))[0], alpha, z).value


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
#: toward -0 and x_k = -10**k toward -inf, k = 1..8.  ``weylsys classify``
#: reads only the first, for m0: its class limits are V at m = inf and at m0.
MINUS_ZERO_LADDER = tuple(-10.0 ** (-k) for k in range(1, _EXTRAPOLATION_POINTS + 1))
MINUS_INFINITY_LADDER = tuple(-10.0 ** k for k in range(1, _EXTRAPOLATION_POINTS + 1))


def limit_at_minus_zero(f: Callable[[float], complex]) -> float:
    """Extrapolated limit of f(x) as x -> -0 along :data:`MINUS_ZERO_LADDER`."""
    return _extrapolate([_sample_real(f, x) for x in MINUS_ZERO_LADDER])


def limit_at_minus_infinity(f: Callable[[float], complex]) -> float:
    """Extrapolated limit of f(x) as x -> -inf along :data:`MINUS_INFINITY_LADDER`.

    This serves a general f given only by its values; nothing in the
    package calls it.  m_inf -> +inf at -inf for every potential the
    library accepts, so a Moebius function of m tends to its value at
    m = inf (:func:`weylsys.lsystem.impedance_limit`).
    """
    return _extrapolate([_sample_real(f, x) for x in MINUS_INFINITY_LADDER])


def m_infinity_limit_at_zero(evaluator: MFunctionEvaluator) -> float:
    """m_inf(-0), the boundary value controlling accretivity thresholds."""
    return limit_at_minus_zero(lambda x: m_infinity(evaluator, x))


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
