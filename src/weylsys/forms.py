"""Quadratic form comparison on the half-line [1, inf).

For smooth real test functions y with finite energy, compares the
Dirichlet-type form re_form(y) = ∫ (y'^2 + 2 y^2 / x^2) dx against the
boundary form im_form(y) = y(1)^2.  The inequality im_form <= re_form is
sharp: y = 1/x achieves equality, and the reported ratio im_form/re_form
never exceeds 1.  Every test function is analytic in closed form, so the
module runs on numpy alone.

A test function is a flat row: the weight of 1/x and its exponential-
polynomial bumps.  The forms of many test functions are integrated
together: their rows become one table, and one adaptive Gauss-Kronrod loop
refines every integral, with one vectorised call of the integrand per round
over the new intervals of all of them (:func:`evaluate_forms`).  Each value
is the same as in a stack of its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import numpy.random  # noqa: F401  numpy loads it lazily: load it with this module

from .errors import DivergenceError, DomainError

__all__ = [
    "TestFunction",
    "FormReport",
    "evaluate_form",
    "evaluate_forms",
    "form_inner",
    "generate_test_functions",
    "SharpnessReport",
    "sharpness_search",
]

_ELL = 1.0    # the left end of the half-line
_SPAN = 0.1   # the power-plus-exp scan's eps runs over [-_SPAN, _SPAN]


def _form(x, y, dy, w, dw):
    """The integrand y' w' + q y w of the form, with q = 2/x^2."""
    return dy * dw + 2.0 * y * w / x**2


@dataclass(frozen=True)
class TestFunction:
    """A smooth real test function ``a/x + sum_t b_t p_t(x-1) e^{-d_t (x-1)}`` on [1, inf).

    ``reciprocal`` is the weight a of 1/x, and each bump of ``bumps`` is
    (weight b_t, ascending polynomial coefficients p_t, decay d_t).  Build
    one with :meth:`power` (1/x), :meth:`exp_poly` (one bump) or
    :meth:`mix` (a finite real linear combination).
    """

    __test__ = False  # not a test case, despite the name

    reciprocal: float = 0.0
    bumps: tuple[tuple[float, tuple[float, ...], float], ...] = ()
    label: str = ""

    def __post_init__(self):
        if not all(math.isfinite(w) for w in (self.reciprocal, *(b for b, _, _ in self.bumps))):
            raise DomainError("test-function weights must be finite")
        for _, coefficients, decay in self.bumps:
            if not coefficients:
                raise DomainError("exp_poly needs at least one polynomial coefficient")
            if not all(math.isfinite(c) for c in coefficients):
                raise DomainError("exp_poly coefficients must be finite")
            if not (math.isfinite(decay) and decay > 0.0):
                raise DomainError(
                    f"exp_poly decay must be positive (integrable tail), got {decay}")

    @classmethod
    def power(cls, label: str = "1/x") -> "TestFunction":
        return cls(reciprocal=1.0, label=label)

    @classmethod
    def exp_poly(cls, coefficients, decay: float = 1.0, label: str = "") -> "TestFunction":
        return cls(bumps=((1.0, tuple(float(c) for c in coefficients), float(decay)),),
                   label=label)

    @classmethod
    def mix(cls, parts, weights, label: str = "") -> "TestFunction":
        parts, weights = tuple(parts), tuple(float(w) for w in weights)
        if (not parts or len(parts) != len(weights)
                or not all(isinstance(part, TestFunction) for part in parts)):
            raise DomainError("mix needs matching nonempty TestFunction parts and weights")
        return cls(
            reciprocal=sum(w * part.reciprocal for w, part in zip(weights, parts)),
            bumps=tuple((w * b, c, d) for w, part in zip(weights, parts)
                        for b, c, d in part.bumps),
            label=label,
        )

    @cached_property
    def _table(self) -> "_Table":
        return _Table((self,))

    def value(self, x):
        return self._table(np.asarray(x, dtype=float), 0)[0]

    def derivative(self, x):
        return self._table(np.asarray(x, dtype=float), 0)[1]

    def boundary_value(self) -> float:
        return self.reciprocal + sum(b * c[0] for b, c, _ in self.bumps)


def _horner(c, u):
    """The polynomial with coefficients ``c[..., i]`` (ascending) at u, in polyval's order."""
    p = c[..., -1] + u * 0.0
    for i in range(c.shape[-1] - 2, -1, -1):
        p = c[..., i] + p * u
    return p


class _Table:
    """Test functions ``y_j = a_j / x + sum_t b_jt p_jt(x - 1) e^{-d_jt (x - 1)}`` as arrays.

    Row j holds the weight a_j of 1/x and, for each bump t, its weight
    b_jt, decay d_jt and coefficients, padded with zeros to the longest
    bump and with zero bumps to the most bumps; the derivative coefficients
    are formed once.  The values are bit-identical to numpy's polyval and
    polyder evaluated bump by bump.
    """

    def __init__(self, ys):
        bumps = max([1, *(len(y.bumps) for y in ys)])
        degree = max([1, *(len(c) for y in ys for _, c, _ in y.bumps)])
        self.reciprocal = np.array([y.reciprocal for y in ys])
        self.weight = np.zeros((len(ys), bumps))
        self.decay = np.ones((len(ys), bumps))
        self.coefficients = np.zeros((len(ys), bumps, degree))
        for j, y in enumerate(ys):
            for t, (b, c, d) in enumerate(y.bumps):
                self.weight[j, t], self.decay[j, t] = b, d
                self.coefficients[j, t, :len(c)] = c
        self.slopes = np.zeros_like(self.coefficients)
        self.slopes[..., :-1] = np.arange(1, degree) * self.coefficients[..., 1:]

    def __call__(self, x, owner):
        """(y, y') at x of the functions ``owner``, an index that broadcasts against x."""
        a = self.reciprocal[owner]
        value, slope = a * (1.0 / x), a * (-1.0 / x**2)
        u = x - _ELL
        weight, decay = self.weight[owner], self.decay[owner]
        coefficients, slopes = self.coefficients[owner], self.slopes[owner]
        for t in range(weight.shape[-1]):
            b, d = weight[..., t], decay[..., t]
            p, dp = _horner(coefficients[..., t, :], u), _horner(slopes[..., t, :], u)
            e = np.exp(-d * u)
            value = value + b * (p * e)
            slope = slope + b * ((dp - d * p) * e)
        return value, slope


@dataclass(frozen=True)
class FormReport:
    re_form: float
    im_form: float
    ratio: float


# QUADPACK's qk21 (Piessens et al., 1983): the 21-point Kronrod rule on
# [-1, 1] and the 10-point Gauss rule on its odd-indexed nodes
_XGK = (0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
        0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
        0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
        0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
        0.294392862701460198131126603103866, 0.148874338981631210884826001129720)
_WGK = (0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
        0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
        0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
        0.123491976262065851077208685092790, 0.134709217311473325928054001771707,
        0.142775938577060080797094273138717, 0.147739104901338491374841515972068)
_WGK_CENTRE = 0.149445554002916905664936468389821
_WG = (0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
       0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
       0.295524224714752870173892994651338)
_NODES = np.array([-x for x in _XGK] + [0.0] + list(reversed(_XGK)))
_KRONROD = np.array(list(_WGK) + [_WGK_CENTRE] + list(reversed(_WGK)))
_GAUSS = np.zeros(21)
_GAUSS[1:10:2] = _WG
_GAUSS[11:20:2] = tuple(reversed(_WG))
_EPS = np.finfo(float).eps
_EPSABS, _EPSREL = 1e-12, 1e-10   # quad's tolerance: max(_EPSABS, _EPSREL |integral|)
_LIMIT = 400                       # quad's largest number of intervals


def _gk21(g, lo: np.ndarray, hi: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(integral, error estimate) on each interval [lo_i, hi_i], in one call of g.

    ``g(t, rows)`` returns the integrand of ``rows[i]`` at the nodes ``t[i]``
    of interval i.  Each row is summed in a fixed order: a matrix product
    would round a row differently with the number of rows.  The error
    estimate is the Kronrod-Gauss difference, floored at 50 eps times the
    integral of |f| as in qk21.  qk21 also shrinks the difference by
    ``(200 d / spread)^1.5``; that accepted a 3.7e-12 relative error on
    exp(-2.8 (x - 1)), where the plain difference kept every
    exp(-c (x - 1)), c in [0.1, 10], within 6e-15.
    """
    centre = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    fx = g(centre[:, None] + half[:, None] * _NODES, rows)
    kronrod = (fx * _KRONROD).sum(axis=1)
    err = np.abs((kronrod - (fx * _GAUSS).sum(axis=1)) * half)
    err = np.maximum(err, 50.0 * _EPS * (np.abs(fx) * _KRONROD).sum(axis=1) * np.abs(half))
    return kronrod * half, err


def quad_stack(f, a: float, n: int) -> list[tuple[float, float]]:
    """(integral, error estimate) over [a, inf) of each of n vectorised integrands.

    ``f(x, owner)`` gives the integrands at the nodes x, an array of rows,
    row i being integrand ``owner[i, 0]``.  Adaptive Gauss-Kronrod 21 on t
    in [0, 1) under x = a + t/(1 - t).  Every interval carries its owner,
    and every owner keeps the rules of a loop of its own: each round it
    sums its intervals with math.fsum and, until its error is within
    ``max(1e-12, 1e-10 |integral|)``, bisects, worst first, each of its
    intervals whose error exceeds its share (by width) of that tolerance,
    up to 400 intervals.  The new intervals of all owners are evaluated in
    one call of f.  Raises DivergenceError, naming x and (in a stack of
    more than one) the owner, where an integrand is not finite, or when an
    owner misses its tolerance within 400 intervals or before an interval
    shrinks to the float spacing.  There is no extrapolation, as in
    QUADPACK's qagi: an integrable singularity fails too, but the test
    functions of this module have none.
    """
    def name(j):
        return "integrand" if n == 1 else f"integrand {j}"

    def g(t, rows):
        x = a + t / (1.0 - t)
        with np.errstate(over="ignore", invalid="ignore"):   # checked just below
            fx = f(x, rows[:, None]) / (1.0 - t) ** 2
        bad = ~np.isfinite(fx)
        if bad.any():
            i, k = np.argwhere(bad)[0]
            raise DivergenceError(f"{name(rows[i])} is not finite at x = {float(x[i, k])!r}")
        return fx

    if n == 0:
        return []
    out: list = [None] * n
    owner = np.arange(n)
    los, his = np.zeros(n), np.ones(n)
    vals, errs = _gk21(g, los, his, owner)
    while True:
        # group the intervals by owner; within one, the order of a loop of its own
        order = np.argsort(owner, kind="stable")
        owner, los, his, vals, errs = (v[order] for v in (owner, los, his, vals, errs))
        starts = np.flatnonzero(np.diff(owner, prepend=-1))
        sizes = np.diff(np.append(starts, owner.size))
        group = np.repeat(np.arange(starts.size), sizes)
        vl, el = vals.tolist(), errs.tolist()
        tols, errors = np.empty(starts.size), np.empty(starts.size)
        for i, (s, size, j) in enumerate(zip(starts.tolist(), sizes.tolist(),
                                             owner[starts].tolist())):
            value, errors[i] = math.fsum(vl[s:s + size]), math.fsum(el[s:s + size])
            tols[i] = max(_EPSABS, _EPSREL * abs(value))
            if errors[i] <= tols[i]:
                out[j] = (value, float(errors[i]))
        busy = errors > tols
        if not busy.any():
            break
        pending = busy[group]
        over = np.flatnonzero(pending & (errs > tols[group] * (his - los)))
        over = over[np.lexsort((-errs[over], group[over]))]
        rank = np.arange(over.size) - np.searchsorted(group[over], group[over])
        over = over[rank < _LIMIT - sizes[group[over]]]
        a_over, b_over = los[over], his[over]
        narrow = b_over - a_over <= 1e3 * _EPS * np.maximum(np.abs(a_over), np.abs(b_over))
        stuck = busy & (np.bincount(group[over], minlength=starts.size) == 0)
        narrowed = np.bincount(group[over], weights=narrow, minlength=starts.size) > 0
        failed = np.flatnonzero(stuck | narrowed)
        if failed.size:
            i = failed[0]
            where = (f"with {_LIMIT} intervals" if stuck[i]
                     else "on an interval at the float spacing")
            of = "" if n == 1 else f" of integrand {owner[starts[i]]}"
            raise DivergenceError(
                f"quadrature{of} did not converge: error {errors[i]:.3g} above "
                f"{tols[i]:.3g} {where}")
        mid = 0.5 * (a_over + b_over)
        new_vals, new_errs = _gk21(g, np.concatenate([a_over, mid]),
                                   np.concatenate([mid, b_over]),
                                   np.concatenate([owner[over], owner[over]]))
        keep = pending.copy()
        keep[over] = False
        owner = np.concatenate([owner[keep], owner[over], owner[over]])
        los = np.concatenate([los[keep], a_over, mid])
        his = np.concatenate([his[keep], mid, b_over])
        vals = np.concatenate([vals[keep], new_vals])
        errs = np.concatenate([errs[keep], new_errs])
    return out


def quad(f, a: float) -> tuple[float, float]:
    """(integral, error estimate) of a vectorised f over [a, inf): the stack of one."""
    return quad_stack(lambda x, owner: f(x), a, 1)[0]


def evaluate_forms(ys) -> tuple[FormReport, ...]:
    """Evaluate both forms and their ratio for each test function, in one quadrature.

    re_form integrates y'^2 + 2 y^2/x^2 over [1, inf); im_form is y(1)^2.
    The functions are evaluated as one table, and their integrals share
    the rounds of :func:`quad_stack`.
    """
    ys = tuple(ys)
    if not all(isinstance(y, TestFunction) for y in ys):
        raise DomainError("evaluate_forms expects TestFunctions")
    table = _Table(ys)

    def integrand(x, owner):
        value, slope = table(x, owner)
        return _form(x, value, slope, value, slope)

    reports = []
    for y, (re_form, _) in zip(ys, quad_stack(integrand, _ELL, len(ys))):
        im_form = y.boundary_value() ** 2
        if re_form <= 0.0:
            ratio = 0.0 if im_form == 0.0 else math.inf
        else:
            ratio = im_form / re_form
        reports.append(FormReport(re_form=re_form, im_form=im_form, ratio=ratio))
    return tuple(reports)


def evaluate_form(y: TestFunction) -> FormReport:
    """:func:`evaluate_forms` of the one test function y."""
    return evaluate_forms((y,))[0]


def form_inner(y: TestFunction, w: TestFunction) -> float:
    """Bilinear form ∫ (y' w' + 2 y w / x^2) dx over [1, inf).

    Pairing any admissible y against 1/x returns y(1): the boundary form is
    the restriction of this pairing, which is why the inequality is sharp
    exactly on multiples of 1/x.
    """
    if not (isinstance(y, TestFunction) and isinstance(w, TestFunction)):
        raise DomainError("form_inner expects TestFunctions")

    table = _Table((y, w))
    pair = np.array([0, 1])[:, None, None]

    def integrand(x):
        (y_x, w_x), (dy, dw) = table(x, pair)
        return _form(x, y_x, dy, w_x, dw)

    return quad(integrand, _ELL)[0]


def generate_test_functions(n: int, seed: int = 0) -> tuple[TestFunction, ...]:
    """Deterministically generate n admissible test functions from a seed.

    Mixes pure exponential-polynomial bumps, multiples of 1/x (the equality
    direction), and combinations of the two.
    """
    if n < 1:
        raise DomainError("need n >= 1")
    rng = np.random.default_rng(seed)
    out: list[TestFunction] = []
    for i in range(int(n)):
        draw = rng.random()
        degree = int(rng.integers(0, 4))
        coeffs = rng.uniform(-2.0, 2.0, degree + 1)
        if np.abs(coeffs).max() < 1e-3:
            coeffs[0] = 1.0
        decay = 10.0 ** rng.uniform(-0.7, 0.7)
        bump = TestFunction.exp_poly(coeffs, decay, label=f"bump-{i}")
        if draw < 0.55:
            out.append(bump)
        elif draw < 0.85:
            weights = rng.uniform(-2.0, 2.0, 2)
            out.append(
                TestFunction.mix((TestFunction.power(), bump), weights, label=f"mix-{i}")
            )
        else:
            w0 = float(rng.uniform(-2.0, 2.0))
            if abs(w0) < 1e-3:
                w0 = 1.0
            out.append(TestFunction.mix((TestFunction.power(),), (w0,), label=f"scaled-power-{i}"))
    return tuple(out)


@dataclass(frozen=True)
class SharpnessReport:
    family: str
    params: tuple[float, ...]
    ratios: tuple[float, ...]
    best_ratio: float
    best_param: float


def sharpness_search(family: str = "power-plus-exp", n: int = 41) -> SharpnessReport:
    """Scan a one-parameter family for the largest im/re form ratio.

    Families: "power-plus-exp" scans 1/x + eps * e^{-(x-1)} for eps in
    [-0.1, 0.1] (the maximum sits at eps = 0 with ratio 1); "exp-decay"
    scans pure exponentials e^{-c(x-1)} over log-spaced c in [0.1, 10]
    (all ratios < 1).
    """
    if family not in ("power-plus-exp", "exp-decay"):
        raise DomainError(f"unknown sharpness family: {family!r}")
    if n < 3:
        raise DomainError("need n >= 3 scan points")
    if family == "power-plus-exp":
        params = tuple(0.0 if abs(e) < 1e-14 else float(e) for e in np.linspace(-_SPAN, _SPAN, n))
        pool = [
            TestFunction.mix(
                (TestFunction.power(), TestFunction.exp_poly((1.0,), 1.0)),
                (1.0, eps),
                label=f"1/x + {eps:.4g} exp(-(x-1))",
            )
            for eps in params
        ]
    else:
        params = tuple(float(c) for c in np.logspace(-1.0, 1.0, n))
        pool = [TestFunction.exp_poly((1.0,), c, label=f"exp(-{c:.4g}(x-1))") for c in params]

    ratios = tuple(rep.ratio for rep in evaluate_forms(pool))
    best = int(np.argmax(ratios))
    return SharpnessReport(
        family=family,
        params=params,
        ratios=ratios,
        best_ratio=ratios[best],
        best_param=params[best],
    )
