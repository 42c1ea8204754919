"""Quadratic form comparison on the half-line [1, inf).

For smooth real test functions y with finite energy, compares the
Dirichlet-type form re_form(y) = ∫ (y'^2 + 2 y^2 / x^2) dx against the
boundary form im_form(y) = y(1)^2.  The inequality im_form <= re_form is
sharp: y = 1/x achieves equality, and the reported ratio im_form/re_form
never exceeds 1.  Every test function is analytic in closed form, so the
module runs on numpy alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
# numpy loads these lazily: load them with this module, not inside a first call
import numpy.polynomial  # noqa: F401
import numpy.random  # noqa: F401

from .errors import DivergenceError, DomainError

__all__ = [
    "TestFunction",
    "FormReport",
    "evaluate_form",
    "form_inner",
    "generate_test_functions",
    "SharpnessReport",
    "sharpness_search",
]

_SPAN = 0.1   # the power-plus-exp scan's eps runs over [-_SPAN, _SPAN]


@dataclass(frozen=True)
class TestFunction:
    """A smooth real test function on [1, inf) with a closed-form derivative.

    Kinds: "power" is 1/x; "exp_poly" is p(x-1) e^{-decay (x-1)} with
    polynomial coefficients in ascending order; "mix" is a finite real
    linear combination of test functions.
    """

    __test__ = False  # not a test case, despite the name

    kind: str
    coefficients: tuple[float, ...] = ()
    decay: float = 1.0
    parts: tuple["TestFunction", ...] = ()
    weights: tuple[float, ...] = ()
    label: str = ""

    def __post_init__(self):
        if self.kind == "power":
            pass
        elif self.kind == "exp_poly":
            if not self.coefficients:
                raise DomainError("exp_poly needs at least one polynomial coefficient")
            if not all(math.isfinite(c) for c in self.coefficients):
                raise DomainError("exp_poly coefficients must be finite")
            if not (math.isfinite(self.decay) and self.decay > 0.0):
                raise DomainError(
                    f"exp_poly decay must be positive (integrable tail), got {self.decay}"
                )
        elif self.kind == "mix":
            if not self.parts or len(self.parts) != len(self.weights):
                raise DomainError("mix needs matching nonempty parts and weights")
            if not all(math.isfinite(w) for w in self.weights):
                raise DomainError("mix weights must be finite")
        else:
            raise DomainError(f"unknown test-function kind: {self.kind!r}")

    @classmethod
    def power(cls, label: str = "1/x") -> "TestFunction":
        return cls(kind="power", label=label)

    @classmethod
    def exp_poly(cls, coefficients, decay: float = 1.0, label: str = "") -> "TestFunction":
        return cls(
            kind="exp_poly",
            coefficients=tuple(float(c) for c in coefficients),
            decay=float(decay),
            label=label,
        )

    @classmethod
    def mix(cls, parts, weights, label: str = "") -> "TestFunction":
        return cls(
            kind="mix",
            parts=tuple(parts),
            weights=tuple(float(w) for w in weights),
            label=label,
        )

    def value(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == "power":
            return 1.0 / x
        if self.kind == "exp_poly":
            u = x - 1.0
            return np.polynomial.polynomial.polyval(u, self.coefficients) * np.exp(-self.decay * u)
        return sum(w * part.value(x) for w, part in zip(self.weights, self.parts))

    def derivative(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == "power":
            return -1.0 / x**2
        if self.kind == "exp_poly":
            u = x - 1.0
            p = np.polynomial.polynomial.polyval(u, self.coefficients)
            dp = np.polynomial.polynomial.polyval(
                u, np.polynomial.polynomial.polyder(self.coefficients)
            ) if len(self.coefficients) > 1 else 0.0
            return (dp - self.decay * p) * np.exp(-self.decay * u)
        return sum(w * part.derivative(x) for w, part in zip(self.weights, self.parts))

    def boundary_value(self) -> float:
        if self.kind == "power":
            return 1.0
        if self.kind == "exp_poly":
            return float(self.coefficients[0])
        return float(sum(w * part.boundary_value() for w, part in zip(self.weights, self.parts)))


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


def _gk21(g, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(integral, error estimate) on each interval [lo_i, hi_i], in one call of g.

    ``g(t)`` returns the points x of the integrand at the nodes t and its
    values there.  The error estimate is the Kronrod-Gauss difference,
    floored at 50 eps times the integral of |f| as in qk21.  qk21 also
    shrinks the difference by ``(200 d / spread)^1.5``; that accepted a
    3.7e-12 relative error on exp(-2.8 (x - 1)), where the plain difference
    kept every exp(-c (x - 1)), c in [0.1, 10], within 6e-15.
    """
    centre = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    x, fx = g(centre[:, None] + half[:, None] * _NODES)
    bad = ~np.isfinite(fx)
    if bad.any():
        raise DivergenceError(f"integrand is not finite at x = {float(x[bad][0])!r}")
    kronrod = fx @ _KRONROD
    err = np.abs((kronrod - fx @ _GAUSS) * half)
    err = np.maximum(err, 50.0 * _EPS * (np.abs(fx) @ _KRONROD) * np.abs(half))
    return kronrod * half, err


def quad(f, a: float) -> tuple[float, float]:
    """(integral, error estimate) of a vectorised f over [a, inf).

    Adaptive Gauss-Kronrod 21 on t in [0, 1) under x = a + t/(1 - t).  Each
    round bisects, worst first, every interval whose error exceeds its share
    (by width) of ``max(1e-12, 1e-10 |integral|)``, and evaluates all new
    intervals in one call of f on an array.  Raises DivergenceError where f
    is not finite, or when the tolerance is not met within 400 intervals or
    before an interval shrinks to the float spacing.  There is no
    extrapolation, as in QUADPACK's qagi: an integrable singularity fails
    too, but the test functions of this module have none.
    """
    def g(t):
        x = a + t / (1.0 - t)
        return x, f(x) / (1.0 - t) ** 2

    los, his = np.array([0.0]), np.array([1.0])
    vals, errs = _gk21(g, los, his)
    while True:
        value, error = math.fsum(vals.tolist()), math.fsum(errs.tolist())
        tol = max(_EPSABS, _EPSREL * abs(value))
        if error <= tol:
            return value, error
        over = np.flatnonzero(errs > tol * (his - los))
        over = over[np.argsort(-errs[over], kind="stable")][:_LIMIT - los.size]
        if over.size == 0:
            raise DivergenceError(
                f"quadrature did not converge: error {error:.3g} above {tol:.3g} "
                f"with {_LIMIT} intervals")
        a_over, b_over = los[over], his[over]
        if np.any(b_over - a_over <= 1e3 * _EPS * np.maximum(np.abs(a_over), np.abs(b_over))):
            raise DivergenceError(
                f"quadrature did not converge: error {error:.3g} above {tol:.3g} "
                "on an interval at the float spacing")
        mid = 0.5 * (a_over + b_over)
        new_vals, new_errs = _gk21(g, np.concatenate([a_over, mid]),
                                   np.concatenate([mid, b_over]))
        keep = np.ones(los.size, dtype=bool)
        keep[over] = False
        los = np.concatenate([los[keep], a_over, mid])
        his = np.concatenate([his[keep], mid, b_over])
        vals = np.concatenate([vals[keep], new_vals])
        errs = np.concatenate([errs[keep], new_errs])


def evaluate_form(y: TestFunction) -> FormReport:
    """Evaluate both forms and their ratio for one test function.

    re_form integrates y'^2 + 2 y^2/x^2 over [1, inf); im_form is y(1)^2.
    """
    if not isinstance(y, TestFunction):
        raise DomainError("evaluate_form expects a TestFunction")

    def integrand(x):
        return y.derivative(x) ** 2 + 2.0 * y.value(x) ** 2 / x**2

    re_form = quad(integrand, 1.0)[0]
    im_form = y.boundary_value() ** 2
    if re_form <= 0.0:
        ratio = 0.0 if im_form == 0.0 else math.inf
    else:
        ratio = im_form / re_form
    return FormReport(re_form=re_form, im_form=im_form, ratio=ratio)


def form_inner(y: TestFunction, w: TestFunction) -> float:
    """Bilinear form ∫ (y' w' + 2 y w / x^2) dx over [1, inf).

    Pairing any admissible y against 1/x returns y(1): the boundary form is
    the restriction of this pairing, which is why the inequality is sharp
    exactly on multiples of 1/x.
    """
    for func in (y, w):
        if not isinstance(func, TestFunction):
            raise DomainError("form_inner expects TestFunctions")

    def integrand(x):
        return y.derivative(x) * w.derivative(x) + 2.0 * y.value(x) * w.value(x) / x**2

    return quad(integrand, 1.0)[0]


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

    ratios = tuple(evaluate_form(y).ratio for y in pool)
    best = int(np.argmax(ratios))
    return SharpnessReport(
        family=family,
        params=params,
        ratios=ratios,
        best_ratio=ratios[best],
        best_param=params[best],
    )
