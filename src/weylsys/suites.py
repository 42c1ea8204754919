"""The verification suites run by ``weylsys verify``.

``SUITES`` maps each suite name to a function ``(tol, seed, trials)``
that returns the suite's checks; ``all`` runs them in registry order.  The
suites call the functions they check through their modules (``forms.``,
``lsystem.``, ``sectorial.``), so a wrapper bound on a module, such as a
tracer's, sees those calls too.  The forms suite is the exception: it runs
all its integrals as one stack of the private ``forms._pair_forms``, so a
wrapper of the public forms functions sees only ``generate_test_functions``.
"""

from __future__ import annotations

import math

import numpy as np
import numpy.random  # noqa: F401  numpy loads it lazily: load it with this module

from . import forms, lsystem, sectorial
from .mfunc import bessel_m_closed_form
from .potentials import Potential
from .reporting import Check

__all__ = ["SUITES"]


def example_checks(tol: float, seed: int, trials: int) -> list[Check]:
    """The exactly solvable Bessel example end to end (seed and trials unused)."""
    return list(sectorial.verify_example_suite(tol).checks)


def duality_checks(tol: float, seed: int, trials: int) -> list[Check]:
    """V_mu = -1/V_xi, W_mu = -W_xi and the xi involution on random systems."""
    pot = Potential.bessel()
    rng = np.random.default_rng(seed)
    max_v = max_w = max_invol = 0.0
    for _ in range(trials):
        h = complex(rng.uniform(-2.0, 2.0), rng.uniform(0.2, 3.0))
        mu = float(rng.uniform(-4.0, 4.0))
        while abs(mu - h.real) < 0.05:
            mu = float(rng.uniform(-4.0, 4.0))
        z = complex(rng.uniform(-3.0, 3.0), rng.uniform(0.15, 3.0))
        system = lsystem.make_lsystem(pot, mu=mu, h=h)
        rep = lsystem.duality_check(system, bessel_m_closed_form(z), z)
        max_v = max(max_v, rep.impedance_residual)
        max_w = max(max_w, rep.transfer_residual)
        back = lsystem.xi_parameter(system.xi, h)
        max_invol = max(max_invol, abs(back - mu) / max(1.0, abs(mu)))
    return [
        Check.within("duality-impedance-max-residual", max_v, 0.0, 1e-10),
        Check.within("duality-transfer-max-residual", max_w, 0.0, 1e-10),
        Check.within("xi-involution-max-rel-err", max_invol, 0.0, 1e-12),
    ]


def moebius_checks(tol: float, seed: int, trials: int) -> list[Check]:
    """The V <-> W Moebius round trip and W = (1 - iV)/(1 + iV) on random systems."""
    trials = max(trials, 100)
    pot = Potential.bessel()
    rng = np.random.default_rng(seed + 1)
    max_round = 0.0
    for _ in range(trials):
        v = complex(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0))
        if abs(v - 1j) < 0.1:
            continue
        back = lsystem.impedance_from_transfer(lsystem.transfer_from_impedance(v))
        max_round = max(max_round, abs(back - v) / max(1.0, abs(v)))
    max_link = 0.0
    for _ in range(trials):
        h = complex(rng.uniform(-2.0, 2.0), rng.uniform(0.2, 3.0))
        mu = float(rng.uniform(-4.0, 4.0))
        if abs(mu - h.real) < 0.05:
            mu = h.real + 0.5
        z = complex(rng.uniform(-3.0, 3.0), rng.uniform(0.15, 3.0))
        system = lsystem.make_lsystem(pot, mu=mu, h=h)
        m = bessel_m_closed_form(z)
        w_direct = lsystem.transfer(system, m, z)
        w_linked = lsystem.transfer_from_impedance(lsystem.impedance(system, m, z))
        max_link = max(max_link, abs(w_direct - w_linked))
    return [
        Check.within("moebius-roundtrip-max-rel-err", max_round, 0.0, 1e-12),
        Check.within("transfer-vs-impedance-max-err", max_link, 0.0, 1e-10),
    ]


def forms_checks(tol: float, seed: int, trials: int) -> list[Check]:
    """The boundary-form inequality, its equality witness and its sharpness.

    Every integral of the suite is an owner of one quadrature stack
    (``forms._pair_forms``): the forms of the drawn functions, of 1/x and of
    both sharpness pools, and the pairings of the first five drawn functions
    with 1/x.  Each value is the one its public function gives alone.
    """
    funcs = forms.generate_test_functions(max(trials, 100), seed)
    power = forms.TestFunction.power()
    sharp_scan = forms._Scan.of("power-plus-exp", 41)
    decay_scan = forms._Scan.of("exp-decay", 21)
    ys = funcs + (power,) + sharp_scan.pool + decay_scan.pool
    paired = funcs[:5]
    values = forms._pair_forms(ys, [(j, j) for j in range(len(ys))]
                               + [(j, len(funcs)) for j in range(len(paired))])
    reports = list(map(forms._report, ys, values))
    sharp_start = len(funcs) + 1
    decay_start = sharp_start + len(sharp_scan.pool)
    sharp = sharp_scan.report(reports[sharp_start:decay_start])
    decay = decay_scan.report(reports[decay_start:])
    *reports, witness = reports[:sharp_start]
    min_margin = math.inf
    max_ratio = -math.inf
    for rep in reports:
        if rep.re_form > 0:
            min_margin = min(min_margin, (rep.re_form - rep.im_form) / rep.re_form)
        max_ratio = max(max_ratio, rep.ratio)
    ident_err = max(abs(value - y.boundary_value())
                    for y, value in zip(paired, values[len(ys):]))
    return [
        Check("form-inequality-min-margin", min_margin >= -1e-9, min_margin, ">= 0", 1e-9),
        Check("form-ratio-never-exceeds-one", max_ratio <= 1.0 + 1e-9, max_ratio, "<= 1", 1e-9),
        Check.within("equality-witness-ratio", witness.ratio, 1.0, 1e-6),
        Check(
            "sharpness-peak-at-zero-perturbation",
            abs(sharp.best_ratio - 1.0) <= 1e-6 and abs(sharp.best_param) < 5e-3,
            sharp.best_ratio,
            1.0,
            1e-6,
            witness={"best_param": sharp.best_param, "family": sharp.family},
        ),
        Check("exp-decay-family-below-one", decay.best_ratio < 1.0, decay.best_ratio, "< 1", None),
        Check.within("boundary-pairing-identity", ident_err, 0.0, 1e-8),
    ]


SUITES = {
    "example": example_checks,
    "duality": duality_checks,
    "moebius": moebius_checks,
    "forms": forms_checks,
}
