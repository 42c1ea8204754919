"""Weyl-Titchmarsh m-functions, boundary-coupled systems and sectorial
classification for half-line Schrödinger operators.

The package computes the principal m-function m_inf(z) and its rotated
family m_alpha(z) numerically (one backward Riccati sweep for every z
off [0, inf)), builds the two-parameter family of boundary-coupled
systems with impedance and transfer functions, verifies Herglotz/Stieltjes
positivity and the beta-kernel PSD property on grids, classifies functions
by their boundary limits, and compares the sharp boundary-form inequality
on [1, inf).
A Bessel-type potential (nu = 3/2 on [1, inf)) with a full set of closed
forms serves as the built-in cross-check oracle.
"""

from .errors import (
    ConstructionError,
    ConvergenceError,
    DivergenceError,
    DomainError,
    ExtrapolationError,
    IntegrationError,
    PoleError,
    StiffnessError,
    WeylsysError,
)
from .potentials import Potential, load_potential_file
from .mfunc import (
    MEvaluation,
    MFunctionEvaluator,
    bessel_m_closed_form,
    bessel_neg_m_alpha_closed_form,
    bessel_w_closed_form,
    free_m_closed_form,
    limit_at_minus_infinity,
    limit_at_minus_zero,
    m_alpha,
    m_alpha_direct,
    m_alpha_info,
    m_infinity,
    m_infinity_info,
    m_infinity_limit_at_minus_infinity,
    m_infinity_limit_at_zero,
    safe_div,
    sqrt_upper,
)
from .lsystem import (
    MU_INFINITY,
    DualityReport,
    LSystem,
    as_extended_real,
    duality_check,
    impedance,
    impedance_from_transfer,
    lsystem_from_dict,
    lsystem_from_json,
    lsystem_to_dict,
    lsystem_to_json,
    make_lsystem,
    transfer,
    transfer_from_impedance,
    xi_parameter,
)
from .sectorial import (
    AccretivityReport,
    ClassAngles,
    accretivity_and_sectoriality,
    class_angles_from_alpha,
    classify_s_beta12,
    herglotz_test,
    kernel_matrix,
    kernel_psd_test,
    sector_angle_from_gap,
    sector_angle_from_product,
    stieltjes_test,
    verify_example_suite,
)
from .forms import (
    FormReport,
    SharpnessReport,
    TestFunction,
    evaluate_form,
    form_inner,
    generate_test_functions,
    sharpness_search,
)
from .reporting import Check, CheckReport

__version__ = "0.1.0"

__all__ = [
    "MU_INFINITY",
    "AccretivityReport",
    "Check",
    "CheckReport",
    "ClassAngles",
    "ConstructionError",
    "ConvergenceError",
    "DivergenceError",
    "DomainError",
    "DualityReport",
    "ExtrapolationError",
    "FormReport",
    "IntegrationError",
    "LSystem",
    "MEvaluation",
    "MFunctionEvaluator",
    "PoleError",
    "Potential",
    "SharpnessReport",
    "StiffnessError",
    "TestFunction",
    "WeylsysError",
    "accretivity_and_sectoriality",
    "as_extended_real",
    "bessel_m_closed_form",
    "bessel_neg_m_alpha_closed_form",
    "bessel_w_closed_form",
    "class_angles_from_alpha",
    "classify_s_beta12",
    "duality_check",
    "evaluate_form",
    "form_inner",
    "free_m_closed_form",
    "generate_test_functions",
    "herglotz_test",
    "impedance",
    "impedance_from_transfer",
    "kernel_matrix",
    "kernel_psd_test",
    "limit_at_minus_infinity",
    "limit_at_minus_zero",
    "load_potential_file",
    "lsystem_from_dict",
    "lsystem_from_json",
    "lsystem_to_dict",
    "lsystem_to_json",
    "m_alpha",
    "m_alpha_direct",
    "m_alpha_info",
    "m_infinity",
    "m_infinity_info",
    "m_infinity_limit_at_minus_infinity",
    "m_infinity_limit_at_zero",
    "make_lsystem",
    "safe_div",
    "sector_angle_from_gap",
    "sector_angle_from_product",
    "sharpness_search",
    "sqrt_upper",
    "stieltjes_test",
    "transfer",
    "transfer_from_impedance",
    "verify_example_suite",
    "xi_parameter",
]
