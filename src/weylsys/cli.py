"""Command-line interface.

Subcommands:
  m-eval    evaluate the m-function on a point list / grid
  classify  test and classify a coupled system's impedance function
  verify    run the built-in verification suites

Exit codes: 0 all checks pass, 1 at least one check failed, 2 usage error,
3 solver error (a JSON error record is still written).
"""

from __future__ import annotations

import argparse
import ast
import cmath
import dataclasses
import json
import math
import re
import sys
from pathlib import Path

import numpy as np

from .errors import PoleError, WeylsysError
from .lsystem import impedance, lsystem_to_dict, make_lsystem
from .mfunc import (
    NAMED_GRIDS,
    MFunctionEvaluator,
    SolverSettings,
    check_alpha,
    m_alpha_info,
    m_infinity_limit_at_zero,
)
from .potentials import Potential, load_potential_file
from .reporting import Check, CheckReport, format_csv, json_ready
from .sectorial import (
    DEFAULT_KERNEL_SEED,
    accretivity_and_sectoriality,
    classify_s_beta12,
    herglotz_test,
    kernel_psd_test,
    sector_angle_from_gap,
    sector_angle_from_product,
    stieltjes_test,
)
from .suites import SUITES

__all__ = ["main", "UsageError"]


class UsageError(Exception):
    """Bad command-line input (exit code 2)."""


# ---------------------------------------------------------------------------
# numeric expressions on the command line
# ---------------------------------------------------------------------------

_CONSTANTS = {
    "pi": complex(math.pi),
    "e": complex(math.e),
    "inf": complex(math.inf),
    "i": 1j,
    "j": 1j,
}

_FUNCTIONS = {
    "sqrt": cmath.sqrt,
    "tan": cmath.tan,
    "sin": cmath.sin,
    "cos": cmath.cos,
    "exp": cmath.exp,
    "log": cmath.log,
    "atan": cmath.atan,
    "arctan": cmath.atan,
    "abs": abs,
}


def eval_number(text: str) -> complex:
    """Evaluate a constant arithmetic expression like '1+2i' or 'tan(pi/3)'."""
    s = text.strip()
    if not s:
        raise UsageError("empty numeric expression")
    s = re.sub(r"(?<=[0-9.])i\b", "j", s)  # 2i -> 2j (accepted complex suffix)
    s = re.sub(r"\bi\b", "1j", s)
    try:
        node = ast.parse(s, mode="eval").body
    except SyntaxError as exc:
        raise UsageError(f"cannot parse number {text!r}") from exc
    val = _eval_node(node, text)
    # adding +0.0 normalizes negative zeros out of reports
    return complex(val.real + 0.0, val.imag + 0.0)


def _eval_node(node: ast.AST, text: str) -> complex:
    if isinstance(node, ast.Constant) and isinstance(node.value, (int, float, complex)):
        return complex(node.value)
    if isinstance(node, ast.Name):
        try:
            return _CONSTANTS[node.id]
        except KeyError:
            raise UsageError(f"unknown name {node.id!r} in {text!r}") from None
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
        val = _eval_node(node.operand, text)
        return val if isinstance(node.op, ast.UAdd) else -val
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)
    ):
        a = _eval_node(node.left, text)
        b = _eval_node(node.right, text)
        try:
            if isinstance(node.op, ast.Add):
                return a + b
            if isinstance(node.op, ast.Sub):
                return a - b
            if isinstance(node.op, ast.Mult):
                return a * b
            if isinstance(node.op, ast.Div):
                return a / b
            return a**b
        except (ZeroDivisionError, OverflowError, ValueError) as exc:
            raise UsageError(f"cannot evaluate {text!r}: {exc}") from exc
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in _FUNCTIONS
        and len(node.args) == 1
        and not node.keywords
    ):
        return complex(_FUNCTIONS[node.func.id](_eval_node(node.args[0], text)))
    raise UsageError(f"unsupported syntax in numeric expression {text!r}")


def eval_real(text: str) -> float:
    val = eval_number(text)
    if val.imag != 0.0:
        raise UsageError(f"expected a real number, got {text!r}")
    return val.real


def _split_top_level(text: str, sep: str = ",") -> list[str]:
    """Split on `sep` outside parentheses, so 'mu=tan(pi/3),h=i' splits correctly."""
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth = max(0, depth - 1)
        if ch == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return [p.strip() for p in parts if p.strip()]


# ---------------------------------------------------------------------------
# config, potential and grid parsing
# ---------------------------------------------------------------------------

def load_config(path: str) -> dict[str, str]:
    """Flat key=value config file; '#' starts a comment."""
    out: dict[str, str] = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{ln}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


_SETTINGS_KEYS = {f.name for f in dataclasses.fields(SolverSettings)}


def build_settings(config: dict[str, str], tol: float | None) -> SolverSettings:
    mapping = {k: v for k, v in config.items() if k in _SETTINGS_KEYS}
    try:
        settings = SolverSettings.from_config(mapping)
        if tol is not None:
            if tol <= 0:
                raise UsageError("--tol must be positive")
            settings = SolverSettings.from_config(
                {**mapping, "disk_tol": tol, "riccati_tol": tol}
            )
    except WeylsysError as exc:
        raise UsageError(str(exc)) from exc
    return settings


def _seed_and_trials(args: argparse.Namespace, config: dict[str, str],
                     default_seed: int, default_trials: int) -> tuple[int, int]:
    """--seed and --trials, else the config file's seed and trials, else the defaults."""

    def pick(key: str, default: int) -> int:
        if getattr(args, key) is not None:
            return getattr(args, key)
        raw = config.get(key, default)
        try:
            return int(raw)
        except ValueError:
            raise UsageError(f"{key} must be an integer, got {raw!r}") from None

    seed, trials = pick("seed", default_seed), pick("trials", default_trials)
    if trials < 1:
        raise UsageError("--trials must be >= 1")
    return seed, trials


def parse_potential(text: str, ell: float | None) -> Potential:
    s = text.strip()
    try:
        if s == "bessel":
            return Potential.bessel(ell=1.0 if ell is None else ell)
        if s.startswith("bessel:"):
            return Potential.bessel(nu=eval_real(s.split(":", 1)[1]),
                                    ell=1.0 if ell is None else ell)
        if s == "free":
            return Potential.free(0.0 if ell is None else ell)
        return load_potential_file(s, ell=ell)
    except WeylsysError as exc:
        raise UsageError(f"bad potential {text!r}: {exc}") from exc
    except OSError as exc:
        raise UsageError(f"cannot read potential file {text!r}: {exc}") from exc


def _parse_axis(segment: str, name: str) -> list[float]:
    body = segment[len(name) + 1:]
    fields = body.split(":")
    if len(fields) not in (3, 4) or (len(fields) == 4 and fields[3] != "log"):
        raise UsageError(
            f"bad grid axis {segment!r}; expected {name}=START:STOP:COUNT[:log]"
        )
    start, stop = eval_real(fields[0]), eval_real(fields[1])
    try:
        count = int(fields[2])
    except ValueError as exc:
        raise UsageError(f"bad grid count in {segment!r}") from exc
    if count < 1:
        raise UsageError(f"grid count must be >= 1 in {segment!r}")
    if len(fields) == 4:
        if start <= 0 or stop <= 0:
            raise UsageError(f"log axis needs positive endpoints in {segment!r}")
        return [float(v) for v in np.logspace(math.log10(start), math.log10(stop), count)]
    return [float(v) for v in np.linspace(start, stop, count)]


def parse_grid(text: str) -> list[complex]:
    s = text.strip()
    if s in NAMED_GRIDS:
        return list(NAMED_GRIDS[s])
    res, ims = None, None
    for segment in _split_top_level(s):
        if segment.startswith("re="):
            res = _parse_axis(segment, "re")
        elif segment.startswith("im="):
            ims = _parse_axis(segment, "im")
        else:
            raise UsageError(f"unrecognized grid spec {text!r}")
    if res is None:
        raise UsageError(f"grid spec needs a re= axis: {text!r}")
    if ims is None:
        return [complex(r, 0.0) for r in res]
    return [complex(r, i) for r in res for i in ims]


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------

def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _dump_json(doc: dict) -> str:
    return json.dumps(json_ready(doc), sort_keys=True, indent=2) + "\n"


def _report_text(report: CheckReport, fmt: str) -> str:
    if fmt == "csv":
        rows = [
            [c.name, c.passed, _scalarize(c.value), _scalarize(c.expected), c.tol]
            for c in report.checks
        ]
        return format_csv(["name", "pass", "value", "expected", "tol"], rows)
    return report.to_json()


def _scalarize(value):
    if isinstance(value, complex):
        return abs(value)
    if isinstance(value, (int, float, str, bool)) or value is None:
        return value
    return str(value)


# ---------------------------------------------------------------------------
# m-eval
# ---------------------------------------------------------------------------

def _resolve_mode(mode: str, potential: Potential) -> str:
    if mode == "auto":
        return "closed_form" if MFunctionEvaluator.has_closed_form(potential) else "numeric"
    if mode in ("numeric", "closed-form", "closed_form"):
        return mode.replace("-", "_")
    raise UsageError(f"unknown mode {mode!r}; use auto, numeric or closed-form")


def cmd_m_eval(args: argparse.Namespace, config: dict[str, str]) -> int:
    potential = parse_potential(args.potential, args.ell)
    settings = build_settings(config, args.tol)
    mode = _resolve_mode(args.mode or config.get("mode", "auto"), potential)
    alpha = eval_real(args.alpha)

    points: list[complex] = []
    if args.z:
        points.extend(eval_number(part) for part in _split_top_level(args.z))
    if args.grid:
        points.extend(parse_grid(args.grid))
    if not points:
        raise UsageError("empty grid: provide --z and/or --grid")

    try:
        check_alpha(alpha)
        evaluator = MFunctionEvaluator(potential, mode=mode, settings=settings)
    except WeylsysError as exc:
        raise UsageError(str(exc)) from exc
    rows = []
    for z in points:
        info = m_alpha_info(evaluator, alpha, z)
        rows.append([z.real, z.imag, info.value.real, info.value.imag, info.error_bound])

    columns = ["re_z", "im_z", "re_m", "im_m", "error_bound"]
    if args.format == "csv":
        _emit(format_csv(columns, rows), args.out)
    else:
        doc = {
            "command": "m-eval",
            "alpha": alpha,
            "mode": mode,
            "potential": potential.to_dict(),
            "columns": columns,
            "rows": rows,
        }
        _emit(_dump_json(doc), args.out)
    return 0


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

def _parse_system(args: argparse.Namespace) -> tuple[complex, complex]:
    """Resolve (mu, h) from --system / --mu / --h / --alpha."""
    mu_text, h_text = args.mu, args.h
    if args.system:
        for part in _split_top_level(args.system):
            if part.startswith("mu="):
                mu_text = part[3:]
            elif part.startswith("h="):
                h_text = part[2:]
            else:
                raise UsageError(f"bad --system fragment {part!r}; expected mu=...,h=...")
    if mu_text is None and args.alpha is not None:
        mu_text = f"tan({args.alpha})"
    mu = eval_number(mu_text if mu_text is not None else "inf")
    h = eval_number(h_text if h_text is not None else "i")
    return mu, h


def cmd_classify(args: argparse.Namespace, config: dict[str, str]) -> int:
    potential = parse_potential(args.potential, args.ell)
    settings = build_settings(config, args.tol)
    mode = _resolve_mode(args.mode or config.get("mode", "auto"), potential)
    mu, h = _parse_system(args)
    seed, trials = _seed_and_trials(args, config, DEFAULT_KERNEL_SEED, 100)

    try:
        system = make_lsystem(potential, mu=mu, h=h)
        evaluator = MFunctionEvaluator(potential, mode=mode, settings=settings)
    except WeylsysError as exc:
        raise UsageError(str(exc)) from exc

    def imp(z):
        return impedance(system, z, evaluator)

    complex_grid = None
    negative_grid = None
    if args.grid:
        pts = parse_grid(args.grid)
        complex_grid = [z for z in pts if z.imag > 0] or None
        negative_grid = [z.real for z in pts if z.imag == 0 and z.real < 0] or None

    checks: list[Check] = []
    herg = herglotz_test(imp, grid=complex_grid)
    checks.append(
        Check("herglotz-impedance", herg.passed, herg.detail, "pass", None,
              witness=herg.witness.to_dict() if herg.witness else None)
    )
    stj = stieltjes_test(imp, complex_grid=complex_grid, negative_grid=negative_grid)
    checks.append(
        Check("stieltjes-impedance", stj.passed, stj.detail, "pass", None,
              witness=stj.witness.to_dict() if stj.witness else None)
    )

    classification = None
    if stj.passed:
        angles = classify_s_beta12(imp, settings)
        beta = args.beta if args.beta is None else eval_real(args.beta)
        kern_beta = beta if beta is not None else (angles.beta2 if angles.beta2 > 0 else None)
        classification = {
            "beta1": angles.beta1,
            "beta2": angles.beta2,
            "tan_beta1": math.tan(angles.beta1),
            "tan_beta2": math.tan(angles.beta2) if angles.beta2 < math.pi / 2 else "inf",
        }
        if angles.beta2 < math.pi / 2:
            prod = sector_angle_from_product(angles.beta1, angles.beta2)
            gap = sector_angle_from_gap(angles.beta1, angles.beta2)
            classification["sector_angle_product"] = prod
            classification["tan_sector_angle_product"] = math.tan(prod)
            classification["sector_angle_gap"] = gap
            classification["tan_sector_angle_gap"] = math.tan(gap)
        if kern_beta is not None:
            kern = kernel_psd_test(imp, kern_beta, trials=trials, seed=seed)
            checks.append(
                Check(
                    "kernel-psd",
                    kern.psd,
                    kern.min_eigenvalue,
                    "min eigenvalue >= -tol * scale",
                    kern.tol,
                    witness={"beta": kern.beta,
                             "points": [[p.real, p.imag] for p in kern.worst_points]},
                )
            )

    m0 = m_infinity_limit_at_zero(evaluator)
    accr = accretivity_and_sectoriality(h, mu, m0)
    accretivity = {
        "m0": m0,
        "operator_accretive": accr.operator_accretive,
        "operator_sectorial": accr.operator_sectorial,
        "tan_theta": accr.tan_theta,
        "theta": accr.theta,
        "mu_threshold": accr.mu_threshold,
        "system_accretive": accr.system_accretive,
        "system_extremal": accr.system_extremal,
        "system_sectorial": accr.system_sectorial,
        "preserves_exact_angle": accr.preserves_exact_angle,
        "notes": list(accr.notes),
    }

    report = CheckReport(
        tuple(checks),
        meta={
            "command": "classify",
            "mode": mode,
            "seed": seed,
            "trials": trials,
            "system": lsystem_to_dict(system),
            "classification": classification,
            "accretivity": accretivity,
        },
    )
    _emit(_report_text(report, args.format), args.out)
    return 0 if report.all_pass else 1


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def cmd_verify(args: argparse.Namespace, config: dict[str, str]) -> int:
    settings = build_settings(config, args.tol)
    seed, trials = _seed_and_trials(args, config, 42, 50)

    names = SUITES if args.suite == "all" else (args.suite,)
    checks: list[Check] = []
    for name in names:
        checks.extend(SUITES[name](settings, seed, trials))

    report = CheckReport(
        tuple(checks),
        meta={"command": "verify", "suite": args.suite, "seed": seed, "trials": trials},
    )
    _emit(_report_text(report, args.format), args.out)
    return 0 if report.all_pass else 1


# ---------------------------------------------------------------------------
# parser and entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weylsys",
        description="m-functions, boundary-coupled systems and sectorial classification "
                    "for half-line Schrödinger operators",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--potential", default="bessel",
                       help="bessel | bessel:NU | free | path to a two-column file")
        p.add_argument("--ell", type=float, default=None, help="left endpoint of the half-line")
        p.add_argument("--mode", default=None, help="auto | numeric | closed-form")
        p.add_argument("--grid", default=None, help="named grid or re=a:b:n[:log][,im=a:b:n[:log]]")
        p.add_argument("--tol", type=float, default=None, help="solver tolerance override")
        p.add_argument("--seed", type=int, default=None, help="seed for randomized checks")
        p.add_argument("--config", default=None, help="key=value config file")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--format", default="json", choices=("json", "csv"))

    p_eval = sub.add_parser("m-eval", help="evaluate the m-function on points/grids")
    add_common(p_eval)
    p_eval.add_argument("--alpha", default="pi", help="boundary angle (pi selects the principal m)")
    p_eval.add_argument("--z", default=None, help="comma-separated spectral points, e.g. 'i,-1,1+2i'")

    p_cls = sub.add_parser("classify", help="classify a coupled system's impedance")
    add_common(p_cls)
    p_cls.add_argument("--system", default=None, help="mu=EXPR,h=EXPR (e.g. mu=tan(pi/3),h=i)")
    p_cls.add_argument("--mu", default=None, help="coupling parameter (real or inf)")
    p_cls.add_argument("--h", default=None, help="boundary parameter with Im h > 0")
    p_cls.add_argument("--alpha", default=None, help="sets mu = tan(alpha) when --mu is absent")
    p_cls.add_argument("--beta", default=None, help="kernel angle override (radians)")
    p_cls.add_argument("--trials", type=int, default=None, help="random kernel point sets")

    p_ver = sub.add_parser("verify", help="run the built-in verification suites")
    add_common(p_ver)
    p_ver.add_argument("--suite", default="all", choices=(*SUITES, "all"))
    p_ver.add_argument("--trials", type=int, default=None, help="random trials per suite")

    return parser


_HANDLERS = {
    "m-eval": cmd_m_eval,
    "classify": cmd_classify,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
        return 0 if code == 0 else 2
    try:
        config = load_config(args.config) if args.config else {}
        return _HANDLERS[args.command](args, config)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except WeylsysError as exc:
        record = {
            "command": args.command,
            "error": {"type": type(exc).__name__, "message": str(exc)},
        }
        if isinstance(exc, PoleError) and getattr(exc, "z", None) is not None:
            record["error"]["z"] = [exc.z.real, exc.z.imag]
        _emit(_dump_json(record), args.out)
        return 3


if __name__ == "__main__":
    sys.exit(main())
