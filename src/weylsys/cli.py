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


def _split_commas(text: str) -> list[str]:
    """The nonempty comma-separated fields of a point list or grid spec."""
    return [p.strip() for p in text.split(",") if p.strip()]


# ---------------------------------------------------------------------------
# config, potential and grid parsing
# ---------------------------------------------------------------------------

#: The keys a config file may set; each is the default for the flag of the
#: same name, and the flag wins.
_CONFIG_KEYS = ("tol", "mode", "seed", "trials")


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
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise UsageError(f"{path}:{ln}: unknown config key {key!r}; "
                             f"expected one of {', '.join(_CONFIG_KEYS)}")
        out[key] = value
    return out


def _option(args: argparse.Namespace, config: dict[str, str], key: str, parse, default):
    """--KEY if given, else the config file's KEY read by ``parse``, else the default."""
    if getattr(args, key) is not None:
        return getattr(args, key)
    if key not in config:
        return default
    try:
        return parse(config[key])
    except ValueError:
        kind = "an integer" if parse is int else "a number"
        raise UsageError(f"{key} must be {kind}, got {config[key]!r}") from None


def _tol(args: argparse.Namespace, config: dict[str, str]) -> float:
    tol = _option(args, config, "tol", float, MFunctionEvaluator.tol)
    if not tol > 0:
        raise UsageError(f"tol must be positive, got {tol}")
    return tol


def _mode(args: argparse.Namespace, config: dict[str, str], potential: Potential) -> str:
    mode = _option(args, config, "mode", str, "auto")
    if mode == "auto":
        return "closed_form" if MFunctionEvaluator.has_closed_form(potential) else "numeric"
    if mode in ("numeric", "closed-form", "closed_form"):
        return mode.replace("-", "_")
    raise UsageError(f"unknown mode {mode!r}; use auto, numeric or closed-form")


def _seed_and_trials(args: argparse.Namespace, config: dict[str, str],
                     default_seed: int, default_trials: int) -> tuple[int, int]:
    seed = _option(args, config, "seed", int, default_seed)
    trials = _option(args, config, "trials", int, default_trials)
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
    for segment in _split_commas(s):
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

def cmd_m_eval(args: argparse.Namespace, config: dict[str, str]) -> int:
    potential = parse_potential(args.potential, args.ell)
    tol = _tol(args, config)
    mode = _mode(args, config, potential)
    alpha = eval_real(args.alpha)

    points: list[complex] = []
    if args.z:
        points.extend(eval_number(part) for part in _split_commas(args.z))
    if args.grid:
        points.extend(parse_grid(args.grid))
    if not points:
        raise UsageError("empty grid: provide --z and/or --grid")

    try:
        check_alpha(alpha)
        evaluator = MFunctionEvaluator(potential, mode=mode, tol=tol)
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

def cmd_classify(args: argparse.Namespace, config: dict[str, str]) -> int:
    potential = parse_potential(args.potential, args.ell)
    tol = _tol(args, config)
    mode = _mode(args, config, potential)
    if args.mu is not None:
        mu = eval_number(args.mu)
    else:
        mu = eval_number("inf" if args.alpha is None else f"tan({args.alpha})")
    h = eval_number(args.h)
    beta = None
    if args.beta is not None:
        beta = eval_real(args.beta)
        if not 0.0 < beta <= math.pi / 2:
            raise UsageError(f"--beta must lie in (0, pi/2], got {args.beta!r}")
    seed, trials = _seed_and_trials(args, config, DEFAULT_KERNEL_SEED, 100)

    try:
        system = make_lsystem(potential, mu=mu, h=h)
        evaluator = MFunctionEvaluator(potential, mode=mode, tol=tol)
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

    herg = herglotz_test(imp, grid=complex_grid)
    stj = stieltjes_test(imp, complex_grid=complex_grid, negative_grid=negative_grid)
    checks = [dataclasses.replace(herg, name="herglotz-impedance"),
              dataclasses.replace(stj, name="stieltjes-impedance")]

    classification = None
    if stj.passed:
        angles = classify_s_beta12(imp)
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
            checks.append(kernel_psd_test(imp, kern_beta, trials=trials, seed=seed))

    m0 = m_infinity_limit_at_zero(evaluator)
    accr = accretivity_and_sectoriality(h, mu, m0)
    accretivity = {k: v for k, v in dataclasses.asdict(accr).items() if k not in ("h", "mu")}

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
    tol = _tol(args, config)
    seed, trials = _seed_and_trials(args, config, 42, 50)

    names = SUITES if args.suite == "all" else (args.suite,)
    checks: list[Check] = []
    for name in names:
        checks.extend(SUITES[name](tol, seed, trials))

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
        p.add_argument("--tol", type=float, default=None,
                       help="truncation tolerance of the m-function solvers (default 1e-8)")
        p.add_argument("--config", default=None,
                       help="key=value file with defaults for tol, mode, seed, trials")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--format", default="json", choices=("json", "csv"))

    def add_problem(p: argparse.ArgumentParser) -> None:
        p.add_argument("--potential", default="bessel",
                       help="bessel | bessel:NU | free | path to a two-column file")
        p.add_argument("--ell", type=float, default=None, help="left endpoint of the half-line")
        p.add_argument("--mode", default=None, help="auto | numeric | closed-form")
        p.add_argument("--grid", default=None, help="named grid or re=a:b:n[:log][,im=a:b:n[:log]]")

    def add_random(p: argparse.ArgumentParser, trials_help: str) -> None:
        p.add_argument("--seed", type=int, default=None, help="seed for randomized checks")
        p.add_argument("--trials", type=int, default=None, help=trials_help)

    p_eval = sub.add_parser("m-eval", help="evaluate the m-function on points/grids")
    add_problem(p_eval)
    add_common(p_eval)
    p_eval.add_argument("--alpha", default="pi", help="boundary angle (pi selects the principal m)")
    p_eval.add_argument("--z", default=None, help="comma-separated spectral points, e.g. 'i,-1,1+2i'")

    p_cls = sub.add_parser("classify", help="classify a coupled system's impedance")
    add_problem(p_cls)
    add_common(p_cls)
    add_random(p_cls, "random kernel point sets")
    p_cls.add_argument("--mu", default=None, help="coupling parameter (real or inf; default inf)")
    p_cls.add_argument("--h", default="i", help="boundary parameter with Im h > 0")
    p_cls.add_argument("--alpha", default=None, help="sets mu = tan(alpha) when --mu is absent")
    p_cls.add_argument("--beta", default=None, help="kernel angle override in (0, pi/2]")

    p_ver = sub.add_parser("verify", help="run the built-in verification suites")
    add_common(p_ver)
    add_random(p_ver, "random trials per suite")
    p_ver.add_argument("--suite", default="all", choices=(*SUITES, "all"))

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
