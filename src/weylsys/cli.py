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
import math
import operator
import re
import sys
from pathlib import Path

import numpy as np

from .errors import DomainError, WeylsysError
from .lsystem import impedance, lsystem_to_dict, make_lsystem
from .mfunc import (
    NAMED_GRIDS,
    MFunctionEvaluator,
    check_alpha,
    check_tol,
    limit_at_minus_zero,
    m_infinity_batch,
    rotate_evaluation,
)
from .potentials import Potential, load_potential_file
from .reporting import Check, CheckReport, dump_json, format_csv, json_ready
from .sectorial import (
    DEFAULT_KERNEL_SEED,
    accretivity_and_sectoriality,
    check_beta,
    class_angles_from_limits,
    herglotz_test,
    impedance_class_limits,
    kernel_psd_test,
    sampled_points,
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

_OPERATORS = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
              ast.Div: operator.truediv, ast.Pow: operator.pow}


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
    if isinstance(node, ast.BinOp) and type(node.op) in _OPERATORS:
        fn, operands = _OPERATORS[type(node.op)], (node.left, node.right)
    elif (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in _FUNCTIONS
        and len(node.args) == 1
        and not node.keywords
    ):
        fn, operands = _FUNCTIONS[node.func.id], node.args
    else:
        raise UsageError(f"unsupported syntax in numeric expression {text!r}")
    values = [_eval_node(operand, text) for operand in operands]
    try:
        return complex(fn(*values))
    except (ZeroDivisionError, OverflowError, ValueError) as exc:
        raise UsageError(f"cannot evaluate {text!r}: {exc}") from exc


def eval_real(text: str) -> float:
    val = eval_number(text)
    if val.imag != 0.0:
        raise UsageError(f"expected a real number, got {text!r}")
    return val.real


def _split_commas(text: str) -> list[str]:
    """The comma-separated fields of a point list or grid spec; an empty one is a usage error."""
    fields = [p.strip() for p in text.split(",")]
    if "" in fields:
        raise UsageError(f"empty field in the comma-separated list {text!r}")
    return fields


# ---------------------------------------------------------------------------
# settings, potential and grid parsing
# ---------------------------------------------------------------------------

def _usage(check, value, option: str):
    """check(value), its DomainError or UsageError a usage error naming the option (exit 2)."""
    try:
        return check(value)
    except (DomainError, UsageError) as exc:
        raise UsageError(f"{option}: {exc}") from exc


def _mode(args: argparse.Namespace, potential: Potential) -> str:
    """The evaluator mode of --mode, with auto resolved for this potential."""
    if args.mode == "auto":
        return "closed_form" if MFunctionEvaluator.has_closed_form(potential) else "numeric"
    return args.mode.replace("-", "_")


def _check_seed_and_trials(args: argparse.Namespace) -> None:
    if args.seed < 0:
        raise UsageError("--seed must be >= 0")
    if args.trials < 1:
        raise UsageError("--trials must be >= 1")


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
    except (WeylsysError, UsageError) as exc:
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

def cmd_m_eval(args: argparse.Namespace) -> int:
    potential = parse_potential(args.potential, args.ell)
    mode = _mode(args, potential)
    alpha = _usage(eval_real, args.alpha, "--alpha")

    points: list[complex] = []
    if args.z:
        points.extend(_usage(eval_number, part, "--z") for part in _split_commas(args.z))
    if args.grid:
        points.extend(parse_grid(args.grid))
    if not points:
        raise UsageError("empty grid: provide --z and/or --grid")

    _usage(check_alpha, alpha, "--alpha")
    try:
        evaluator = MFunctionEvaluator(potential, mode=mode, tol=args.tol)
    except WeylsysError as exc:
        raise UsageError(str(exc)) from exc
    rows = []
    for z, info in zip(points, m_infinity_batch(evaluator, points)):
        info = rotate_evaluation(info, alpha, z)
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
        _emit(dump_json(json_ready(doc)), args.out)
    return 0


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

def _mu_from_alpha(text: str) -> float:
    """mu = tan(alpha) for alpha in (0, pi], exactly inf at pi/2 and 0 at pi."""
    alpha = _usage(eval_real, text, "--alpha")
    _usage(check_alpha, alpha, "--alpha")
    if alpha == math.pi / 2:
        return math.inf
    if alpha == math.pi:
        return 0.0
    return math.tan(alpha)


def cmd_classify(args: argparse.Namespace) -> int:
    potential = parse_potential(args.potential, args.ell)
    mode = _mode(args, potential)
    if args.alpha is None:
        mu = _usage(eval_number, "inf" if args.mu is None else args.mu, "--mu")
    elif args.mu is None:
        mu = _mu_from_alpha(args.alpha)
    else:
        raise UsageError("--mu and --alpha both set the coupling: give one of them")
    h = _usage(eval_number, args.h, "--h")
    beta = (None if args.beta is None
            else _usage(check_beta, _usage(eval_real, args.beta, "--beta"), "--beta"))
    _check_seed_and_trials(args)

    try:
        system = make_lsystem(potential, mu=mu, h=h)
        evaluator = MFunctionEvaluator(potential, mode=mode, tol=args.tol)
    except WeylsysError as exc:
        raise UsageError(str(exc)) from exc

    complex_grid = None
    negative_grid = None
    if args.grid:
        pts = parse_grid(args.grid)
        complex_grid = [z for z in pts if z.imag > 0] or None
        negative_grid = [z.real for z in pts if z.imag == 0 and z.real < 0] or None

    # one stacked sweep solves m at every point the checks and m0 below read; the
    # class limits need no more: V tends to its value at m = inf at -inf, and to V(m0) at -0
    batch = m_infinity_batch(
        evaluator, sampled_points(complex_grid, negative_grid, args.trials, args.seed))

    def m_cached(z):
        return batch.at(z).value

    def imp(z):
        return impedance(system, m_cached(z), z)

    herg = herglotz_test(imp, grid=complex_grid)
    stj = stieltjes_test(imp, complex_grid=complex_grid, negative_grid=negative_grid)
    checks = [dataclasses.replace(herg, name="herglotz-impedance"),
              dataclasses.replace(stj, name="stieltjes-impedance")]

    m0 = limit_at_minus_zero(m_cached)
    accr = accretivity_and_sectoriality(h, mu, m0)
    accretivity = {k: v for k, v in dataclasses.asdict(accr).items() if k not in ("h", "mu")}

    classification = None
    if stj.passed:
        lim_inf, lim_zero = impedance_class_limits(system, accr)
        angles = class_angles_from_limits(lim_inf, lim_zero)
        # the tangents of the printed angles, clamped as class_angles_from_limits clamps them
        tan_beta1, tan_beta2 = max(lim_inf, 0.0), max(lim_zero, lim_inf, 0.0)
        kern_beta = beta if beta is not None else (angles.beta2 if angles.beta2 > 0 else None)
        classification = {
            "beta1": angles.beta1,
            "beta2": angles.beta2,
            "tan_beta1": tan_beta1,
            "tan_beta2": tan_beta2 if angles.beta2 < math.pi / 2 else "inf",
        }
        if angles.beta2 < math.pi / 2:
            prod = sector_angle_from_product(angles.beta1, angles.beta2)
            gap = sector_angle_from_gap(angles.beta1, angles.beta2)
            classification["sector_angle_product"] = prod
            classification["tan_sector_angle_product"] = math.tan(prod)
            classification["sector_angle_gap"] = gap
            classification["tan_sector_angle_gap"] = math.tan(gap)
        if kern_beta is not None:
            checks.append(kernel_psd_test(imp, kern_beta, trials=args.trials, seed=args.seed))

    report = CheckReport(
        tuple(checks),
        meta={
            "command": "classify",
            "mode": mode,
            "seed": args.seed,
            "trials": args.trials,
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

def cmd_verify(args: argparse.Namespace) -> int:
    _check_seed_and_trials(args)

    names = SUITES if args.suite == "all" else (args.suite,)
    checks: list[Check] = []
    for name in names:
        checks.extend(SUITES[name](args.tol, args.seed, args.trials))

    report = CheckReport(
        tuple(checks),
        meta={"command": "verify", "suite": args.suite, "seed": args.seed, "trials": args.trials},
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
        p.add_argument("--tol", type=float, default=MFunctionEvaluator.tol,
                       help="truncation tolerance of the m-function solvers, in (0, 1) "
                            "(default %(default)s)")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--format", default="json", choices=("json", "csv"),
                       help="report format (default %(default)s)")

    def add_problem(p: argparse.ArgumentParser) -> None:
        p.add_argument("--potential", default="bessel",
                       help="bessel | bessel:NU | free | path to a two-column file")
        p.add_argument("--ell", type=float, default=None, help="left endpoint of the half-line")
        p.add_argument("--mode", default="auto", choices=("auto", "numeric", "closed-form"),
                       help="auto picks closed-form where one exists (default %(default)s)")
        p.add_argument("--grid", default=None, help="named grid or re=a:b:n[:log][,im=a:b:n[:log]]")

    def add_random(p: argparse.ArgumentParser, seed: int, trials: int, trials_help: str) -> None:
        p.add_argument("--seed", type=int, default=seed,
                       help="seed >= 0 for randomized checks (default %(default)s)")
        p.add_argument("--trials", type=int, default=trials,
                       help=f"{trials_help} (default %(default)s)")

    p_eval = sub.add_parser("m-eval", help="evaluate the m-function on points/grids")
    add_problem(p_eval)
    add_common(p_eval)
    p_eval.add_argument("--alpha", default="pi", help="boundary angle (pi selects the principal m)")
    p_eval.add_argument("--z", default=None, help="comma-separated spectral points, e.g. 'i,-1,1+2i'")

    p_cls = sub.add_parser("classify", help="classify a coupled system's impedance")
    add_problem(p_cls)
    add_common(p_cls)
    add_random(p_cls, DEFAULT_KERNEL_SEED, 100, "random kernel point sets")
    p_cls.add_argument("--mu", default=None, help="coupling parameter (real or inf; default inf)")
    p_cls.add_argument("--h", default="i", help="boundary parameter with Im h > 0")
    p_cls.add_argument("--alpha", default=None,
                       help="sets mu = tan(alpha), alpha in (0, pi]; not with --mu")
    p_cls.add_argument("--beta", default=None, help="kernel angle override in (0, pi/2]")

    p_ver = sub.add_parser("verify", help="run the built-in verification suites")
    add_common(p_ver)
    add_random(p_ver, 42, 50, "random trials of the duality suite; moebius and forms "
               "use max(trials, 100), example none")
    p_ver.add_argument("--suite", default="all", choices=(*SUITES, "all"))

    return parser


_HANDLERS = {
    "m-eval": cmd_m_eval,
    "classify": cmd_classify,
    "verify": cmd_verify,
}


def _attach_dash_values(argv: list[str]) -> list[str]:
    """argv with each dash value joined to its option: ``--z -1e-8`` becomes ``--z=-1e-8``.

    argparse reads a token that starts with "-" as an option unless it is a
    plain negative number, so such a value of --z, --grid, --h, --alpha or
    --beta is joined to its option; a token that starts with "--" stays an
    option.
    """
    out: list[str] = []
    for arg in argv:
        if (out and out[-1] in ("--z", "--grid", "--h", "--alpha", "--beta")
                and arg.startswith("-") and not arg.startswith("--")):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_attach_dash_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
        return 0 if code == 0 else 2
    try:
        _usage(check_tol, args.tol, "--tol")  # every subcommand takes it
        return _HANDLERS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except WeylsysError as exc:
        record = {
            "command": args.command,
            "error": {"type": type(exc).__name__, "message": str(exc)},
        }
        if exc.z is not None:
            record["error"]["z"] = [exc.z.real, exc.z.imag]
        _emit(dump_json(json_ready(record)), args.out)
        return 3


if __name__ == "__main__":
    sys.exit(main())
