"""In-memory spans around the public functions of weylsys.

The traced session of the benchmark calls :func:`install`, which rebinds each
public function named in ``SPANS`` and ``COUNTERS`` on every weylsys module
that holds it, so calls made through any import path are seen.  Spans are
kept in a list and returned to the benchmark when the session ends;
:func:`layer_metrics` turns them into the per-layer figures.

``COUNTERS``, and ``Potential.__call__``, get a count and a time sum but no
spans: the potential runs inside the ODE right-hand side hundreds of
thousands of times a run, and a span object per call would swamp it.
"""

from __future__ import annotations

import functools
import importlib
import math
from collections import defaultdict
from time import perf_counter

# span name -> the (module, attribute) of each function it wraps
SPANS = {
    "mfunc.m_infinity_info": [("mfunc", "m_infinity_info")],
    "mfunc.m_alpha_direct": [("mfunc", "m_alpha_direct")],
    "mfunc.solve_ivp": [("mfunc", "solve_ivp")],
    "mfunc.limits": [("mfunc", "limit_at_minus_zero"), ("mfunc", "limit_at_minus_infinity")],
    "lsystem.impedance": [("lsystem", "impedance")],
    "sectorial.herglotz": [("sectorial", "herglotz_test")],
    "sectorial.stieltjes": [("sectorial", "stieltjes_test")],
    "sectorial.class_limits": [("sectorial", "classify_s_beta12")],
    "sectorial.kernel_psd": [("sectorial", "kernel_psd_test")],
    "sectorial.kernel_matrix": [("sectorial", "kernel_matrix")],
    # verify's example suite; without its own span its body would count as cli self time
    "sectorial.example_suite": [("sectorial", "verify_example_suite")],
    "cli.m0_limit": [("mfunc", "m_infinity_limit_at_zero")],
    "forms": [("forms", "evaluate_form"), ("forms", "form_inner"),
              ("forms", "generate_test_functions"), ("forms", "sharpness_search")],
    "reporting": [("reporting", "json_ready"), ("reporting", "format_csv")],
}

COUNTERS = {
    "forms.quad": ("forms", "quad"),
}

MODULES = ("cli", "forms", "lsystem", "mfunc", "potentials", "reporting", "sectorial")


class Tracer:
    """Spans and counters of one traced session.

    A span is ``[name, start, end, parent_index, attrs]``; ``run`` is the
    identifier shared by every span of the session.
    """

    def __init__(self, run: str, error_type: type):
        self.run = run
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(int)
        self._stack: list[int] = []
        self._error_type = error_type
        self._errors: set[int] = set()
        self._tallies: dict[str, list] = {}

    def span(self, name: str, fn, attrs=None):
        """Wrap ``fn`` so each call records a span; ``attrs(args, result)`` adds fields."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            record = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, None]
            self.spans.append(record)
            self._stack.append(index)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except self._error_type as exc:
                self._errors.add(id(exc))
                raise
            finally:
                record[2] = perf_counter()
                self._stack.pop()
            if attrs is not None:
                record[4] = attrs(args, result)
            return result

        return wrapper

    def counter(self, name: str, fn):
        """Wrap ``fn`` with a call count and a time sum, without spans.

        The totals live in a list until :meth:`flush`; this wrapper runs
        inside the ODE right-hand side, so it does as little as it can.
        """
        total = [0, 0.0]
        self._tallies[name] = total

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                total[1] += perf_counter() - start
                total[0] += 1

        return wrapper

    def flush(self) -> None:
        """Move the counter totals into ``counters``."""
        for name, (calls, secs) in self._tallies.items():
            self.counters[name + ".calls"] = calls
            self.counters[name + ".s"] = secs

    @property
    def errors(self) -> int:
        return len(self._errors)

    def to_records(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "run": self.run, **(a or {})}
            for n, s, e, p, a in self.spans
        ]


def _eval_attrs(path: str, evaluator, z) -> dict:
    """Path, z and a key equal for equal (evaluator, z) pairs.

    Evaluators compare by value, so two equal evaluators built apart share
    keys, as they would share entries of a cache keyed by value; one that
    does not hash is keyed by identity.
    """
    z = complex(z)
    try:
        key = hash((evaluator, z))
    except TypeError:
        key = hash((id(evaluator), z))
    return {"path": path, "z": [z.real, z.imag], "eval_key": key}


def _m_info_attrs(args, info):
    return _eval_attrs(info.path, args[0], args[1])


def _m_direct_attrs(args, value):
    potential, alpha, z = args[:3]
    path = "riccati" if complex(z).imag == 0.0 else "weyl-disk"
    return _eval_attrs(path, (potential, alpha), z)


def install(tracer: Tracer, package) -> None:
    """Rebind the traced functions on every module of ``package``."""
    modules = [package] + [importlib.import_module(f"{package.__name__}.{m}") for m in MODULES]
    by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in modules[1:]}

    def rebind(original, wrapper):
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)

    def count_rhs(args, sol):
        tracer.counters["mfunc.rhs_calls"] += sol.nfev
        return None

    attrs = {
        "mfunc.m_infinity_info": _m_info_attrs,
        "mfunc.m_alpha_direct": _m_direct_attrs,
        "mfunc.solve_ivp": count_rhs,
    }
    for name, targets in SPANS.items():
        for module_name, attr in targets:
            original = getattr(by_name[module_name], attr)
            rebind(original, tracer.span(name, original, attrs.get(name)))
    for name, (module_name, attr) in COUNTERS.items():
        original = getattr(by_name[module_name], attr)
        rebind(original, tracer.counter(name, original))

    reporting = by_name["reporting"]
    reporting.CheckReport.to_json = tracer.span("reporting", reporting.CheckReport.to_json)
    potential_cls = by_name["potentials"].Potential
    potential_cls.__call__ = tracer.counter("potentials", potential_cls.__call__)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer counts and seconds of one traced session.

    A layer's time is the sum of its outermost spans (a span inside another
    span of the same name is not counted twice); its self time subtracts the
    direct child spans.
    """
    tracer.flush()
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child_time[parent] += end - start

    def outermost(i):
        name = spans[i][0]
        parent = spans[i][3]
        while parent is not None:
            if spans[parent][0] == name:
                return False
            parent = spans[parent][3]
        return True

    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    paths: dict[str, list] = defaultdict(list)
    keys: set = set()
    numeric_evals = 0
    for i, (name, start, end, parent, attrs) in enumerate(spans):
        if not outermost(i):
            continue
        calls[name] += 1
        total[name] += end - start
        own[name] += end - start - child_time[i]
        if attrs and attrs.get("path") in ("weyl-disk", "riccati"):
            paths[attrs["path"]].append(end - start)
            keys.add(attrs["eval_key"])
            numeric_evals += 1

    c = tracer.counters
    return {
        "potentials.calls": c["potentials.calls"],
        "potentials.s": c["potentials.s"],
        "mfunc.disk.evals": len(paths["weyl-disk"]),
        "mfunc.disk.s": math.fsum(paths["weyl-disk"]),
        "mfunc.riccati.evals": len(paths["riccati"]),
        "mfunc.riccati.s": math.fsum(paths["riccati"]),
        "mfunc.solve_ivp.calls": calls["mfunc.solve_ivp"],
        "mfunc.solve_ivp.s": total["mfunc.solve_ivp"],
        "mfunc.rhs_calls": c["mfunc.rhs_calls"],
        "mfunc.unique_z_frac": len(keys) / numeric_evals if numeric_evals else 1.0,
        "mfunc.limits.calls": calls["mfunc.limits"],
        "mfunc.limits.s": total["mfunc.limits"],
        "mfunc.errors": tracer.errors,
        "lsystem.impedance.calls": calls["lsystem.impedance"],
        "lsystem.impedance.self_s": own["lsystem.impedance"],
        "sectorial.herglotz.s": total["sectorial.herglotz"],
        "sectorial.stieltjes.s": total["sectorial.stieltjes"],
        "sectorial.class_limits.s": total["sectorial.class_limits"],
        "sectorial.kernel_psd.s": total["sectorial.kernel_psd"],
        "sectorial.kernel_psd.self_s": own["sectorial.kernel_psd"],
        "sectorial.kernel_matrix.calls": calls["sectorial.kernel_matrix"],
        "cli.m0_limit.s": total["cli.m0_limit"],
        "forms.s": total["forms"],
        "forms.quad.calls": c["forms.quad.calls"],
        "reporting.s": total["reporting"],
        "cli.self_s": own["cli.main"],
    }
