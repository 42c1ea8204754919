"""The names the traced benchmark (perfbench/spans.py) wraps must exist.

The tracer rebinds functions by (module, attribute); a rename in weylsys
would otherwise break only the traced benchmark run.  The spans file is read,
not changed.
"""

from __future__ import annotations

import importlib
import inspect
import runpy
from pathlib import Path

import pytest

import weylsys

SPANS_FILE = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
HOOKS = runpy.run_path(str(SPANS_FILE))

TARGETS = sorted({target for targets in HOOKS["SPANS"].values() for target in targets}
                 | set(HOOKS["COUNTERS"].values()))


@pytest.mark.parametrize("module, name", TARGETS, ids=[f"{m}.{n}" for m, n in TARGETS])
def test_span_and_counter_targets_resolve(module, name):
    assert module in HOOKS["MODULES"]
    assert callable(getattr(importlib.import_module(f"weylsys.{module}"), name))


def test_patched_methods_exist():
    assert callable(weylsys.potentials.Potential.__call__)
    assert callable(weylsys.reporting.CheckReport.to_json)


def test_m_alpha_direct_leads_with_potential_alpha_z():
    # the tracer's span attributes read the first three positional arguments
    params = list(inspect.signature(weylsys.mfunc.m_alpha_direct).parameters)
    assert params[:3] == ["potential", "alpha", "z"]
