from __future__ import annotations

import json
import math

import numpy as np

from weylsys.cli import _report_text
from weylsys.reporting import Check, CheckReport, format_csv, json_ready


def test_json_ready_scalars():
    assert json_ready(1.5) == 1.5
    assert json_ready(True) is True
    assert json_ready(None) is None
    assert json_ready(math.inf) == "inf"
    assert json_ready(-math.inf) == "-inf"
    assert json_ready(math.nan) == "nan"
    assert json_ready(1 + 2j) == {"im": 2.0, "re": 1.0}
    assert json_ready(np.float64(0.25)) == 0.25
    assert json_ready(np.bool_(True)) is True


def test_json_ready_containers():
    doc = json_ready({"a": (1j, math.inf), "b": [np.int64(3)]})
    assert doc == {"a": [{"im": 1.0, "re": 0.0}, "inf"], "b": [3]}


def test_check_report_layout_and_determinism():
    checks = (
        Check("alpha", True, 1.0, 1.0, 1e-9),
        Check("beta", False, 2.0, 0.0, 1e-9, witness={"point": 1j}),
    )
    report = CheckReport(checks, meta={"seed": 42})
    doc = report.to_dict()
    assert doc["pass"] is False
    assert doc["seed"] == 42
    assert [c["name"] for c in doc["checks"]] == ["alpha", "beta"]
    assert "witness" in doc["checks"][1]
    text = report.to_json()
    assert text == report.to_json()
    assert text.endswith("\n")
    assert json.loads(text)["checks"][1]["witness"]["point"] == {"im": 1.0, "re": 0.0}


def test_all_pass_on_empty_report():
    assert CheckReport(()).all_pass is True


def test_csv_formatting():
    text = format_csv(
        ["name", "ok", "value"],
        [["x", True, 1.0 / 3.0], ["y", False, math.inf], ["z", None, 1e-15]],
    )
    lines = text.splitlines()
    assert lines[0] == "name,ok,value"
    assert lines[1] == "x,true,0.333333333333333"
    assert lines[2] == "y,false,inf"
    assert lines[3] == "z,,1e-15"
    assert text.endswith("\n")


def test_within_stores_a_python_bool():
    check = Check.within("x", np.float64(1.0), 1.0, 0.5)
    assert check.passed is True
    assert bool(Check.within("y", np.float64(2.0), 1.0, 0.5)) is False
    assert _report_text(CheckReport((check,)), "csv").splitlines()[1] == "x,true,1,1,0.5"
