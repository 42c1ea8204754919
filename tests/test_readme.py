"""The README's library quick start runs and gives the values its comments state."""

from __future__ import annotations

import math
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_runs_as_documented():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) == 1
    ns: dict = {}
    exec(compile(blocks[0], str(README), "exec"), ns)
    assert ns["m_infinity"](ns["ev"], -1.0) == 1.5
    assert ns["rotated"] == -2.0224634999302356
    assert ns["m"] == 1.2071067811865475 - 0.5j
    assert ns["v"] == -ns["m"]
    assert ns["w"] == pytest.approx(complex(1.0 - math.sqrt(2.0), math.sqrt(2.0)), rel=1e-15)
    assert ns["dual"].impedance_residual <= 1e-15
    assert ns["dual"].transfer_residual <= 1e-15
    assert ns["verdict"].passed
    assert tuple(ns["angles"]) == pytest.approx((0.0, math.pi / 4.0), abs=1e-6)
    assert ns["dual"].xi == -1.0
    assert ns["acc"].tan_theta == 1.0
