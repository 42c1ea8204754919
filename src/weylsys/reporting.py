"""Machine-readable check reports: {checks: [{name, pass, value, expected, tol, witness?}]}.

JSON output is deterministic (sorted keys, no timestamps), so identical
inputs and seeds produce byte-identical documents.  CSV uses '.' decimals,
no thousands separators, 15 significant digits.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

__all__ = ["Check", "CheckReport", "json_ready", "format_csv"]


def json_ready(value):
    """Convert numbers (incl. complex and infinities) to JSON-safe values."""
    if value is None or isinstance(value, (bool, str, int)):
        return value
    if isinstance(value, complex):
        return {"im": json_ready(value.imag), "re": json_ready(value.real)}
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        if math.isnan(value):
            return "nan"
        return value
    if isinstance(value, dict):
        return {str(k): json_ready(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_ready(v) for v in value]
    # numpy scalars and anything float-like
    if hasattr(value, "item"):
        return json_ready(value.item())
    return str(value)


def dump_json(doc: dict) -> str:
    """The document of a :func:`json_ready` doc: sorted keys, indent 2, a final newline."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


@dataclass(frozen=True)
class Check:
    """One named verification with its observed value and tolerance."""

    name: str
    passed: bool
    value: object = None
    expected: object = None
    tol: float | None = None
    witness: dict | None = None

    @classmethod
    def within(cls, name: str, value, expected, tol: float) -> "Check":
        """The check ``|value - expected| <= tol``."""
        return cls(name, bool(abs(value - expected) <= tol), value, expected, tol)

    def __bool__(self) -> bool:
        return self.passed

    def to_dict(self) -> dict:
        out = {
            "name": self.name,
            "pass": bool(self.passed),
            "value": json_ready(self.value),
            "expected": json_ready(self.expected),
            "tol": json_ready(self.tol),
        }
        if self.witness is not None:
            out["witness"] = json_ready(self.witness)
        return out


@dataclass(frozen=True)
class CheckReport:
    checks: tuple[Check, ...]
    meta: dict = field(default_factory=dict)

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        doc = dict(json_ready(self.meta))
        doc["checks"] = [c.to_dict() for c in self.checks]
        doc["pass"] = self.all_pass
        return doc

    def to_json(self) -> str:
        return dump_json(self.to_dict())


def _csv_cell(value) -> str:
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return format(value, ".15g")
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return ""
    return str(value)


def format_csv(header: list[str], rows: list[list]) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(_csv_cell(cell) for cell in row) for row in rows)
    return "\n".join(lines) + "\n"
