"""Output documents for the command line: CSV and JSON with frozen formatting.

Exact rationals render as p/q, or as a plain integer when the denominator
is 1, and a non-integer is a quoted string in JSON.  Floats render with 17
significant digits, which round-trips doubles exactly, the same in CSV and
JSON.  A document's entries are all exact or all floats, so its formatter
is chosen once, from the first entry, and the JSON "exact" field follows
from that choice.  Matrix JSON is emitted by hand, row by row; emitted
documents parse back losslessly.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from fractions import Fraction
from typing import IO, Any

from .errors import TooLarge
from .exact import ExactMatrix

CSV_CELL_LIMIT = 10 ** 6


class Format(enum.Enum):
    CSV = "csv"
    JSON = "json"


class Kind(enum.Enum):
    MATRIX = "matrix"
    SCALAR = "scalar"
    DECISION = "decision"
    REPORT = "report"


def format_rational(x: Fraction) -> str:
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def format_float(x: float) -> str:
    if x == 0.0:           # normalize -0.0
        x = 0.0
    return f"{x:#.17g}"


def parse_rational(text: str) -> Fraction:
    """Parse "p" or "p/q"; float syntax is rejected on purpose."""
    text = text.strip()
    if any(c in text for c in ".eE"):
        raise ValueError(f"exact rational expected (got {text!r}); write p/q")
    return Fraction(text)


def _json_rational(x: Fraction) -> str:
    """`json.dumps(format_rational(x))`, bare when x is an integer."""
    if x.denominator == 1:
        return str(x.numerator)
    return f'"{x.numerator}/{x.denominator}"'


def _entry_formatter(first, fmt: Format):
    """The one formatter of a document whose first entry is `first`."""
    if not isinstance(first, (int, Fraction)):
        return format_float
    return format_rational if fmt is Format.CSV else _json_rational


@dataclass
class OutputDocument:
    kind: Kind
    payload: Any
    fmt: Format = Format.CSV

    def render(self) -> str:
        chunks: list[str] = []
        self.write(chunks.append)
        return "".join(chunks)

    def write_to(self, stream: IO[str]) -> None:
        self.write(stream.write)

    def write(self, emit) -> None:
        if self.kind is Kind.MATRIX:
            _write_matrix(self.payload, self.fmt, emit)
        elif self.kind is Kind.SCALAR:
            emit(_scalar(self.payload["value"], self.fmt))
            emit("\n")
        elif self.kind is Kind.DECISION:
            emit(_decision_json(self.payload))
            emit("\n")
        else:
            _write_report(self.payload, self.fmt, emit)


def matrix_document(rows: list[list], fmt: Format,
                    topology: str | None = None) -> OutputDocument:
    return OutputDocument(Kind.MATRIX, {"rows": rows, "topology": topology}, fmt)


def matrix_rows(m) -> list[list]:
    """Rows of an exact matrix, or float rows as they are."""
    if isinstance(m, ExactMatrix):
        return m.to_lists()
    return m


def scalar_document(value, fmt: Format) -> OutputDocument:
    return OutputDocument(Kind.SCALAR, {"value": value}, fmt)


def decision_document(invertible: bool, reason: str,
                      witness: tuple[int, ...] | None = ...) -> OutputDocument:
    payload = {"invertible": invertible, "reason": reason}
    if witness is not ...:
        payload["witness"] = list(witness) if witness is not None else None
    return OutputDocument(Kind.DECISION, payload, Format.JSON)


def report_document(checks: list[dict], fmt: Format) -> OutputDocument:
    return OutputDocument(Kind.REPORT, {"checks": checks}, fmt)


def _write_matrix(payload, fmt: Format, emit) -> None:
    rows = payload["rows"]
    cells = len(rows) * len(rows[0])
    entry = _entry_formatter(rows[0][0], fmt)
    if fmt is Format.CSV:
        if cells > CSV_CELL_LIMIT:
            raise TooLarge(
                f"{cells} cells exceed the CSV limit ({CSV_CELL_LIMIT}); use --format json")
        for row in rows:
            emit(",".join(map(entry, row)))
            emit("\n")
        return
    emit('{"kind": "matrix"')
    if payload["topology"] is not None:
        emit(f', "topology": {json.dumps(payload["topology"])}')
    emit(f', "n": {len(rows)}, "entries": [')
    for i, row in enumerate(rows):
        if i:
            emit(", ")
        emit("[")
        emit(", ".join(map(entry, row)))
        emit("]")
    emit(f'], "exact": {"false" if entry is format_float else "true"}}}')
    emit("\n")


def _scalar(value, fmt: Format) -> str:
    entry = _entry_formatter(value, fmt)
    if fmt is Format.CSV:
        return entry(value)
    exact = "false" if entry is format_float else "true"
    return f'{{"kind": "scalar", "value": {entry(value)}, "exact": {exact}}}'


def _decision_json(payload) -> str:
    parts = [f'"invertible": {"true" if payload["invertible"] else "false"}',
             f'"reason": {json.dumps(payload["reason"])}']
    if "witness" in payload:
        witness = payload["witness"]
        parts.append(f'"witness": {json.dumps(witness)}')
    return "{" + ", ".join(parts) + "}"


def _write_report(payload, fmt: Format, emit) -> None:
    checks = payload["checks"]
    if fmt is Format.CSV:
        for c in checks:
            emit(f'{c["id"]},{"pass" if c["passed"] else "fail"},'
                 f'{format_float(c["residual"])}\n')
        worst = max((c["residual"] for c in checks), default=0.0)
        ok = all(c["passed"] for c in checks)
        emit(f'all,{"pass" if ok else "fail"},{format_float(worst)}\n')
        return
    rendered = [
        f'{{"id": {json.dumps(c["id"])}, "passed": {"true" if c["passed"] else "false"}, '
        f'"residual": {format_float(c["residual"])}}}' for c in checks]
    ok = all(c["passed"] for c in checks)
    emit(f'{{"kind": "report", "passed": {"true" if ok else "false"}, '
         f'"checks": [{", ".join(rendered)}]}}\n')

