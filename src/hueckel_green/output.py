"""Output documents for the command line: CSV and JSON with frozen formatting.

Exact rationals render as "p/q" (plain integer when the denominator is 1);
floats render with 17 significant digits, which round-trips doubles
exactly.  Matrix JSON is emitted by hand so the float format is identical
in both CSV and JSON; emitted documents parse back losslessly.
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


def _format_entry(value) -> str:
    if isinstance(value, Fraction):
        return format_rational(value)
    if isinstance(value, int):
        return str(value)
    return format_float(float(value))


def _json_entry(value) -> str:
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return str(value.numerator)
        return json.dumps(format_rational(value))
    if isinstance(value, int):
        return str(value)
    return format_float(float(value))


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
            emit(_format_entry(self.payload["value"])
                 if self.fmt is Format.CSV else _scalar_json(self.payload))
            emit("\n")
        elif self.kind is Kind.DECISION:
            emit(_decision_json(self.payload))
            emit("\n")
        else:
            _write_report(self.payload, self.fmt, emit)


def matrix_document(rows: list[list], *, exact: bool, fmt: Format,
                    topology: str | None = None, lattice: int | None = None,
                    n: int | None = None) -> OutputDocument:
    payload = {"rows": rows, "exact": exact, "topology": topology,
               "lattice": lattice, "n": n if n is not None else len(rows)}
    return OutputDocument(Kind.MATRIX, payload, fmt)


def matrix_rows(m) -> list[list]:
    if isinstance(m, ExactMatrix):
        return m.to_lists()
    import numpy as np

    return np.asarray(m, dtype=float).tolist()


def scalar_document(value, fmt: Format) -> OutputDocument:
    return OutputDocument(Kind.SCALAR, {"value": value}, fmt)


def decision_document(invertible: bool, reason: str,
                      witness: tuple[int, ...] | None = ...,
                      fmt: Format = Format.JSON) -> OutputDocument:
    payload = {"invertible": invertible, "reason": reason}
    if witness is not ...:
        payload["witness"] = list(witness) if witness is not None else None
    return OutputDocument(Kind.DECISION, payload, fmt)


def report_document(checks: list[dict], fmt: Format) -> OutputDocument:
    return OutputDocument(Kind.REPORT, {"checks": checks}, fmt)


def _write_matrix(payload, fmt: Format, emit) -> None:
    rows = payload["rows"]
    cells = len(rows) * len(rows[0])
    if fmt is Format.CSV:
        if cells > CSV_CELL_LIMIT:
            raise TooLarge(
                f"{cells} cells exceed the CSV limit ({CSV_CELL_LIMIT}); use --format json")
        for row in rows:
            emit(",".join(_format_entry(v) for v in row))
            emit("\n")
        return
    emit('{"kind": "matrix"')
    if payload.get("topology") is not None:
        emit(f', "topology": {json.dumps(payload["topology"])}')
    if payload.get("lattice") is not None:
        emit(f', "lattice": {payload["lattice"]}')
    emit(f', "n": {payload["n"]}, "entries": [')
    for i, row in enumerate(rows):
        if i:
            emit(", ")
        emit("[")
        emit(", ".join(_json_entry(v) for v in row))
        emit("]")
    emit(f'], "exact": {"true" if payload["exact"] else "false"}}}')
    emit("\n")


def _scalar_json(payload) -> str:
    value = payload["value"]
    if isinstance(value, Fraction):
        body = (str(value.numerator) if value.denominator == 1
                else json.dumps(format_rational(value)))
        exact = "true"
    elif isinstance(value, int):
        body, exact = str(value), "true"
    else:
        body, exact = format_float(float(value)), "false"
    return f'{{"kind": "scalar", "value": {body}, "exact": {exact}}}'


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


def matrix_document_from_json(text: str, fmt: Format = Format.JSON) -> OutputDocument:
    """Parse an emitted matrix document back into a renderable document."""
    obj = json.loads(text)
    if obj.get("kind") != "matrix":
        raise ValueError("not a matrix document")
    exact = obj["exact"]
    rows = []
    for row in obj["entries"]:
        if exact:
            rows.append([Fraction(v) if isinstance(v, str) else Fraction(int(v))
                         for v in row])
        else:
            rows.append([float(v) for v in row])
    return matrix_document(rows, exact=exact, fmt=fmt,
                           topology=obj.get("topology"),
                           lattice=obj.get("lattice"), n=obj.get("n"))
