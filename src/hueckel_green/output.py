"""Output documents for the command line: CSV and JSON with frozen formatting.

Exact rationals render as p/q, or as a plain integer when the denominator
is 1, and a non-integer is a quoted string in JSON.  Floats render with 17
significant digits, which round-trips doubles exactly, the same in CSV and
JSON.  A document's entries are all exact or all floats, so its formatter
is chosen once, from the first entry, and the JSON "exact" field follows
from that choice.  Matrix JSON is emitted by hand, row by row; emitted
documents parse back losslessly.

A document is one writer bound to its content, such as
``partial(_write_matrix, rows, fmt, topology)``: `render` collects the
chunks it emits and `write_to` streams them.
"""

from __future__ import annotations

import enum
import json
from fractions import Fraction
from functools import partial
from typing import IO, Any, Callable

from .errors import TooLarge
from .exact import ExactMatrix

CSV_CELL_LIMIT = 10 ** 6


class Format(enum.Enum):
    CSV = "csv"
    JSON = "json"


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
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


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


class OutputDocument:
    """One document, ready to emit: a writer that passes each chunk of the
    document's text, in order, to the ``emit`` function it is given."""

    __slots__ = ("_write",)

    def __init__(self, write: Callable[[Callable[[str], Any]], None]):
        self._write = write

    def render(self) -> str:
        chunks: list[str] = []
        self._write(chunks.append)
        return "".join(chunks)

    def write_to(self, stream: IO[str]) -> None:
        self._write(stream.write)


def matrix_document(rows: list[list], fmt: Format,
                    topology: str | None = None) -> OutputDocument:
    return OutputDocument(partial(_write_matrix, rows, fmt, topology))


def matrix_rows(m) -> list[list]:
    """Rows of an exact matrix, or float rows as they are."""
    if isinstance(m, ExactMatrix):
        return m.to_lists()
    return m


def scalar_document(value, fmt: Format) -> OutputDocument:
    return OutputDocument(partial(_write_scalar, value, fmt))


def decision_document(invertible: bool, reason: str,
                      witness: tuple[int, ...] | None = ...) -> OutputDocument:
    return OutputDocument(partial(_write_decision, invertible, reason, witness))


def report_document(checks: list[dict], fmt: Format) -> OutputDocument:
    return OutputDocument(partial(_write_report, checks, fmt))


def _write_matrix(rows: list[list], fmt: Format, topology: str | None,
                  emit) -> None:
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
    if topology is not None:
        emit(f', "topology": {json.dumps(topology)}')
    emit(f', "n": {len(rows)}, "entries": [')
    for i, row in enumerate(rows):
        if i:
            emit(", ")
        emit("[")
        emit(", ".join(map(entry, row)))
        emit("]")
    emit(f'], "exact": {"false" if entry is format_float else "true"}}}')
    emit("\n")


def _write_scalar(value, fmt: Format, emit) -> None:
    entry = _entry_formatter(value, fmt)
    if fmt is Format.CSV:
        emit(f"{entry(value)}\n")
        return
    exact = "false" if entry is format_float else "true"
    emit(f'{{"kind": "scalar", "value": {entry(value)}, "exact": {exact}}}\n')


def _write_decision(invertible: bool, reason: str, witness, emit) -> None:
    """``witness`` is left out of the document when it is ``...``."""
    parts = [f'"invertible": {"true" if invertible else "false"}',
             f'"reason": {json.dumps(reason)}']
    if witness is not ...:
        parts.append(f'"witness": {json.dumps(witness)}')
    emit("{" + ", ".join(parts) + "}\n")


def _write_report(checks: list[dict], fmt: Format, emit) -> None:
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

