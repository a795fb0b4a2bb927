"""Document rendering: frozen formats and JSON round trips."""

import json
import random
from fractions import Fraction

import numpy as np
import pytest

from hueckel_green import (ChainSpec, Topology, TooLarge, build_hamiltonian,
                           lu_inverse, spectral_resolvent_matrix)
from hueckel_green.output import (Format, decision_document, format_float,
                                  format_rational, matrix_document, matrix_rows,
                                  parse_rational, report_document,
                                  scalar_document)

F = Fraction


def test_format_rational():
    assert format_rational(F(1, 2)) == "1/2"
    assert format_rational(F(-3, 4)) == "-3/4"
    assert format_rational(F(4, 2)) == "2"
    assert format_rational(F(0)) == "0"


def test_format_float_seventeen_digits():
    assert format_float(1.0) == "1.0000000000000000"
    assert format_float(-4.0) == "-4.0000000000000000"
    assert format_float(0.5) == "0.50000000000000000"
    assert format_float(-0.0) == "0.0000000000000000"


def test_parse_rational():
    assert parse_rational("3/4") == F(3, 4)
    assert parse_rational("-2") == F(-2)
    for bad in ("0.5", "1e3", "2.0"):
        with pytest.raises(ValueError):
            parse_rational(bad)


def test_csv_matrix():
    doc = matrix_document([[F(0), F(1, 2)], [F(-1), F(2)]], Format.CSV, "open")
    assert doc.render() == "0,1/2\n-1,2\n"


def parsed_matrix(text):
    """Rows and topology of an emitted JSON matrix, read with json.loads."""
    obj = json.loads(text)
    assert obj["kind"] == "matrix"
    parse = Fraction if obj["exact"] else float
    return [[parse(v) for v in row] for row in obj["entries"]], obj.get("topology")


def test_json_matrix_round_trip_exact():
    rows = [[F(0), F(1, 2)], [F(-1, 2), F(3)]]
    text = matrix_document(rows, Format.JSON, "cyclic").render()
    assert '"exact": true' in text and '"topology": "cyclic"' in text
    assert parsed_matrix(text) == (rows, "cyclic")


def test_json_matrix_round_trip_float():
    rows = [[0.0, 1 / 3], [-0.5, 2.25]]
    text = matrix_document(rows, Format.JSON).render()
    assert parsed_matrix(text) == (rows, None)


def test_scalar_documents():
    assert scalar_document(F(-1, 2), Format.CSV).render() == "-1/2\n"
    assert scalar_document(1.0, Format.CSV).render() == "1.0000000000000000\n"
    assert scalar_document(F(3), Format.JSON).render() \
        == '{"kind": "scalar", "value": 3, "exact": true}\n'


def test_decision_document():
    assert decision_document(True, "3 < 5").render() \
        == '{"invertible": true, "reason": "3 < 5"}\n'
    assert decision_document(False, "3 >= 3", (1, 5, 7)).render() \
        == '{"invertible": false, "reason": "3 >= 3", "witness": [1, 5, 7]}\n'
    assert decision_document(True, "N+1 prime", None).render() \
        == '{"invertible": true, "reason": "N+1 prime", "witness": null}\n'


def test_report_document():
    checks = [{"id": "a", "passed": True, "residual": 0.0},
              {"id": "b", "passed": False, "residual": 0.5}]
    text = report_document(checks, Format.CSV).render()
    assert text.splitlines() == [
        "a,pass,0.0000000000000000",
        "b,fail,0.50000000000000000",
        "all,fail,0.50000000000000000",
    ]
    json_text = report_document(checks, Format.JSON).render()
    assert '"passed": false' in json_text


def test_csv_refuses_huge_matrices():
    row = [0.0] * 1001
    with pytest.raises(TooLarge):
        matrix_document([row] * 1001, Format.CSV).render()
    # the JSON path stays available
    assert matrix_document([row] * 1001, Format.JSON).render()


def test_float_matrix_rows_are_python_floats_of_each_entry():
    spec = ChainSpec(Topology.OPEN, 8)
    for m in (lu_inverse(build_hamiltonian(spec).to_float()),
              spectral_resolvent_matrix(spec, 0.0)):
        rows = matrix_rows(m)
        assert all(type(v) is float for row in rows for v in row)
        old = [[float(x) for x in row] for row in np.asarray(m, dtype=float)]
        assert [[v.hex() for v in row] for row in rows] == \
            [[v.hex() for v in row] for row in old]


def _seeded_rationals(seed: int, count: int) -> list[Fraction]:
    rng = random.Random(seed)
    values = [F(rng.randint(-10 ** 30, 10 ** 30), rng.choice((1, 2, 12, 999983)))
              for _ in range(count)]
    return values + [F(-7), F(0), F(10 ** 30 + 1, 3), F(-(10 ** 29), 7)]


def test_json_rational_entries_quote_exactly_the_non_integers():
    values = _seeded_rationals(7, 60)
    assert any(v.denominator == 1 for v in values[:60])   # integers drawn too
    text = matrix_document([values[i:i + 8] for i in range(0, 64, 8)],
                           Format.JSON).render()
    cells = text.split('"entries": [[')[1].split("]]")[0].replace("], [", ", ")
    expected = [str(x.numerator) if x.denominator == 1
                else json.dumps(format_rational(x)) for x in values]
    assert cells.split(", ") == expected
    for x, cell in zip(values, expected):
        assert scalar_document(x, Format.JSON).render() == \
            f'{{"kind": "scalar", "value": {cell}, "exact": true}}\n'
        assert scalar_document(x, Format.CSV).render() == \
            f"{format_rational(x)}\n"


@pytest.mark.parametrize("as_rows", [
    lambda raw: raw,
    lambda raw: [list(map(np.float64, row)) for row in raw],
])
def test_float_documents_render_each_cell_alike_in_csv_and_json(as_rows):
    rng = random.Random(3)
    raw = [[rng.uniform(-9, 9) for _ in range(5)] for _ in range(5)]
    raw[0][0], raw[2][3] = -0.0, 0.0
    rows = as_rows(raw)
    csv_cells = [line.split(",") for line in
                 matrix_document(rows, Format.CSV).render().splitlines()]
    text = matrix_document(rows, Format.JSON).render()
    json_cells = [c.split(", ") for c in
                  text.split('"entries": [[')[1].split("]]")[0].split("], [")]
    assert csv_cells == json_cells
    assert csv_cells == [[format_float(x) for x in row] for row in raw]
    assert csv_cells[0][0] == csv_cells[2][3] == "0.0000000000000000"
    for zero in (-0.0, np.float64(-0.0)):
        assert scalar_document(zero, Format.CSV).render() == \
            "0.0000000000000000\n"
        assert scalar_document(zero, Format.JSON).render() == \
            '{"kind": "scalar", "value": 0.0000000000000000, "exact": false}\n'


@pytest.mark.parametrize("rows,exact", [
    ([[0, 1, 0], [1, 0, 1], [0, 1, 0]], True),
    ([[F(0), F(1, 2)], [F(-1, 2), F(3)]], True),
    ([[0.0, 1.0], [-1.0, 2.0]], False),
    ([[np.float64(0.5)] * 4] * 4, False),
])
def test_exactness_and_size_are_read_from_the_entries(rows, exact):
    obj = json.loads(matrix_document(rows, Format.JSON).render())
    assert obj["exact"] is exact
    assert obj["n"] == len(rows)
    scalar = json.loads(scalar_document(rows[0][1], Format.JSON).render())
    assert scalar["exact"] is exact
