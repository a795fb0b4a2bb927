"""Document rendering: frozen formats and JSON round trips."""

from fractions import Fraction

import numpy as np
import pytest

from hueckel_green import (ChainSpec, Topology, TooLarge, build_hamiltonian,
                           lu_inverse, spectral_resolvent_matrix)
from hueckel_green.output import (Format, decision_document, format_float,
                                  format_rational, matrix_document,
                                  matrix_document_from_json, matrix_rows,
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
    doc = matrix_document([[F(0), F(1, 2)], [F(-1), F(2)]], exact=True,
                          fmt=Format.CSV, topology="open", n=2)
    assert doc.render() == "0,1/2\n-1,2\n"


def test_json_matrix_round_trip_exact():
    doc = matrix_document([[F(0), F(1, 2)], [F(-1, 2), F(3)]], exact=True,
                          fmt=Format.JSON, topology="cyclic", n=2)
    text = doc.render()
    assert '"exact": true' in text and '"topology": "cyclic"' in text
    assert matrix_document_from_json(text).render() == text


def test_json_matrix_round_trip_float():
    doc = matrix_document([[0.0, 1.0], [-0.5, 2.25]], exact=False,
                          fmt=Format.JSON, lattice=2, n=2)
    text = doc.render()
    assert '"lattice": 2' in text
    assert matrix_document_from_json(text).render() == text


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
    doc = matrix_document([row] * 1001, exact=False, fmt=Format.CSV, n=1001)
    with pytest.raises(TooLarge):
        doc.render()
    doc.fmt = Format.JSON
    assert doc.render()  # JSON path stays available


def test_float_matrix_rows_are_python_floats_of_each_entry():
    spec = ChainSpec(Topology.OPEN, 8)
    for m in (-lu_inverse(build_hamiltonian(spec).to_float()),
              spectral_resolvent_matrix(spec, 0.0)):
        rows = matrix_rows(m)
        assert all(type(v) is float for row in rows for v in row)
        old = [[float(x) for x in row] for row in np.asarray(m, dtype=float)]
        assert [[v.hex() for v in row] for row in rows] == \
            [[v.hex() for v in row] for row in old]
