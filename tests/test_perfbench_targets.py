"""The benchmark's layer spans still find every name they patch.

`perfbench/spans.py` swaps named attributes of the package for tracing
wrappers, so renaming or deleting one of those names breaks `--trace 1`.
"""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_traced_requests_record_spans(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    tracer = spans.Tracer()
    with spans.instrumented(tracer):
        det = spans.cli_main(["det", "--topology", "cyclic", "--n", "6"])
        report = spans.cli_main(["verify", "--suite", "cyclic", "--max-n", "4"])
        usmani = spans.cli_main(["green", "--topology", "open", "--n", "8",
                                 "--method", "usmani"])
    assert det[:2] == (0, "-4\n")
    assert report[0] == 0
    assert usmani[0] == 0
    names = {span[1] for span in tracer.spans}
    assert {"circulant.det_cyclic", "output.write", "verify.suite_cyclic",
            "exact.det_fraction_free", "tridiagonal.usmani_inverse",
            "output.matrix_rows", "exact.to_lists"} <= names
