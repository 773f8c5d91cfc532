"""Every layer the benchmark's trace wraps must still exist in the package.

``bench/spans.py`` looks each label up with ``getattr`` when ``--trace 1``
installs its wrappers, so renaming or deleting one of these functions
breaks the traced benchmark, not the library's own tests.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _labels():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return list(spans.SPANNED) + list(spans.COUNTED)


@pytest.mark.parametrize("label", _labels())
def test_traced_label_resolves_to_a_function(label):
    mod, fn = label.split(".")
    obj = getattr(importlib.import_module("lpgreedy." + mod), fn, None)
    assert callable(obj), f"{label} is not a function of lpgreedy"
