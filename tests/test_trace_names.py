"""Every layer the benchmark's trace wraps must still exist in the package.

``bench/spans.py`` looks each label up with ``getattr`` when ``--trace 1``
installs its wrappers, so renaming or deleting one of these functions
breaks the traced benchmark, not the library's own tests.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from lpgreedy import chebyshev_project, lp_space

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


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_projection_result_carries_the_traced_counters(p):
    # the trace adds up ``iterations`` and counts ``not converged`` of every
    # projection it wraps
    rng = np.random.default_rng(0)
    res = chebyshev_project(lp_space(p, 8), rng.standard_normal(8),
                            rng.standard_normal((3, 8)))
    assert type(res.iterations) is int and res.iterations >= 1
    assert type(res.converged) is bool
