"""Every name the benchmark reaches in the package must still exist.

``bench/spans.py`` looks each label up with ``getattr`` when ``--trace 1``
installs its wrappers, and ``bench/run.py`` calls the package as ``lp``, a
module it imports at run time.  Renaming or deleting one of these names,
or a parameter a call passes by keyword, breaks the benchmark, not the
library's own tests.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

import lpgreedy
import lpgreedy.harness  # noqa: F401  bench/run.py imports it too
from lpgreedy import chebyshev_project, lp_space

BENCH = Path(__file__).resolve().parents[1] / "bench"
SPANS = BENCH / "spans.py"


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


def _bench_uses():
    """(dotted name, call or None) of each outermost ``lp.<name>...``
    attribute chain in ``bench/run.py``, the call being the node that calls
    it; the test id is the name and its line."""
    tree = ast.parse((BENCH / "run.py").read_text())
    calls = {id(n.func): n for n in ast.walk(tree) if isinstance(n, ast.Call)}
    inner = {id(n.value) for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    uses = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute) or id(node) in inner:
            continue
        chain, value = [node.attr], node.value
        while isinstance(value, ast.Attribute):
            chain.append(value.attr)
            value = value.value
        if isinstance(value, ast.Name) and value.id == "lp":
            name = ".".join(reversed(chain))
            uses.append(pytest.param(name, calls.get(id(node)),
                                     id=f"{name}@{node.lineno}"))
    return uses


def test_bench_run_reaches_the_package_as_lp():
    names = {use.values[0] for use in _bench_uses()}
    assert {"WeaknessSchedule", "run_greedy", "harness.main"} <= names


@pytest.mark.parametrize("name,call", _bench_uses())
def test_bench_run_name_resolves_on_lpgreedy(name, call):
    obj = lpgreedy
    for attr in name.split("."):
        assert hasattr(obj, attr), f"lp.{name} does not resolve on lpgreedy"
        obj = getattr(obj, attr)
    if call is not None:
        # the call's positional count and keyword names bind to the signature
        inspect.signature(obj).bind(*call.args, **{
            k.arg: k.value for k in call.keywords if k.arg is not None})
