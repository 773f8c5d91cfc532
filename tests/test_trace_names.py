"""Every name the benchmark reaches in the package must still exist.

``bench/spans.py`` looks each label up with ``getattr`` when ``--trace 1``
installs its wrappers, and ``bench/run.py`` calls the package as ``lp``, a
module it imports at run time.  Renaming or deleting one of these names,
or a parameter a call passes by keyword, breaks the benchmark, not the
library's own tests.  So does a change to the audit tolerances, which
``bench/checks.py`` tables for itself, or to the record fields it and
``bench/run.py`` read from a written report.
"""

import ast
import importlib
import importlib.util
import inspect
import json
from pathlib import Path

import numpy as np
import pytest

import lpgreedy
import lpgreedy.harness  # noqa: F401  bench/run.py imports it too
from lpgreedy import (ALGORITHM_IDS, AWBGA_IDS, SequenceSpec, TargetSpec,
                      build_dictionary, chebyshev_project, diagnostics,
                      lp_space, make_target, run_greedy)
from lpgreedy.algorithms import run_id
from lpgreedy.perturbation import ZERO_ERRORS

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _bench_module(name):
    spec = importlib.util.spec_from_file_location("bench_" + name,
                                                  BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _labels():
    spans = _bench_module("spans")
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


def test_bench_audit_tolerances_are_the_audits_own():
    # ``checks.check_audit`` reads AUDIT_TOLS[name] for every applicable
    # check of a report; each name is held there to the tolerance
    # ``audit_conditions`` holds it to
    gs, er, bo = diagnostics.DEFAULT_COND_TOLS
    own = {"greedy_selection": gs, "error_reduction": er,
           "biorthogonality": bo, "monotone": er,
           "neg_line": diagnostics._NEG_LINE_TOL, "bj": er}
    tols = _bench_module("checks").AUDIT_TOLS
    D = build_dictionary(lp_space(1.5, 8), "random_gauss", 16, seed=1)
    t = make_target(D, TargetSpec(mode="a1_sparse", k=2, seed=2))
    tau = SequenceSpec(kind="const", c=1.0)
    for name in ALGORITHM_IDS + AWBGA_IDS:
        algorithm, approximate = run_id(name)
        rep = run_greedy(algorithm, t.f, D, tau, max_m=3, target=t,
                         errors=ZERO_ERRORS if approximate else None)
        assert rep.algorithm == name
        for c in diagnostics.audit_conditions(rep).checks:
            if c.applicable:
                assert tols.get(c.name) == own[c.name], (name, c.name)


def test_written_report_holds_the_record_fields_the_bench_reads(tmp_path):
    # bench/run.py and bench/checks.py read these from the JSON reports a
    # sweep writes
    code = lpgreedy.harness.main([
        "sweep", "--algos", "awcga,awgafr", "--seeds", "1",
        "--space", "lp:p=1.5,n=8", "--dict", "random_gauss,N=16,seed=1",
        "--target", "a1,k=2,seed=0",
        "--errors", "err:delta=pow:0.1,1.1,eta=pow:0.1,1.1", "--iters", "3",
        "--out-dir", str(tmp_path)])
    assert code == 0
    reports = sorted(tmp_path.glob("*.json"))
    assert reports
    fields = {"m", "wall_ns", "residual_norm", "t_m", "bo_abs", "eps_m",
              "delta_m"}
    for path in reports:
        rep = json.loads(path.read_text())
        assert isinstance(rep["algorithm"], str)
        assert isinstance(rep["space_meta"]["p"], float)
        assert isinstance(rep["records"], list) and rep["records"]
        for rec in rep["records"]:
            assert isinstance(rec, dict) and fields <= rec.keys()
