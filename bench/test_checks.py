"""Each benchmark check passes on a real run and rejects a tampered one.

    python3 -m pytest -q bench/test_checks.py
"""

import copy
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
for _path in (HERE.parent / "src", HERE):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

import checks  # noqa: E402
from lpgreedy import (ErrorSchedule, SequenceSpec, TargetSpec,  # noqa: E402
                      WeaknessSchedule, audit_conditions, build_dictionary,
                      error_reduction_margins, lp_space, make_target,
                      run_awbga, run_greedy)
from lpgreedy.harness import emit_csv  # noqa: E402


def _case(p, n=16, size=64, k=4):
    D = build_dictionary(lp_space(p, n), "random_gauss", size, seed=11)
    return D, make_target(D, TargetSpec(mode="a1_sparse", k=k, seed=12))


def _exact(algo, p, t=1.0, rule="exact_argmax"):
    D, target = _case(p)
    rep = run_greedy(algo, target.f, D, WeaknessSchedule(kind="constant", t0=t),
                     max_m=30, rule=rule, target=target)
    return rep, D, target


def _raised(rep, m, factor=1.01):
    """A copy of the report with record m's residual raised by a factor."""
    bad = copy.deepcopy(rep)
    bad.records[m - 1].residual_norm *= factor
    return bad


def test_termination():
    rep, _, _ = _exact("rwrga", 3.0)
    assert checks.check_termination(rep) == []
    bad = copy.deepcopy(rep)
    bad.termination = "stalled"
    assert checks.check_termination(bad)


@pytest.mark.parametrize("bound", ["cor52", "thm91", "cor21"])
def test_rate_bounds(bound):
    rep, _, _ = _exact("rrxga" if bound == "thm91" else "wcga", 3.0,
                       t=0.5 if bound == "cor21" else 1.0)
    curve = {"cor52": lambda r: checks.cor52_bound(3.0, [x.t_m for x in r.records]),
             "thm91": lambda r: checks.thm91_bound(3.0, [x.m for x in r.records]),
             "cor21": lambda r: checks.cor21_bound(3.0, 0.5, [x.m for x in r.records])}
    check = {"cor52": lambda r: checks.check_cor52(r, 3.0),
             "thm91": lambda r: checks.check_thm91(r, 3.0),
             "cor21": lambda r: checks.check_cor21(r, 3.0, 0.5)}
    assert check[bound](rep) == []
    bad = copy.deepcopy(rep)
    bad.records[1].residual_norm = 1.01 * curve[bound](rep)[1]
    assert check[bound](bad)


def test_audit_and_error_reduction():
    rep, _, _ = _exact("rwrga", 3.0)
    margins = error_reduction_margins(rep)
    assert checks.check_audit(rep, audit_conditions(rep), margins) == []
    bad = _raised(rep, 5)
    assert audit_conditions(bad).verdict == "FAIL"
    assert checks.check_audit(bad, audit_conditions(bad), margins)
    bad = copy.deepcopy(rep)  # residual just above the inequality's right side
    bad.records[4].residual_norm += margins[4] + 1e-5
    assert checks.check_audit(rep, audit_conditions(rep),
                              error_reduction_margins(bad))


def _flagged(rep, m):
    """A copy of the report whose projection is reported capped at step m."""
    out = copy.deepcopy(rep)
    out.warnings = [f"projection not converged at m={m + 2}",
                    f"projection not converged at m={m}"]
    return out


def test_first_capped_step():
    rep, _, _ = _exact("rwrga", 3.0)
    assert checks.first_capped_step(rep) is None
    assert checks.first_capped_step(_flagged(rep, 4)) == 4


def test_capped_steps_are_still_checked():
    """A capped projection loosens the limits from its step on; a residual
    raised by 1% three steps later is still rejected."""
    rep, D, target = _exact("wcga", 3.0, t=0.5, rule="threshold_first")
    flagged = _flagged(rep, 2)
    args = (3.0, D.matrix, target.f.coords)
    assert checks.check_projection(flagged, *args) == []
    assert checks.check_projection(_raised(flagged, 5), *args)
    margins = error_reduction_margins(rep)
    for report, defect, rejected in ((rep, 2e-6, True), (flagged, 2e-6, False),
                                     (flagged, 1e-4, True)):
        bad = copy.deepcopy(report)  # biorthogonality margin -defect at m=5
        bad.records[4].bo_abs = bad.records[4].eps_m + defect
        assert bool(checks.check_audit(bad, audit_conditions(bad), margins)) \
            == rejected
    bad = copy.deepcopy(flagged)
    bad.records[4].residual_norm += margins[4] + 1e-4
    assert checks.check_audit(flagged, audit_conditions(flagged),
                              error_reduction_margins(bad))
    rep, D, target = _exact("wcga", 2.0)
    assert checks.check_omp_trajectory(_raised(_flagged(rep, 2), 5), D.matrix,
                                       target.f.coords)


def test_represented_target_is_checked():
    """Where the atoms represent f, the residual itself must be about 0."""
    rep, D, target = _exact("wcga", 2.0)
    exact = copy.deepcopy(rep)
    exact.records[-1].residual_norm = 1e-9
    assert checks.check_omp_trajectory(exact, D.matrix, target.f.coords) == []
    exact.records[-1].residual_norm = 1e-3 * checks.lp_norm(2.0, target.f.coords)
    assert checks.check_omp_trajectory(exact, D.matrix, target.f.coords)


def test_least_squares_trajectory():
    rep, D, target = _exact("wcga", 2.0)
    assert checks.check_omp_trajectory(rep, D.matrix, target.f.coords) == []
    bad = _raised(rep, 2)
    assert checks.check_omp_trajectory(bad, D.matrix, target.f.coords)


@pytest.mark.parametrize("p", [1.5, 3.0, 4.0])
def test_lp_projection(p):
    rep, D, target = _exact("wcga", p, t=0.5, rule="threshold_first")
    assert checks.check_projection(rep, p, D.matrix, target.f.coords) == []
    bad = _raised(rep, 3)
    assert checks.check_projection(bad, p, D.matrix, target.f.coords)


def test_projection_reference_is_optimal():
    """No nearby coefficients beat the numpy projection."""
    D, target = _case(1.5)
    f = target.f.coords
    Phi = D.matrix[:6].T
    best = checks.lp_projection_norm(1.5, f, Phi)
    rng = np.random.default_rng(0)
    c, *_ = np.linalg.lstsq(Phi, f, rcond=None)
    assert best <= checks.lp_norm(1.5, f - Phi @ c)
    for _ in range(20):
        trial = c + 0.1 * rng.standard_normal(6)
        assert best <= checks.lp_norm(1.5, f - Phi @ trial)


def _approx(tmp_path, delta):
    D, target = _case(3.0)
    errs = ErrorSchedule(delta=delta, eta=delta, seed=3)
    rep = run_awbga("arwrga", target.f, D, WeaknessSchedule(), errs, max_m=20,
                    target=target)
    path = tmp_path / "r.csv"
    emit_csv(rep, str(path))
    return json.loads(rep.to_json()), path.read_text()


def test_csv_rows(tmp_path):
    rep, text = _approx(tmp_path, SequenceSpec(kind="pow", c=0.1, a=1.1))
    assert checks.check_csv_rows(text, rep) == []
    assert checks.check_csv_rows("\n".join(text.splitlines()[:-1]), rep)


def test_bo_slack(tmp_path):
    rep, _ = _approx(tmp_path, SequenceSpec(kind="pow", c=0.1, a=1.1))
    assert checks.check_bo_slack(rep) == []
    bad = copy.deepcopy(rep)
    bad["records"][4]["bo_abs"] = bad["records"][4]["eps_m"] + 1e-5
    assert checks.check_bo_slack(bad)


def test_auto_delta(tmp_path):
    rep, _ = _approx(tmp_path, SequenceSpec(kind="prop72auto"))
    assert checks.check_auto_delta(rep) == []
    bad = copy.deepcopy(rep)
    bad["records"][4]["delta_m"] *= 1.01
    assert checks.check_auto_delta(bad)


def test_exit_code_and_identical_bytes():
    assert checks.check_exit_code("audit", 0) == []
    assert checks.check_exit_code("audit", 1)
    assert checks.check_identical("a.csv", b"1,2\n", b"1,2\n") == []
    assert checks.check_identical("a.csv", b"1,2\n", b"1,3\n")
