import dataclasses
import json

import numpy as np
import pytest

from lpgreedy import (BOUND_IDS, BoundSpec, Element, ErrorSchedule,
                      IterationRecord, SequenceSpec, TargetSpec,
                      WeaknessSchedule, audit_conditions,
                      bound_curve, build_dictionary, dict_dual_norm,
                      error_reduction_margins, lp_space, make_target,
                      norming_functional, rate_bound, run_greedy,
                      verify_rates)
from lpgreedy.algorithms import RunReport
from lpgreedy.diagnostics import RateCheck, _bound_form, _worst_margin

T1 = WeaknessSchedule()


@pytest.fixture(scope="module")
def hull_run():
    s = lp_space(2.0, 12)
    D = build_dictionary(s, "random_gauss", 48, seed=3)
    t = make_target(D, TargetSpec(mode="a1_sparse", k=5, seed=4))
    return run_greedy("wcga", t.f, D, T1, max_m=10, target=t)


@pytest.fixture(scope="module")
def awbga_run():
    s = lp_space(3.0, 8)
    D = build_dictionary(s, "random_gauss", 32, seed=5)
    t = make_target(D, TargetSpec(mode="a1_sparse", k=4, seed=6))
    errs = ErrorSchedule(delta=SequenceSpec(kind="pow", c=0.2, a=0.9),
                         eta=SequenceSpec(kind="pow", c=0.2, a=0.9), seed=7)
    return run_greedy("wgafr", t.f, D, T1, errors=errs, max_m=15, target=t)


class TestAuditConditions:
    def test_exact_hilbert_run_passes(self, hull_run):
        audit = audit_conditions(hull_run)
        assert audit.passed
        for name in ("greedy_selection", "error_reduction", "biorthogonality"):
            c = audit.check(name)
            assert c.applicable and c.passed
            assert c.worst_margin >= -1e-10

    def test_injected_violation_fails_named_check(self, hull_run):
        bad = dataclasses.replace(hull_run)
        bad.records = [dataclasses.replace(r) for r in hull_run.records]
        bad.records[3].gs_lhs = bad.records[3].gs_rhs - 1e-3
        audit = audit_conditions(bad)
        assert not audit.passed
        c = audit.check("greedy_selection")
        assert not c.passed and c.worst_margin == pytest.approx(-1e-3)

    def test_nan_margin_in_a_later_record_fails(self, hull_run):
        # a NaN fails its check wherever it sits, not only in the first record
        bad = dataclasses.replace(hull_run)
        bad.records = [dataclasses.replace(r) for r in hull_run.records]
        bad.records[3].gs_lhs = float("nan")
        audit = audit_conditions(bad)
        c = audit.check("greedy_selection")
        assert not audit.passed and not c.passed and np.isnan(c.worst_margin)

    def test_awbga_checked_in_slack_form(self, awbga_run):
        audit = audit_conditions(awbga_run)
        assert audit.passed
        assert not audit.check("bj").applicable
        assert audit.check("biorthogonality").passed

    def test_wdga_skips_biorthogonality(self):
        s = lp_space(2.0, 6)
        D = build_dictionary(s, "random_gauss", 18, seed=1)
        t = make_target(D, TargetSpec(mode="a1_sparse", k=3, seed=2))
        rep = run_greedy("wdga", t.f, D, T1, max_m=8, target=t)
        audit = audit_conditions(rep)
        c = audit.check("biorthogonality")
        assert not c.applicable and "by design" in c.reason
        assert audit.passed

    def test_incomplete_report_rejected(self, hull_run):
        bad = dataclasses.replace(hull_run)
        bad.records = hull_run.records[1:]
        with pytest.raises(ValueError, match="contiguous"):
            audit_conditions(bad)

    def test_audit_json_serializes(self, hull_run):
        audit = audit_conditions(hull_run)
        blob = json.loads(audit.to_json())
        assert blob["verdict"] == "PASS"
        assert any(c["name"] == "monotone" for c in blob["checks"])


    def test_wrga_off_the_hull_promises_no_monotonicity(self):
        s = lp_space(3.0, 8)
        D = build_dictionary(s, "random_gauss", 24, seed=7)
        t = make_target(D, TargetSpec(mode="general_plus_noise", k=3,
                                      eps=0.1, seed=3))
        rep = run_greedy("wrga", t.f, D, T1, max_m=8, target=t)
        mono = audit_conditions(rep).check("monotone")
        assert not mono.applicable and mono.passed
        assert mono.reason == "monotonicity not promised for this run"


class TestErrorReductionInequality:
    def test_hull_target_margins_nonnegative(self, hull_run):
        margins = error_reduction_margins(hull_run)
        assert min(margins) >= -1e-6

    def test_rhs_factor_at_most_one_for_exact_class(self, hull_run):
        # lam = 0 is feasible in the minimization, so the inequality also
        # certifies monotonicity; cross-check via the residual sequence
        margins = error_reduction_margins(hull_run)
        prev = hull_run.initial_residual
        for r, mg in zip(hull_run.records, margins):
            assert r.residual_norm <= prev + mg + 1e-9
            prev = r.residual_norm

    def test_awbga_form_holds(self, awbga_run):
        margins = error_reduction_margins(awbga_run)
        assert min(margins) >= -1e-6

    def test_noisy_target_uses_certificate(self):
        s = lp_space(2.0, 8)
        D = build_dictionary(s, "random_gauss", 32, seed=8)
        t = make_target(D, TargetSpec(mode="general_plus_noise", k=4,
                                      eps=0.05, seed=9))
        rep = run_greedy("rwrga", t.f, D, T1, max_m=12, target=t)
        margins = error_reduction_margins(rep)
        assert min(margins) >= -1e-6

    def test_missing_certificate_raises(self):
        s = lp_space(2.0, 4)
        D = build_dictionary(s, "canonical", 4)
        f = Element(coords=np.array([1.0, 2.0, 0.0, 0.0]), space=s)
        rep = run_greedy("wcga", f, D, T1, max_m=3)
        with pytest.raises(ValueError, match="certificate"):
            error_reduction_margins(rep)

    def test_gap_in_m_rejected(self, hull_run):
        # an m = 3 record after m = 1 would be measured against f_1
        bad = dataclasses.replace(hull_run)
        bad.records = [hull_run.records[0]] + hull_run.records[2:]
        with pytest.raises(ValueError, match="contiguous"):
            error_reduction_margins(bad)

    def test_invalid_certificate_combination(self, hull_run):
        meta = dict(hull_run.target_meta, a_eps=0.01, eps=0.5)
        bad = dataclasses.replace(hull_run, target_meta=meta)
        with pytest.raises(ValueError, match="A\\(eps\\)"):
            error_reduction_margins(bad)


class TestHullFunctionalBound:
    def test_hull_values_below_dictionary_dual_norm(self):
        # sup over the hull equals sup over the dictionary: convex
        # combinations never exceed the per-atom maximum
        s = lp_space(2.5, 8)
        D = build_dictionary(s, "random_gauss", 40, seed=10)
        rng = np.random.default_rng(11)
        for _ in range(50):
            f = Element(coords=rng.standard_normal(8), space=s)
            F = norming_functional(s, f)
            dn = dict_dual_norm(F, D)
            k = int(rng.integers(1, 21))
            idx = rng.choice(40, size=k, replace=False)
            w = rng.dirichlet(np.ones(k))
            signs = rng.integers(0, 2, size=k) * 2 - 1
            hull_el = Element(
                coords=(w[:, None] * signs[:, None] * D.matrix[idx]).sum(axis=0),
                space=s)
            assert F @ hull_el.coords <= dn + 1e-10


class TestRateBound:
    def test_hull_bound_arithmetic(self):
        b = BoundSpec(bound_id="cor52", q=2.0, gamma=0.5)
        assert rate_bound(b, 3, 3.0) == pytest.approx(2.0)

    def test_constant_weakness_arithmetic(self):
        b = BoundSpec(bound_id="cor21", q=2.0, gamma=0.5, t=0.5)
        assert rate_bound(b, 1, 0.25) == pytest.approx(16.0)
        assert rate_bound(b, 4, 1.0) == pytest.approx(8.0)

    def test_noisy_bound_floor(self):
        b = BoundSpec(bound_id="thm52", q=2.0, gamma=0.5,
                      a_eps=1.0, eps=0.3)
        # for large m the 2 eps floor dominates
        assert rate_bound(b, 10_000, 10_000.0) == pytest.approx(0.6)

    def test_norm_scan_bound_at_start(self):
        b = BoundSpec(bound_id="thm91", q=2.0, gamma=0.5)
        assert rate_bound(b, 0, 0.0) == pytest.approx(4.0)

    def test_approximate_class_constant(self):
        b = BoundSpec(bound_id="thm72", q=2.0, gamma=0.5)
        # 4 q (2 gamma)^q (2/(q-1))^(1/p') = 8 sqrt(2) at q=2, gamma=1/2
        assert rate_bound(b, 1, 1.0) == pytest.approx(8.0 * np.sqrt(2.0)
                                                      * 2.0 ** -0.5)

    def test_validation(self):
        with pytest.raises(ValueError, match="unknown bound"):
            BoundSpec(bound_id="thm1", q=2.0, gamma=0.5)
        with pytest.raises(ValueError, match="constant weakness"):
            BoundSpec(bound_id="cor21", q=2.0, gamma=0.5)


class TestVerifyRates:
    def test_hull_run_passes_hull_bounds(self, hull_run):
        results = verify_rates(hull_run, ["cor52", "thm52", "cor21"])
        by_id = {r.bound_id: r for r in results}
        assert by_id["cor52"].applicable and by_id["cor52"].passed
        assert by_id["thm52"].passed
        assert by_id["cor21"].applicable and by_id["cor21"].passed
        assert 0 < by_id["cor52"].max_tightness < 1.0

    def test_nan_residual_in_a_later_record_fails(self, hull_run):
        bad = dataclasses.replace(hull_run)
        bad.records = [dataclasses.replace(r) for r in hull_run.records]
        bad.records[3].residual_norm = float("nan")
        rc, = verify_rates(bad, ["cor52"])
        assert rc.applicable and not rc.passed and np.isnan(rc.worst_margin)

    def test_nan_residual_in_a_later_record_has_nan_tightness(self, hull_run):
        # the tightness beside a NaN margin is NaN too, not the finite rest
        bad = dataclasses.replace(hull_run)
        bad.records = [dataclasses.replace(r) for r in hull_run.records]
        bad.records[3].residual_norm = float("nan")
        rc, = verify_rates(bad, ["cor52"])
        assert np.isnan(rc.max_tightness) and np.isnan(rc.tightness[3])
        assert np.isfinite(rc.tightness[:3]).all()

    def test_noisy_run_skips_hull_bounds(self):
        s = lp_space(2.0, 8)
        D = build_dictionary(s, "random_gauss", 32, seed=12)
        t = make_target(D, TargetSpec(mode="general_plus_noise", k=4,
                                      eps=0.01, seed=13))
        rep = run_greedy("wgafr", t.f, D, T1, max_m=15, target=t)
        results = verify_rates(rep, ["cor52", "thm52"])
        by_id = {r.bound_id: r for r in results}
        assert not by_id["cor52"].applicable
        assert by_id["thm52"].applicable and by_id["thm52"].passed

    def test_nonconstant_weakness_skips_cor21(self):
        s = lp_space(2.0, 6)
        D = build_dictionary(s, "random_gauss", 18, seed=1)
        t = make_target(D, TargetSpec(mode="a1_sparse", k=3, seed=2))
        tau = WeaknessSchedule(kind="power_decay", t0=1.0, exponent=0.3)
        rep = run_greedy("rwrga", t.f, D, tau, max_m=8, target=t)
        results = verify_rates(rep, ["cor21"])
        assert not results[0].applicable
        assert "constant" in results[0].reason

    @pytest.mark.parametrize("certified", [True, False])
    @pytest.mark.parametrize("bid", ["bogus", "COR52", ""])
    def test_unknown_bound_id_raises_with_or_without_certificate(
            self, hull_run, certified, bid):
        # without a certificate the id was once skipped as "requires (eps,
        # A(eps)) metadata"; it is checked before the certificate is read
        if certified:
            rep = hull_run
        else:  # a plain run: no target, so no certificate
            s = lp_space(2.0, 12)
            D = build_dictionary(s, "random_gauss", 48, seed=3)
            f = Element(coords=np.linspace(-1.0, 1.0, 12), space=s)
            rep = run_greedy("wcga", f, D, T1, max_m=3)
        assert bool(rep.target_meta.get("certificate")) == certified
        with pytest.raises(ValueError, match=f"unknown bound id {bid!r}"):
            verify_rates(rep, ["cor52", bid])

    def test_bound_curve_monotone_decreasing(self, hull_run):
        spec = BoundSpec.from_report("cor52", hull_run)
        curve = bound_curve(spec, hull_run)
        assert np.all(np.diff(curve) <= 0)


def _written_out(spec, m, tsum_p):
    """Each bound as the paper states it, one point at a time, with the
    operand order the curve path keeps."""
    q, g, pc, e = spec.q, spec.gamma, spec.p_conj, -1.0 / spec.p_conj
    scale = spec.a_eps + spec.eps
    c5 = 4.0 * (2.0 * g) ** (1.0 / q)
    c7 = 4.0 * q * (2.0 * g) ** q * (2.0 / (q - 1.0)) ** (1.0 / pc)
    return {
        "cor21": lambda: (16.0 * g ** (1.0 / q) * spec.t ** e) * float(m) ** e,
        "cor52": lambda: c5 * (1.0 + tsum_p) ** e,
        "thm52": lambda: max(2.0 * spec.eps, c5 * scale * (1.0 + tsum_p) ** e),
        "thm91": lambda: max(2.0 * spec.eps, c5 * scale * (1.0 + m) ** e),
        "cor72": lambda: c7 * (1.0 + tsum_p) ** e,
        "prop72": lambda: c7 * (1.0 + tsum_p) ** e,
        "thm72": lambda: max(4.0 * spec.eps, c7 * scale * (1.0 + tsum_p) ** e),
    }[spec.bound_id]()


def _late_floor_run():
    # at p = 2 the bounds decay like (1 + m)^(-1/2): the 2 eps floor of
    # thm52 and thm91 takes over after 16 of the 40 steps, thm72's 4 eps
    # floor after 34
    s = lp_space(2.0, 8)
    D = build_dictionary(s, "random_gauss", 32, seed=8)
    t = make_target(D, TargetSpec(mode="general_plus_noise", k=4, eps=0.9,
                                  seed=3))
    return run_greedy("rwrga", t.f, D, T1, max_m=40, target=t)


def _power_decay_run():
    s = lp_space(1.5, 8)
    D = build_dictionary(s, "random_gauss", 32, seed=1)
    t = make_target(D, TargetSpec(mode="a1_sparse", k=4, seed=2))
    tau = WeaknessSchedule(kind="power_decay", t0=1.0, exponent=0.3)
    return run_greedy("wgafr", t.f, D, tau, max_m=20, target=t)


def _constant_weakness_run():
    s = lp_space(3.0, 8)
    D = build_dictionary(s, "random_gauss", 32, seed=4)
    t = make_target(D, TargetSpec(mode="a1_sparse", k=4, seed=5))
    tau = WeaknessSchedule(kind="constant", t0=0.7)
    return run_greedy("wcga", t.f, D, tau, max_m=20, rule="threshold_first",
                      target=t)


@pytest.fixture(scope="module")
def curve_runs(awbga_run):
    return {"constant": _constant_weakness_run(),
            "power_decay": _power_decay_run(),
            "late_floor": _late_floor_run(), "approximate": awbga_run}


def _specs(rep):
    """A spec for every bound id the report can state (cor21 needs a
    constant weakness)."""
    return [BoundSpec.from_report(b, rep) for b in BOUND_IDS
            if b != "cor21" or rep.weakness["kind"] == "constant"]


class TestBoundCurveIdentity:
    """The curve path hoists each bound's constants; every value must stay
    bit for bit the one-point value, so the comparisons are ``==``."""

    @pytest.mark.parametrize("name", ["constant", "power_decay", "late_floor",
                                      "approximate"])
    def test_curve_equals_pointwise_bound(self, curve_runs, name):
        rep = curve_runs[name]
        tsums = rep.partial_tp_sums()
        specs = _specs(rep)
        assert len(specs) == (6 if name == "power_decay" else 7)
        for spec in specs:
            curve = bound_curve(spec, rep).tolist()
            points = [rate_bound(spec, r.m, s)
                      for r, s in zip(rep.records, tsums)]
            assert curve == points, spec.bound_id
            assert points == [_written_out(spec, r.m, s)
                              for r, s in zip(rep.records, tsums)]

    @pytest.mark.parametrize("name", ["constant", "power_decay", "late_floor",
                                      "approximate"])
    def test_margins_are_bound_less_residual(self, curve_runs, name):
        rep = curve_runs[name]
        resid = [r.residual_norm for r in rep.records]
        checked = 0
        for rc in verify_rates(rep, list(BOUND_IDS)):
            if not rc.applicable:
                continue
            checked += 1
            curve = bound_curve(BoundSpec.from_report(rc.bound_id, rep),
                                rep).tolist()
            assert rc.margins == [b - r for b, r in zip(curve, resid)]
            assert rc.tightness == [r / max(b, 1e-300)
                                    for b, r in zip(curve, resid)]
            assert rc.worst_margin == min(rc.margins)
            assert rc.max_tightness == max(rc.tightness)
        assert checked >= 3

    def test_floor_binds_late_in_the_noisy_run(self, curve_runs):
        rep = curve_runs["late_floor"]
        assert len(rep.records) == 40
        for bid, times_eps, first in (("thm52", 2.0, 16), ("thm91", 2.0, 16),
                                      ("thm72", 4.0, 34)):
            spec = BoundSpec.from_report(bid, rep)
            curve = bound_curve(spec, rep)
            floor = times_eps * spec.eps
            assert (curve[:first] > floor).all(), bid
            assert (curve[first:] == floor).all(), bid


class TestBoundIndexValidation:
    """The curve path checks the smallest m once; it must raise what the
    one-point bound raises for that record."""

    def _with_first_m(self, rep, m):
        bad = dataclasses.replace(rep)
        bad.records = [dataclasses.replace(r) for r in rep.records]
        bad.records[0].m = m
        return bad

    def test_cor21_rejects_m_zero(self, hull_run):
        bad = self._with_first_m(hull_run, 0)
        msg = "the constant-weakness bound applies from m = 1"
        with pytest.raises(ValueError, match=msg):
            verify_rates(bad, ["cor21"])
        with pytest.raises(ValueError, match=msg):
            bound_curve(BoundSpec.from_report("cor21", bad), bad)
        with pytest.raises(ValueError, match=msg):
            rate_bound(BoundSpec.from_report("cor21", bad), 0, 0.0)

    def test_other_bounds_accept_m_zero(self, hull_run):
        bad = self._with_first_m(hull_run, 0)
        results = verify_rates(bad, [b for b in BOUND_IDS if b != "cor21"])
        assert all(rc.applicable for rc in results)

    @pytest.mark.parametrize("bid", BOUND_IDS)
    def test_negative_m_rejected_by_every_bound(self, hull_run, bid):
        bad = self._with_first_m(hull_run, -1)
        msg = "iteration index must be nonnegative"
        with pytest.raises(ValueError, match=msg):
            verify_rates(bad, [bid])
        with pytest.raises(ValueError, match=msg):
            bound_curve(BoundSpec.from_report(bid, bad), bad)


def _curve_per_bound(spec, ms, tsums):
    """One bound's curve with its own powers, value by value: the route
    every bound took before the curves were shared."""
    lo = min(ms, default=1)
    if lo < 0:
        raise ValueError("iteration index must be nonnegative")
    if lo < 1 and spec.bound_id == "cor21":
        raise ValueError("the constant-weakness bound applies from m = 1")
    coef, floor, shift, by_m = _bound_form(spec)
    e = -1.0 / spec.p_conj
    vals = [coef * (shift + x) ** e for x in (ms if by_m else tsums)]
    return vals if floor is None else [v if v > floor else floor for v in vals]


def _verify_rates_per_bound(report, bound_ids):
    """``verify_rates`` one bound at a time, each with its own curve."""
    results = []
    meta = report.target_meta
    ms = [r.m for r in report.records]
    resid = report.residual_norms()
    tsums = report.partial_tp_sums().tolist()
    for bid in bound_ids:
        if bid in ("cor21", "cor52", "cor72", "prop72"):
            skip = "" if meta.get("in_hull") else "requires a hull certificate"
        else:
            skip = "" if meta.get("certificate") else \
                "requires (eps, A(eps)) metadata"
        if not skip and bid == "cor21" and report.weakness["kind"] != "constant":
            skip = "requires a constant weakness sequence"
        if skip:
            results.append(RateCheck(bound_id=bid, applicable=False,
                                     passed=True, worst_margin=float("nan"),
                                     max_tightness=float("nan"), reason=skip))
            continue
        bounds = np.array(_curve_per_bound(BoundSpec.from_report(bid, report),
                                           ms, tsums))
        margins = (bounds - resid).tolist()
        tight = resid / np.maximum(bounds, 1e-300)
        worst = _worst_margin(margins)
        top = float(tight.max()) if tight.size else 0.0
        results.append(RateCheck(bound_id=bid, applicable=True,
                                 passed=worst >= -1e-6,
                                 worst_margin=worst, max_tightness=top,
                                 margins=margins, tightness=tight.tolist()))
    return results


def _same(a, b):
    """Equal values, NaN equal to NaN, lists element by element; an int
    and a float of the same value differ."""
    if isinstance(a, list) or isinstance(b, list):
        return (type(a) is type(b) and len(a) == len(b)
                and all(_same(x, y) for x, y in zip(a, b)))
    if isinstance(a, float) and isinstance(b, float) and a != a:
        return b != b
    return type(a) is type(b) and a == b


def _with_records(rep, edit):
    bad = dataclasses.replace(rep)
    bad.records = [dataclasses.replace(r) for r in rep.records]
    edit(bad.records)
    return bad


def _list_weakness_run():
    s = lp_space(3.0, 8)
    D = build_dictionary(s, "random_gauss", 32, seed=6)
    t = make_target(D, TargetSpec(mode="a1_sparse", k=4, seed=7))
    tau = SequenceSpec(kind="list", values=(1.0, 0.8, 0.6, 0.9))
    return run_greedy("rwrga", t.f, D, tau, max_m=12, target=t)


@pytest.fixture(scope="module")
def reference_cases(curve_runs, hull_run):
    cases = dict(curve_runs)
    cases["no_records"] = dataclasses.replace(hull_run, records=[])
    cases["nan_residual"] = _with_records(
        hull_run, lambda rs: setattr(rs[3], "residual_norm", float("nan")))
    cases["nan_weakness"] = _with_records(
        hull_run, lambda rs: setattr(rs[2], "t_m", float("nan")))
    cases["list_weakness"] = _list_weakness_run()
    return cases


REFERENCE_CASES = ["constant", "power_decay", "late_floor", "approximate",
                   "no_records", "nan_residual", "nan_weakness",
                   "list_weakness"]


class TestSharedCurvesMatchPerBound:
    """The shared curves and the one 2-D pass must give every field of
    every RateCheck that the per-bound route gives."""

    @pytest.mark.parametrize("name", REFERENCE_CASES)
    @pytest.mark.parametrize("bound_ids", [
        list(BOUND_IDS), ["cor52", "thm52", "cor52", "thm91", "thm52"]])
    def test_every_field_matches(self, reference_cases, name, bound_ids):
        rep = reference_cases[name]
        got = verify_rates(rep, bound_ids)
        want = _verify_rates_per_bound(rep, bound_ids)
        assert [rc.bound_id for rc in got] == bound_ids
        for g, w in zip(got, want):
            for f in dataclasses.fields(RateCheck):
                assert _same(getattr(g, f.name), getattr(w, f.name)), \
                    (name, g.bound_id, f.name)

    def test_list_weakness_skips_cor21(self, reference_cases):
        rc = verify_rates(reference_cases["list_weakness"], ["cor21"])[0]
        assert not rc.applicable and "constant" in rc.reason

    def test_binding_floor_is_compared_against(self, reference_cases):
        rep = reference_cases["late_floor"]
        rc, = verify_rates(rep, ["thm52"])
        floor = 2.0 * rep.target_meta["eps"]
        assert rc.margins[-1] == floor - rep.records[-1].residual_norm

    @pytest.mark.parametrize("name", REFERENCE_CASES)
    def test_bound_curve_and_rate_bound_match(self, reference_cases, name):
        rep = reference_cases[name]
        ms = [r.m for r in rep.records]
        tsums = rep.partial_tp_sums().tolist()
        for spec in _specs(rep):
            want = _curve_per_bound(spec, ms, tsums)
            assert _same(bound_curve(spec, rep).tolist(), want)
            assert _same([rate_bound(spec, m, s) for m, s in zip(ms, tsums)],
                         want)


class TestRecordsFromJson:
    """Records read from a report's dicts must equal those ``__init__``
    builds from the same dicts, field for field."""

    @staticmethod
    def _compare(text):
        got = RunReport.from_json(text).records
        want = [IterationRecord(**r) for r in json.loads(text)["records"]]
        assert len(got) == len(want)
        for g, w in zip(got, want):
            for f in dataclasses.fields(IterationRecord):
                assert _same(getattr(g, f.name), getattr(w, f.name)), f.name

    @pytest.mark.parametrize("name", REFERENCE_CASES)
    def test_round_trip_matches_init(self, reference_cases, name):
        self._compare(reference_cases[name].to_json())

    def test_records_without_defaults_match_init(self, hull_run):
        blob = json.loads(hull_run.to_json())
        for r in blob["records"]:
            del r["omega"], r["mu"], r["wall_ns"]
        self._compare(json.dumps(blob))
        rec = RunReport.from_json(json.dumps(blob)).records[0]
        assert rec.omega is None and rec.mu is None and rec.wall_ns == 0
