import dataclasses
import json

import numpy as np
import pytest

from lpgreedy import (BoundSpec, Element, ErrorSchedule, SequenceSpec,
                      TargetSpec, WeaknessSchedule, audit_conditions,
                      bound_curve, build_dictionary, dict_dual_norm,
                      error_reduction_margins, lp_space, make_target,
                      norming_functional, rate_bound, run_awbga, run_greedy,
                      verify_rates)

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
    return run_awbga("awgafr", t.f, D, T1, errs, max_m=15, target=t)


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
        b = BoundSpec(bound_id="cor52", q=2.0, gamma=0.5, p_conj=2.0)
        assert rate_bound(b, 3, 3.0) == pytest.approx(2.0)

    def test_constant_weakness_arithmetic(self):
        b = BoundSpec(bound_id="cor21", q=2.0, gamma=0.5, p_conj=2.0, t=0.5)
        assert rate_bound(b, 1, 0.25) == pytest.approx(16.0)
        assert rate_bound(b, 4, 1.0) == pytest.approx(8.0)

    def test_noisy_bound_floor(self):
        b = BoundSpec(bound_id="thm52", q=2.0, gamma=0.5, p_conj=2.0,
                      a_eps=1.0, eps=0.3)
        # for large m the 2 eps floor dominates
        assert rate_bound(b, 10_000, 10_000.0) == pytest.approx(0.6)

    def test_norm_scan_bound_at_start(self):
        b = BoundSpec(bound_id="thm91", q=2.0, gamma=0.5, p_conj=2.0)
        assert rate_bound(b, 0, 0.0) == pytest.approx(4.0)

    def test_approximate_class_constant(self):
        b = BoundSpec(bound_id="thm72", q=2.0, gamma=0.5, p_conj=2.0)
        # 4 q (2 gamma)^q (2/(q-1))^(1/p') = 8 sqrt(2) at q=2, gamma=1/2
        assert rate_bound(b, 1, 1.0) == pytest.approx(8.0 * np.sqrt(2.0)
                                                      * 2.0 ** -0.5)

    def test_validation(self):
        with pytest.raises(ValueError, match="unknown bound"):
            BoundSpec(bound_id="thm1", q=2.0, gamma=0.5, p_conj=2.0)
        with pytest.raises(ValueError, match="p_conj"):
            BoundSpec(bound_id="cor52", q=2.0, gamma=0.5, p_conj=3.0)
        with pytest.raises(ValueError, match="constant weakness"):
            BoundSpec(bound_id="cor21", q=2.0, gamma=0.5, p_conj=2.0)


class TestVerifyRates:
    def test_hull_run_passes_hull_bounds(self, hull_run):
        results = verify_rates(hull_run, ["cor52", "thm52", "cor21"])
        by_id = {r.bound_id: r for r in results}
        assert by_id["cor52"].applicable and by_id["cor52"].passed
        assert by_id["thm52"].passed
        assert by_id["cor21"].applicable and by_id["cor21"].passed
        assert 0 < by_id["cor52"].max_tightness < 1.0

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

    def test_bound_curve_monotone_decreasing(self, hull_run):
        spec = BoundSpec.from_report("cor52", hull_run)
        curve = bound_curve(spec, hull_run)
        assert np.all(np.diff(curve) <= 0)
