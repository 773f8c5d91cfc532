import json
import sys

import numpy as np
import pytest

from lpgreedy import (ALGORITHM_IDS, AWBGA_IDS, BOUND_IDS, Element,
                      ErrorSchedule, RunReport, SequenceSpec, TargetSpec,
                      WeaknessSchedule, audit_conditions, build_dictionary,
                      error_reduction_margins, lp_space, make_target,
                      run_awbga, run_greedy, verify_rates)
from lpgreedy.algorithms import _grid_margins, _xgreedy_scan
from lpgreedy.selftest import matching_pursuit_residuals, omp_oracle_residuals
from lpgreedy.solvers import min_along_ray
from lpgreedy.space import pnorm

T1 = WeaknessSchedule()  # constant t = 1


def hilbert_setup(n=16, N=64, k=5, dseed=1, tseed=2):
    s = lp_space(2.0, n)
    D = build_dictionary(s, "random_gauss", N, seed=dseed)
    t = make_target(D, TargetSpec(mode="a1_sparse", k=k, seed=tseed))
    return s, D, t


class TestWeaknessSchedule:
    def test_kinds(self):
        assert WeaknessSchedule().value(17) == 1.0
        tau = WeaknessSchedule(kind="power_decay", t0=0.8, exponent=0.5)
        assert tau.value(4) == pytest.approx(0.4)
        tau = WeaknessSchedule(kind="explicit_list", values=(1.0, 0.5, 0.25))
        assert [tau.value(m) for m in (1, 2, 3, 9)] == [1.0, 0.5, 0.25, 0.25]

    def test_validation(self):
        with pytest.raises(ValueError):
            WeaknessSchedule(t0=0.0)
        with pytest.raises(ValueError):
            WeaknessSchedule(kind="explicit_list", values=(1.2,))
        with pytest.raises(ValueError):
            WeaknessSchedule(kind="oscillating")

    def test_round_trip(self):
        tau = WeaknessSchedule(kind="power_decay", t0=0.9, exponent=0.25)
        assert WeaknessSchedule.from_dict(tau.as_dict()) == tau


class TestRunDriver:
    def test_zero_target_terminates_immediately(self):
        s = lp_space(2.0, 3)
        D = build_dictionary(s, "canonical", 3)
        f = Element(coords=np.zeros(3), space=s)
        rep = run_greedy("wcga", f, D, T1)
        assert rep.records == []
        assert rep.termination == "already exact"

    def test_hand_computed_hilbert_trajectory(self):
        s = lp_space(2.0, 3)
        D = build_dictionary(s, "canonical", 3)
        f = Element(coords=np.array([0.6, 0.4, 0.0]), space=s)
        rep = run_greedy("wcga", f, D, T1)
        norms = rep.residual_norms()
        assert len(norms) == 2
        assert norms[0] == pytest.approx(0.4, abs=1e-10)
        assert norms[1] <= 1e-10
        assert rep.termination == "stop_tol"
        assert rep.records[0].selected_index == 1

    def test_unknown_algorithm(self):
        s, D, t = hilbert_setup()
        with pytest.raises(ValueError, match="unknown algorithm"):
            run_greedy("omp", t.f, D, T1)

    def test_space_mismatch(self):
        s, D, t = hilbert_setup()
        other = lp_space(3.0, 16)
        f = Element(coords=t.f.coords, space=other)
        with pytest.raises(ValueError, match="different spaces"):
            run_greedy("wcga", f, D, T1)

    def test_report_json_round_trip(self):
        s, D, t = hilbert_setup(n=8, N=24, k=3)
        rep = run_greedy("rwrga", t.f, D, T1, max_m=10, target=t)
        back = RunReport.from_json(rep.to_json())
        assert back.algorithm == rep.algorithm
        assert np.allclose(back.residual_norms(), rep.residual_norms())
        assert back.target_meta == rep.target_meta
        assert json.loads(rep.to_json())["schema"] == 1

    @pytest.mark.parametrize("algo", ["wcga", "wgafr", "rwrga", "rrxga",
                                      "wrga", "wdga", "gg"])
    def test_state_identity_and_record_shape(self, algo):
        s, D, t = hilbert_setup(n=8, N=24, k=3)
        rep = run_greedy(algo, t.f, D, T1, max_m=6, target=t)
        assert rep.records, "expected at least one iteration"
        for i, r in enumerate(rep.records):
            assert r.m == i + 1
            assert r.residual_norm >= 0.0
            assert r.gs_lhs >= r.gs_rhs - 1e-12
        assert rep.initial_residual == pytest.approx(pnorm(2.0, t.f.coords))


class TestExactRecovery:
    @pytest.mark.parametrize("k", [1, 3])
    def test_canonical_sparse_recovery_in_k_steps(self, k):
        s = lp_space(2.0, 12)
        D = build_dictionary(s, "canonical", 12)
        t = make_target(D, TargetSpec(mode="a1_sparse", k=k, seed=7))
        rep = run_greedy("wcga", t.f, D, T1, max_m=12, target=t)
        assert len(rep.records) == k
        assert rep.records[-1].residual_norm <= 1e-8
        if k > 1:
            assert rep.records[-2].residual_norm > 1e-8


class TestHilbertOracles:
    def test_wcga_matches_orthogonal_greedy(self):
        s, D, t = hilbert_setup()
        rep = run_greedy("wcga", t.f, D, T1, max_m=10, target=t)
        oracle = omp_oracle_residuals(D.matrix, t.f.coords, len(rep.records))
        for r, o in zip(rep.records, oracle):
            if o > 1e-10:
                assert r.residual_norm == pytest.approx(o, rel=1e-8)

    def test_wgafr_two_steps_match_least_squares(self):
        s = lp_space(2.0, 4)
        D = build_dictionary(s, "canonical", 4)
        f = Element(coords=np.array([0.5, 0.3, 0.2, 0.0]), space=s)
        rep = run_greedy("wgafr", f, D, T1, max_m=2)
        # on an orthonormal system two steps of free relaxation equal the
        # projection onto the two selected axes
        sel = [abs(r.selected_index) - 1 for r in rep.records]
        A = np.eye(4)[:, sel]
        coef, *_ = np.linalg.lstsq(A, f.coords, rcond=None)
        ref = float(np.linalg.norm(f.coords - A @ coef))
        assert rep.records[-1].residual_norm == pytest.approx(ref, abs=1e-6)

    def test_wdga_equals_coordinate_pursuit(self):
        s = lp_space(2.0, 8)
        D = build_dictionary(s, "canonical", 8)
        t = make_target(D, TargetSpec(mode="a1_sparse", k=4, seed=3))
        rep = run_greedy("wdga", t.f, D, T1, max_m=4, target=t)
        mp = matching_pursuit_residuals(t.f.coords, len(rep.records))
        for r, o in zip(rep.records, mp):
            assert r.residual_norm == pytest.approx(o, abs=1e-8)

    def test_rwrga_first_step_orthogonal_residual(self):
        s, D, t = hilbert_setup(n=8, N=24, k=3)
        rep = run_greedy("rwrga", t.f, D, T1, max_m=1, target=t)
        phi = D.atom(rep.records[0].selected_index)
        resid = t.f.coords - (t.f.coords - 0)  # placeholder, recompute below
        lam, mu = rep.records[0].lam, rep.records[0].mu
        G = mu * (lam * phi)
        resid = t.f.coords - G
        assert abs(float(np.dot(resid, phi))) <= 1e-9

    def test_rrxga_selects_largest_coordinate_on_canonical(self):
        s = lp_space(2.0, 5)
        D = build_dictionary(s, "canonical", 5)
        f = Element(coords=np.array([0.1, -0.7, 0.3, 0.0, 0.2]), space=s)
        rep = run_greedy("rrxga", f, D, T1, max_m=1)
        assert abs(rep.records[0].selected_index) == 2


class TestStepProperties:
    @pytest.mark.parametrize("algo", ["wcga", "wgafr", "rwrga", "rrxga", "wrga"])
    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_residuals_non_increasing(self, algo, p):
        s = lp_space(p, 12)
        D = build_dictionary(s, "random_gauss", 48, seed=5)
        t = make_target(D, TargetSpec(mode="a1_sparse", k=6, seed=8))
        rep = run_greedy(algo, t.f, D, T1, max_m=25, target=t)
        norms = np.concatenate([[rep.initial_residual], rep.residual_norms()])
        assert np.all(np.diff(norms) <= 1e-6)

    @pytest.mark.parametrize("algo", ["wcga", "wgafr", "rwrga"])
    def test_wbga_conditions_measured(self, algo):
        s = lp_space(3.0, 10)
        D = build_dictionary(s, "random_gauss", 40, seed=2)
        t = make_target(D, TargetSpec(mode="a1_sparse", k=4, seed=4))
        rep = run_greedy(algo, t.f, D, T1, max_m=15, target=t)
        for r in rep.records:
            assert r.gs_lhs >= r.gs_rhs - 1e-12
            assert r.residual_norm <= r.er_reference + 1e-6
            assert r.bo_abs <= 1e-6

    def test_rrxga_at_least_as_greedy_as_dual_selection(self):
        # the norm-scan minimum never exceeds the line-search minimum along
        # the atom that dual selection would pick
        s = lp_space(3.0, 8)
        D = build_dictionary(s, "random_gauss", 32, seed=6)
        rng = np.random.default_rng(7)
        for _ in range(10):
            f = Element(coords=rng.standard_normal(8), space=s)
            rep_x = run_greedy("rrxga", f, D, T1, max_m=1)
            rep_d = run_greedy("wdga", f, D, T1, max_m=1)
            assert (rep_x.records[0].residual_norm
                    <= rep_d.records[0].residual_norm + 1e-9)

    @pytest.mark.parametrize("p", [1.2, 1.5, 2.0, 3.0, 4.0])
    def test_norm_scan_matches_exhaustive_ray_solves(self, p):
        # the vectorised Newton scan picks the atom whose exact ray minimum
        # is smallest, and returns that atom's exact step
        s = lp_space(p, 32)
        D = build_dictionary(s, "random_gauss", 128, seed=5)
        rng = np.random.default_rng(3)
        for _ in range(30):
            f = rng.standard_normal(32)
            lams = [min_along_ray(p, f, g) for g in D.matrix]
            vals = [pnorm(p, f - lam * g) for lam, g in zip(lams, D.matrix)]
            i = int(np.argmin(vals))
            sidx, lam = _xgreedy_scan(s, f, D, pnorm(p, f))
            assert abs(sidx) == i + 1
            assert np.sign(sidx) * lam == lams[i]

    def test_wrga_convex_clamp(self):
        # a target far outside the hull forces the convex weight to its cap
        s = lp_space(2.0, 3)
        D = build_dictionary(s, "canonical", 3)
        f = Element(coords=np.array([3.0, 0.1, 0.0]), space=s)
        rep = run_greedy("wrga", f, D, T1, max_m=1)
        assert rep.records[0].lam == pytest.approx(1.0, abs=1e-6)
        assert rep.warnings  # no hull certificate

    def test_gg_hilbert_step_size_formula(self):
        s, D, t = hilbert_setup(n=8, N=24, k=3)
        rep = run_greedy("gg", t.f, D, T1, max_m=1, target=t)
        r = rep.records[0]
        want = rep.initial_residual * r.gs_lhs / 2.0  # (2 gamma q) = 2 here
        assert r.lam == pytest.approx(want, rel=1e-10)

    def test_wgafr_feasibility_of_keeping_previous(self):
        s, D, t = hilbert_setup(n=10, N=30, k=4, dseed=3, tseed=9)
        rep = run_greedy("wgafr", t.f, D, T1, max_m=10, target=t)
        norms = np.concatenate([[rep.initial_residual], rep.residual_norms()])
        assert np.all(norms[1:] <= norms[:-1] + 1e-9)

    def test_remark_grids_recorded(self):
        s, D, t = hilbert_setup(n=8, N=24, k=3)
        rep = run_greedy("wcga", t.f, D, T1, max_m=5, target=t)
        for r in rep.records:
            assert r.neg_line_margin >= -1e-9
            assert r.bj_margin >= -1e-6


class TestWeakSelection:
    def test_threshold_first_runs_satisfy_conditions(self):
        s = lp_space(2.0, 10)
        D = build_dictionary(s, "random_gauss", 40, seed=4)
        t = make_target(D, TargetSpec(mode="a1_sparse", k=4, seed=5))
        tau = WeaknessSchedule(kind="constant", t0=0.5)
        rep = run_greedy("wcga", t.f, D, tau, max_m=15, rule="threshold_first",
                         target=t)
        for r in rep.records:
            assert r.t_m == 0.5
            assert r.gs_lhs >= r.gs_rhs - 1e-12

    def test_power_decay_schedule_recorded(self):
        s, D, t = hilbert_setup(n=8, N=24, k=3)
        tau = WeaknessSchedule(kind="power_decay", t0=1.0, exponent=0.5)
        rep = run_greedy("rwrga", t.f, D, tau, max_m=4, target=t)
        assert np.allclose(rep.t_values(),
                           [1.0, 2 ** -0.5, 3 ** -0.5, 0.5][:len(rep.records)])


class TestMeasurePhase:
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.0])
    def test_grid_margins_match_scalar_loop(self, p):
        neg_grid = (-2.0, -1.0, -0.5, -0.1, -0.01)
        bj_grid = (-1.0, -0.5, 0.1, 0.5, 1.0)
        rng = np.random.default_rng(5)
        s = lp_space(p, 16)
        for trial in range(15):
            f_prev, phi, f_new, G = rng.standard_normal((4, 16))
            if trial < 5:  # put each grid point in turn near the minimiser
                phi = f_prev / neg_grid[trial] + 0.01 * phi
                G = f_new / bj_grid[trial] + 0.01 * G
            r_prev, r_new = pnorm(p, f_prev), pnorm(p, f_new)
            bj, neg = _grid_margins(s, f_prev, r_prev, phi, f_new, r_new, G)
            neg_ref = min(pnorm(p, f_prev - lam * phi) for lam in neg_grid) - r_prev
            bj_ref = min(pnorm(p, f_new - lam * G) for lam in bj_grid) - r_new
            assert abs(neg - neg_ref) <= 1e-15 * r_prev
            assert abs(bj - bj_ref) <= 1e-15 * r_new

    def test_no_golden_section_on_any_path(self, monkeypatch):
        # the golden-section helpers are oracles only: no step, measure or
        # audit path may call them
        def forbidden(*args, **kwargs):
            raise AssertionError("golden-section helper called")

        for modname, mod in list(sys.modules.items()):
            if modname.split(".")[0] != "lpgreedy":
                continue
            for name in ("line_search", "bracket_minimum", "minimize_2d"):
                if hasattr(mod, name):
                    monkeypatch.setattr(mod, name, forbidden)
        s = lp_space(3.0, 16)
        D = build_dictionary(s, "random_gauss", 32, seed=1)
        t = make_target(D, TargetSpec(mode="a1_sparse", k=4, seed=2))
        errs = ErrorSchedule(delta=SequenceSpec(kind="pow", c=0.1, a=1.1),
                             eta=SequenceSpec(kind="pow", c=0.1, a=1.1))
        reports = [run_greedy(a, t.f, D, T1, max_m=5, target=t)
                   for a in ALGORITHM_IDS]
        reports += [run_awbga(a, t.f, D, T1, errs, max_m=5, target=t)
                    for a in AWBGA_IDS]
        for rep in reports:
            assert rep.records
            audit_conditions(rep)
            error_reduction_margins(rep)
            verify_rates(rep, list(BOUND_IDS))


class TestLargeP:
    # the power sum of a residual underflows once max|r| drops below about
    # 1e-10 at p = 32; the norm must then be formed from r / max|r|
    @pytest.mark.parametrize("p", [32.0, 64.0])
    @pytest.mark.parametrize("algo", ["wcga", "wgafr"])
    def test_runs_and_passes_audit(self, algo, p):
        s = lp_space(p, 16)
        D = build_dictionary(s, "random_gauss", 64, seed=1)
        t = make_target(D, TargetSpec(mode="a1_sparse", k=4, seed=2))
        rep = run_greedy(algo, t.f, D, T1, max_m=60, target=t)
        assert audit_conditions(rep).passed
        assert min(error_reduction_margins(rep)) >= -1e-6
