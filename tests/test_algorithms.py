import json
import sys
import warnings
from dataclasses import asdict

import numpy as np
import pytest

from lpgreedy import (ALGORITHM_IDS, AWBGA_IDS, BOUND_IDS, Dictionary,
                      Element, ErrorSchedule, RunReport, SequenceSpec,
                      TargetSpec, WeaknessSchedule, audit_conditions,
                      build_dictionary, error_reduction_margins, lp_space,
                      make_target, run_greedy, verify_rates)
from lpgreedy import algorithms
from lpgreedy.algorithms import (_RULES, _chunk_steps, _grid_margins, _measure,
                                 _xgreedy_scan, run_id)
from lpgreedy.diagnostics import APPLICABLE_CHECKS
from lpgreedy.selftest import matching_pursuit_residuals, omp_oracle_residuals
from lpgreedy.solvers import min_along_ray
from lpgreedy.space import pnorm, pnorm_rows

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

    @pytest.mark.parametrize("exponent", [float("nan"), float("inf"), -0.5])
    def test_decay_exponent_must_be_finite_and_nonnegative(self, exponent):
        # a nan exponent would surface only mid-run as t_m = nan, and an
        # infinite one would make t_m = 0 from m = 2 on
        with pytest.raises(ValueError, match="decay exponent"):
            WeaknessSchedule(kind="power_decay", t0=0.5, exponent=exponent)

    def test_round_trip(self):
        # a report's weakness dict reads back as the schedule that ran
        tau = WeaknessSchedule(kind="power_decay", t0=0.9, exponent=0.25)
        _, D, t = hilbert_setup()
        rep = run_greedy("wcga", t.f, D, tau, max_m=3, target=t)
        back = RunReport.from_json(rep.to_json())
        assert back.weakness == {"kind": "power_decay", "t0": 0.9,
                                 "exponent": 0.25, "values": None}
        assert WeaknessSchedule(**back.weakness) == tau

    def test_is_a_sequence_spec(self):
        # one sequence type for t_m, delta_k and eta_m: WeaknessSchedule is
        # a function, and dataclass equality holds only within one class
        assert WeaknessSchedule() == SequenceSpec(kind="const", c=1.0)
        assert (WeaknessSchedule(kind="power_decay", t0=0.9, exponent=0.25)
                == SequenceSpec(kind="pow", c=0.9, a=0.25))
        assert (WeaknessSchedule(kind="explicit_list", values=(0.5, 0.25))
                == SequenceSpec(kind="list", c=1.0, values=(0.5, 0.25)))

    def test_power_decay_is_the_weakness_formula_bit_for_bit(self):
        # min(1, c max(m, 1)^-a) runs the float operations of t0 m^-a for
        # m >= 1 and t0 <= 1
        for t0 in (1.0, 0.9, 0.5, 1e-3, 1):
            for a in (0.0, 0.25, 0.3, 0.5, 1.0, 2.5):
                tau = WeaknessSchedule(kind="power_decay", t0=t0, exponent=a)
                assert [tau.value(m) for m in range(1, 300)] == \
                    [t0 * float(m) ** (-a) for m in range(1, 300)]

    def test_list_sequence_runs_from_its_first_value(self):
        # t_m reads position m - 1: a list weakness runs 1, 0.5, 0.25, 0.25
        _, D, t = hilbert_setup()
        tau = SequenceSpec(kind="list", values=(1.0, 0.5, 0.25))
        rep = run_greedy("rwrga", t.f, D, tau, max_m=4, target=t)
        assert [r.t_m for r in rep.records] == [1.0, 0.5, 0.25, 0.25]
        back = RunReport.from_json(rep.to_json())
        assert back.weakness == {"kind": "explicit_list", "t0": 1.0,
                                 "exponent": 0.0, "values": [1.0, 0.5, 0.25]}
        assert audit_conditions(back).passed

    @pytest.mark.parametrize("tau,problem", [
        (SequenceSpec(kind="prop72auto"), "unknown weakness kind"),
        (SequenceSpec(kind="const", c=0.0), "t0 must lie in (0, 1]"),
        (SequenceSpec(kind="pow", c=0.0, a=0.5), "t0 must lie in (0, 1]"),
        (SequenceSpec(kind="pow", c=1.5, a=0.5), "t0 must lie in (0, 1]"),
        (SequenceSpec(kind="list", c=2.0, values=(0.5,)),
         "t0 must lie in (0, 1]")])
    def test_no_weakness_sequence_rejected_before_first_step(
            self, monkeypatch, tau, problem):
        def no_step(*args):
            raise AssertionError("a step ran")
        monkeypatch.setattr(algorithms, "_functional", no_step)
        _, D, t = hilbert_setup()
        with pytest.raises(ValueError) as e:
            run_greedy("wcga", t.f, D, tau, target=t)
        assert problem in str(e.value)


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

    @pytest.mark.parametrize("algo", ALGORITHM_IDS)
    @pytest.mark.parametrize("option,problem", [
        ({"rule": "bogus"}, "unknown selection rule 'bogus'"),
        ({"max_m": 0}, "must be at least 1, got 0"),
        ({"stop_tol": -1.0}, "stop_tol"),
        ({"stop_tol": float("nan")}, "stop_tol"),
        ({"stop_tol": float("inf")}, "stop_tol")])
    def test_bad_run_option_raises_before_any_step(self, monkeypatch, algo,
                                                   option, problem):
        # rrxga reads no rule, and still rejects a bad one
        s, D, t = hilbert_setup(n=8, N=24, k=3)

        def no_state(**_):
            raise AssertionError("the run started")
        monkeypatch.setattr(algorithms, "GreedyState", no_state)
        with pytest.raises(ValueError, match=problem):
            run_greedy(algo, t.f, D, T1, target=t, **option)

    def test_target_must_be_the_run_element(self):
        # the report's target_meta comes from target: a noisy f run under
        # an a1 target's name would be audited as if f lay on the hull
        s, D, t = hilbert_setup(n=8, N=24, k=3)
        noisy = make_target(D, TargetSpec(mode="general_plus_noise", k=3,
                                          eps=0.5, seed=2))
        with pytest.raises(ValueError, match="target.f is not f"):
            run_greedy("wcga", noisy.f, D, T1, target=t)
        rep = run_greedy("wcga", noisy.f, D, T1, max_m=2, target=noisy)
        assert not rep.target_meta["in_hull"] and rep.target_meta["eps"] == 0.5

    def test_empty_dictionary_is_rejected_where_built(self):
        # rrxga's norm scan, which no per-call emptiness check guarded, once
        # failed in numpy's min on an empty dictionary: none can be built
        with pytest.raises(ValueError, match="empty dictionary"):
            Dictionary(space=lp_space(2.0, 3), matrix=np.zeros((0, 3)),
                       kind_tag="empty", seed=0)

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

    def test_report_json_is_the_dataclass_dump(self):
        s, D, t = hilbert_setup(n=8, N=24, k=3)
        exact = run_greedy("rwrga", t.f, D, T1, max_m=10, target=t)
        errs = ErrorSchedule(delta=SequenceSpec(kind="pow", c=0.1, a=1.1),
                             eta=SequenceSpec(kind="pow", c=0.1, a=1.1))
        approx = run_greedy("wgafr", t.f, D, T1, errors=errs, max_m=10,
                            target=t)
        assert exact.errors is None and exact.records[0].omega is None
        assert isinstance(approx.errors, dict) and approx.records[0].mu is None
        for rep in (exact, approx):
            assert rep.to_json() == json.dumps(asdict(rep), indent=1,
                                               sort_keys=True)

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
            (bj,), (neg,) = _grid_margins(s, f_prev[None], np.array([r_prev]),
                                          phi[None], f_new[None],
                                          np.array([r_new]), G[None])
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
        reports += [run_greedy(a[1:], t.f, D, T1, errors=errs, max_m=5,
                               target=t)
                    for a in AWBGA_IDS]
        for rep in reports:
            assert rep.records
            audit_conditions(rep)
            error_reduction_margins(rep)
            verify_rates(rep, list(BOUND_IDS))


NEG_GRID = np.array([-2.0, -1.0, -0.5, -0.1, -0.01])
BJ_GRID = np.array([-1.0, -0.5, 0.1, 0.5, 1.0])


def line_min_per_step(objective, lo, hi, tol=1e-8, n_grid=33):
    """The nested grid scans one problem at a time: np.linspace grids and
    the stop test of the scalar loop."""
    tol = tol * max(1.0, hi - lo)
    a, b = lo, hi
    best_x, best_v = lo, np.inf
    while True:
        xs = np.linspace(a, b, n_grid)
        vs = objective(xs)
        i = int(np.argmin(vs))
        if vs[i] < best_v:
            best_x, best_v = float(xs[i]), float(vs[i])
        na, nb = xs[max(0, i - 1)], xs[min(n_grid - 1, i + 1)]
        if nb - na <= tol or nb - na >= b - a:
            return best_x, best_v
        a, b = na, nb


def measure_per_step(p, f_traj, phis, norms, G_traj):
    """(er_reference, bj_margin, neg_line_margin) lists, step by step."""
    er, bj, neg = [], [], []
    for m, phi in enumerate(phis):
        f_prev, r_prev = f_traj[m], norms[m]
        er.append(line_min_per_step(lambda ls: pnorm_rows(
            p, f_prev[None, :] - ls[:, None] * phi[None, :]), 0.0, 2.0 * r_prev)[1])
        if G_traj is None:
            bj.append(0.0)
            neg.append(0.0)
            continue
        neg.append(float(np.min(pnorm_rows(
            p, f_prev - NEG_GRID[:, None] * phi))) - r_prev)
        bj.append(float(np.min(pnorm_rows(
            p, f_traj[m + 1] - BJ_GRID[:, None] * G_traj[m]))) - norms[m + 1])
    return er, bj, neg


class TestBatchedMeasure:
    N = 32
    CHUNK = _chunk_steps(N)

    def test_chunk_keeps_the_grid_scans_within_bound(self):
        assert self.CHUNK * 33 * self.N <= algorithms._MEASURE_VALUES
        assert (self.CHUNK + 1) * 33 * self.N > algorithms._MEASURE_VALUES
        assert _chunk_steps(10 ** 6) == 1

    @staticmethod
    def trajectory(p, n, steps, seed):
        """A shrinking residual trajectory with unit atoms; the middle step
        of three or more starts from a zero residual (lo = hi = 0)."""
        rng = np.random.default_rng(seed)
        f_traj = rng.standard_normal((steps + 1, n)) * 0.9 ** np.arange(
            steps + 1)[:, None]
        if steps >= 3:
            f_traj[steps // 2] = 0.0
        phis = rng.standard_normal((steps, n))
        phis /= pnorm_rows(p, phis)[:, None]
        G_traj = rng.standard_normal((steps, n))
        norms = [pnorm(p, f) for f in f_traj]
        return list(f_traj), list(phis), norms, list(G_traj)

    @pytest.mark.parametrize("p", [1.2, 1.5, 2.0, 3.0, 4.0, 8.0, 64.0])
    @pytest.mark.parametrize("steps", [1, CHUNK - 1, CHUNK, CHUNK + 1, 100])
    def test_matches_per_step_loop_bitwise(self, p, steps):
        f_traj, phis, norms, G_traj = self.trajectory(p, self.N, steps, steps)
        s = lp_space(p, self.N)
        got = _measure(s, f_traj, phis, norms, G_traj)
        assert got == measure_per_step(p, f_traj, phis, norms, G_traj)
        er, bj, neg = _measure(s, f_traj, phis, norms, None)
        assert er == got[0] and bj == neg == [0.0] * steps

    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_zero_residual_step(self, p):
        f_traj, phis, norms, G_traj = self.trajectory(p, self.N, 1, 0)
        f_traj[0] = np.zeros(self.N)
        norms[0] = 0.0
        s = lp_space(p, self.N)
        got = _measure(s, f_traj, phis, norms, G_traj)
        assert got == measure_per_step(p, f_traj, phis, norms, G_traj)
        assert got[0] == [0.0]

    @pytest.mark.parametrize("algo", ALGORITHM_IDS)
    def test_run_records_match_per_step_loop(self, algo, monkeypatch):
        seen = []

        def spy(space, f_traj, phis, norms, G_traj):
            seen.append((f_traj, phis, norms, G_traj))
            return _measure(space, f_traj, phis, norms, G_traj)

        monkeypatch.setattr(algorithms, "_measure", spy)
        p = 3.0
        s = lp_space(p, 16)
        D = build_dictionary(s, "random_gauss", 64, seed=1)
        t = make_target(D, TargetSpec(mode="a1_sparse", k=6, seed=2))
        rep = run_greedy(algo, t.f, D, T1, max_m=40, target=t)
        (f_traj, phis, norms, G_traj), = seen
        # the pass reads the run's own trajectory
        f = t.f.coords
        assert np.array_equal(f_traj[0], f) and norms[0] == rep.initial_residual
        assert len(phis) == len(G_traj) == len(rep.records) == len(norms) - 1
        for m, rec in enumerate(rep.records, 1):
            assert norms[m] == rec.residual_norm == pnorm(p, f_traj[m])
            assert np.array_equal(phis[m - 1], D.atom(rec.selected_index))
            assert np.allclose(f_traj[m] + G_traj[m - 1], f, rtol=0, atol=1e-12)
        er, bj, neg = measure_per_step(p, f_traj, phis, norms, G_traj)
        assert [r.er_reference for r in rep.records] == er
        assert [r.bj_margin for r in rep.records] == bj
        assert [r.neg_line_margin for r in rep.records] == neg


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

    @pytest.mark.parametrize("p", [64.0, 200.0])
    def test_wgafr_pairing_at_large_p(self, p):
        # a step that stops short of the two-atom optimum leaves the
        # residual paired with the approximant by up to 2.5e-3 here
        s = lp_space(p, 16)
        D = build_dictionary(s, "random_gauss", 64, seed=3)
        t = make_target(D, TargetSpec(mode="a1_sparse", k=4, seed=4))
        rep = run_greedy("wgafr", t.f, D, T1, max_m=60, target=t)
        assert audit_conditions(rep).passed

    @staticmethod
    def audit_input(p):
        s = lp_space(p, 16)
        D = build_dictionary(s, "random_gauss", 64, seed=1)
        return D, make_target(D, TargetSpec(mode="a1_sparse", k=4, seed=2))

    @pytest.mark.parametrize("p", [64.0, 200.0, 800.0])
    def test_every_exact_id_passes_audit_without_warnings(self, p):
        # at p = 800 the ray solves' psi and psi' underflow to 0 once
        # max|r| < 0.4, and |r|^p overflows once max|r| > 2.4
        D, t = self.audit_input(p)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for algo in ALGORITHM_IDS:
                rep = run_greedy(algo, t.f, D, T1, max_m=60, target=t)
                assert audit_conditions(rep).passed, algo

    @pytest.mark.parametrize("p", [200.0, 800.0])
    @pytest.mark.parametrize("schedule", ["pow", "prop72auto"])
    def test_every_approximate_id_passes_audit_without_warnings(self, p,
                                                                 schedule):
        D, t = self.audit_input(p)
        seq = (SequenceSpec(kind="pow", c=0.1, a=1.1) if schedule == "pow"
               else SequenceSpec(kind="prop72auto"))
        errs = ErrorSchedule(delta=seq, eta=seq, seed=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for algo in AWBGA_IDS:
                rep = run_greedy(algo[1:], t.f, D, T1, errors=errs, max_m=60,
                                 target=t)
                assert audit_conditions(rep).passed, algo


# Selected indices of every exact id on one input, captured before the
# greedy loop and the update rules were merged: a change to the loop or a
# rule must not change which atoms an exact run picks.
PINNED_EXACT_SELECTIONS = {
    ("wcga", 1.5): [37, -76, -99, 62, -89, 102, -20, -43, 122, -25, 29, 28,
                    -6, 81, 97, -13, 104, -42, -95, -72, -123, -35, -53, -55,
                    7, -124, 66, -71, 54, -117],
    ("wcga", 3.0): [37, -99, -76, 62, -89, -63, 28, -108, -101, 5, -20, -43,
                    50, 78, 110, 29, -6, 45, 93, 42, -21, -46, 57, -56, 127,
                    -123, -88, -117, 66, -12],
    ("wgafr", 1.5): [37, -76, -99, 62, 112, 17, 67, 76, -43, -13, -31, -63,
                     -89, -56, -14, -119, 50, 124, 78, -24, -30, 12, -77, 123,
                     -98, -47, 88, 82, -119, -89],
    ("wgafr", 3.0): [37, -99, -76, 62, -89, 102, -43, -14, 39, -20, 28, -30,
                     97, 64, -53, 22, -65, -19, -3, -119, -51, -8, 35, 49, 62,
                     -15, 100, -53, 125, -98],
    ("rwrga", 1.5): [37, -76, -99, -56, -23, 112, 67, 62, 28, -31, -66, 39,
                     -81, -14, -96, -89, -74, -9, -61, 104, -58, -74, -7, 5,
                     23, -92, 112, 105, 128, 113],
    ("rwrga", 3.0): [37, -99, -76, 62, 67, 112, -66, -24, 109, 102, -57, 28,
                     -43, 122, 105, 94, -30, -65, -63, 10, -38, 1, -96, -123,
                     14, -127, 100, -113, 125, 16],
    ("rrxga", 1.5): [37, -99, -76, 102, 5, -60, 118, -51, 112, 62, -65, 91,
                     19, -81, -77, 117, -23, 67, 87, -20, -46, -36, -30, -49,
                     105, -108, -119, -65, -63, -77],
    ("rrxga", 3.0): [37, -99, -76, 62, -89, 102, -43, -14, -20, 97, -51, 28,
                     -30, 64, -108, -19, -46, 29, 114, -96, -8, -13, -59, -119,
                     -43, 16, -44, -14, -59, -98],
    ("wrga", 1.5): [37, -76, -99, 62, 73, -25, 37, 102, 84, 121, -89, 37, 5,
                    -89, 62, 75, -89, -40, -76, 37, -66, -99, 37, 112, -76, 62,
                    17, 37, -99, 37],
    ("wrga", 3.0): [37, -99, -76, 62, 37, 102, -89, -99, 37, -25, -99, 5, -76,
                    84, 37, -99, 62, 73, -76, -38, -40, -66, 75, 37, 112, -99,
                    62, -76, 37, -99],
    ("wdga", 1.5): [37, -76, -99, 102, 5, -9, 39, -65, 99, 62, 112, -85, -96,
                    76, -10, 114, 6, -23, 19, -124, -68, -45, -43, -24, -14,
                    -77, -46, 128, -54, -96],
    ("wdga", 3.0): [37, -99, -76, 62, -89, 102, -108, -43, 28, -63, -13, 5,
                    -20, 76, -24, 39, -59, -53, -31, 18, -13, -72, 112, 62,
                    -30, -65, -95, 73, -111, 45],
    ("gg", 1.5): [37, -76, -99, -99, -76, -99, 102, -76, 102, -76, -99, -43,
                  102, -43, -76, -99, -43, 102, 62, -76, -99, -65, 67, 62, -43,
                  -99, -76, -65, 62, 67],
    ("gg", 3.0): [37, -99, -76, -99, -76, -99, 62, 102, 121, 5, 102, -76, 112,
                  62, -37, 67, -37, -37, 112, -10, -65, -43, -37, -37, -66,
                  112, -86, 67, -14, 17],
}


@pytest.mark.parametrize("p", [1.5, 3.0])
@pytest.mark.parametrize("algo", ALGORITHM_IDS)
def test_pinned_exact_selections(algo, p):
    s = lp_space(p, 32)
    D = build_dictionary(s, "random_gauss", 128, seed=101)
    t = make_target(D, TargetSpec(mode="a1_sparse", k=8, seed=201))
    rep = run_greedy(algo, t.f, D, T1, max_m=30, target=t)
    pinned = PINNED_EXACT_SELECTIONS[(algo, p)]
    assert [r.selected_index for r in rep.records] == pinned


def test_one_rule_table():
    # every id is one entry of the loop's rule table and of the audit's
    # check table; the approximate names are those of the WBGA members, the
    # ids whose checks include biorthogonality
    assert tuple(_RULES) == ALGORITHM_IDS
    assert tuple(APPLICABLE_CHECKS) == ALGORITHM_IDS
    members = [a for a in ALGORITHM_IDS
               if "biorthogonality" in APPLICABLE_CHECKS[a]]
    assert AWBGA_IDS == tuple("a" + a for a in members)
    assert AWBGA_IDS == ("awcga", "awgafr", "arwrga", "arrxga", "agg")
    for algorithm in ALGORITHM_IDS:
        assert run_id(algorithm) == (algorithm, False)
    for algorithm in members:
        assert run_id("a" + algorithm) == (algorithm, True)
    for name in ("awrga", "awdga", "omp", "AWCGA"):
        with pytest.raises(ValueError, match="unknown algorithm"):
            run_id(name)


@pytest.mark.parametrize("name", ["awcga", "arrxga", "agg"])
def test_approximate_checks_drop_the_grid_checks(name):
    s, D, t = hilbert_setup(n=8, N=24, k=3)
    errs = ErrorSchedule(delta=SequenceSpec(kind="pow", c=0.1, a=1.1),
                         eta=SequenceSpec(kind="pow", c=0.1, a=1.1))
    rep = run_greedy(name[1:], t.f, D, T1, errors=errs, max_m=5, target=t)
    applicable = {c.name for c in audit_conditions(rep).checks if c.applicable}
    assert applicable == APPLICABLE_CHECKS[name[1:]] - {"neg_line", "bj"}
