import numpy as np
import pytest

from lpgreedy import (AWBGA_IDS, Element, ErrorSchedule, SequenceSpec,
                      TargetSpec, WeaknessSchedule, build_dictionary,
                      chebyshev_project, derived_eps_bound, audit_conditions,
                      lp_space, make_target, norm, perturbed_functional,
                      relaxed_minimize, run_awbga, run_greedy)
from lpgreedy import algorithms, perturbation
from lpgreedy.perturbation import ZERO_ERRORS
from lpgreedy.solvers import dense_line_min, min_along_ray
from lpgreedy.space import dual_norm, pnorm, pnorm_rows

T1 = WeaknessSchedule()


def power_schedule(c=0.1, a=1.1, seed=0):
    return ErrorSchedule(delta=SequenceSpec(kind="pow", c=c, a=a),
                         eta=SequenceSpec(kind="pow", c=c, a=a), seed=seed)


class TestPerturbedFunctional:
    def test_zero_delta_is_exact(self):
        s = lp_space(3.0, 5)
        rng = np.random.default_rng(1)
        f = Element(coords=rng.standard_normal(5), space=s)
        F, achieved = perturbed_functional(s, f.coords, 0.0, seed=3)
        assert achieved == 0.0
        assert F @ f.coords == pytest.approx(norm(s, f), rel=1e-10)

    @pytest.mark.parametrize("p", [1.5, 2.0, 4.0])
    def test_admissibility_random_trials(self, p):
        s = lp_space(p, 6)
        rng = np.random.default_rng(2)
        for i in range(300):
            f = Element(coords=rng.standard_normal(6), space=s)
            delta = float(rng.uniform(0, 1))
            F, achieved = perturbed_functional(s, f.coords, delta, seed=i)
            assert dual_norm(p, F) <= 1.0 + 1e-12
            assert achieved <= delta + 1e-12
            assert F @ f.coords >= (1.0 - delta) * norm(s, f) - 1e-10

    def test_vacuous_budget_still_valid(self):
        s = lp_space(2.0, 4)
        f = Element(coords=np.array([1.0, 2.0, 0.0, 0.0]), space=s)
        F, _ = perturbed_functional(s, f.coords, 1.0, seed=5)
        assert dual_norm(2.0, F) <= 1.0 + 1e-12
        assert F @ f.coords >= -1e-12

    def test_adversarial_budget_is_used(self):
        # with a positive budget the construction should actually move away
        # from the exact functional for most seeds
        s = lp_space(2.0, 6)
        rng = np.random.default_rng(3)
        f = Element(coords=rng.standard_normal(6), space=s)
        achieved = [perturbed_functional(s, f.coords, 0.2, seed=i)[1]
                    for i in range(20)]
        assert np.median(achieved) > 0.05

    def test_zero_input_rejected(self):
        s = lp_space(2.0, 3)
        with pytest.raises(ValueError, match="zero"):
            perturbed_functional(s, np.zeros(3), 0.1)

    def test_dual_norm_above_one_rejected(self, monkeypatch):
        # a mixed functional normalised by half its dual norm has norm 2
        s = lp_space(3.0, 4)
        monkeypatch.setattr(perturbation, "dual_norm",
                            lambda p, c: 0.5 * dual_norm(p, c))
        with pytest.raises(ValueError, match="exceeds 1"):
            perturbed_functional(s, np.array([1.0, 2.0, 0.5, -1.0]), 0.3,
                                 seed=1)

    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_whole_budget_is_used(self, p):
        # unless the random dual vector alone is admissible (mixing weight
        # 1), the largest admissible weight leaves F(f) on the level
        # (1 - delta)||f||: the achieved delta is the requested one
        s = lp_space(p, 32)
        rng = np.random.default_rng(7)
        interior = 0
        for i in range(100):
            f = Element(coords=rng.standard_normal(32), space=s)
            delta = float(rng.uniform(1e-6, 0.9))
            R = np.random.default_rng(i).standard_normal(32)
            value_at_one = abs(float(R @ f.coords)) / dual_norm(p, R)
            _, achieved = perturbed_functional(s, f.coords, delta, seed=i)
            if value_at_one < (1.0 - delta) * norm(s, f):
                interior += 1
                assert achieved >= delta - 1e-12
            assert achieved <= delta + 1e-12
        assert interior >= 50


class TestRelaxedMinimize:
    def test_zero_eta_exact(self):
        x, v = relaxed_minimize(2.0, lambda t: np.array([t - 2.0, 1.0]), 0.0,
                                (2.0, 1.0), seed=1)
        assert x == 2.0 and v == 1.0

    def test_budget_respected_on_quadratic(self):
        # at p = 2 the squared value |x - c|^2 + 1/2 is a quadratic
        rng = np.random.default_rng(4)
        for i in range(300):
            c = rng.uniform(-3, 3, size=2)

            def residual(x, c=c):
                return np.append(x - c, np.sqrt(0.5))

            eta = float(rng.uniform(0, 1))
            _, v = relaxed_minimize(2.0, residual, eta,
                                    (c.copy(), np.sqrt(0.5)), seed=i)
            assert np.sqrt(0.5) <= v <= np.sqrt(0.5) * (1.0 + eta) + 1e-12

    def test_zero_minimum_collapses_budget(self):
        x, v = relaxed_minimize(3.0, lambda t: np.array([t]), 0.5,
                                (0.0, 0.0), seed=2)
        assert x == 0.0 and v == 0.0

    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_whole_budget_is_used_on_ray_objectives(self, p):
        # the walk-away point sits on the level v* (1 + eta/2), not merely
        # below it: returning the argmin itself would fail here
        rng = np.random.default_rng(8)
        for i in range(40):
            r, u = rng.standard_normal(24), rng.standard_normal(24)
            eta = float(10.0 ** rng.uniform(-8, 0))

            def residual(b, r=r, u=u):
                return r - b * u

            def exact(r=r, u=u):
                b = min_along_ray(p, r, u)
                return b, pnorm(p, r - b * u)

            _, v_star = exact()
            _, v = relaxed_minimize(p, residual, eta, exact(), seed=i)
            budget = v_star * (1.0 + 0.5 * eta)
            assert budget * (1.0 - 1e-12) <= v <= budget

    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_whole_budget_is_used_on_vector_objectives(self, p):
        s = lp_space(p, 24)
        rng = np.random.default_rng(9)
        for i in range(20):
            basis = rng.standard_normal((4, 24))
            Phi = basis.T
            f = rng.standard_normal(24)
            proj = chebyshev_project(s, f, basis)
            eta = float(10.0 ** rng.uniform(-8, 0))
            v_star = pnorm(p, proj.residual)
            _, v = relaxed_minimize(p, lambda c, f=f, Phi=Phi: f - Phi @ c,
                                    eta, (proj.coeffs, v_star), seed=i)
            budget = v_star * (1.0 + 0.5 * eta)
            assert budget * (1.0 - 1e-12) <= v <= budget

    def test_projection_respected(self):
        # ||(t + 1, 1)||_2 is least over t >= 0 at t = 0
        def residual(t):
            return np.array([t + 1.0, 1.0])

        v0 = float(np.sqrt(2.0))
        for seed in range(8):
            x, v = relaxed_minimize(2.0, residual, 0.4, (0.0, v0),
                                    seed=seed, nonneg=True)
            assert x >= 0.0
            assert v0 <= v <= v0 * 1.2

    def test_direction_too_small_for_a_finite_bracket(self):
        # 2 budget / ||u|| overflows for this u: the walk has no finite
        # bracket and returns the argmin, as at u = 0
        x, v = relaxed_minimize(2.0, lambda x: np.array([1e-310 * x, 1.0]),
                                0.5, (0.0, 1.0), seed=1)
        assert x == 0.0 and v == 1.0

    def test_ray_end_reached_below_the_level(self):
        # the walk along -1 meets x >= 0 at 0.1 with the value sqrt(1.01),
        # below the budget 1.25: the end itself is judged and returned
        x, v = relaxed_minimize(2.0, lambda x: np.array([x - 0.1, 1.0]), 0.5,
                                (0.1, 1.0), seed=1, nonneg=True)
        assert x == 0.0 and v == np.sqrt(1.01)

    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_walk_stops_where_the_held_coordinate_reaches_zero(self, p):
        # ||(w, lam - a, 1)||_p over lam >= 0 is least at (0, a), value 1.
        # A ray that meets lam = 0 reaches it far below the level, and the
        # walk returns that end point instead of turning along w.
        a, eta = 1e-4, 0.01
        budget = 1.0 + 0.5 * eta

        def residual(x):
            return np.array([x[0], x[1] - a, 1.0])

        ends = 0
        for seed in range(16):
            x, v = relaxed_minimize(p, residual, eta, (np.array([0.0, a]), 1.0),
                                    seed=seed, nonneg=(False, True))
            assert x[1] >= 0.0 and v == pnorm(p, residual(x))
            if x[1] <= 1e-15:
                ends += 1
                assert 1.0 <= v < 1.0 + 0.01 * (budget - 1.0)
            else:
                assert budget * (1.0 - 1e-12) <= v <= budget
        assert ends >= 4

    @pytest.mark.parametrize("p", [1.2, 1.5, 3.0, 13.0, 100.0])
    def test_clamped_walks_stay_admissible(self, p):
        # wdga's walk (lam >= 0) and wgafr's (w free, lam >= 0) from
        # minimizers on and off the bound, for eta from 0.5 down to the
        # rounding band: values within [v*, v* (1 + eta/2)], held
        # coordinates never negative
        rng = np.random.default_rng(10)
        for i in range(30):
            f, phi, G = (rng.standard_normal(16) for _ in range(3))
            lam0 = min_along_ray(p, f, phi, nonneg=True)
            x0 = algorithms._two_dir_solve(lp_space(p, 16), f, G, phi)[:2]
            for eta in (0.5, 1e-3, 1e-8, 1e-14, 1e-17):
                lam, v = relaxed_minimize(
                    p, lambda t: f - t * phi, eta,
                    (lam0, pnorm(p, f - lam0 * phi)), seed=i,
                    nonneg=True)
                v_star = pnorm(p, f - lam0 * phi)
                assert lam >= 0.0
                assert v == pnorm(p, f - lam * phi)
                assert v_star <= v <= v_star * (1.0 + 0.5 * eta)

                def residual(x):
                    return f - ((1.0 - x[0]) * G + x[1] * phi)

                x, v = relaxed_minimize(p, residual, eta, x0, seed=i,
                                        nonneg=(False, True))
                assert x[1] >= 0.0
                assert x is x0[0] or v == pnorm(p, residual(x))
                assert x0[1] <= v <= x0[1] * (1.0 + 0.5 * eta)


class TestDerivedEpsBound:
    def test_zero_cases(self):
        s = lp_space(2.0, 4)
        assert derived_eps_bound(s, 0.0, 0.0, 1.0) == 0.0
        assert derived_eps_bound(s, 0.1, 0.1, 0.0) == 0.0

    def test_hilbert_spot_value(self):
        s = lp_space(2.0, 4)  # q=2, gamma=1/2, p_conj=2
        assert derived_eps_bound(s, 0.005, 0.005, 1.0) == pytest.approx(0.2)

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_matches_numeric_minimization(self, p):
        s = lp_space(p, 4)
        rng = np.random.default_rng(5)
        for _ in range(10):
            d, e = rng.uniform(0, 0.3, size=2)
            gn = float(rng.uniform(0.05, 3.0))
            lams = np.geomspace(1e-8, 1e5, 300_000)
            num = float(np.min((d + e + 2.0 * s.gamma * (lams * gn) ** s.q)
                               / lams))
            assert derived_eps_bound(s, d, e, gn) == pytest.approx(num, rel=1e-5)

    def test_bounded_approximant_cap(self):
        # for ||G|| <= 3 the bound collapses to 6 (2 gamma)^(1/q) (d+e)^(1/p')
        s = lp_space(3.0, 4)
        d = e = 0.01
        cap = 6.0 * (2 * s.gamma) ** (1 / s.q) * (d + e) ** (1 / s.p_conj)
        assert derived_eps_bound(s, d, e, 3.0) <= cap + 1e-12


class TestRunAwbga:
    def setup_env(self, p=2.0, n=10, N=40, k=4, dseed=1, tseed=2):
        s = lp_space(p, n)
        D = build_dictionary(s, "random_gauss", N, seed=dseed)
        t = make_target(D, TargetSpec(mode="a1_sparse", k=k, seed=tseed))
        return s, D, t

    @pytest.mark.parametrize("pair", [("awcga", "wcga"), ("awgafr", "wgafr"),
                                      ("arwrga", "rwrga"), ("arrxga", "rrxga"),
                                      ("agg", "gg")])
    def test_zero_schedules_reproduce_exact_runs(self, pair):
        # the exact runs are the zero-error case of the approximate ones:
        # same atoms and bitwise the same residuals, steps and pairings
        approx_id, exact_id = pair
        for p in (1.5, 2.0, 3.0):
            s, D, t = self.setup_env(p=p)
            rep_a = run_greedy(exact_id, t.f, D, T1, errors=ZERO_ERRORS,
                               max_m=12, target=t)
            rep_e = run_greedy(exact_id, t.f, D, T1, max_m=12, target=t)
            assert rep_a.algorithm == approx_id
            for name in ("selected_index", "residual_norm", "lam", "mu",
                         "bo_abs"):
                assert ([getattr(r, name) for r in rep_a.records]
                        == [getattr(r, name) for r in rep_e.records]), name

    @pytest.mark.parametrize("algo", ["wrga", "wdga"])
    def test_non_members_take_no_errors(self, algo):
        s, D, t = self.setup_env()
        with pytest.raises(ValueError, match="no WBGA member"):
            run_greedy(algo, t.f, D, T1, errors=ZERO_ERRORS)

    def test_functional_is_fresh_below_the_zero_residual(self):
        # with stop_tol below the zero-residual floor the run goes on past
        # an exact arrival; each step must still take the delta-perturbed
        # functional of its own residual, not reuse the previous one
        s, D, t = self.setup_env(p=3.0, n=8, N=32)
        errs = ErrorSchedule(delta=SequenceSpec(kind="const", c=0.1),
                             eta=SequenceSpec(kind="const", c=0.0))
        rep = run_greedy("wcga", t.f, D, T1, errors=errs, max_m=12,
                         stop_tol=0.0, target=t)
        assert len(rep.records) == 12
        assert min(r.residual_norm for r in rep.records) < 1e-12
        assert all(r.delta_m == 0.1 for r in rep.records)

    @pytest.mark.parametrize("algo", ["awcga", "awgafr", "arwrga"])
    def test_bo_defect_within_derived_slack(self, algo):
        s, D, t = self.setup_env(p=3.0, n=8, N=32)
        errs = power_schedule(c=0.2, a=0.7, seed=11)
        rep = run_greedy(algo[1:], t.f, D, T1, errors=errs, max_m=20, target=t)
        for r in rep.records:
            assert r.bo_abs <= r.eps_m + 1e-6
            assert r.delta_achieved <= r.delta_m + 1e-12

    @pytest.mark.parametrize("algo", ["awcga", "awgafr", "arwrga"])
    def test_error_reduction_slack_respected(self, algo):
        s, D, t = self.setup_env(p=2.0, n=8, N=32, dseed=5, tseed=6)
        errs = power_schedule(c=0.3, a=0.8, seed=4)
        rep = run_greedy(algo[1:], t.f, D, T1, errors=errs, max_m=15, target=t)
        for r in rep.records:
            assert r.residual_norm <= (1.0 + r.eta_m) * r.er_reference + 1e-6

    def test_decaying_errors_converge(self):
        s, D, t = self.setup_env(n=8, N=48, k=4, dseed=7, tseed=8)
        errs = power_schedule(seed=13)
        rep = run_greedy("rwrga", t.f, D, T1, errors=errs, max_m=400,
                         stop_tol=5e-4, target=t)
        assert min(r.residual_norm for r in rep.records) < 1e-3

    def test_auto_thresholds_run(self):
        s, D, t = self.setup_env(n=8, N=32)
        errs = ErrorSchedule(delta=SequenceSpec(kind="prop72auto"),
                             eta=SequenceSpec(kind="prop72auto"), seed=3)
        rep = run_greedy("wgafr", t.f, D, T1, errors=errs, max_m=25, target=t)
        pc = s.p_conj
        cap = 64.0 ** (-pc) * s.gamma ** (1.0 - pc)
        prev = rep.initial_residual
        for r in rep.records:
            assert r.delta_m <= cap * r.residual_norm ** pc + 1e-15
            assert r.eta_m <= cap * (0.5 * prev) ** pc + 1e-15
            prev = r.residual_norm

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("p,seq,seed", [
        (13.0, "prop72auto", 0), (13.0, "prop72auto", 1),
        (13.0, "prop72auto", 2), (32.0, "pow", 0), (32.0, "pow", 2)])
    def test_large_p_relaxation_does_not_overflow(self, p, seq, seed):
        # the eta walk's power sum overflows here; the scaled route takes
        # over, and the overflow of the plain sum raises no warning
        s = lp_space(p, 16)
        D = build_dictionary(s, "canonical", 48, seed=5)
        t = make_target(D, TargetSpec(mode="a1_sparse", k=3, seed=6))
        spec = (SequenceSpec(kind="prop72auto") if seq == "prop72auto"
                else SequenceSpec(kind="pow", c=0.01, a=1.5))
        errs = ErrorSchedule(delta=spec, eta=spec, seed=seed)
        rep = run_greedy("rwrga", t.f, D, T1, errors=errs, max_m=40, target=t)
        assert audit_conditions(rep).passed

    def test_explicit_eps_list_mode(self):
        s, D, t = self.setup_env(n=8, N=32)
        errs = ErrorSchedule(delta=SequenceSpec(kind="const", c=0.05),
                             eta=SequenceSpec(kind="const", c=0.05),
                             eps_mode="list", eps_values=(0.5, 0.25), seed=2)
        rep = run_greedy("wcga", t.f, D, T1, errors=errs, max_m=4, target=t)
        assert rep.records[0].eps_m == 0.5
        assert all(r.eps_m == 0.25 for r in rep.records[1:])

    def test_unknown_algorithm(self):
        s, D, t = self.setup_env()
        with pytest.raises(ValueError, match="unknown approximate"):
            run_awbga("wcga", t.f, D, T1, ZERO_ERRORS)

    def test_schedule_round_trip(self):
        errs = power_schedule(seed=21)
        assert ErrorSchedule.from_dict(errs.as_dict()) == errs


def grid_two_dir_min(p, f, G, phi):
    """min over (a in [-3, 5], lam in [0, 4]) of ||f - a G - lam phi|| by
    nested grid scans: ``dense_line_min`` over lam, each value itself a
    ``dense_line_min`` over a on ``pnorm_rows`` (no ray solve)."""
    def inner(lam):
        base = f - lam * phi
        return dense_line_min(lambda a: pnorm_rows(
            p, base[None, :] - a[:, None] * G[None, :]), -3.0, 5.0)[1]

    return dense_line_min(lambda ls: np.array([inner(x) for x in ls]),
                          0.0, 4.0)[1]


class TestTwoAtomProjection:
    @pytest.mark.parametrize("p", [1.2, 1.5, 3.0, 4.0, 8.0])
    def test_matches_nested_grid_minimum(self, p):
        s = lp_space(p, 16)
        rng = np.random.default_rng(int(10 * p))
        for k in range(4):
            G = rng.standard_normal(16)
            phi = rng.standard_normal(16)
            phi /= pnorm(p, phi)
            # odd draws put the unconstrained optimum at lam < 0
            c = -1.0 if k % 2 else 1.0
            f = 0.9 * G + c * phi + 0.2 * rng.standard_normal(16)
            free = chebyshev_project(s, f, np.array([G, phi]))
            assert (free.coeffs[1] < 0.0) == (k % 2 == 1)
            (w, lam), v, _ = algorithms._two_dir_solve(s, f, G, phi)
            assert lam >= 0.0
            assert v == pytest.approx(grid_two_dir_min(p, f, G, phi),
                                      rel=1e-9)
            assert v == pytest.approx(pnorm(p, f - (1.0 - w) * G - lam * phi),
                                      rel=1e-12)

    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_zero_previous_approximant_is_a_ray_solve(self, p):
        s = lp_space(p, 16)
        rng = np.random.default_rng(3)
        phi = rng.standard_normal(16)
        for f in (rng.standard_normal(16), -phi + 0.1 * rng.standard_normal(16)):
            (w, lam), v, _ = algorithms._two_dir_solve(s, f, np.zeros(16), phi)
            ref = min_along_ray(p, f, phi, nonneg=True)
            assert (w, lam) == (0.0, ref)
            assert v == pnorm(p, f - ref * phi)

    @pytest.mark.parametrize("p", [1.5, 3.0])
    @pytest.mark.parametrize("c", [2.0, -0.5])
    def test_parallel_directions(self, p, c):
        # G_prev = c phi: the admissible set is the whole line through phi
        s = lp_space(p, 16)
        rng = np.random.default_rng(4)
        phi = rng.standard_normal(16)
        f = rng.standard_normal(16)
        (w, lam), v, _ = algorithms._two_dir_solve(s, f, c * phi, phi)
        t = min_along_ray(p, f, phi)
        assert lam >= 0.0
        assert v == pytest.approx(pnorm(p, f - t * phi), rel=1e-12)
        assert v == pytest.approx(pnorm(p, f - ((1.0 - w) * c + lam) * phi),
                                  rel=1e-12)

    def test_never_above_the_previous_approximant_at_p_200(self):
        p = 200.0
        s = lp_space(p, 16)
        rng = np.random.default_rng(7)
        for _ in range(100):
            G = rng.standard_normal(16)
            phi = rng.standard_normal(16)
            f = G + 10.0 ** rng.uniform(-8, 0) * rng.standard_normal(16)
            with np.errstate(over="ignore"):
                (w, lam), v, _ = algorithms._two_dir_solve(s, f, G, phi)
                assert lam >= 0.0
                assert v <= pnorm(p, f - G)

    def test_capped_solves_pass_the_audit(self, monkeypatch):
        # on this input about half of awgafr's two-atom projections cannot
        # meet the stationarity test; each must stop at the cap of 20
        # iterations (the default cap of 500 makes the run ten times slower)
        iters = []
        project = algorithms.chebyshev_project

        def counted(*args):
            res = project(*args)
            iters.append(res.iterations)
            return res

        monkeypatch.setattr(algorithms, "chebyshev_project", counted)
        s = lp_space(1.5, 32)
        D = build_dictionary(s, "random_gauss", 128, seed=890651)
        t = make_target(D, TargetSpec(mode="a1_sparse", k=8, seed=385081))
        errs = ErrorSchedule(delta=SequenceSpec(kind="prop72auto"),
                             eta=SequenceSpec(kind="prop72auto"))
        rep = run_greedy("wgafr", t.f, D, T1, errors=errs, max_m=100,
                         target=t)
        assert audit_conditions(rep).passed
        assert len(iters) == len(rep.records) - 1
        assert max(iters) <= 20

    def test_capped_solves_are_reported(self, monkeypatch):
        # on this input exact wgafr caps at least one two-atom projection;
        # each capped one is a warning of the report, as in wcga
        capped = []
        project = algorithms.chebyshev_project

        def counted(*args):
            res = project(*args)
            if not res.converged:
                capped.append(res)
            return res

        monkeypatch.setattr(algorithms, "chebyshev_project", counted)
        s = lp_space(1.3, 16)
        D = build_dictionary(s, "random_gauss", 48, seed=1)
        t = make_target(D, TargetSpec(mode="a1_sparse", k=3, seed=100))
        rep = run_greedy("wgafr", t.f, D, T1, max_m=40, target=t)
        unconverged = [w for w in rep.warnings
                       if w.startswith("projection not converged at m=")]
        assert capped and len(unconverged) == len(capped)


class TestLevelCrossing:
    def test_lands_on_the_level_from_below(self):
        # g(x) = x^3 + x - 1, convex on [0, 1]: one crossing near 0.6823
        def ev(x):
            return x ** 3 + x - 1.0, 3.0 * x * x + 1.0

        x, g, accepted = perturbation._ray_crossing(
            ev, lambda x: True, 0.0, -1.0, 1.0, 1.0, 1.0, 4e-16, 2.0 ** -60)
        assert accepted and g == ev(x)[0]
        assert -4e-16 <= g <= 0.0

    @pytest.mark.parametrize("step", [0.3, 1e-5])
    def test_width_and_adjacent_float_stops(self, step):
        # a step function has no point near the level, so only the width
        # test (crossing at 1e-5) or the adjacent-float test (at 0.3, where
        # floats are farther apart than 2^-60) can end the search
        calls = []

        def ev(x):
            calls.append(x)
            return (-1.0 if x <= step else 1.0), 0.0

        x, _, accepted = perturbation._ray_crossing(
            ev, lambda x: True, 0.0, -1.0, 0.0, 1.0, 1.0, 0.0, 2.0 ** -60)
        assert not accepted
        assert step - 2.0 ** -60 <= x <= step
        assert len(calls) < 200

    def test_start_returned_when_nothing_admissible_seen(self):
        x, _, accepted = perturbation._ray_crossing(
            lambda x: (1.0, 0.0), lambda x: True, 0.0, -1.0, 0.0, 1.0, 1.0,
            0.0, 2.0 ** -50)
        assert x == 0.0 and not accepted

    def test_points_rejected_in_their_own_arithmetic_count_as_past(self):
        # a convex g whose points near the level all fail ``ok``: the
        # search ends at the last point below the window, not past it
        def ev(x):
            return x * x - 0.25, 2.0 * x

        x, g, accepted = perturbation._ray_crossing(
            ev, lambda x: False, 0.0, -0.25, 0.0, 1.0, 0.75, 1e-6, 2.0 ** -60)
        assert not accepted
        assert x < 0.5 and g < -1e-6


def _count_evaluations(monkeypatch):
    """Per-crossing evaluation counts, split by delta and eta.  An eta
    count includes the walk's evaluation at its bracket end, which
    ``relaxed_minimize`` makes before it calls the crossing."""
    counts = {"delta": [], "eta": []}
    crossing = perturbation._ray_crossing

    def counted(ev, *args):
        n = [0]

        def ev_counted(x):
            n[0] += 1
            return ev(x)

        out = crossing(ev_counted, *args)
        kind = "delta" if args[-1] == perturbation._DELTA_REL else "eta"
        counts[kind].append(n[0] + (kind == "eta"))
        return out

    monkeypatch.setattr(perturbation, "_ray_crossing", counted)
    return counts


class TestCrossingCost:
    @pytest.mark.parametrize("p", [1.5, 3.0])
    @pytest.mark.parametrize("kind", ["pow", "prop72auto"])
    def test_evaluations_per_crossing(self, monkeypatch, p, kind):
        # the approx-cli shape: n = 32, random_gauss N = 128, a1 k = 8
        counts = _count_evaluations(monkeypatch)
        s = lp_space(p, 32)
        D = build_dictionary(s, "random_gauss", 128, seed=31)
        t = make_target(D, TargetSpec(mode="a1_sparse", k=8, seed=32))
        seq = (SequenceSpec(kind="pow", c=0.1, a=1.1) if kind == "pow"
               else SequenceSpec(kind="prop72auto"))
        errs = ErrorSchedule(delta=seq, eta=seq)
        for algo in AWBGA_IDS:
            run_greedy(algo[1:], t.f, D, T1, errors=errs, max_m=100,
                       target=t)
        every = counts["delta"] + counts["eta"]
        assert len(every) > 50
        assert np.mean(every) <= 6.0
        assert max(every) <= 20


class TestAdmissibility:
    @pytest.mark.parametrize("p", [1.2, 1.5, 3.0, 13.0, 100.0])
    def test_achieved_delta_never_exceeds_the_request(self, p):
        # achieved delta as ``_functional`` records it, and as recomputed
        # from the returned F, for delta from 0.5 down to the rounding band
        s = lp_space(p, 32)
        rng = np.random.default_rng(12)
        for i in range(20):
            f = rng.standard_normal(32) * 10.0 ** rng.uniform(-6, 2)
            fn = pnorm(p, f)
            for delta in (0.5, 0.1, 1e-3, 1e-6, 1e-10, 1e-14, 4e-16, 1e-20):
                F, achieved = algorithms._functional(
                    s, ErrorSchedule(delta=SequenceSpec(kind="const", c=delta),
                                     eta=SequenceSpec(kind="const")),
                    i, f, fn, 1.0)[::2]
                assert dual_norm(p, F) <= 1.0 + 1e-12
                assert 0.0 <= achieved <= delta
                if achieved > 0.0:
                    assert achieved == max(0.0, 1.0 - float(F @ f) / fn)

    @pytest.mark.parametrize("p", [1.2, 1.5, 3.0, 13.0, 100.0])
    def test_relaxation_never_exceeds_its_budget(self, p):
        # projection walks, as awcga takes them, for eta from 0.5 down to
        # the rounding band, on residuals far smaller than the target
        s = lp_space(p, 32)
        rng = np.random.default_rng(13)
        for i in range(12):
            basis = rng.standard_normal((6, 32))
            f = basis.T @ rng.standard_normal(6) + 10.0 ** -(i % 6) * \
                rng.standard_normal(32)
            proj = chebyshev_project(s, f, basis)
            v_star = pnorm(p, proj.residual)
            Phi = basis.T
            for eta in (0.5, 1e-2, 1e-6, 1e-10, 1e-14, 1e-17):
                c, v = relaxed_minimize(p, lambda c: f - Phi @ c, eta,
                                        (proj.coeffs, v_star), seed=i)
                assert v_star <= v <= v_star * (1.0 + 0.5 * eta)
                assert c is proj.coeffs or v == pnorm(p, f - Phi @ c)


class TestSequenceSpecValidation:
    @pytest.mark.parametrize("kw", [
        dict(kind="const", c=2.0), dict(kind="const", c=-0.5),
        dict(kind="const", c=float("nan")), dict(kind="pow", c=-0.1, a=1.0),
        dict(kind="pow", c=0.1, a=-1.0), dict(kind="pow", c=float("inf"), a=1.0),
        dict(kind="list", values=(0.1, 1.5)),
        dict(kind="list", values=(0.1, float("nan")))])
    def test_out_of_range_rejected(self, kw):
        with pytest.raises(ValueError):
            SequenceSpec(**kw)

    def test_in_range_accepted(self):
        assert SequenceSpec(kind="const", c=1.0).value(3) == 1.0
        assert SequenceSpec(kind="pow", c=5.0, a=1.0).value(2) == 1.0
        assert SequenceSpec(kind="list", values=(0.0, 0.5)).value(1, pos=1) == 0.5


def test_negative_schedule_seed_rejected():
    seq = SequenceSpec(kind="const", c=0.1)
    with pytest.raises(ValueError, match="error schedule seed must be"):
        ErrorSchedule(delta=seq, eta=seq, seed=-1)
    with pytest.raises(ValueError, match="malformed error schedule"):
        ErrorSchedule.from_dict(dict(ErrorSchedule(delta=seq, eta=seq)
                                     .as_dict(), seed=-1))


# Selected indices of one pow-schedule run per approximate algorithm, as the
# fixed-count bisections chose them (arrxga and agg: as the ray crossings
# chose them when those ids took errors): a faster level crossing must not
# change which atoms the approximate runs pick.
PINNED_SELECTIONS = {
    "awcga": [-45, 94, -82, 34, 119, 25, -12, -84],
    "awgafr": [-45, 94, 34, -82, 119, 25, -12, -84, 6, 99, 65, -16, -38,
               -119, -77, 44, 25, -29, 10, 96, 108, 81, -69, -53, -103, 87,
               -71, 76, -120, 27, 9, 50, 28, 86, -107, -59, -71, 72, 75, -60],
    "arwrga": [-45, 94, 119, 34, 25, -82, -12, -84, 28, 19, 116, -96, -38,
               -62, -51, -59, -22, 30, 21, 127, 17, 105, -78, -66, 39, 57,
               -13, -73, -56, 16, -68, -20, 21, 76, -60, 33, 93, -46, 21,
               -65],
    "arrxga": [94, -45, 119, 34, 25, -82, -12, 2, -84, 19, 28, 7, -65, 21,
               -59, -23, 33, 80, 101, -118, 63, -49, -114, 1, -12, 86, -97,
               128, 11, -7, -60, 63, -31, 83, -78, 80, 115, -31, 43, 47],
    "agg": [-45, 94, 119, 119, 119, 94, -124, 119, -82, 34, 25, 119, 25, -82,
            -96, 16, -68, 94, 45, 45, -68, 16, 34, 45, 25, 45, 19, -82, 25, 34,
            45, 45, 45, 45, 34, 25, -96, 45, 34, -31],
}


@pytest.mark.parametrize("algo", AWBGA_IDS)
def test_pinned_selections(algo):
    s = lp_space(1.5, 32)
    D = build_dictionary(s, "random_gauss", 128, seed=21)
    t = make_target(D, TargetSpec(mode="a1_sparse", k=8, seed=22))
    errs = power_schedule(c=0.1, a=1.1, seed=5)
    rep = run_greedy(algo[1:], t.f, D, T1, errors=errs, max_m=40, target=t)
    assert [r.selected_index for r in rep.records] == PINNED_SELECTIONS[algo]
