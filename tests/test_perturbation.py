import numpy as np
import pytest

from lpgreedy import (Element, ErrorSchedule, SequenceSpec, TargetSpec,
                      WeaknessSchedule, apply_functional, build_dictionary,
                      derived_eps_bound, lp_space, make_target, norm,
                      perturbed_functional, relaxed_minimize, run_awbga,
                      run_greedy)
from lpgreedy import algorithms, perturbation
from lpgreedy.perturbation import ZERO_ERRORS
from lpgreedy.space import dual_norm, functional_coords, pnorm

T1 = WeaknessSchedule()


def power_schedule(c=0.1, a=1.1, seed=0):
    return ErrorSchedule(delta=SequenceSpec(kind="pow", c=c, a=a),
                         eta=SequenceSpec(kind="pow", c=c, a=a), seed=seed)


class TestPerturbedFunctional:
    def test_zero_delta_is_exact(self):
        s = lp_space(3.0, 5)
        rng = np.random.default_rng(1)
        f = Element(coords=rng.standard_normal(5), space=s)
        pf = perturbed_functional(s, f, 0.0, seed=3)
        assert pf.achieved_delta == 0.0
        assert apply_functional(pf.functional, f) == pytest.approx(
            norm(s, f), rel=1e-10)

    @pytest.mark.parametrize("p", [1.5, 2.0, 4.0])
    def test_admissibility_random_trials(self, p):
        s = lp_space(p, 6)
        rng = np.random.default_rng(2)
        for i in range(300):
            f = Element(coords=rng.standard_normal(6), space=s)
            delta = float(rng.uniform(0, 1))
            pf = perturbed_functional(s, f, delta, seed=i)
            assert dual_norm(p, pf.functional.coords) <= 1.0 + 1e-12
            assert pf.achieved_delta <= delta + 1e-12
            assert apply_functional(pf.functional, f) >= \
                (1.0 - delta) * norm(s, f) - 1e-10

    def test_vacuous_budget_still_valid(self):
        s = lp_space(2.0, 4)
        f = Element(coords=np.array([1.0, 2.0, 0.0, 0.0]), space=s)
        pf = perturbed_functional(s, f, 1.0, seed=5)
        assert dual_norm(2.0, pf.functional.coords) <= 1.0 + 1e-12
        assert apply_functional(pf.functional, f) >= -1e-12

    def test_adversarial_budget_is_used(self):
        # with a positive budget the construction should actually move away
        # from the exact functional for most seeds
        s = lp_space(2.0, 6)
        rng = np.random.default_rng(3)
        f = Element(coords=rng.standard_normal(6), space=s)
        achieved = [perturbed_functional(s, f, 0.2, seed=i).achieved_delta
                    for i in range(20)]
        assert np.median(achieved) > 0.05

    def test_zero_input_rejected(self):
        s = lp_space(2.0, 3)
        with pytest.raises(ValueError, match="zero"):
            perturbed_functional(s, Element(coords=np.zeros(3), space=s), 0.1)


class TestRelaxedMinimize:
    def test_zero_eta_exact(self):
        x, v = relaxed_minimize(lambda t: (t - 2.0) ** 2 + 1.0, 0.0,
                                lambda: (2.0, 1.0), seed=1)
        assert x == 2.0 and v == 1.0

    def test_budget_respected_on_quadratic(self):
        rng = np.random.default_rng(4)
        for i in range(300):
            c = rng.uniform(-3, 3, size=2)

            def obj(x):
                return float(np.sum((np.asarray(x) - c) ** 2)) + 0.5

            eta = float(rng.uniform(0, 1))
            _, v = relaxed_minimize(obj, eta, lambda: (c.copy(), 0.5), seed=i)
            assert 0.5 <= v <= 0.5 * (1.0 + eta) + 1e-12

    def test_zero_minimum_collapses_budget(self):
        x, v = relaxed_minimize(lambda t: abs(t), 0.5, lambda: (0.0, 0.0), seed=2)
        assert x == 0.0 and v == 0.0

    def test_projection_respected(self):
        def obj(t):
            return (t + 1.0) ** 2 + 1.0

        x, v = relaxed_minimize(obj, 0.4, lambda: (0.0, obj(0.0)), seed=3,
                                project=lambda t: max(0.0, t))
        assert x >= 0.0
        assert v <= obj(0.0) * 1.4 + 1e-12


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
                                      ("arwrga", "rwrga")])
    def test_zero_schedules_reproduce_exact_runs(self, pair):
        approx_id, exact_id = pair
        s, D, t = self.setup_env()
        rep_a = run_awbga(approx_id, t.f, D, T1, ZERO_ERRORS, max_m=12, target=t)
        rep_e = run_greedy(exact_id, t.f, D, T1, max_m=12, target=t)
        n = min(len(rep_a.records), len(rep_e.records))
        for ra, re in zip(rep_a.records[:n], rep_e.records[:n]):
            assert ra.residual_norm == pytest.approx(re.residual_norm, abs=1e-6)

    @pytest.mark.parametrize("algo", ["awcga", "awgafr", "arwrga"])
    def test_bo_defect_within_derived_slack(self, algo):
        s, D, t = self.setup_env(p=3.0, n=8, N=32)
        errs = power_schedule(c=0.2, a=0.7, seed=11)
        rep = run_awbga(algo, t.f, D, T1, errs, max_m=20, target=t)
        for r in rep.records:
            assert r.bo_abs <= r.eps_m + 1e-6
            assert r.delta_achieved <= r.delta_m + 1e-12

    @pytest.mark.parametrize("algo", ["awcga", "awgafr", "arwrga"])
    def test_error_reduction_slack_respected(self, algo):
        s, D, t = self.setup_env(p=2.0, n=8, N=32, dseed=5, tseed=6)
        errs = power_schedule(c=0.3, a=0.8, seed=4)
        rep = run_awbga(algo, t.f, D, T1, errs, max_m=15, target=t)
        for r in rep.records:
            assert r.residual_norm <= (1.0 + r.eta_m) * r.er_reference + 1e-6

    def test_decaying_errors_converge(self):
        s, D, t = self.setup_env(n=8, N=48, k=4, dseed=7, tseed=8)
        errs = power_schedule(seed=13)
        rep = run_awbga("arwrga", t.f, D, T1, errs, max_m=400, stop_tol=5e-4,
                        target=t)
        assert min(r.residual_norm for r in rep.records) < 1e-3

    def test_auto_thresholds_run(self):
        s, D, t = self.setup_env(n=8, N=32)
        errs = ErrorSchedule(delta=SequenceSpec(kind="prop72auto"),
                             eta=SequenceSpec(kind="prop72auto"), seed=3)
        rep = run_awbga("awgafr", t.f, D, T1, errs, max_m=25, target=t)
        pc = s.p_conj
        cap = 64.0 ** (-pc) * s.gamma ** (1.0 - pc)
        prev = rep.initial_residual
        for r in rep.records:
            assert r.delta_m <= cap * r.residual_norm ** pc + 1e-15
            assert r.eta_m <= cap * (0.5 * prev) ** pc + 1e-15
            prev = r.residual_norm

    def test_explicit_eps_list_mode(self):
        s, D, t = self.setup_env(n=8, N=32)
        errs = ErrorSchedule(delta=SequenceSpec(kind="const", c=0.05),
                             eta=SequenceSpec(kind="const", c=0.05),
                             eps_mode="list", eps_values=(0.5, 0.25), seed=2)
        rep = run_awbga("awcga", t.f, D, T1, errs, max_m=4, target=t)
        assert rep.records[0].eps_m == 0.5
        assert all(r.eps_m == 0.25 for r in rep.records[1:])

    def test_unknown_algorithm(self):
        s, D, t = self.setup_env()
        with pytest.raises(ValueError, match="unknown approximate"):
            run_awbga("wcga", t.f, D, T1, ZERO_ERRORS)

    def test_schedule_round_trip(self):
        errs = power_schedule(seed=21)
        assert ErrorSchedule.from_dict(errs.as_dict()) == errs


class TestTwoDirectionCycle:
    def test_cycle_stop_matches_all_rounds_bit_for_bit(self, monkeypatch):
        # on this input the alternation of awgafr's steps from m = 55 on
        # misses the 1e-10 pairing target and cycles through repeating
        # states; stopping at the repeat must not change any result
        def all_rounds(p, f, G, phi):
            a, b, r = 1.0, 0.0, f - G
            for n_rounds in range(1, algorithms._TWO_DIR_ROUNDS + 1):
                a, b, r = algorithms._two_dir_round(p, G, phi, a, b, r)
                rn = pnorm(p, r)
                if rn <= 1e-13:
                    break
                Fc = functional_coords(p, r, rn)
                if abs(a * float(Fc @ G)) + abs(b * float(Fc @ phi)) <= 1e-10:
                    break
            return (1.0 - a, b, pnorm(p, r)), n_rounds

        capped = []
        solve = perturbation._two_dir_solve

        def checked(space, f, G, phi):
            out = solve(space, f, G, phi)
            ref, n_rounds = all_rounds(space.p, f, G, phi)
            assert np.array(out).tobytes() == np.array(ref).tobytes()
            capped.append(n_rounds == algorithms._TWO_DIR_ROUNDS)
            return out

        monkeypatch.setattr(perturbation, "_two_dir_solve", checked)
        s = lp_space(1.5, 32)
        D = build_dictionary(s, "random_gauss", 128, seed=890651)
        t = make_target(D, TargetSpec(mode="a1_sparse", k=8, seed=385081))
        errs = ErrorSchedule(delta=SequenceSpec(kind="prop72auto"),
                             eta=SequenceSpec(kind="prop72auto"))
        run_awbga("awgafr", t.f, D, T1, errs, max_m=58, target=t)
        assert sum(capped) >= 2
