import numpy as np
import pytest

from lpgreedy import (Element, TargetSpec, WeaknessSchedule,
                      audit_conditions, bracket_minimum, build_dictionary,
                      chebyshev_project, line_search, lp_space, make_target,
                      minimize_2d, norming_functional, run_greedy)
from lpgreedy import solvers
from lpgreedy.solvers import (_WEIGHT_FLOOR, _lstsq, _psi_scaled,
                              dense_line_min, min_along_ray)
from lpgreedy.space import pnorm, pnorm_rows


class TestLineSearch:
    def test_quadratic_vertex(self):
        arg, val = line_search(lambda t: (t - 1.0) ** 2 + 2.0, 0.0, 4.0)
        assert arg == pytest.approx(1.0, abs=1e-6)
        assert val == pytest.approx(2.0, abs=1e-10)

    def test_hilbert_projection(self):
        f = np.array([1.0, 1.0])
        g = np.array([1.0, 0.0])
        arg, val = line_search(lambda t: float(np.linalg.norm(f - t * g)), 0.0, 4.0)
        assert arg == pytest.approx(1.0, abs=1e-6)
        assert val == pytest.approx(1.0, abs=1e-8)

    def test_monotone_returns_boundary(self):
        arg, val = line_search(lambda t: t + 1.0, 0.0, 4.0)
        assert arg == pytest.approx(0.0, abs=1e-6)
        assert val <= 1.0 + 1e-12

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            line_search(lambda t: t, 1.0, 0.0)

    def test_matches_dense_grid_on_residual_objectives(self):
        # value within 1e-8 of a 1e6-point grid scan on random lp residuals
        rng = np.random.default_rng(12)
        lams = np.linspace(0.0, 4.0, 1_000_001)
        for trial in range(100):
            p = float(rng.choice([1.5, 2.0, 3.0]))
            f = rng.standard_normal(4)
            g = rng.standard_normal(4)
            g /= pnorm(p, g)
            vals = np.sum(np.abs(f[None, :] - lams[:, None] * g[None, :]) ** p,
                          axis=1) ** (1.0 / p)
            grid_min = float(np.min(vals))
            _, val = line_search(lambda t: pnorm(p, f - t * g), 0.0, 4.0)
            assert abs(val - grid_min) <= 1e-8


class TestBracket:
    def test_contains_quadratic_minimum(self):
        lo, hi = bracket_minimum(lambda t: (t - 3.0) ** 2, 0.0)
        assert lo <= 3.0 <= hi

    def test_norm_objectives_bracket(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            p = float(rng.choice([1.5, 2.0, 4.0]))
            f = rng.standard_normal(6) * rng.uniform(0.5, 10.0)
            g = rng.standard_normal(6)
            g /= pnorm(p, g)
            lo, hi = bracket_minimum(lambda t: pnorm(p, f - t * g), 0.0)
            best = min_along_ray(p, f, g, nonneg=True)
            assert lo <= best <= hi

    def test_flat_tail_still_brackets(self):
        lo, hi = bracket_minimum(lambda t: max(1.0 - t, 0.0), 0.0)
        assert hi >= 1.0

    def test_two_sided_brackets_negative_minimizer(self):
        lo, hi = bracket_minimum(lambda t: (t + 5.0) ** 2, 1.0, two_sided=True)
        assert lo <= -5.0 <= hi

    def test_unbounded_objective_fails(self):
        with pytest.raises(RuntimeError, match="no bracket"):
            bracket_minimum(lambda t: -t, 0.0)


class TestMinimize2d:
    def test_separable_quadratic(self):
        (w, lam), val = minimize_2d(lambda a, b: (a - 2.0) ** 2 + (b - 1.0) ** 2)
        assert w == pytest.approx(2.0, abs=1e-5)
        assert lam == pytest.approx(1.0, abs=1e-5)
        assert val == pytest.approx(0.0, abs=1e-8)

    def test_reduces_to_line_search_when_one_direction_vanishes(self):
        # free-relaxation objective with a zero previous approximant
        p = 2.0
        f = np.array([1.0, 2.0, 0.5])
        phi = np.array([1.0, 0.0, 0.0])
        G = np.zeros(3)

        def obj(w, lam):
            return pnorm(p, f - ((1.0 - w) * G + lam * phi))

        (_, lam), val = minimize_2d(obj)
        lo, hi = bracket_minimum(lambda t: pnorm(p, f - t * phi), 0.0)
        lam_ref, val_ref = line_search(lambda t: pnorm(p, f - t * phi), lo, hi)
        assert val == pytest.approx(val_ref, abs=1e-6)
        assert lam == pytest.approx(lam_ref, abs=1e-5)

    def test_matches_normal_equations(self):
        rng = np.random.default_rng(8)
        f = rng.standard_normal(6)
        G = rng.standard_normal(6)
        phi = rng.standard_normal(6)
        phi /= np.linalg.norm(phi)

        def obj(w, lam):
            return float(np.linalg.norm(f - ((1.0 - w) * G + lam * phi)))

        (w, lam), val = minimize_2d(obj)
        A = np.column_stack([G, phi])
        coef, *_ = np.linalg.lstsq(A, f, rcond=None)
        ref = float(np.linalg.norm(f - A @ coef))
        # lam may be clamped at 0; only compare when the constraint is slack
        if coef[1] >= 0:
            assert val == pytest.approx(ref, abs=1e-6)

    def test_never_beats_value_at_origin(self):
        (w, lam), val = minimize_2d(lambda a, b: 1.0 + abs(a) + abs(b))
        assert val <= 1.0 + 1e-12

    def test_lambda_constrained_nonnegative(self):
        (_, lam), _ = minimize_2d(lambda a, b: (a - 1.0) ** 2 + (b + 2.0) ** 2)
        assert lam >= 0.0

    def test_beats_both_coordinate_restrictions(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            f = rng.standard_normal(5)
            G = rng.standard_normal(5)
            phi = rng.standard_normal(5)
            phi /= np.linalg.norm(phi)

            def obj(w, lam):
                return float(np.linalg.norm(f - ((1.0 - w) * G + lam * phi)))

            (w, lam), val = minimize_2d(obj)
            blo, bhi = bracket_minimum(lambda x: obj(x, lam), w, two_sided=True)
            _, vw = line_search(lambda x: obj(x, lam), blo, bhi)
            blo, bhi = bracket_minimum(lambda x: obj(w, x), lam, two_sided=True)
            _, vl = line_search(lambda x: obj(w, x), max(0.0, blo), bhi)
            assert val <= vw + 1e-8
            assert val <= vl + 1e-8


class TestMinAlongRay:
    def test_hilbert_closed_form(self):
        rng = np.random.default_rng(1)
        r = rng.standard_normal(5)
        v = rng.standard_normal(5)
        a = min_along_ray(2.0, r, v)
        assert a == pytest.approx(float(np.dot(r, v) / np.dot(v, v)), rel=1e-12)

    @pytest.mark.parametrize("p", [1.5, 3.0, 4.0])
    def test_matches_golden_section(self, p):
        rng = np.random.default_rng(2)
        for _ in range(20):
            r = rng.standard_normal(5)
            v = rng.standard_normal(5)
            a = min_along_ray(p, r, v)
            lo, hi = a - 1.0, a + 1.0
            arg, _ = line_search(lambda t: pnorm(p, r - t * v), lo, hi,
                                 tol=1e-10)
            assert a == pytest.approx(arg, abs=1e-6)

    def test_nonnegative_clamp(self):
        r = np.array([1.0, 0.0])
        v = np.array([-1.0, 0.0])
        assert min_along_ray(2.0, r, v, nonneg=True) == 0.0

    @staticmethod
    def _bisection_reference(p, r0, v):
        """Root of psi by plain bisection down to adjacent floats; psi is
        formed over max|r|, which keeps its sign and its powers finite."""
        def psi(a):
            r = r0 - a * v
            top = float(np.max(np.abs(r)))
            if top == 0.0:
                return 0.0
            u = r / top
            return -float(np.dot(np.sign(u) * np.abs(u) ** (p - 1.0), v))

        lo, hi = -1.0, 1.0
        while psi(lo) > 0.0:
            lo *= 2.0
        while psi(hi) < 0.0:
            hi *= 2.0
        while True:
            mid = 0.5 * (lo + hi)
            if not lo < mid < hi:
                return mid
            if psi(mid) < 0.0:
                lo = mid
            else:
                hi = mid

    @pytest.mark.parametrize("p", [1.05, 1.1, 1.2, 1.5, 3.0, 4.0, 8.0, 32.0])
    def test_matches_bisection_reference(self, p):
        # two draws in three put 5 residual coordinates through zero at one
        # point: at the bracket end a = 0, or at a random a near the optimum
        # (for p near 1 the optimum sits close to such a crossing).  There
        # psi' blows up, and stopping on a tiny Newton step returns a point
        # up to 0.6 away from the minimizer.
        rng = np.random.default_rng(7)
        for trial in range(60):
            v = rng.standard_normal(16)
            r0 = rng.standard_normal(16)
            if trial % 3:
                c = 0.0 if trial % 3 == 1 else rng.uniform(-2.0, 2.0)
                idx = rng.choice(16, 5, replace=False)
                r0[idx] = c * v[idx]
            a = min_along_ray(p, r0, v)
            ref = self._bisection_reference(p, r0, v)
            assert abs(a - ref) <= 1e-14 * max(1.0, abs(ref))

    @pytest.mark.parametrize("p", [1.05, 1.5, 3.0, 32.0, 800.0])
    @pytest.mark.parametrize("kind", ["parallel", "stationary", "generic"])
    @pytest.mark.parametrize("size", [1e-8, 1.0, 1e8])
    def test_root_inside_the_a_priori_bracket(self, p, kind, size):
        # the minimiser a* obeys ||a* v|| <= ||r0 - a* v|| + ||r0|| <= 2 ||r0||
        # so it lies within 2 scale = 2 ||r0|| / ||v|| of 0, on the side
        # where psi(0) < 0; the rays are v parallel to r0 (a* = 1/c), v with
        # psi(0) = 0 (a* = 0) and random v, at ||v|| from 1e-8 to 1e8
        rng = np.random.default_rng(21)
        for _ in range(4):
            r0 = rng.standard_normal(12)
            v = rng.standard_normal(12)
            u = r0 / np.max(np.abs(r0))
            J = np.sign(u) * np.abs(u) ** (p - 1.0)  # psi(0) ~ -J . v
            if kind == "parallel":
                v = rng.uniform(0.5, 2.0) * r0
            elif kind == "stationary":
                v -= (J @ v) / (J @ J) * J
            v *= size / pnorm(p, v)
            a = min_along_ray(p, r0, v)
            ref = self._bisection_reference(p, r0, v)
            # psi's rounding puts the root of a stationary ray anywhere
            # within about 1e-16 scale of 0, whatever the solver
            scale = pnorm(p, r0) / pnorm(p, v)
            assert abs(a - ref) <= 1e-14 * max(1.0, scale)
            assert abs(a) <= 2.0 * scale
            if kind != "stationary":  # there a* = 0 up to rounding
                assert a * (J @ v) > 0.0

    @staticmethod
    def _count_evaluations(monkeypatch):
        """Count psi evaluations: each takes one np.abs in ``solvers``
        (``_psi_scaled``, which takes another, is not reached at p <= 4
        on these rays)."""
        calls = [0]

        class CountingNumpy:
            def __getattr__(self, name):
                return getattr(np, name)

            def abs(self, x):
                calls[0] += 1
                return np.abs(x)

        monkeypatch.setattr(solvers, "np", CountingNumpy())
        return calls

    @staticmethod
    def _scan_rays(p):
        """The norm scan's rays: 5 targets against 128 unit atoms."""
        D = build_dictionary(lp_space(p, 32), "random_gauss", 128, seed=5)
        rng = np.random.default_rng(3)
        return [rng.standard_normal(32) for _ in range(5)], D.matrix

    def test_one_sided_newton_lands_on_the_root(self, monkeypatch):
        # Newton reaches 1.2811365002218744 from above, and a push of half
        # the tolerance does not cross the root; bisecting the bracket from
        # its far end would take about 50 more evaluations
        fs, atoms = self._scan_rays(3.0)
        calls = self._count_evaluations(monkeypatch)
        a = min_along_ray(3.0, fs[1], atoms[26])
        assert calls[0] <= 12
        ref = self._bisection_reference(3.0, fs[1], atoms[26])
        assert abs(a - ref) <= 1e-14 * max(1.0, abs(ref))

    @pytest.mark.parametrize("p", [1.5, 2.5, 3.0, 4.0])
    def test_scan_rays_close_within_25_evaluations(self, p, monkeypatch):
        fs, atoms = self._scan_rays(p)
        calls = self._count_evaluations(monkeypatch)
        worst = 0
        for f in fs:
            for g in atoms:
                before = calls[0]
                min_along_ray(p, f, g)
                worst = max(worst, calls[0] - before)
        assert 3 <= worst <= 25

    @pytest.mark.parametrize("p", [1.2, 1.5, 3.0, 4.0, 8.0, 32.0, 200.0])
    def test_reversed_ray_is_the_mirror_image(self, p):
        # psi(0) >= 0 is solved as the ray along -v: reversing v negates
        # the answer bit for bit, whichever sign psi(0) has; the scales
        # reach the scaled psi at large p
        rng = np.random.default_rng(14)
        signs = set()
        for _ in range(40):
            r0 = rng.standard_normal(12) * 10.0 ** rng.uniform(-2.0, 1.0)
            v = rng.standard_normal(12)
            a = np.abs(r0) / np.max(np.abs(r0))
            signs.add(float(np.dot(np.sign(r0) * a ** (p - 1.0), v)) > 0.0)
            assert min_along_ray(p, r0, -v) == -min_along_ray(p, r0, v)
        assert signs == {False, True}

    @pytest.mark.parametrize("top", [0.05, 0.39, 3.0])
    def test_p_800_matches_dense_grid(self, top):
        # with max|r| = 0.39 every plain |r|^799 is below 1e-326 and psi
        # reads 0; with max|r| = 3 the plain powers overflow
        p = 800.0
        rng = np.random.default_rng(11)
        for _ in range(10):
            r0 = rng.standard_normal(16)
            r0 *= top / np.max(np.abs(r0))
            v = rng.standard_normal(16)
            v /= pnorm(p, v)
            a = min_along_ray(p, r0, v)
            r = pnorm(p, r0)
            _, best = dense_line_min(lambda ls: pnorm_rows(
                p, r0[None, :] - ls[:, None] * v[None, :]), -2.0 * r, 2.0 * r)
            assert pnorm(p, r0 - a * v) <= best * (1.0 + 1e-12)

    @pytest.mark.parametrize("p", [1.5, 3.0, 8.0])
    def test_scaled_psi_keeps_signs_and_newton_ratio(self, p):
        rng = np.random.default_rng(12)
        R, V = rng.standard_normal((5, 9)), rng.standard_normal((5, 9))
        W = np.abs(R) ** (p - 2.0)
        psi = -np.einsum("ij,ij->i", R * W, V)
        dpsi = (p - 1.0) * np.einsum("ij,ij->i", W, V * V)
        f, d = _psi_scaled(p, R, V)
        assert np.array_equal(np.sign(f), np.sign(psi))
        assert np.allclose(f / d, psi / dpsi, rtol=1e-12, atol=0.0)
        assert np.array_equal(_psi_scaled(p, np.zeros((1, 9)), V[:1])[0], [0.0])

    def test_gg_run_below_two_passes_audit(self):
        # the rescale solves of this run pass near zero residual coordinates
        s = lp_space(1.5, 32)
        D = build_dictionary(s, "random_gauss", 128, seed=31)
        t = make_target(D, TargetSpec(mode="a1_sparse", k=8, seed=32))
        rep = run_greedy("gg", t.f, D, WeaknessSchedule(), max_m=100, target=t)
        audit = audit_conditions(rep)
        assert audit.passed
        assert audit.check("biorthogonality").worst_margin >= -1e-12


class TestChebyshevProject:
    def test_hilbert_single_axis(self):
        s = lp_space(2.0, 2)
        f = np.array([0.6, 0.4])
        e1 = np.array([1.0, 0.0])
        res = chebyshev_project(s, f, e1[None, :])
        assert res.coeffs[0] == pytest.approx(0.6, abs=1e-10)
        assert np.allclose(res.residual, [0.0, 0.4], atol=1e-10)
        assert res.converged

    def test_exact_representation(self):
        s = lp_space(2.0, 3)
        f = np.array([0.6, 0.4, 0.0])
        basis = np.eye(3)[[0, 1]]
        res = chebyshev_project(s, f, basis)
        assert pnorm(2.0, res.residual) <= 1e-12

    def test_empty_basis_rejected(self):
        s = lp_space(2.0, 2)
        f = np.array([1.0, 0.0])
        with pytest.raises(ValueError):
            chebyshev_project(s, f, np.empty((0, 2)))

    @pytest.mark.parametrize("f,basis", [
        (np.ones(2), np.ones((2, 3))),           # rows of the wrong length
        (np.ones(3), np.ones((1, 2))),           # f of the wrong length
        (np.ones(2), np.ones(2)),                # an atom that is not a row
        (np.array([1.0, np.nan]), np.ones((1, 2))),
        (np.ones(2), np.array([[1.0, np.inf]])),
    ])
    def test_malformed_input_rejected(self, f, basis):
        with pytest.raises(ValueError):
            chebyshev_project(lp_space(2.0, 2), f, basis)

    def test_basis_layout_does_not_change_the_result(self):
        rng = np.random.default_rng(8)
        s = lp_space(3.0, 12)
        A = rng.standard_normal((12, 5))
        f = rng.standard_normal(12)
        rows = chebyshev_project(s, f, np.ascontiguousarray(A.T))
        cols = chebyshev_project(s, f, A.T)  # a Fortran-ordered view
        assert np.array_equal(rows.coeffs, cols.coeffs)
        assert np.array_equal(rows.residual, cols.residual)

    @pytest.mark.parametrize("k", [5, 20, 50])
    def test_matches_normal_equations_up_to_size_50(self, k):
        rng = np.random.default_rng(k)
        s = lp_space(2.0, 64)
        A = rng.standard_normal((64, k))
        A /= np.linalg.norm(A, axis=0)
        f = rng.standard_normal(64)
        res = chebyshev_project(s, f, A.T)
        coef, *_ = np.linalg.lstsq(A, f, rcond=None)
        assert np.allclose(res.coeffs, coef, atol=1e-8)
        ref = float(np.linalg.norm(f - A @ coef))
        assert pnorm(2.0, res.residual) == pytest.approx(ref, abs=1e-8)

    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_residual_biorthogonal_to_basis(self, p):
        rng = np.random.default_rng(3)
        s = lp_space(p, 12)
        A = rng.standard_normal((12, 6))
        basis = np.array([A[:, j] / pnorm(p, A[:, j]) for j in range(6)])
        f = rng.standard_normal(12)
        res = chebyshev_project(s, f, basis)
        assert res.converged
        F = norming_functional(s, Element(coords=res.residual, space=s))
        for b in basis:
            assert abs(float(np.dot(F, b))) <= solvers.GRAD_TOL * 1.01

    def test_rank_deficient_basis_converges_in_value(self):
        s = lp_space(2.0, 4)
        v = np.array([1.0, 1.0, 0.0, 0.0]) / np.sqrt(2)
        basis = np.array([v] * 3)  # duplicated atom
        f = np.array([1.0, 0.0, 0.0, 0.0])
        res = chebyshev_project(s, f, basis)
        ref = float(np.linalg.norm(f - np.dot(f, v) * v))
        assert pnorm(2.0, res.residual) == pytest.approx(ref, abs=1e-9)

    @staticmethod
    def _random_problem(p, n, m, seed):
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((n, m))
        f = rng.standard_normal(n)
        s = lp_space(p, n)
        return s, A, f, A.T

    def test_hilbert_full_span_reaches_zero_residual(self):
        s, _, f, basis = self._random_problem(2.0, 64, 64, 0)
        res = chebyshev_project(s, f, basis)
        assert res.converged
        assert pnorm(2.0, res.residual) <= 1e-12 * np.linalg.norm(f)

    @pytest.mark.parametrize("p,n,m,seed", [(4.0, 64, 63, 1), (32.0, 32, 28, 0)])
    def test_nearly_full_span_converges_quickly(self, p, n, m, seed):
        s, A, f, basis = self._random_problem(p, n, m, seed)
        res = chebyshev_project(s, f, basis)
        assert res.converged
        assert res.iterations <= 50
        F = norming_functional(s, Element(coords=res.residual, space=s))
        assert float(np.max(np.abs(F @ A))) <= solvers.GRAD_TOL

    def test_wcga_run_below_two_never_caps(self):
        # at p = 1.5 some optimal residuals of this run have a coordinate
        # near 1e-9 max|r|; a weight floor of 1e-8 caps the m=51 projection
        s = lp_space(1.5, 64)
        D = build_dictionary(s, "random_gauss", 256, seed=890651)
        t = make_target(D, TargetSpec(mode="a1_sparse", k=16, seed=887791))
        rep = run_greedy("wcga", t.f, D, WeaknessSchedule(t0=0.5), max_m=51,
                         rule="threshold_first", target=t)
        assert len(rep.records) == 51
        assert not any("not converged" in w for w in rep.warnings)


class TestProjectionLstsq:
    """The projection's QR least-squares helper and its lstsq fallback."""

    @staticmethod
    def _count_lstsq(monkeypatch):
        calls = []
        lstsq = np.linalg.lstsq

        def counted(A, b, rcond=None):
            calls.append(A.shape)
            return lstsq(A, b, rcond=rcond)

        monkeypatch.setattr(np.linalg, "lstsq", counted)
        return calls

    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_repeated_atom_falls_back_to_lstsq(self, p, monkeypatch):
        rng = np.random.default_rng(5)
        s = lp_space(p, 12)
        A = rng.standard_normal((12, 4))
        basis = A.T[[0, 1, 2, 1, 3]]
        f = rng.standard_normal(12)
        calls = self._count_lstsq(monkeypatch)
        res = chebyshev_project(s, f, basis)
        assert calls  # the duplicated column leaves R with a tiny diagonal
        monkeypatch.setattr(solvers, "_lstsq",
                            lambda A, b: np.linalg.lstsq(A, b, rcond=None)[0])
        ref = chebyshev_project(s, f, basis)
        assert res.converged and ref.converged
        assert pnorm(p, res.residual) == pytest.approx(
            pnorm(p, ref.residual), rel=1e-12)

    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_wide_basis(self, p, monkeypatch):
        rng = np.random.default_rng(6)
        s = lp_space(p, 5)
        basis = np.array([rng.standard_normal(5) for _ in range(8)])
        f = rng.standard_normal(5)
        calls = self._count_lstsq(monkeypatch)
        res = chebyshev_project(s, f, basis)
        assert calls == [(5, 8)]
        assert res.converged
        assert pnorm(p, res.residual) <= 1e-12

    @pytest.mark.parametrize("p", [1.2, 1.5, 3.0, 4.0])
    @pytest.mark.parametrize("m", [1, 8, 32, 64])
    def test_matches_lstsq_on_weighted_systems(self, p, m):
        rng = np.random.default_rng(int(10 * p) + m)
        for _ in range(10):
            Phi = rng.standard_normal((64, m))
            r = rng.standard_normal(64)
            a = np.abs(r) / np.max(np.abs(r))
            if p < 2.0:
                a = np.maximum(a, _WEIGHT_FLOOR)
            sw = a ** ((p - 2.0) / 2.0)
            A, b = sw[:, None] * Phi, sw * r
            x = _lstsq(A, b)
            ref = np.linalg.lstsq(A, b, rcond=None)[0]
            # the coefficients are fixed only to about cond(A) * eps, which
            # exceeds 1e-12 on some square systems (m = 64)
            tol = max(1e-12, 1e-13 * np.linalg.cond(A))
            assert np.linalg.norm(x - ref) <= tol * np.linalg.norm(ref)

    # selected indices of wcga, t = 0.5, threshold_first, on lp^64,
    # random_gauss N=256 seed 61, a1 k=16 seed 62, up to the full span;
    # captured from the all-lstsq projection
    PINNED = {
        1.5: [-1, -42, -11, 33, -20, 45, -56, -57, -87, 25, 48, -28, 7, -14,
              21, -41, 59, -17, 34, 30, 49, -2, -81, 3, -53, 54, 13, -32, 65,
              -67, -6, 31, 66, 38, 4, -10, -5, -9, 23, 61, 64, -8, 39, -60,
              40, 24, -36, -35, -15, -69, -55, 74, 37, 29, 79, 27, 16, 75,
              -22, -19, 26, -46, -43, 78],
        3.0: [-43, -42, 44, 33, -1, 34, 9, -20, -57, 74, -10, 59, -56, -17,
              -67, -98, -72, -88, 55, 31, -89, 75, -62, 7, 25, 48, -2, 64,
              -18, 65, 99, -32, -69, -50, 54, 73, -35, 38, 26, 21, 29, -39,
              -41, -15, 36, 5, 40, -8, 3, 13, -27, 58, 53, -79, -61, 81, 6,
              4, 19, 63, -23, -11, -12, 16],
    }

    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_wcga_selections_pinned(self, p):
        s = lp_space(p, 64)
        D = build_dictionary(s, "random_gauss", 256, seed=61)
        t = make_target(D, TargetSpec(mode="a1_sparse", k=16, seed=62))
        rep = run_greedy("wcga", t.f, D, WeaknessSchedule(t0=0.5), max_m=64,
                         rule="threshold_first", target=t)
        assert [r.selected_index for r in rep.records] == self.PINNED[p]
        assert not rep.warnings


class TestDenseLineMin:
    def test_agrees_with_line_search(self):
        rng = np.random.default_rng(4)
        f = rng.standard_normal(6)
        g = rng.standard_normal(6)
        g /= np.linalg.norm(g)

        def vec(ls):
            return np.linalg.norm(f[None, :] - ls[:, None] * g[None, :], axis=1)

        _, v1 = dense_line_min(vec, 0.0, 4.0)
        lo, hi = bracket_minimum(lambda t: float(np.linalg.norm(f - t * g)), 0.0)
        _, v2 = line_search(lambda t: float(np.linalg.norm(f - t * g)), lo, hi)
        assert v1 == pytest.approx(v2, abs=1e-9)

    @staticmethod
    def _ray(p, f, phi):
        def vec(ls):
            assert ls.shape == (33,)  # whole grids only, never a scalar
            return np.sum(np.abs(f[None, :] - ls[:, None] * phi[None, :]) ** p,
                          axis=1) ** (1.0 / p)
        return vec

    @pytest.mark.parametrize("p", [1.05, 1.5, 3.0, 8.0, 32.0])
    def test_interior_minimiser_matches_ray_solve(self, p):
        rng = np.random.default_rng(11)
        for _ in range(20):
            f = rng.standard_normal(16)
            phi = rng.standard_normal(16)
            phi /= pnorm(p, phi)
            lam_ref = min_along_ray(p, f, phi, nonneg=True)
            if lam_ref == 0.0:
                phi = -phi
                lam_ref = min_along_ray(p, f, phi, nonneg=True)
            r = pnorm(p, f)
            assert 0.0 < lam_ref < 2.0 * r
            v_ref = pnorm(p, f - lam_ref * phi)
            lam, v = dense_line_min(self._ray(p, f, phi), 0.0, 2.0 * r)
            assert abs(lam - lam_ref) <= 1e-6 * max(1.0, lam_ref)
            # the best point lies within the argument tolerance of the
            # minimiser, and the objective is 1-Lipschitz for a unit atom
            assert v_ref * (1.0 - 1e-14) <= v <= v_ref + 1e-8 * max(1.0, 2.0 * r)
            if p >= 1.5:  # smooth near the minimiser: the error is quadratic
                assert v <= v_ref * (1.0 + 1e-13)

    @pytest.mark.parametrize("p", [1.05, 1.5, 3.0, 8.0, 32.0])
    def test_ascent_atom_minimiser_at_zero(self, p):
        rng = np.random.default_rng(12)
        for _ in range(20):
            f = rng.standard_normal(16)
            phi = rng.standard_normal(16)
            phi /= pnorm(p, phi)
            if min_along_ray(p, f, phi, nonneg=True) > 0.0:
                phi = -phi
            assert min_along_ray(p, f, phi, nonneg=True) == 0.0
            r = pnorm(p, f)
            lam, v = dense_line_min(self._ray(p, f, phi), 0.0, 2.0 * r)
            assert lam == 0.0
            assert v == pytest.approx(r, rel=1e-15)

    def test_constant_objective_returns_left_end(self):
        calls = []

        def flat(ls):
            calls.append(ls.size)
            return np.full(ls.size, 3.0)

        assert dense_line_min(flat, 1.0, 5.0) == (1.0, 3.0)
        assert len(calls) <= 10

    def test_stops_at_float_spacing(self):
        # near 1e10 adjacent floats are 2e-6 apart, wider than the 1e-8
        # tolerance, so the bracket stops narrowing before it gets there
        lam, v = dense_line_min(lambda ls: (ls - 1e10 - 0.3) ** 2,
                                1e10, 1e10 + 1.0)
        assert abs(lam - 1e10 - 0.3) <= 1e-5

    def test_rejects_reversed_interval(self):
        with pytest.raises(ValueError):
            dense_line_min(lambda ls: ls, 1.0, 0.0)
        with pytest.raises(ValueError):
            dense_line_min(lambda xs, rows: xs, np.zeros(2), np.array([1.0, -1.0]))

    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_batch_rows_match_single_problems(self, p):
        # each row keeps its own bracket and stop test, so a batch answers
        # every problem bitwise as a call on that problem alone does
        rng = np.random.default_rng(13)
        f = rng.standard_normal((9, 16))
        phi = rng.standard_normal((9, 16))
        lo = np.zeros(9)
        hi = 2.0 * np.array([pnorm(p, r) for r in f])
        hi[4] = 0.0  # a point interval
        lo[7], hi[7] = 1e10, 1e10 + 1.0  # stops at the float spacing
        passes = []

        def batch(xs, rows):
            passes.append(rows.copy())
            R = f[rows, None, :] - xs[:, :, None] * phi[rows, None, :]
            return pnorm_rows(p, R.reshape(-1, 16)).reshape(xs.shape)

        bx, bv = dense_line_min(batch, lo, hi)
        for j in range(9):
            x, v = dense_line_min(lambda ls: pnorm_rows(
                p, f[j][None, :] - ls[:, None] * phi[j][None, :]), lo[j], hi[j])
            assert (bx[j], bv[j]) == (x, v)
        # a finished row drops out of later passes
        assert len(passes[-1]) < 9 and 4 not in passes[1]
