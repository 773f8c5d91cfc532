import contextlib
import sys

import numpy as np
import pytest

from lpgreedy import (Element, TargetSpec, WeaknessSchedule,
                      audit_conditions, build_dictionary, chebyshev_project,
                      lp_space, make_target, norming_functional, run_greedy)
from lpgreedy import algorithms, solvers
from lpgreedy.solvers import (_WEIGHT_FLOOR, _direction, _factor, _psi_scaled,
                              dense_line_min, min_along_ray)
from lpgreedy.space import pnorm, pnorm_rows


class TestMinAlongRay:
    def test_hilbert_closed_form(self):
        rng = np.random.default_rng(1)
        r = rng.standard_normal(5)
        v = rng.standard_normal(5)
        a = min_along_ray(2.0, r, v)
        assert a == pytest.approx(float(np.dot(r, v) / np.dot(v, v)), rel=1e-12)

    @pytest.mark.parametrize("p", [1.5, 3.0, 4.0])
    def test_matches_dense_grid(self, p):
        # the oracle is dense_line_min's grid scan over |a| <= 2 ||r|| / ||v||,
        # a bound that does not depend on the answer under test
        rng = np.random.default_rng(2)
        for _ in range(20):
            r = rng.standard_normal(5)
            v = rng.standard_normal(5)
            a = min_along_ray(p, r, v)
            bound = 2.0 * pnorm(p, r) / pnorm(p, v)
            arg, _ = dense_line_min(
                lambda ts: pnorm_rows(p, r[None, :] - ts[:, None] * v[None, :]),
                -bound, bound, tol=1e-12)
            assert a == pytest.approx(arg, abs=1e-6)

    def test_nonnegative_clamp(self):
        r = np.array([1.0, 0.0])
        v = np.array([-1.0, 0.0])
        assert min_along_ray(2.0, r, v, nonneg=True) == 0.0

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.0])
    def test_matches_brute_force_grid_on_residual_objectives(self, p):
        # the value is within 1e-8 of a 1e6-point scan of the a-priori
        # bracket [0, 2 ||f|| / ||g||], and no grid point beats it
        rng = np.random.default_rng(12)
        for _ in range(10):
            f = rng.standard_normal(4)
            g = rng.standard_normal(4)
            g /= pnorm(p, g)
            lams = np.linspace(0.0, 2.0 * pnorm(p, f), 1_000_001)
            grid_min = float(np.min(pnorm_rows(
                p, f[None, :] - lams[:, None] * g[None, :])))
            val = pnorm(p, f - min_along_ray(p, f, g, nonneg=True) * g)
            assert grid_min - 1e-8 <= val <= grid_min * (1.0 + 1e-14)

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 8.0])
    def test_two_sided_finds_a_negative_minimiser(self, p):
        # ||-5 v - a v|| = |a + 5| ||v||; the one-sided solve clamps it to 0
        v = np.random.default_rng(3).standard_normal(6)
        assert min_along_ray(p, -5.0 * v, v) == pytest.approx(-5.0, rel=1e-12)
        assert min_along_ray(p, -5.0 * v, v, nonneg=True) == 0.0

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
    @contextlib.contextmanager
    def _count_evaluations():
        """Count psi evaluations: calls of the psi closure of
        ``_min_along_ray``, seen by a profile hook on its code object."""
        code = next(c for c in solvers._min_along_ray.__code__.co_consts
                    if getattr(c, "co_name", None) == "psi")
        calls = [0]

        def hook(frame, event, arg):
            if event == "call" and frame.f_code is code:
                calls[0] += 1

        old = sys.getprofile()
        sys.setprofile(hook)
        try:
            yield calls
        finally:
            sys.setprofile(old)

    @staticmethod
    def _scan_rays(p):
        """The norm scan's rays: 5 targets against 128 unit atoms."""
        D = build_dictionary(lp_space(p, 32), "random_gauss", 128, seed=5)
        rng = np.random.default_rng(3)
        return [rng.standard_normal(32) for _ in range(5)], D.matrix

    def test_one_sided_newton_lands_on_the_root(self):
        # Newton reaches 1.2811365002218744 from above, and a push of half
        # the tolerance does not cross the root; bisecting the bracket from
        # its far end would take about 50 more evaluations
        fs, atoms = self._scan_rays(3.0)
        with self._count_evaluations() as calls:
            a = min_along_ray(3.0, fs[1], atoms[26])
        assert calls[0] <= 12
        ref = self._bisection_reference(3.0, fs[1], atoms[26])
        assert abs(a - ref) <= 1e-14 * max(1.0, abs(ref))

    @pytest.mark.parametrize("p", [1.5, 2.5, 3.0, 4.0, 13.0])
    def test_scan_rays_close_within_25_evaluations(self, p):
        fs, atoms = self._scan_rays(p)
        worst = 0
        with self._count_evaluations() as calls:
            for f in fs:
                for g in atoms:
                    before = calls[0]
                    min_along_ray(p, f, g)
                    worst = max(worst, calls[0] - before)
        assert 3 <= worst <= 25

    def test_late_projection_ray_stops_at_rounding_noise(self, monkeypatch):
        # the second ray of the wcga projection onto its first 7 atoms
        # (t = 0.5, threshold_first) on the p = 3 inputs of the benchmark's
        # weak-chebyshev workload; the first ray is solved by the reference,
        # so the ray does not depend on the solver under test.  Newton comes
        # down to the root 0.49989 (scale 970) until psi is rounding noise,
        # and bisecting from there toward the 1e-15 width takes about 50
        # more evaluations
        p = 3.0
        D = build_dictionary(lp_space(p, 64), "random_gauss", 256, seed=969580)
        t = make_target(D, TargetSpec(mode="a1_sparse", k=16, seed=914955))
        idx = np.array([51, 10, 22, 71, 41, -3, 73])
        basis = np.sign(idx)[:, None] * D.matrix[np.abs(idx) - 1]
        rays = []

        def record(p, r0, v, nonneg=False):
            rays.append((r0, v))
            return self._bisection_reference(p, r0, v)

        monkeypatch.setattr(solvers, "min_along_ray", record)
        chebyshev_project(lp_space(p, 64), t.f.coords, basis, max_iters=2)
        r0, v = rays[1]
        with self._count_evaluations() as calls:
            a = min_along_ray(p, r0, v)
        assert calls[0] <= 12
        ref = self._bisection_reference(p, r0, v)
        scale = pnorm(p, r0) / pnorm(p, v)
        assert abs(a - ref) <= 1e-14 * max(1.0, scale)

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

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 8.0, 800.0])
    def test_tiny_ray_matches_scale_one(self, p):
        # c v . v underflows to a subnormal or zero at these scales, which
        # returned 0; the minimiser does not depend on a common scale
        rng = np.random.default_rng(4)
        r0, v = rng.standard_normal(16), rng.standard_normal(16)
        ref = min_along_ray(p, r0, v)
        for e in (-540, -600, -1000):
            c = 2.0 ** e
            assert abs(min_along_ray(p, c * r0, c * v) - ref) <= 1e-14 * abs(ref)
        assert min_along_ray(p, r0, np.zeros(16)) == 0.0

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.0, 8.0, 800.0])
    def test_huge_ray_matches_scale_one(self, p):
        # c v . v overflows at these scales, which warned before the
        # rescaling could act; the minimiser does not depend on a common
        # scale
        rng = np.random.default_rng(4)
        r0, v = rng.standard_normal(16), rng.standard_normal(16)
        ref = min_along_ray(p, r0, v)
        for e in (600, 900, 1000):
            c = 2.0 ** e
            assert abs(min_along_ray(p, c * r0, c * v) - ref) <= 5e-15 * abs(ref)

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

    def test_zero_residual_stop_is_relative_to_f(self):
        # at 1e-13 f the residual is below 1e-12 absolute from the start;
        # an absolute stop returned the least-squares start, max|F_r| 0.91
        s = lp_space(3.0, 32)
        rng = np.random.default_rng(0)
        basis = rng.standard_normal((8, 32))
        f = rng.standard_normal(32)
        res = chebyshev_project(s, f, basis)
        tiny = chebyshev_project(s, 1e-13 * f, basis)
        assert res.converged and tiny.converged
        assert tiny.iterations == res.iterations
        assert np.allclose(tiny.residual, 1e-13 * res.residual,
                           rtol=1e-9, atol=0.0)
        F = norming_functional(s, Element(coords=tiny.residual, space=s))
        assert float(np.max(np.abs(F @ basis.T))) <= solvers.GRAD_TOL

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_tiny_target_converges_as_at_scale_one(self, p):
        # the Newton directions of a 1e-200 f have v . v below the smallest
        # normal float; their ray solves returned 0 and the projection
        # stopped after one iteration, unconverged
        s = lp_space(p, 32)
        rng = np.random.default_rng(0)
        basis = rng.standard_normal((8, 32))
        f = rng.standard_normal(32)
        res = chebyshev_project(s, f, basis)
        for c in (1e-200, 2.0 ** -600):
            tiny = chebyshev_project(s, c * f, basis)
            assert tiny.converged and tiny.iterations == res.iterations
            assert (np.max(np.abs(tiny.coeffs / c - res.coeffs))
                    <= 1e-14 * np.max(np.abs(res.coeffs)))

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

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_two_atom_span_with_a_zero_atom_is_the_ray(self, p):
        # the free-relaxation step from a zero approximant: its span is the
        # new atom's ray, so its value is the ray solve's
        f = np.array([1.0, 2.0, 0.5])
        phi = np.array([1.0, 0.0, 0.0])
        res = chebyshev_project(lp_space(p, 3), f, np.stack([np.zeros(3), phi]))
        ray = pnorm(p, f - min_along_ray(p, f, phi) * phi)
        assert pnorm(p, res.residual) == pytest.approx(ray, rel=1e-12)
        assert res.converged

    @pytest.mark.parametrize("p", [1.5, 3.0, 4.0])
    def test_two_atom_span_beats_each_atom_ray(self, p):
        # no ray from the projection along either atom lowers its residual
        s = lp_space(p, 5)
        rng = np.random.default_rng(17)
        for _ in range(10):
            f = rng.standard_normal(5)
            basis = rng.standard_normal((2, 5))
            res = chebyshev_project(s, f, basis)
            assert res.converged
            val = pnorm(p, res.residual)
            for atom in basis:
                a = min_along_ray(p, res.residual, atom)
                assert val <= pnorm(p, res.residual - a * atom) + 1e-12

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
    """The projection's factor of its basis (``_factor``, its SVD route and
    the grown factor of wcga) and the least-squares solves through it."""

    @staticmethod
    def _count_lstsq(monkeypatch):
        calls = []
        lstsq = np.linalg.lstsq

        def counted(A, b, rcond=None):
            calls.append(A.shape)
            return lstsq(A, b, rcond=rcond)

        monkeypatch.setattr(np.linalg, "lstsq", counted)
        return calls

    @staticmethod
    def _assert_factor(Phi, Q, P, tol):
        k = Q.shape[1]
        assert np.max(np.abs(Q.T @ Q - np.eye(k))) <= tol
        assert np.max(np.abs(Phi @ P - Q)) <= tol

    @pytest.mark.parametrize("m", [1, 8, 32, 64])
    def test_factor_is_orthonormal(self, m):
        Phi = np.random.default_rng(m).standard_normal((64, m))
        Q, P = _factor(Phi)
        assert Q.shape == (64, m) and P.shape == (m, m)
        self._assert_factor(Phi, Q, P, 1e-12)

    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_repeated_atom_takes_the_svd_route(self, p):
        rng = np.random.default_rng(5)
        s = lp_space(p, 12)
        A = rng.standard_normal((12, 4))
        basis = A.T[[0, 1, 2, 1, 3]]
        f = rng.standard_normal(12)
        Q, P = _factor(basis.T)
        assert Q.shape == (12, 4)  # the duplicated atom adds no column
        ref = np.linalg.lstsq(basis.T, f, rcond=None)[0]
        assert np.linalg.norm(P @ (Q.T @ f) - ref) <= 1e-12 * np.linalg.norm(ref)
        res = chebyshev_project(s, f, basis)
        # the same span without the duplicate: a full-rank QR factor
        distinct = chebyshev_project(s, f, A.T)
        assert res.converged and distinct.converged
        assert pnorm(p, res.residual) == pytest.approx(
            pnorm(p, distinct.residual), rel=1e-12)

    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_wide_basis(self, p):
        rng = np.random.default_rng(6)
        s = lp_space(p, 5)
        basis = np.array([rng.standard_normal(5) for _ in range(8)])
        f = rng.standard_normal(5)
        Q, P = _factor(basis.T)
        assert Q.shape == (5, 5) and P.shape == (8, 5)
        ref = np.linalg.lstsq(basis.T, f, rcond=None)[0]
        assert np.linalg.norm(P @ (Q.T @ f) - ref) <= 1e-12 * np.linalg.norm(ref)
        res = chebyshev_project(s, f, basis)
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
            Q, P = _factor(Phi)
            x = _direction(p, r, Q, P)
            ref = np.linalg.lstsq(A, b, rcond=None)[0]
            # the coefficients are fixed only to about cond(A) * eps, which
            # exceeds 1e-12 on some square systems (m = 64)
            tol = max(1e-12, 1e-13 * np.linalg.cond(A))
            assert np.linalg.norm(x - ref) <= tol * np.linalg.norm(ref)

    def test_grown_factor_matches_a_fresh_one(self):
        # coherent atoms (condition 1.4e4): one Gram-Schmidt pass leaves
        # Q^T Q off the identity by 2e-11, two passes by 7e-16
        rng = np.random.default_rng(7)
        Phi = 1.0 + 0.1 * rng.standard_normal((64, 64))
        Phi /= np.linalg.norm(Phi, axis=0)
        f = rng.standard_normal(64)
        factor = (np.empty((64, 0)), np.empty((0, 0)))
        for m in range(1, 65):
            factor = algorithms._grown_factor(factor, Phi[:, m - 1])
            Q, P = factor
            assert np.max(np.abs(Q.T @ Q - np.eye(m))) <= 1e-13
            assert np.max(np.abs(Phi[:, :m] @ P - Q)) <= 1e-12
            # the least-squares coefficients of a fresh factor, to their
            # conditioning
            Qf, Pf = _factor(Phi[:, :m])
            lam, ref = P @ (Q.T @ f), Pf @ (Qf.T @ f)
            tol = 1e-13 * np.linalg.cond(Phi[:, :m])
            assert np.linalg.norm(lam - ref) <= tol * np.linalg.norm(ref)
        # a full space, or a dependent atom, leaves the grown route
        assert algorithms._grown_factor(factor, rng.standard_normal(64)) is None
        factor = (np.empty((64, 0)), np.empty((0, 0)))
        for phi in (Phi[:, 0], Phi[:, 1]):
            factor = algorithms._grown_factor(factor, phi)
        assert algorithms._grown_factor(factor, Phi[:, 1]) is None

    def test_singular_weighted_gram_takes_lstsq(self, monkeypatch):
        # at p = 64 the weights a^62 of all coordinates but a few underflow
        # to 0, so the Gram matrix Q^T W Q of a wide basis is singular
        calls = self._count_lstsq(monkeypatch)
        s = lp_space(64.0, 16)
        D = build_dictionary(s, "random_gauss", 64, seed=1)
        t = make_target(D, TargetSpec(mode="a1_sparse", k=4, seed=2))
        rep = run_greedy("wcga", t.f, D, WeaknessSchedule(t0=1.0), max_m=16)
        assert calls
        assert not rep.warnings

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
    def test_agrees_with_ray_solve(self):
        rng = np.random.default_rng(4)
        f = rng.standard_normal(6)
        g = rng.standard_normal(6)
        g /= np.linalg.norm(g)

        def vec(ls):
            return np.linalg.norm(f[None, :] - ls[:, None] * g[None, :], axis=1)

        _, v1 = dense_line_min(vec, 0.0, 4.0)
        a = min_along_ray(2.0, f, g, nonneg=True)
        v2 = float(np.linalg.norm(f - a * g))
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

    def test_quadratic_vertex(self):
        arg, val = dense_line_min(lambda ts: (ts - 1.0) ** 2 + 2.0, 0.0, 4.0)
        assert arg == pytest.approx(1.0, abs=1e-6)
        assert val == pytest.approx(2.0, abs=1e-10)

    def test_hilbert_projection(self):
        f = np.array([1.0, 1.0])
        g = np.array([1.0, 0.0])
        arg, val = dense_line_min(lambda ts: np.linalg.norm(
            f[None, :] - ts[:, None] * g[None, :], axis=1), 0.0, 4.0)
        assert arg == pytest.approx(1.0, abs=1e-6)
        assert val == pytest.approx(1.0, abs=1e-8)

    def test_increasing_objective_returns_left_end(self):
        assert dense_line_min(lambda ts: ts + 1.0, 0.0, 4.0) == (0.0, 1.0)

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
