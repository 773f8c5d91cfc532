import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lpgreedy import (Element, LpSpace, dict_dual_norm, lp_space, norm,
                      norming_functional)
from lpgreedy.dictionary import Dictionary, build_dictionary
from lpgreedy import space as space_module
from lpgreedy.selftest import empirical_modulus
from lpgreedy.space import dual_norm, in_dual_ball, pnorm, pnorm_rows


def elem(space, *coords):
    return Element(coords=np.array(coords, dtype=float), space=space)


class TestLpSpace:
    def test_derived_parameters(self):
        s = lp_space(1.5, 4)
        assert s.q == 1.5 and s.gamma == pytest.approx(2 / 3)
        assert s.p_conj == pytest.approx(3.0)
        s = lp_space(4.0, 4)
        assert s.q == 2.0 and s.gamma == pytest.approx(1.5)
        assert s.p_conj == pytest.approx(2.0)

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.0])
    def test_gamma_lower_bound(self, p):
        s = lp_space(p, 8)
        assert s.gamma >= 2.0 ** (-s.q)

    @pytest.mark.parametrize("p", [1.0, 0.5, float("inf")])
    def test_rejects_non_smooth_exponents(self, p):
        with pytest.raises(ValueError, match="not uniformly smooth"):
            lp_space(p, 4)

    @pytest.mark.parametrize("n,p,problem", [
        (4, 1.0, "not uniformly smooth"), (0, 2.0, "dimension must be positive")])
    def test_constructor_checks_its_inputs(self, n, p, problem):
        # the constants are derived from p, so a space built directly
        # passes the same checks as one from lp_space
        with pytest.raises(ValueError, match=problem):
            LpSpace(n=n, p=p)

    def test_constructor_derives_the_constants(self):
        assert LpSpace(n=4, p=3) == lp_space(3.0, 4)


class TestNorm:
    def test_euclidean(self):
        s = lp_space(2.0, 2)
        assert norm(s, elem(s, 3.0, 4.0)) == pytest.approx(5.0, abs=1e-12)

    def test_zero(self):
        s = lp_space(3.0, 3)
        assert norm(s, elem(s, 0.0, 0.0, 0.0)) == 0.0

    def test_p4_formula(self):
        s = lp_space(4.0, 2)
        assert norm(s, elem(s, 1.0, 1.0)) == pytest.approx(2 ** 0.25, abs=1e-12)

    @pytest.mark.parametrize("p", [2.0, 32.0, 64.0, 800.0])
    @pytest.mark.parametrize("size", [1e-200, 1e-12, 1e150])
    def test_no_underflow_or_overflow(self, p, size):
        # the power sum under- or overflows here; the norm must not
        a = size * np.array([3.0, -4.0, 0.5])
        ref = 4.0 * size * float(np.sum(np.abs(a / (4.0 * size)) ** p)
                                 ** (1.0 / p))
        with np.errstate(over="ignore"):
            assert pnorm(p, a) == pytest.approx(ref, rel=1e-14)

    def test_ordinary_inputs_take_the_plain_sum(self):
        # bitwise np.sum's result, at lengths on both sides of its pairwise
        # summation blocks
        rng = np.random.default_rng(0)
        for p in (1.5, 2.0, 3.0, 4.0, 7.3):
            for n in (1, 7, 16, 32, 129, 300):
                for _ in range(40):
                    a = rng.standard_normal(n) * 10.0 ** rng.uniform(-5, 5)
                    plain = (np.sqrt(np.dot(a, a)) if p == 2.0
                             else np.sum(np.abs(a) ** p) ** (1.0 / p))
                    assert pnorm(p, a) == float(plain)

    @pytest.mark.parametrize("p", [64.0, 200.0])
    def test_scaled_route_sums_like_np_sum(self, p):
        rng = np.random.default_rng(int(p))
        for n in (1, 16, 129):
            for _ in range(40):
                a = rng.standard_normal(n) * 1e-6
                scale = float(np.max(np.abs(a)))
                ref = scale * float(np.sum((np.abs(a) / scale) ** p)) ** (1.0 / p)
                assert pnorm(p, a) == ref

    def test_dimension_mismatch(self):
        s = lp_space(2.0, 2)
        with pytest.raises(ValueError, match="dimension"):
            Element(coords=np.array([1.0, 2.0, 3.0]), space=s)

    def test_rejects_non_finite(self):
        s = lp_space(2.0, 2)
        with pytest.raises(ValueError, match="finite"):
            Element(coords=np.array([1.0, np.nan]), space=s)


class TestPnormRows:
    @pytest.mark.parametrize("p", [1.5, 3.0, 200.0, 800.0])
    @pytest.mark.parametrize("size", [1e-300, 1e-200, 1e-12, 1e-5, 1.0,
                                      1e150, 1e300])
    def test_matches_pnorm_row_by_row(self, p, size):
        rng = np.random.default_rng(int(p) + 7)
        a = size * rng.standard_normal((6, 16))
        a[1] = 0.0
        a[2, :2] = size * np.array([1e-5, 2e-5])
        a[2, 2:] = 0.0
        a[3] *= 1e-3  # one row smaller than the others
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = pnorm_rows(p, a)
        with np.errstate(over="ignore"):
            ref = np.array([pnorm(p, row) for row in a])
        assert got == pytest.approx(ref, rel=1e-14, abs=0.0)

    def test_tiny_row_at_large_p(self):
        # the plain power sum of this row underflows to 0
        got = pnorm_rows(200.0, np.array([[1e-5, 2e-5], [1.0, 0.5]]))
        assert got[0] == pytest.approx(2e-5, rel=1e-14)
        assert got[1] == pytest.approx(1.0, rel=1e-14)

    def test_ordinary_inputs_take_the_plain_sums(self):
        rng = np.random.default_rng(0)
        for p in (1.5, 2.0, 3.0, 4.0, 7.3):
            for _ in range(100):
                a = (rng.standard_normal((33, 16))
                     * 10.0 ** rng.uniform(-5, 5))
                plain = (np.sqrt(np.einsum("ij,ij->i", a, a)) if p == 2.0
                         else np.sum(np.abs(a) ** p, axis=1) ** (1.0 / p))
                assert np.array_equal(pnorm_rows(p, a), plain)

    def test_dictionary_at_p_800_builds_without_warnings(self):
        s = lp_space(800.0, 16)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            D = build_dictionary(s, "random_gauss", 64, seed=1)
        assert np.allclose([pnorm(800.0, g) for g in D.matrix], 1.0,
                           rtol=1e-14)


class TestNormingFunctional:
    def test_hilbert_case(self):
        s = lp_space(2.0, 2)
        f = elem(s, 3.0, 4.0)
        F = norming_functional(s, f)
        assert np.allclose(F, [0.6, 0.8])
        assert F @ f.coords == pytest.approx(5.0, rel=1e-10)

    def test_p4_axis_value(self):
        s = lp_space(4.0, 2)
        F = norming_functional(s, elem(s, 1.0, 1.0))
        assert np.allclose(F, [2 ** -0.75, 2 ** -0.75], atol=1e-12)
        assert F @ np.array([1.0, 0.0]) == pytest.approx(2 ** -0.75,
                                                         rel=1e-10)

    def test_sign_structure_on_axis(self):
        s = lp_space(1.5, 2)
        f = elem(s, -1.0, 0.0)
        F = norming_functional(s, f)
        assert np.allclose(F, [-1.0, 0.0], atol=1e-14)
        assert F @ f.coords == pytest.approx(1.0, rel=1e-10)

    def test_zero_rejected(self):
        s = lp_space(2.0, 2)
        with pytest.raises(ValueError, match="zero"):
            norming_functional(s, elem(s, 0.0, 0.0))

    @pytest.mark.parametrize("p", [1.5, 2.0, 2.7, 4.0])
    def test_defining_identities(self, p):
        rng = np.random.default_rng(3)
        s = lp_space(p, 6)
        for _ in range(25):
            f = Element(coords=rng.standard_normal(6), space=s)
            F = norming_functional(s, f)
            assert dual_norm(p, F) == pytest.approx(1.0, abs=1e-10)
            assert F @ f.coords == pytest.approx(norm(s, f), rel=1e-10)

    @settings(max_examples=60, deadline=None)
    @given(coords=arrays(np.float64, (4,),
                         elements=st.floats(-10, 10)),
           gcoords=arrays(np.float64, (4,),
                          elements=st.floats(-10, 10)),
           p=st.floats(1.2, 5.0))
    def test_duality_inequality(self, coords, gcoords, p):
        s = lp_space(p, 4)
        f = Element(coords=coords, space=s)
        if norm(s, f) < 1e-6:
            return
        g = Element(coords=gcoords, space=s)
        F = norming_functional(s, f)
        assert abs(F @ g.coords) <= norm(s, g) + 1e-10

    @settings(max_examples=60, deadline=None)
    @given(coords=arrays(np.float64, (4,),
                         elements=st.floats(-10, 10)),
           c=st.floats(1e-3, 1e3),
           p=st.floats(1.2, 5.0))
    def test_positive_homogeneity(self, coords, c, p):
        s = lp_space(p, 4)
        f = Element(coords=coords, space=s)
        if norm(s, f) < 1e-6:
            return
        F1 = norming_functional(s, f)
        F2 = norming_functional(s, Element(coords=c * coords, space=s))
        assert np.allclose(F1, F2, atol=1e-12)


class TestApplyFunctional:
    def test_values(self):
        s = lp_space(2.0, 2)
        F = norming_functional(s, elem(s, 3.0, 4.0))
        # a functional is an (n,) array, applied by the dot product
        assert isinstance(F, np.ndarray) and F.shape == (2,)
        assert F @ np.array([1.0, 0.0]) == pytest.approx(0.6)
        assert F @ np.array([3.0, 4.0]) == pytest.approx(5.0)
        assert F @ np.array([-4.0, 3.0]) == pytest.approx(0.0, abs=1e-15)


class TestDictDualNorm:
    def test_canonical_coordinate_max(self):
        s = lp_space(2.0, 2)
        D = build_dictionary(s, "canonical", 2)
        F = norming_functional(s, elem(s, 3.0, 4.0))
        assert dict_dual_norm(F, D) == pytest.approx(0.8)

    def test_peak_attained_when_direction_in_dictionary(self):
        s = lp_space(3.0, 3)
        rng = np.random.default_rng(0)
        f = Element(coords=rng.standard_normal(3), space=s)
        unit = Element(coords=f.coords / norm(s, f), space=s)
        atoms = np.vstack((build_dictionary(s, "canonical", 3).matrix, unit.coords))
        D = Dictionary(space=s, matrix=atoms, kind_tag="custom", seed=0)
        F = norming_functional(s, f)
        assert dict_dual_norm(F, D) == pytest.approx(1.0, abs=1e-10)

    def test_matches_exhaustive_signed_scan(self):
        s = lp_space(2.5, 8)
        D = build_dictionary(s, "random_gauss", 50, seed=4)
        rng = np.random.default_rng(5)
        for _ in range(20):
            f = Element(coords=rng.standard_normal(8), space=s)
            F = norming_functional(s, f)
            brute = max(abs(float(np.dot(F, g))) for g in D.matrix)
            assert dict_dual_norm(F, D) == pytest.approx(brute, abs=1e-12)

    def test_oracle_equivalence_at_ten_thousand_atoms(self):
        s = lp_space(3.0, 6)
        D = build_dictionary(s, "random_gauss", 10_000, seed=9)
        rng = np.random.default_rng(10)
        f = Element(coords=rng.standard_normal(6), space=s)
        F = norming_functional(s, f)
        brute = max(abs(float(np.dot(F, g))) for g in D.matrix)
        assert dict_dual_norm(F, D) == pytest.approx(brute, abs=1e-12)

    def test_empty_dictionary(self):
        # rejected where it is built, so no scan checks it per call
        with pytest.raises(ValueError, match="empty"):
            Dictionary(space=lp_space(2.0, 2), matrix=np.zeros((0, 2)),
                       kind_tag="empty", seed=0)

    @pytest.mark.parametrize("shape", [(3,), (2, 1), (1, 2), ()])
    def test_wrong_shape_functional_rejected(self, shape):
        # (2, 1) would broadcast through D.matrix @ F without the check
        s = lp_space(2.0, 2)
        D = build_dictionary(s, "canonical", 2)
        with pytest.raises(ValueError, match=r"shape \(2,\)"):
            dict_dual_norm(np.ones(shape), D)
        with pytest.raises(ValueError, match=r"shape \(2,\)"):
            dict_dual_norm(np.ones(shape), D, scores=np.ones(2))


class TestDualBall:
    def test_norm_above_one_rejected(self):
        F = np.array([0.6, 0.8])
        assert in_dual_ball(2.0, F) is F
        with pytest.raises(ValueError, match="exceeds 1"):
            in_dual_ball(2.0, (1.0 + 1e-9) * F)

    def test_norming_functional_checks_its_dual_norm(self, monkeypatch):
        s = lp_space(3.0, 2)
        monkeypatch.setattr(space_module, "functional_coords",
                            lambda p, f, fn: 2.0 * f / fn)
        with pytest.raises(ValueError, match="exceeds 1"):
            norming_functional(s, elem(s, 1.0, 0.0))


class TestSmoothness:
    def test_hilbert_estimate_below_closed_form(self):
        s = lp_space(2.0, 8)
        est = empirical_modulus(s, 1.0, n_samples=400, seed=1)
        assert 0.0 <= est <= np.sqrt(2.0) - 1.0 + 1e-12

    def test_uniform_smoothness_ratio_vanishes(self):
        s = lp_space(2.0, 6)
        ratios = [empirical_modulus(s, u, 300, 2) / u for u in (0.1, 0.01, 0.001)]
        assert ratios[0] > ratios[1] > ratios[2]
        assert ratios[2] < 1e-3

    @pytest.mark.parametrize("p", [1.05, 1.2, 1.5, 2.0, 3.0, 4.0, 8.0, 32.0,
                                   800.0])
    def test_estimate_below_power_bound_on_grid(self, p):
        # the sampled modulus is the oracle for lp_space's (q, gamma)
        s = lp_space(p, 8)
        for u in np.linspace(0.05, 2.0, 40):
            assert empirical_modulus(s, float(u), 200, 7) <= \
                s.gamma * float(u) ** s.q + 1e-9

    def test_deterministic_given_seed(self):
        s = lp_space(3.0, 8)
        a = empirical_modulus(s, 0.7, 300, 42)
        b = empirical_modulus(s, 0.7, 300, 42)
        assert a == b
