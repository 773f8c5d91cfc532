import numpy as np
import pytest

from lpgreedy import (Dictionary, Element, TargetSpec, build_dictionary,
                      dict_dual_norm, greedy_select, lp_space, make_target, norm,
                      norming_functional, perturb_target, sample_a1_target)
from lpgreedy.space import pnorm_rows


@pytest.fixture
def s2():
    return lp_space(2.0, 3)


class TestDictionaryMatrix:
    def test_atoms_are_the_rows(self, s2):
        D = Dictionary(space=s2, matrix=[[1.0, 0.0, 0.0], [0.0, 0.6, 0.8]],
                       kind_tag="custom", seed=0)
        assert len(D) == 2
        assert np.array_equal(D.atom(-2), [0.0, -0.6, -0.8])
        assert D.spec_string() == "dict:custom,N=2,seed=0"

    @pytest.mark.parametrize("matrix", [np.ones(3), np.ones((4, 2)),
                                        np.array([[1.0, 0.0, np.nan]])])
    def test_malformed_matrix_rejected(self, s2, matrix):
        with pytest.raises(ValueError):
            Dictionary(space=s2, matrix=matrix, kind_tag="custom", seed=0)

    @pytest.mark.parametrize("norm2", [0.05, 1.0 - 2e-12, 1.0 + 2e-12])
    def test_atom_off_the_unit_sphere_rejected(self, s2, norm2):
        # the norm scan's bracket and the rate bounds take ||g|| = 1
        matrix = [[1.0, 0.0, 0.0], [0.0, 0.6 * norm2, 0.8 * norm2]]
        with pytest.raises(ValueError, match="unit lp norm: row 1 "):
            Dictionary(space=s2, matrix=matrix, kind_tag="custom", seed=0)

    def test_unit_custom_dictionary_accepted(self):
        s = lp_space(3.0, 4)
        rows = np.random.default_rng(1).standard_normal((6, 4))
        rows /= pnorm_rows(3.0, rows)[:, None]
        D = Dictionary(space=s, matrix=rows, kind_tag="custom", seed=0)
        assert np.array_equal(D.matrix, rows)


class TestBuildDictionary:
    def test_canonical(self, s2):
        D = build_dictionary(s2, "canonical", 3)
        assert len(D) == 3
        assert np.allclose(D.matrix, np.eye(3))

    @pytest.mark.parametrize("kind", ["random_gauss", "trig_grid", "coherent"])
    @pytest.mark.parametrize("p", [1.5, 2.0, 4.0])
    def test_unit_norms_and_rank(self, kind, p):
        s = lp_space(p, 16)
        D = build_dictionary(s, kind, 48, seed=3)
        assert len(D) == 48
        for g in D.matrix:
            assert norm(s, Element(coords=g, space=s)) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.matrix_rank(D.matrix) == 16

    def test_random_gauss_full_scale(self):
        s = lp_space(2.0, 64)
        D = build_dictionary(s, "random_gauss", 256, seed=7)
        assert len(D) == 256
        assert np.linalg.matrix_rank(D.matrix) == 64

    def test_coherent_adjacent_coherence(self):
        s = lp_space(2.0, 32)
        D = build_dictionary(s, "coherent", 128, seed=1)
        inner = np.abs(np.einsum("ij,ij->i", D.matrix[:-1], D.matrix[1:]))
        assert np.min(inner) >= 0.9

    def test_undersized_rejected(self, s2):
        with pytest.raises(ValueError, match="does not span"):
            build_dictionary(s2, "random_gauss", 2, seed=0)

    def test_unknown_kind(self, s2):
        with pytest.raises(ValueError, match="unknown"):
            build_dictionary(s2, "fourier", 8, seed=0)

    def test_deterministic(self):
        s = lp_space(3.0, 8)
        a = build_dictionary(s, "random_gauss", 20, seed=5)
        b = build_dictionary(s, "random_gauss", 20, seed=5)
        assert np.array_equal(a.matrix, b.matrix)

    def test_signed_atom_lookup(self, s2):
        D = build_dictionary(s2, "canonical", 3)
        assert np.allclose(D.atom(2), [0, 1, 0])
        assert np.allclose(D.atom(-2), [0, -1, 0])
        with pytest.raises(IndexError):
            D.atom(0)


class TestGreedySelect:
    def test_exact_argmax_example(self, s2):
        s = lp_space(2.0, 2)
        D = build_dictionary(s, "canonical", 2)
        F = norming_functional(s, Element(coords=np.array([3.0, 4.0]), space=s))
        idx, val = greedy_select(F, D, t=1.0, rule="exact_argmax")
        assert idx == 2 and val == pytest.approx(0.8)

    def test_negative_direction_gets_signed_index(self):
        s = lp_space(2.0, 2)
        D = build_dictionary(s, "canonical", 2)
        F = norming_functional(s, Element(coords=np.array([0.1, -2.0]), space=s))
        idx, val = greedy_select(F, D, t=1.0)
        assert idx == -2 and val > 0

    def test_vacuous_threshold_scan_order(self):
        s = lp_space(2.0, 2)
        D = build_dictionary(s, "canonical", 2)
        F = norming_functional(s, Element(coords=np.array([0.1, -2.0]), space=s))
        idx, val = greedy_select(F, D, t=0.0, rule="threshold_first")
        assert idx in (1, -1)
        assert val >= 0.0

    def test_argmax_value_equals_dual_norm(self):
        s = lp_space(3.0, 6)
        D = build_dictionary(s, "random_gauss", 24, seed=2)
        rng = np.random.default_rng(3)
        for _ in range(50):
            f = Element(coords=rng.standard_normal(6), space=s)
            F = norming_functional(s, f)
            _, val = greedy_select(F, D, t=1.0, rule="exact_argmax")
            assert val == dict_dual_norm(F, D)

    @pytest.mark.parametrize("rule", ["exact_argmax", "threshold_first"])
    def test_threshold_always_cleared(self, rule):
        s = lp_space(2.5, 6)
        D = build_dictionary(s, "random_gauss", 30, seed=8)
        rng = np.random.default_rng(11)
        for _ in range(1000):
            f = Element(coords=rng.standard_normal(6), space=s)
            F = norming_functional(s, f)
            t = float(rng.uniform(0, 1))
            _, val = greedy_select(F, D, t, rule)
            assert val >= t * dict_dual_norm(F, D) - 1e-12

    @pytest.mark.parametrize("shape", [(3,), (2, 1), (1, 2), ()])
    def test_wrong_shape_functional_rejected(self, shape):
        s = lp_space(2.0, 2)
        D = build_dictionary(s, "canonical", 2)
        with pytest.raises(ValueError, match=r"shape \(2,\)"):
            greedy_select(np.ones(shape), D, t=1.0)
        with pytest.raises(ValueError, match=r"shape \(2,\)"):
            greedy_select(np.ones(shape), D, 1.0, scores=np.ones(2))

    def test_threshold_first_genuinely_weak(self):
        # with t < 1 the first-above-threshold atom differs from the argmax
        # for some draws, which is the point of the rule
        s = lp_space(2.0, 6)
        D = build_dictionary(s, "random_gauss", 40, seed=1)
        rng = np.random.default_rng(2)
        differs = 0
        for _ in range(50):
            f = Element(coords=rng.standard_normal(6), space=s)
            F = norming_functional(s, f)
            i1, _ = greedy_select(F, D, 0.5, "threshold_first")
            i2, _ = greedy_select(F, D, 0.5, "exact_argmax")
            differs += i1 != i2
        assert differs > 0


class TestTargets:
    def test_certificate_reconstructs_target(self):
        s = lp_space(2.0, 8)
        D = build_dictionary(s, "random_gauss", 32, seed=4)
        f, cert = sample_a1_target(D, TargetSpec(mode="a1_sparse", k=5, seed=6))
        rebuilt = sum(w * D.atom(i) for i, w in cert)
        assert np.allclose(rebuilt, f.coords, atol=1e-14)
        weights = [w for _, w in cert]
        assert sum(weights) == pytest.approx(1.0, abs=1e-12)
        assert all(w > 0 for w in weights)

    def test_single_atom_is_vertex(self):
        s = lp_space(3.0, 4)
        D = build_dictionary(s, "random_gauss", 8, seed=1)
        f, cert = sample_a1_target(D, TargetSpec(mode="a1_sparse", k=1, seed=2))
        assert len(cert) == 1
        assert norm(s, f) <= 1.0 + 1e-12

    def test_hull_targets_have_norm_at_most_one(self):
        s = lp_space(1.5, 6)
        D = build_dictionary(s, "random_gauss", 24, seed=3)
        for seed in range(20):
            f, _ = sample_a1_target(D, TargetSpec(mode="a1_sparse", k=6, seed=seed))
            assert norm(s, f) <= 1.0 + 1e-12

    def test_dense_mode_uses_all_atoms(self):
        s = lp_space(2.0, 4)
        D = build_dictionary(s, "random_gauss", 10, seed=5)
        _, cert = sample_a1_target(D, TargetSpec(mode="a1_dense", seed=1))
        assert len(cert) == 10

    def test_oversized_sparsity_rejected(self):
        s = lp_space(2.0, 4)
        D = build_dictionary(s, "random_gauss", 6, seed=5)
        with pytest.raises(ValueError, match="out of range"):
            sample_a1_target(D, TargetSpec(mode="a1_sparse", k=7, seed=1))

    @pytest.mark.parametrize("kw,problem", [
        (dict(mode="a1_sparse", k=3, seed=-1), "target seed must be"),
        (dict(mode="general_plus_noise", k=3, eps=1.5),
         "noisy target eps must be at most 1")])
    def test_invalid_spec_rejected(self, kw, problem):
        # a negative seed would reach np.random.default_rng; eps > 1 would
        # exceed the certificate's A(eps) = 1
        with pytest.raises(ValueError, match=problem):
            TargetSpec(**kw)


class TestPerturbTarget:
    def test_zero_eps_is_identity(self):
        s = lp_space(2.0, 4)
        f = Element(coords=np.array([1.0, 0.0, 0.0, 0.0]), space=s)
        assert perturb_target(f, 0.0, seed=3) is f

    def test_distance_never_exceeds_eps(self):
        s = lp_space(2.7, 5)
        rng = np.random.default_rng(0)
        f = Element(coords=rng.standard_normal(5), space=s)
        for seed in range(1000):
            g = perturb_target(f, 0.1, seed=seed)
            d = norm(s, Element(coords=g.coords - f.coords, space=s))
            assert d <= 0.1 + 1e-15

    def test_noisy_target_metadata(self):
        s = lp_space(2.0, 8)
        D = build_dictionary(s, "random_gauss", 24, seed=2)
        t = make_target(D, TargetSpec(mode="general_plus_noise", k=4,
                                      eps=0.05, seed=9))
        assert not t.in_hull
        assert t.a_eps == 1.0 and t.eps == 0.05
        d = norm(s, Element(coords=t.f.coords - t.f_clean.coords, space=s))
        assert d <= 0.05 + 1e-15
        assert t.certificate is not None
