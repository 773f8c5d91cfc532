import hashlib

import numpy as np
import pytest

from lpgreedy import (Dictionary, Element, TargetSpec, build_dictionary,
                      dict_dual_norm, greedy_select, lp_space, make_target, norm,
                      norming_functional)
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


def combination(D, cert):
    """The certificate's convex combination of signed atoms."""
    return sum(w * D.atom(i) for i, w in cert)


class TestTargets:
    def test_certificate_reconstructs_target(self):
        s = lp_space(2.0, 8)
        D = build_dictionary(s, "random_gauss", 32, seed=4)
        t = make_target(D, TargetSpec(mode="a1_sparse", k=5, seed=6))
        assert t.in_hull
        assert np.allclose(combination(D, t.certificate), t.f.coords, atol=1e-14)
        weights = [w for _, w in t.certificate]
        assert sum(weights) == pytest.approx(1.0, abs=1e-12)
        assert all(w > 0 for w in weights)

    def test_single_atom_is_vertex(self):
        s = lp_space(3.0, 4)
        D = build_dictionary(s, "random_gauss", 8, seed=1)
        t = make_target(D, TargetSpec(mode="a1_sparse", k=1, seed=2))
        assert len(t.certificate) == 1
        assert norm(s, t.f) <= 1.0 + 1e-12

    def test_hull_targets_have_norm_at_most_one(self):
        s = lp_space(1.5, 6)
        D = build_dictionary(s, "random_gauss", 24, seed=3)
        for seed in range(20):
            t = make_target(D, TargetSpec(mode="a1_sparse", k=6, seed=seed))
            assert norm(s, t.f) <= 1.0 + 1e-12

    def test_dense_mode_uses_all_atoms(self):
        s = lp_space(2.0, 4)
        D = build_dictionary(s, "random_gauss", 10, seed=5)
        t = make_target(D, TargetSpec(mode="a1_dense", seed=1))
        assert len(t.certificate) == 10

    @pytest.mark.parametrize("mode", ["a1_sparse", "general_plus_noise"])
    @pytest.mark.parametrize("k", [0, 7])
    def test_out_of_range_sparsity_rejected(self, mode, k):
        s = lp_space(2.0, 4)
        D = build_dictionary(s, "random_gauss", 6, seed=5)
        with pytest.raises(ValueError, match="out of range"):
            make_target(D, TargetSpec(mode=mode, k=k, seed=1))

    @pytest.mark.parametrize("kw,problem", [
        (dict(mode="a1_sparse", k=3, seed=-1), "target seed must be"),
        (dict(mode="general_plus_noise", k=3, eps=1.5),
         "noisy target eps must be at most 1")])
    def test_invalid_spec_rejected(self, kw, problem):
        # a negative seed would reach np.random.default_rng; eps > 1 would
        # exceed the certificate's A(eps) = 1
        with pytest.raises(ValueError, match=problem):
            TargetSpec(**kw)

    # sha256 of f.coords.tobytes() + repr(certificate): every seeded draw,
    # its order and the noise from seed + 1 stay as they are
    PINNED = {
        (1.5, "a1_sparse"):
            "4816b9e7a7c52f1803a9cbc978bf3e538635b42a8a69ce6b8fdfd06b9848796b",
        (1.5, "a1_dense"):
            "5d4182d4b7439d1f66714330ec224bda1631877afba800269dabf573b204c939",
        (1.5, "noisy"):
            "4a9578fb9fd1c72a6976da461844b24cd8fab6c0cb42d28664e2f87c734cb474",
        (1.5, "noisy0"):
            "95160493b1b6e002c939e91e10120779bb98d4e76803ed67c9305a0d98449601",
        (3.0, "a1_sparse"):
            "dac810a7c772ffd6b6c33cf4934c6bde168904631e5796552e118346e2f0aad4",
        (3.0, "a1_dense"):
            "cc756f90274c6c8d4f30c284efd3dc743e050cda12f41ad767336c2fd401b11e",
        (3.0, "noisy"):
            "8895ec7411d1b09b34c4a6df227de92924ec6f9344e7665e8bae4a1ab15a9e85",
        (3.0, "noisy0"):
            "e19793f3d7db2832e83eefc7066dcd22bd1788440d1079b4ff20fc07c73ae2e1",
    }
    SPECS = {"a1_sparse": dict(mode="a1_sparse", k=5, seed=6),
             "a1_dense": dict(mode="a1_dense", seed=1),
             "noisy": dict(mode="general_plus_noise", k=4, eps=0.05, seed=9),
             "noisy0": dict(mode="general_plus_noise", k=4, eps=0.0, seed=9)}

    @pytest.mark.parametrize("p,name", sorted(PINNED))
    def test_seeded_target_is_pinned(self, p, name):
        D = build_dictionary(lp_space(p, 8), "random_gauss", 24, seed=2)
        t = make_target(D, TargetSpec(**self.SPECS[name]))
        digest = hashlib.sha256(t.f.coords.tobytes()
                                + repr(t.certificate).encode()).hexdigest()
        assert digest == self.PINNED[p, name]


class TestNoisyTargets:
    def test_zero_eps_is_the_hull_point(self):
        s = lp_space(2.0, 8)
        D = build_dictionary(s, "random_gauss", 24, seed=2)
        t = make_target(D, TargetSpec(mode="general_plus_noise", k=4, seed=9))
        hull = make_target(D, TargetSpec(mode="a1_sparse", k=4, seed=9))
        assert np.array_equal(t.f.coords, hull.f.coords)
        assert t.certificate == hull.certificate
        # f lies in the hull, but only the a1 modes certify it
        assert not t.in_hull and hull.in_hull

    def test_distance_never_exceeds_eps(self):
        s = lp_space(2.7, 5)
        D = build_dictionary(s, "random_gauss", 12, seed=0)
        for seed in range(1000):
            t = make_target(D, TargetSpec(mode="general_plus_noise", k=3,
                                          eps=0.1, seed=seed))
            d = norm(s, Element(coords=t.f.coords
                                - combination(D, t.certificate), space=s))
            assert d <= 0.1 + 1e-15

    def test_noisy_target_metadata(self):
        s = lp_space(2.0, 8)
        D = build_dictionary(s, "random_gauss", 24, seed=2)
        t = make_target(D, TargetSpec(mode="general_plus_noise", k=4,
                                      eps=0.05, seed=9))
        assert not t.in_hull
        assert t.a_eps == 1.0 and t.spec.eps == 0.05
        assert len(t.certificate) == 4
        assert not np.array_equal(t.f.coords, combination(D, t.certificate))
