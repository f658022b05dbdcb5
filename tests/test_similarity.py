"""Similarity measures: analytic cases, oracle comparisons, and symmetry laws."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from exitlab.similarity import ProbDist, SimilarityMeasure, entropy, score

LN2 = math.log(2.0)
VARIANTS = ("kd", "rekd", "symkd", "jskd")

# each measure is a plain (prev, cur) -> float scorer
kd, rekd, symkd, jskd = (SimilarityMeasure(v) for v in VARIANTS)


def formula_score(variant, p, q, kl=False):
    """The module-docstring formula on flat numpy arrays, floor 1e-12."""
    def cross(w, x):
        s = -(w * np.log(np.maximum(x, 1e-12))).sum()
        if kl:
            s -= -(w * np.log(np.maximum(w, 1e-12))).sum()
        return s

    p, q = p.probs.reshape(-1), q.probs.reshape(-1)
    if variant == "kd":
        return cross(p, q)
    if variant == "rekd":
        return cross(q, p)
    if variant == "symkd":
        return cross(p, q) + cross(q, p)
    m = (p + q) / 2
    return cross(p, m) / 2 + cross(q, m) / 2


def mlc_kd_oracle(prev_pos, cur_pos, eps=1e-12):
    """Independent double loop over labels and the two outcomes per label."""
    total = 0.0
    for j in range(len(prev_pos)):
        prev_pair = (prev_pos[j], 1.0 - prev_pos[j])
        cur_pair = (cur_pos[j], 1.0 - cur_pos[j])
        for i in range(2):
            total += -prev_pair[i] * math.log(max(cur_pair[i], eps))
    return total


def random_slc(rng, k):
    v = rng.dirichlet(np.ones(k))
    return ProbDist.slc(v)


def random_mlc(rng, k):
    return ProbDist.mlc(rng.uniform(0.05, 0.95, size=k))


class TestKD:
    def test_one_hot_prev_picks_single_term(self):
        s = kd(ProbDist.slc([1.0, 0.0]), ProbDist.slc([0.5, 0.5]))
        assert s == pytest.approx(LN2, abs=1e-9)

    def test_identical_uniform_scores_entropy_not_zero(self):
        u = ProbDist.slc([0.5, 0.5])
        assert kd(u, u) == pytest.approx(LN2, abs=1e-9)

    def test_mlc_matches_double_loop_oracle(self):
        prev = ProbDist.mlc([0.9, 0.2])
        cur = ProbDist.mlc([0.8, 0.3])
        expected = mlc_kd_oracle([0.9, 0.2], [0.8, 0.3])
        assert kd(prev, cur) == pytest.approx(expected, abs=1e-12)

    def test_mlc_random_against_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            k = int(rng.integers(1, 8))
            p, q = rng.uniform(0.01, 0.99, size=k), rng.uniform(0.01, 0.99, size=k)
            got = kd(ProbDist.mlc(p), ProbDist.mlc(q))
            assert got == pytest.approx(mlc_kd_oracle(p, q), rel=1e-12)

    def test_kind_mismatch_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            kd(ProbDist.slc([0.5, 0.5]), ProbDist.mlc([0.5, 0.5]))

    def test_k_mismatch_rejected(self):
        with pytest.raises(ValueError, match="class counts"):
            kd(ProbDist.slc([0.5, 0.5]), ProbDist.slc([0.4, 0.3, 0.3]))


class TestReKD:
    def test_is_transpose_of_kd(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            p, q = random_slc(rng, 4), random_slc(rng, 4)
            assert rekd(p, q) == kd(q, p)

    def test_one_hot_in_flipped_first_argument(self):
        prev, cur = ProbDist.slc([0.5, 0.5]), ProbDist.slc([1.0, 0.0])
        assert rekd(prev, cur) == pytest.approx(LN2, abs=1e-9)
        assert rekd(prev, cur) == kd(ProbDist.slc([1.0, 0.0]), ProbDist.slc([0.5, 0.5]))

    def test_mlc_random_against_swapped_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            k = int(rng.integers(1, 6))
            p, q = rng.uniform(0.05, 0.95, size=k), rng.uniform(0.05, 0.95, size=k)
            got = rekd(ProbDist.mlc(p), ProbDist.mlc(q))
            assert got == pytest.approx(mlc_kd_oracle(q, p), rel=1e-12)


class TestSymKD:
    def test_identical_uniform_is_twice_ln2(self):
        u = ProbDist.slc([0.5, 0.5])
        assert symkd(u, u) == pytest.approx(2 * LN2, abs=1e-9)

    def test_exact_symmetry(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            p, q = random_slc(rng, 5), random_slc(rng, 5)
            assert symkd(p, q) == symkd(q, p)

    def test_scalar_formula(self):
        p, q = [0.9, 0.1], [0.1, 0.9]
        expected = -(0.9 * math.log(0.1) + 0.1 * math.log(0.9)) * 2
        got = symkd(ProbDist.slc(p), ProbDist.slc(q))
        assert got == pytest.approx(expected, abs=1e-9)


class TestJSKD:
    def test_identical_input_scores_own_entropy(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            p = random_slc(rng, 4)
            assert jskd(p, p) == pytest.approx(entropy(p), abs=1e-9)

    def test_exact_symmetry(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            p, q = random_slc(rng, 3), random_slc(rng, 3)
            assert jskd(p, q) == jskd(q, p)

    def test_maximal_disagreement_is_ln2(self):
        p, q = ProbDist.slc([1.0, 0.0]), ProbDist.slc([0.0, 1.0])
        assert jskd(p, q) == pytest.approx(LN2, abs=1e-9)


class TestDispatchAndKLMode:
    def test_dispatch_matches_direct_calls(self):
        rng = np.random.default_rng(6)
        p, q = random_slc(rng, 4), random_slc(rng, 4)
        a, b = random_mlc(rng, 3), random_mlc(rng, 3)
        for variant in VARIANTS:
            for kl in (False, True):
                m = SimilarityMeasure(variant, subtract_self_entropy=kl)
                assert score(m, p, q) == formula_score(variant, p, q, kl)
                assert score(m, a, b) == formula_score(variant, a, b, kl)

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError, match="variant"):
            SimilarityMeasure("cosine")

    def test_kl_mode_zero_on_identical_inputs(self):
        rng = np.random.default_rng(7)
        p = random_slc(rng, 5)
        for variant in VARIANTS:
            m = SimilarityMeasure(variant, subtract_self_entropy=True)
            assert score(m, p, p) == pytest.approx(0.0, abs=1e-9)

    def test_kl_mode_jskd_bounded_by_ln2(self):
        rng = np.random.default_rng(8)
        m = SimilarityMeasure("jskd", subtract_self_entropy=True)
        for _ in range(100):
            s = score(m, random_slc(rng, 4), random_slc(rng, 4))
            assert -1e-12 <= s <= LN2 + 1e-12

    def test_measure_is_callable(self):
        p = ProbDist.slc([0.5, 0.5])
        m = SimilarityMeasure("kd")
        assert m(p, p) == score(m, p, p) == pytest.approx(LN2, abs=1e-12)


class TestProperties:
    def test_scores_nonnegative_and_finite(self):
        rng = np.random.default_rng(9)
        for _ in range(300):
            if rng.random() < 0.5:
                k = int(rng.integers(2, 11))
                p, q = random_slc(rng, k), random_slc(rng, k)
            else:
                k = int(rng.integers(1, 11))
                p, q = random_mlc(rng, k), random_mlc(rng, k)
            for variant in VARIANTS:
                s = score(SimilarityMeasure(variant), p, q)
                assert np.isfinite(s) and s >= 0

    def test_jskd_never_exceeds_symkd(self):
        rng = np.random.default_rng(10)
        for _ in range(500):
            k = int(rng.integers(2, 11))
            p, q = random_slc(rng, k), random_slc(rng, k)
            assert jskd(p, q) <= symkd(p, q) + 1e-12

    def test_single_label_mlc_equals_two_class_slc(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            a, b = rng.uniform(0.01, 0.99), rng.uniform(0.01, 0.99)
            mlc_p, mlc_q = ProbDist.mlc([a]), ProbDist.mlc([b])
            slc_p, slc_q = ProbDist.slc([a, 1 - a]), ProbDist.slc([b, 1 - b])
            for variant in VARIANTS:
                m = SimilarityMeasure(variant)
                assert score(m, mlc_p, mlc_q) == pytest.approx(score(m, slc_p, slc_q), rel=1e-12)


class TestProbDist:
    def test_slc_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            ProbDist.slc([0.7, 0.7])

    def test_slc_needs_two_classes(self):
        with pytest.raises(ValueError, match="k >= 2"):
            ProbDist.slc([1.0])

    def test_mlc_pairs_validated(self):
        with pytest.raises(ValueError, match="pair"):
            ProbDist("mlc", np.array([[0.9, 0.3]]))

    @pytest.mark.parametrize("build, values", [
        (ProbDist.slc, [np.nan, np.nan]),
        (ProbDist.slc, [np.nan, 1.0]),
        (ProbDist.slc, [np.inf, 0.0]),
        (ProbDist.mlc, [np.nan]),
        (ProbDist.mlc, [0.5, np.nan]),
        (ProbDist.mlc, [np.inf]),
    ])
    def test_non_finite_values_rejected(self, build, values):
        with pytest.raises(ValueError, match="sum to 1"):
            build(values)

    def test_argmax_and_label_set(self):
        assert ProbDist.slc([0.2, 0.5, 0.3]).argmax() == 1
        assert ProbDist.mlc([0.9, 0.4, 0.6]).label_set() == frozenset({0, 2})

    @given(st.data())
    def test_prediction_is_argmax_for_slc_and_label_set_for_mlc(self, data):
        k = data.draw(st.integers(2, 8))
        # repeated weights make argmax ties, 0.5 makes a label sit on the threshold
        weights = data.draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0]) | st.floats(0.0, 1.0),
                                     min_size=k, max_size=k).filter(lambda w: sum(w) > 0))
        slc = ProbDist.slc(np.asarray(weights) / sum(weights))
        assert slc.prediction() == slc.argmax()
        assert type(slc.prediction()) is int
        positives = data.draw(st.lists(st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0),
                                       min_size=1, max_size=8))
        mlc = ProbDist.mlc(positives)
        assert mlc.prediction() == mlc.label_set()
        assert mlc.prediction() == frozenset(j for j, p in enumerate(positives) if p > 0.5)

    def test_entropy_slc_and_mlc(self):
        assert entropy(ProbDist.slc([0.5, 0.5])) == pytest.approx(LN2, abs=1e-12)
        assert entropy(ProbDist.slc([1.0, 0.0])) == pytest.approx(0.0, abs=1e-9)
        # mlc: mean of per-label binary entropies
        assert entropy(ProbDist.mlc([0.5, 0.5])) == pytest.approx(LN2, abs=1e-12)
