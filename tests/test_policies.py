"""Exit policies: recurrence semantics, baselines, and monotonicity laws."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from exitlab.policies import (
    CONFIDENCE,
    FINAL_FALLBACK,
    FIXED_LAYER,
    PATIENCE_REACHED,
    EntropyThreshold,
    ExitDecision,
    ExitPolicy,
    ExitTrace,
    FixedExit,
    FPabee,
    LearnedConfidence,
    MaxProb,
    Pabee,
    TraceEntry,
    prediction_match_scorer,
    run_exit,
)
from exitlab.similarity import ProbDist

DUMMY = ProbDist.slc([0.5, 0.5])


def simulate_patience_exit(scores, thre, patience, n_layers):
    """Independent reference: step the counter recurrence over raw scores.

    ``scores[i]`` is the comparison between layers i+1 and i+2, so the
    first comparison happens at layer 2. Returns the exit layer (final
    layer if the counter never reaches the patience value).
    """
    pat = 0
    for i, s in enumerate(scores):
        pat = pat + 1 if s < thre else 0
        if pat >= patience:
            return i + 2
    return n_layers


def run_fpabee_on_scores(scores, thre, patience):
    """Drive FPabee with a scripted scorer replaying ``scores``.

    Returns ``(exit_layer, halted)``; a stream that never halts exits at
    its final layer, ``len(scores) + 1``, with ``halted`` False.
    """
    queue = list(scores)
    policy = FPabee(lambda prev, cur: queue.pop(0), thre, patience)
    for layer in range(1, len(scores) + 2):
        if policy.step(layer, DUMMY).halt:
            return layer, True
    return len(scores) + 1, False


def fpabee_exit(scores, thre, patience):
    return run_fpabee_on_scores(scores, thre, patience)[0]


def classic_patience_exit(predictions, patience):
    """Independent reference for classic patience over per-layer predictions."""
    pat = 0
    for i in range(1, len(predictions)):
        pat = pat + 1 if predictions[i] == predictions[i - 1] else 0
        if pat >= patience:
            return i + 1
    return len(predictions)


def pabee_exit(stream, patience):
    policy = Pabee(patience)
    for layer, p in enumerate(stream, start=1):
        if policy.step(layer, p).halt:
            return layer
    return len(stream)


def uniform_stream(rng, n, k=3):
    out = []
    for _ in range(n):
        out.append(ProbDist.slc(rng.dirichlet(np.ones(k))))
    return out


score_streams = st.lists(st.floats(0.0, 2.0), min_size=1, max_size=13)


@st.composite
def prediction_streams(draw):
    """``(stream, predictions)``: ProbDists plus each layer's argmax or label set,
    the latter computed from the raw rows without ProbDist's own methods."""
    n = draw(st.integers(2, 12))
    if draw(st.booleans()):
        k = draw(st.integers(2, 5))
        rows = draw(st.lists(st.lists(st.floats(0.01, 1.0), min_size=k, max_size=k),
                             min_size=n, max_size=n))
        rows = [[v / sum(r) for v in r] for r in rows]
        stream = [ProbDist.slc(r) for r in rows]
        predictions = [max(range(k), key=r.__getitem__) for r in rows]
    else:
        k = draw(st.integers(1, 5))
        rows = draw(st.lists(st.lists(st.floats(0.05, 0.95), min_size=k, max_size=k),
                             min_size=n, max_size=n))
        stream = [ProbDist.mlc(r) for r in rows]
        predictions = [{j for j, v in enumerate(r) if v > 0.5} for r in rows]
    return stream, predictions


class TestFPabeeStep:
    def test_hand_stepped_sequence(self):
        # thre=0.5, scores [0.4, 0.6, 0.3, 0.2] -> pat 1,0,1,2; halt on the
        # 4th comparison, i.e. at layer 5
        queue = [0.4, 0.6, 0.3, 0.2]
        policy = FPabee(lambda p, c: queue.pop(0), thre=0.5, patience=2)
        d = policy.step(1, DUMMY)  # layer 1, no comparison
        assert policy.pat == 0 and policy.last_score is None and not d.halt
        expected_pat = [1, 0, 1, 2]
        for layer, want in zip(range(2, 6), expected_pat):
            d = policy.step(layer, DUMMY)
            assert policy.pat == want
            assert d.halt == (layer == 5)
        assert d.reason == PATIENCE_REACHED
        assert policy.last_score == 0.2
        policy.reset()
        assert policy.pat == 0 and policy.last_score is None

    def test_infinite_threshold_exits_at_patience_plus_one(self):
        for patience in (1, 2, 3, 5):
            scores = [1e9] * 10
            assert fpabee_exit(scores, math.inf, patience) == patience + 1

    def test_zero_threshold_never_halts(self):
        rng = np.random.default_rng(0)
        scores = rng.uniform(0.0, 5.0, size=10).tolist()
        # scores are >= 0 >= thre, so every comparison resets
        assert run_fpabee_on_scores(scores, 0.0, 1) == (11, False)

    def test_matches_direct_simulation_on_random_streams(self):
        rng = np.random.default_rng(1)
        for _ in range(500):
            n = int(rng.integers(2, 12))
            scores = rng.uniform(0, 2, size=n - 1).tolist()
            thre = float(rng.uniform(0, 2))
            patience = int(rng.integers(1, 5))
            assert fpabee_exit(scores, thre, patience) == simulate_patience_exit(
                scores, thre, patience, n
            )

    def test_score_equal_to_threshold_resets(self):
        assert run_fpabee_on_scores([0.5, 0.5], 0.5, 1) == (3, False)  # neither increments

    def test_patience_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            FPabee(prediction_match_scorer, 0.5, 0)


class TestPabee:
    def test_stable_argmax_halts_after_patience(self):
        stream = [ProbDist.slc([0.1, 0.2, 0.7])] * 3
        policy = Pabee(patience=2)
        decisions = [policy.step(layer, p).halt for layer, p in enumerate(stream, start=1)]
        assert decisions == [False, False, True]

    def test_alternating_argmax_never_halts(self):
        a = ProbDist.slc([0.8, 0.2])
        b = ProbDist.slc([0.2, 0.8])
        policy = Pabee(patience=1)
        for layer, p in enumerate([a, b, a, b, a, b], start=1):
            assert not policy.step(layer, p).halt

    def test_equivalent_to_flexible_policy_with_match_scorer(self):
        # any thre in (0, 1] separates the scorer's 0.0 from its 1.0
        rng = np.random.default_rng(2)
        for _ in range(300):
            n = int(rng.integers(2, 10))
            patience = int(rng.integers(1, 4))
            stream = uniform_stream(rng, n)
            for thre in (1e-9, 0.5, 1.0):
                pab = Pabee(patience)
                flex = FPabee(prediction_match_scorer, thre=thre, patience=patience)
                for layer, p in enumerate(stream, start=1):
                    d1 = pab.step(layer, p)
                    d2 = flex.step(layer, p)
                    assert d1.halt == d2.halt
                    if d1.halt:
                        break

    def test_mlc_uses_threshold_label_sets(self):
        a = ProbDist.mlc([0.9, 0.1, 0.6])
        b = ProbDist.mlc([0.7, 0.2, 0.55])  # same set {0, 2}
        c = ProbDist.mlc([0.7, 0.6, 0.55])  # set {0, 1, 2}
        policy = Pabee(patience=1)
        policy.step(1, a)
        assert policy.step(2, b).halt
        policy.reset()
        policy.step(1, a)
        assert not policy.step(2, c).halt

    @given(prediction_streams(), st.integers(1, 5))
    def test_matches_direct_classic_patience_simulation(self, drawn, patience):
        stream, predictions = drawn
        assert pabee_exit(stream, patience) == classic_patience_exit(predictions, patience)


class TestConfidenceBaselines:
    def test_entropy_one_hot_halts_for_any_positive_threshold(self):
        d = EntropyThreshold(1e-6).step(1, ProbDist.slc([1.0, 0.0]))
        assert d.halt and d.reason == CONFIDENCE

    def test_entropy_uniform_does_not_halt_at_half(self):
        assert not EntropyThreshold(0.5).step(1, ProbDist.slc([0.5, 0.5])).halt

    def test_entropy_boundary_matches_scalar_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            p = rng.dirichlet(np.ones(4))
            h = float(-(p * np.log(np.maximum(p, 1e-12))).sum())
            for threshold in (0.2, 0.5, 1.0):
                assert EntropyThreshold(threshold).step(1, ProbDist.slc(p)).halt == (h < threshold)

    def test_maxprob_halts_above_threshold(self):
        assert MaxProb(0.8).step(1, ProbDist.slc([0.9, 0.1])).halt

    def test_maxprob_uniform_never_halts_above_chance(self):
        assert not MaxProb(0.5).step(1, ProbDist.slc([0.25] * 4)).halt

    def test_maxprob_tie_with_threshold_does_not_halt(self):
        assert not MaxProb(0.8).step(1, ProbDist.slc([0.8, 0.2])).halt

    def test_maxprob_mlc_uses_weakest_label(self):
        p = ProbDist.mlc([0.95, 0.60])  # weakest label confidence 0.60
        assert MaxProb(0.55).step(1, p).halt
        assert not MaxProb(0.65).step(1, p).halt

    def test_learned_confidence_threshold(self):
        assert LearnedConfidence(0.8).step(1, DUMMY, 0.9).halt
        assert not LearnedConfidence(1.0).step(1, DUMMY, 0.5).halt  # threshold 1 never halts


class TestFixedExit:
    def test_halts_exactly_at_layer(self):
        policy = FixedExit(3)
        assert not policy.step(1, DUMMY).halt
        assert not policy.step(2, DUMMY).halt
        d = policy.step(3, DUMMY)
        assert d.halt and d.reason == FIXED_LAYER

    def test_layer_must_be_positive(self):
        with pytest.raises(ValueError):
            FixedExit(0)


class TestMonotonicity:
    """Laws of FPabee itself, per score stream: raising thre never delays an
    exit, raising patience never hastens one, and no halt comes before
    ``patience`` comparisons have been made."""

    @given(score_streams, st.floats(0.0, 2.0), st.floats(0.0, 2.0), st.integers(1, 4))
    def test_exit_layer_nonincreasing_in_threshold(self, scores, t1, t2, patience):
        lo, hi = sorted((t1, t2))
        assert fpabee_exit(scores, hi, patience) <= fpabee_exit(scores, lo, patience)

    @given(score_streams, st.floats(0.0, 2.0), st.integers(1, 5), st.integers(1, 5))
    def test_exit_layer_nondecreasing_in_patience(self, scores, thre, p1, p2):
        lo, hi = sorted((p1, p2))
        assert fpabee_exit(scores, thre, lo) <= fpabee_exit(scores, thre, hi)

    @given(score_streams, st.floats(0.0, 2.0), st.integers(1, 5))
    def test_early_halt_needs_at_least_patience_comparisons(self, scores, thre, patience):
        exit_layer, halted = run_fpabee_on_scores(scores, thre, patience)
        assert not halted or exit_layer >= patience + 1


class TestExitTrace:
    def _entry(self, layer, halt, reason=None):
        return TraceEntry(layer, 0, None, None, ExitDecision(halt, reason))

    def test_requires_single_halt_at_end(self):
        good = ExitTrace(
            (self._entry(1, False), self._entry(2, True, PATIENCE_REACHED)), 2, PATIENCE_REACHED
        )
        assert good.exit_layer == 2
        with pytest.raises(ValueError, match="halting"):
            ExitTrace((self._entry(1, False), self._entry(2, False)), 2, FINAL_FALLBACK)
        with pytest.raises(ValueError, match="halting"):
            ExitTrace(
                (self._entry(1, True, FIXED_LAYER), self._entry(2, True, FIXED_LAYER)),
                2,
                FIXED_LAYER,
            )

    def test_exit_layer_must_match_last_entry(self):
        with pytest.raises(ValueError, match="exit_layer"):
            ExitTrace((self._entry(1, True, FIXED_LAYER),), 2, FIXED_LAYER)


class ScriptedPolicy(ExitPolicy):
    """Test double: halts where its script says; score and counter encode the layer."""

    name = "scripted"

    def __init__(self, script):
        self.script = script
        self.resets = 0

    def reset(self):
        self.resets += 1
        self.pat = 0

    def step(self, layer, probs, confidence=None):
        self.last_score = float(layer) + confidence
        self.pat += 1
        halt = self.script[layer - 1]
        return ExitDecision(halt, CONFIDENCE if halt else None)


class TestRunExit:
    @given(st.integers(1, 8).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.booleans(), min_size=n, max_size=n))))
    def test_matches_step_by_step_reference(self, n_and_script):
        n, script = n_and_script
        requested = []
        # a distinct object per layer, predicting class 0 at odd layers and 1 at even ones
        dists = [ProbDist.slc([0.9, 0.1] if j % 2 else [0.1, 0.9]) for j in range(1, n + 1)]

        def layers():
            for j in range(1, n + 1):
                requested.append(j)
                yield dists[j - 1], j / 10

        policy = ScriptedPolicy(script)
        prob, trace = run_exit(policy, layers(), n)
        # reference: the first scripted halt, else the final layer by fallback
        halted = [j for j in range(1, n + 1) if script[j - 1]]
        exit_layer = halted[0] if halted else n
        reason = CONFIDENCE if halted else FINAL_FALLBACK
        layers_run = [e.layer for e in trace.entries]
        assert policy.resets == 1
        assert layers_run == list(range(1, exit_layer + 1))
        assert (trace.exit_layer, trace.reason) == (exit_layer, reason)
        assert trace.entries[-1].decision == ExitDecision(True, reason)
        assert (trace.reason == FINAL_FALLBACK) == (not any(script))
        assert not any(e.decision.halt for e in trace.entries[:-1])
        assert [(e.score, e.pat) for e in trace.entries] == [(j + j / 10, j) for j in layers_run]
        assert [e.prediction for e in trace.entries] == [1 - j % 2 for j in layers_run]
        assert prob is dists[exit_layer - 1]
        assert requested == layers_run

    @pytest.mark.parametrize("n_given", [0, 2])
    def test_stream_that_ends_before_a_halt_names_its_length(self, n_given):
        layers = [(DUMMY, None)] * n_given
        with pytest.raises(ValueError) as e:
            run_exit(FixedExit(3), layers, 3)
        assert str(e.value) == f"layer stream ended after {n_given} layers without a halt (n_layers=3)"
