"""Harness: speedup accounting, sweeps, pareto filtering, emitters, compare."""

import functools
import math
import re
import tempfile
from collections import Counter
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import exitlab.harness as harness
from exitlab.data import (Dataset, Example, SyntheticSpec, Vocab, build_vocab, encode_dataset,
                          generate_synthetic, tokenize)
from exitlab.errors import ConfigError, DataError
from exitlab.harness import (
    POLICY_NAMES,
    EvalResult,
    _LayerScores,
    PolicySpec,
    SweepResult,
    compare_policies,
    emit_csv,
    emit_histogram,
    emit_svg,
    evaluate,
    parse_csv,
    pareto_curve,
    sweep,
)
from exitlab.model import LengthGroups, ModelConfig, MultiExitModel, load_checkpoint, save_checkpoint
from exitlab.policies import FIXED_LAYER, ExitDecision, ExitPolicy, FPabee, Pabee, run_exit
from exitlab.similarity import VARIANTS, SimilarityMeasure, mlc_pairs
from exitlab.training import dev_accuracy

from conftest import record, recorded_layers, replay, replay_result


def make_setup(n_layers=4, task="slc", n_classes=3, n_examples=12, seed=0, share_layer_params=False):
    spec = SyntheticSpec(task=task, n_classes=n_classes, n_train=n_examples, n_dev=4,
                         n_test=4, easy_fraction=1.0, seed=seed)
    splits = generate_synthetic(spec)
    vocab = build_vocab(splits.train, 300)
    cfg = ModelConfig(vocab_size=len(vocab), n_classes=n_classes, task=task,
                      n_layers=n_layers, d_model=8, n_heads=2, d_ff=16, max_seq_len=24, seed=1,
                      share_layer_params=share_layer_params)
    model = MultiExitModel(cfg)
    rng = np.random.default_rng(2)
    for p in model.params.values():
        p.array[...] = rng.normal(0, 0.2, p.shape)
    return model, splits.train, vocab


class ScriptedExits(ExitPolicy):
    """Test double: exits each sample at the next layer from a fixed list."""

    name = "fixed"

    def __init__(self, layers):
        self.queue = list(layers)
        self.current = None

    def reset(self):
        self.current = self.queue.pop(0)

    def step(self, layer, probs, confidence=None):
        halt = layer == self.current
        return ExitDecision(halt, FIXED_LAYER if halt else None)


class TestEvaluate:
    def test_fixed_exit_at_final_layer_has_zero_speedup(self):
        model, data, vocab = make_setup()
        r = evaluate(model, data, PolicySpec("fixed", fixed_layer=4), vocab)
        assert r.speedup == 0.0
        assert r.mean_exit_layer == 4.0

    def test_fixed_exit_speedup_is_exact(self):
        model, data, vocab = make_setup(n_layers=12)
        r3 = evaluate(model, data, PolicySpec("fixed", fixed_layer=3), vocab)
        r6 = evaluate(model, data, PolicySpec("fixed", fixed_layer=6), vocab)
        assert r3.speedup == 0.75
        assert r6.speedup == 0.5

    def test_mixed_exit_layers_average(self):
        model, data, vocab = make_setup(n_layers=12, n_examples=3)
        policy = ScriptedExits([3, 6, 12])
        r = evaluate(model, data, policy, vocab)
        assert r.speedup == pytest.approx((0.75 + 0.5 + 0.0) / 3, abs=1e-12)

    def test_histogram_sums_to_sample_count(self):
        model, data, vocab = make_setup(n_examples=9)
        r = evaluate(model, data, PolicySpec("entropy", thre=0.7), vocab)
        assert sum(r.histogram) == r.n_samples == 9
        assert len(r.histogram) == 4

    def test_speedup_consistent_with_mean_exit(self):
        model, data, vocab = make_setup()
        r = evaluate(model, data, PolicySpec("maxprob", thre=0.4), vocab)
        assert r.speedup == pytest.approx(1 - r.mean_exit_layer / 4, abs=1e-9)

    def test_full_depth_accuracy_equals_full_model_for_every_policy(self):
        model, data, vocab = make_setup()
        full = evaluate(model, data, PolicySpec("fixed", fixed_layer=4), vocab)
        never_halt = [
            PolicySpec("entropy", thre=0.0),
            PolicySpec("maxprob", thre=1.0),
            PolicySpec("learned", thre=1.0),
            PolicySpec("fpabee", thre=0.0, patience=1),
            PolicySpec("pabee", patience=4),
        ]
        for spec in never_halt:
            r = evaluate(model, data, spec, vocab)
            assert r.speedup == 0.0
            assert r.accuracy == full.accuracy

    def test_task_mismatch_rejected(self):
        model, _, vocab = make_setup(task="slc")
        other = Dataset("mlc", 3, [Example("a", labels=(1,))])
        with pytest.raises(ConfigError, match="task"):
            evaluate(model, other, PolicySpec("fixed", fixed_layer=1), vocab)

    @pytest.mark.parametrize("run", [
        pytest.param(lambda m, d, v: evaluate(m, d, PolicySpec("fixed", fixed_layer=4), v), id="evaluate"),
        pytest.param(lambda m, d, v: sweep(m, d, [PolicySpec("fixed", fixed_layer=4)], v), id="sweep"),
        pytest.param(lambda m, d, v: compare_policies(m, d, 0.5, [PolicySpec("fixed")], v), id="compare"),
    ])
    def test_class_count_mismatch_rejected(self, run):
        model, data, vocab = make_setup(n_classes=3)
        with pytest.raises(ConfigError, match="7 classes, model expects 3"):
            run(model, Dataset("slc", 7, data.examples), vocab)

    @pytest.mark.parametrize("task, bad", [
        pytest.param("slc", Example("a", label=3), id="slc"),
        pytest.param("mlc", Example("a", labels=(0, 3)), id="mlc"),
    ])
    def test_label_outside_class_range_names_the_example(self, task, bad):
        model, data, vocab = make_setup(task=task, n_classes=3)
        examples = list(data.examples)
        examples[5] = bad
        with pytest.raises(DataError, match=r"example 5 has label 3 outside \[0, 3\)"):
            evaluate(model, Dataset(task, 3, examples), PolicySpec("fixed", fixed_layer=4), vocab)

    @pytest.mark.parametrize("task, n_classes", [("slc", 3), ("mlc", 4)])
    def test_a_policy_object_reports_the_spec_that_builds_it(self, task, n_classes):
        model, data, vocab = make_setup(n_layers=5, task=task, n_classes=n_classes)
        specs = SIX_POLICIES[task] + [PolicySpec("fpabee", measure=m, thre=0.5, patience=2, kl_mode=kl)
                                      for m in VARIANTS for kl in (False, True)]
        for spec in specs:
            assert evaluate(model, data, spec.build(), vocab) == evaluate(model, data, spec, vocab), spec

    def test_any_other_policy_object_reports_its_bare_name(self):
        model, data, vocab = make_setup()

        class Patient(Pabee):
            pass

        for policy in (FPabee(lambda prev, cur: 0.0, 0.5, 1), FPabee(SimilarityMeasure("kd"), math.inf, 1),
                       Patient(2), ScriptedExits([2] * len(data))):
            assert evaluate(model, data, policy, vocab).spec == PolicySpec(policy.name)

    def test_mlc_metrics(self):
        model, data, vocab = make_setup(task="mlc", n_classes=4)
        r = evaluate(model, data, PolicySpec("fixed", fixed_layer=4), vocab)
        assert 0.0 <= r.micro_f1 <= 1.0
        assert 0.0 <= r.accuracy <= 1.0
        assert r.score == r.micro_f1


def constant_exits(model, logits):
    """Make exit ``i`` give the same output on every input: zero head
    weights, head bias ``logits[i]``."""
    for i, row in enumerate(logits):
        model.params[f"head{i}.w"].array[...] = 0.0
        model.params[f"head{i}.b"].array[...] = row


class TestMetricOracle:
    """Accuracy and micro-F1 against hand counts, with scripted exits and
    exits whose predictions do not depend on the input."""

    def test_mlc_micro_f1_from_hand_counts(self):
        model, data, vocab = make_setup(task="mlc", n_classes=3, n_examples=5)
        # layer 1 predicts {}, layer 2 {0}, layer 3 {0, 1}, layer 4 {0, 1, 2}
        constant_exits(model, [[-5, -5, -5], [5, -5, -5], [5, 5, -5], [5, 5, 5]])
        gold = [(1,), (0,), (), (1, 2), ()]
        exits = [1, 2, 3, 4, 1]
        # per sample (tp, fp, fn): (0,0,1) (1,0,0) (0,2,0) (2,1,0) (0,0,0)
        # and hits on samples 2 and 5 only; empty predicted set on 1 and 5, empty gold on 3 and 5
        dataset = Dataset("mlc", 3, [Example(ex.text, labels=g) for ex, g in zip(data.examples, gold)])
        r = evaluate(model, dataset, ScriptedExits(exits), vocab)
        tp, fp, fn = 3, 3, 1
        assert r.micro_f1 == 2 * tp / (2 * tp + fp + fn) == 0.6
        assert r.accuracy == 2 / 5
        assert r.score == r.micro_f1

    def test_mlc_empty_prediction_and_empty_gold_is_perfect(self):
        model, data, vocab = make_setup(task="mlc", n_classes=3, n_examples=2)
        constant_exits(model, [[-5, -5, -5]] * 4)
        dataset = Dataset("mlc", 3, [Example(ex.text, labels=()) for ex in data.examples])
        r = evaluate(model, dataset, ScriptedExits([1, 3]), vocab)
        assert r.micro_f1 == 1.0 and r.accuracy == 1.0

    def test_slc_micro_f1_is_accuracy(self):
        model, data, vocab = make_setup(task="slc", n_classes=3, n_examples=4)
        # layer i predicts class (i - 1) % 3
        constant_exits(model, [[5, 0, 0], [0, 5, 0], [0, 0, 5], [5, 0, 0]])
        dataset = Dataset("slc", 3, [Example(ex.text, label=g) for ex, g in zip(data.examples, [0, 2, 2, 1])])
        r = evaluate(model, dataset, ScriptedExits([1, 2, 3, 4]), vocab)
        assert r.accuracy == 2 / 4
        assert r.micro_f1 == r.accuracy == r.score


# the fields each policy reads, knob first, and a valid value for every field
READS = {"fpabee": ("thre", "patience", "measure", "kl_mode"), "pabee": ("patience",),
         "entropy": ("thre",), "maxprob": ("thre",), "learned": ("thre",), "fixed": ("fixed_layer",)}
FIELD_VALUES = {"thre": 0.0, "patience": 2, "measure": "kd", "kl_mode": True, "fixed_layer": 1}


class TestPolicySpec:
    @pytest.mark.parametrize("policy", POLICY_NAMES)
    def test_every_field_the_policy_does_not_read_is_rejected(self, policy):
        reads = {f: FIELD_VALUES[f] for f in READS[policy]}
        PolicySpec(policy, **reads).build()
        for field in FIELD_VALUES.keys() - reads.keys():
            with pytest.raises(ConfigError, match=f"--{field.replace('_', '-')} applies to"):
                PolicySpec(policy, **reads, **{field: FIELD_VALUES[field]})

    def test_unknown_measure_is_rejected_at_construction(self):
        with pytest.raises(ConfigError, match="measure"):
            PolicySpec("fpabee", measure="bogus", thre=0.1, patience=1)

    def test_fpabee_measure_defaults_to_jskd(self):
        assert (PolicySpec("fpabee", thre=0.1, patience=1)
                == PolicySpec("fpabee", measure="jskd", thre=0.1, patience=1))

    @pytest.mark.parametrize("policy, field", [("pabee", "patience"), ("fixed", "fixed_layer"),
                                               ("fpabee", "patience")])
    def test_layer_and_patience_knobs_are_integers(self, policy, field, tmp_path):
        extra = {"thre": 0.1} if policy == "fpabee" else {}
        for bad in (2.5, 1.9, True, np.float64(0.5), float("nan"), float("inf"), "2"):
            with pytest.raises(ConfigError, match=f"^{field} must be an integer, got "):
                PolicySpec(policy, **extra, **{field: bad})
        for good in (2, 2.0, np.int64(2), np.float32(2.0)):
            spec = PolicySpec(policy, **extra, **{field: good})
            assert type(getattr(spec, field)) is int and getattr(spec, field) == 2
            assert spec == PolicySpec(policy, **extra, **{field: 2})
        if policy == "fpabee":
            return
        spec = PolicySpec(policy)
        assert spec.with_knob(np.float64(3.0)) == spec.with_knob(3) == PolicySpec(policy, **{field: 3})
        assert type(spec.with_knob(np.int64(3)).knob_value()) is float
        with pytest.raises(ConfigError, match=f"^{field} must be an integer, got 2.5$"):
            spec.with_knob(2.5)
        # a hand-edited knob cell fails to parse instead of running another knob
        model, data, vocab = make_setup()
        path = tmp_path / "sweep.csv"
        emit_csv(sweep(model, data, [spec.with_knob(2)], vocab), path)
        assert parse_csv(path).rows[0].spec == spec.with_knob(2)
        lines = path.read_text().splitlines()
        cells = lines[1].split(",")
        assert cells[2] == "2.0"
        path.write_text("\n".join([lines[0], ",".join(cells[:2] + ["2.5"] + cells[3:])]) + "\n")
        with pytest.raises(ConfigError, match=f"^{field} must be an integer, got 2.5$"):
            parse_csv(path)

    def test_thre_is_not_a_bool(self):
        for policy in ("entropy", "maxprob", "learned"):
            with pytest.raises(ConfigError, match="^thre must be a finite number, got True$"):
                PolicySpec(policy, thre=True)
        with pytest.raises(ConfigError, match="^thre must be a finite number, got True$"):
            PolicySpec("fpabee", thre=True, patience=1)


class TestSweep:
    def test_single_point_equals_single_evaluate(self):
        model, data, vocab = make_setup()
        spec = PolicySpec("fixed", fixed_layer=2)
        single = evaluate(model, data, spec, vocab)
        result = sweep(model, data, [spec], vocab, seed=3)
        assert len(result.rows) == 1
        assert result.rows[0].speedup == single.speedup
        assert result.rows[0].histogram == single.histogram
        assert result.seed == 3

    def test_rows_sorted_by_speedup(self):
        model, data, vocab = make_setup()
        specs = [PolicySpec("fixed", fixed_layer=j) for j in (1, 4, 2)]
        result = sweep(model, data, specs, vocab)
        speedups = [r.speedup for r in result.rows]
        assert speedups == sorted(speedups)

    def test_one_buffer_compare_per_sweep(self, monkeypatch):
        """The recording's memo check also serves the model hash."""
        model, data, vocab = make_setup()
        calls = []
        derived = model.derived
        monkeypatch.setattr(model, "derived", lambda: calls.append(1) or derived())
        result = sweep(model, data, [PolicySpec("fixed", fixed_layer=2)], vocab)
        assert len(calls) == 1
        monkeypatch.undo()
        fresh = MultiExitModel(model.config)
        fresh._buffer[...] = model._buffer
        assert result.model_hash == fresh.param_hash() == model.param_hash()

    def test_metadata_hashes_are_stable(self):
        model, data, vocab = make_setup()
        a = sweep(model, data, [PolicySpec("fixed", fixed_layer=1)], vocab)
        b = sweep(model, data, [PolicySpec("fixed", fixed_layer=1)], vocab)
        assert a.model_hash == b.model_hash
        assert a.data_hash == b.data_hash


class TestPareto:
    def make_row(self, speedup, score):
        return EvalResult(PolicySpec("fixed", fixed_layer=1), "slc", 1, score, score,
                          speedup, 1.0, [1])

    def brute_force(self, points):
        keep = []
        for p in points:
            if not any(q[0] >= p[0] and q[1] >= p[1] and q != p for q in points if q != p):
                keep.append(p)
        return sorted(set(keep))

    def test_single_point_is_its_own_frontier(self):
        rows = [self.make_row(0.5, 0.9)]
        assert pareto_curve(rows) == [(0.5, 0.9)]

    def test_dominated_point_removed(self):
        rows = [self.make_row(0.5, 0.9), self.make_row(0.4, 0.8)]
        assert pareto_curve(rows) == [(0.5, 0.9)]

    def test_incomparable_points_kept_sorted(self):
        rows = [self.make_row(0.6, 0.7), self.make_row(0.3, 0.95)]
        assert pareto_curve(rows) == [(0.3, 0.95), (0.6, 0.7)]

    def test_matches_quadratic_oracle_on_random_sweeps(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            pts = [(float(rng.uniform(0, 1)), float(rng.uniform(0, 1))) for _ in range(12)]
            rows = [self.make_row(s, a) for s, a in pts]
            got = pareto_curve(rows)
            expected = self.brute_force(pts)
            assert got == expected


class TestEmitters:
    def test_empty_sweep_gives_header_only(self, tmp_path):
        result = SweepResult([], 4, 0, "mh", "dh")
        path = tmp_path / "sweep.csv"
        emit_csv(result, path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("policy,measure,thre,patience,accuracy")
        assert "hist_4" in lines[0]

    def test_round_trip_is_lossless(self, tmp_path):
        model, data, vocab = make_setup()
        specs = [
            PolicySpec("fixed", fixed_layer=2),
            PolicySpec("entropy", thre=0.67891234567891),
            PolicySpec("fpabee", measure="symkd", thre=0.1, patience=2),
        ]
        result = sweep(model, data, specs, vocab, seed=9)
        path = tmp_path / "sweep.csv"
        emit_csv(result, path)
        loaded = parse_csv(path)
        assert loaded.n_layers == result.n_layers
        assert loaded.seed == result.seed
        assert loaded.model_hash == result.model_hash
        for a, b in zip(loaded.rows, result.rows):
            assert a.speedup == b.speedup
            assert a.accuracy == b.accuracy
            assert a.micro_f1 == b.micro_f1
            assert a.mean_exit_layer == b.mean_exit_layer
            assert a.histogram == b.histogram
            assert a.spec.policy == b.spec.policy

    def test_round_trip_gives_back_the_spec_for_all_six_policies(self, tmp_path):
        model, data, vocab = make_setup()
        specs = [
            PolicySpec("fpabee", measure="kd", thre=0.25, patience=2),
            PolicySpec("fpabee", measure="symkd", thre=0.5, patience=3, kl_mode=True),
            PolicySpec("fpabee", thre=0.3, patience=1),
            PolicySpec("pabee", patience=3),
            PolicySpec("entropy", thre=0.75),
            PolicySpec("maxprob", thre=0.6),
            PolicySpec("learned", thre=0.4),
            PolicySpec("fixed", fixed_layer=4),
        ]
        result = sweep(model, data, specs, vocab)
        path = tmp_path / "sweep.csv"
        emit_csv(result, path)
        assert [r.spec for r in parse_csv(path).rows] == [r.spec for r in result.rows]

    def test_file_without_kl_mode_column_parses_as_false(self, tmp_path):
        model, data, vocab = make_setup()
        spec = PolicySpec("fpabee", measure="kd", thre=0.25, patience=2, kl_mode=True)
        path = tmp_path / "sweep.csv"
        emit_csv(sweep(model, data, [spec], vocab), path)
        lines = path.read_text().splitlines()
        assert lines[0].endswith(",data_hash,kl_mode") and lines[1].endswith(",True")
        path.write_text("".join(line.rsplit(",", 1)[0] + "\n" for line in lines))
        assert parse_csv(path).rows[0].spec == replace(spec, kl_mode=False)

    def test_numpy_float_knob_round_trips(self, tmp_path):
        model, data, vocab = make_setup()
        thre = np.float64(1.0984312345678901)
        result = sweep(model, data, [PolicySpec("entropy", thre=thre)], vocab)
        path = tmp_path / "sweep.csv"
        emit_csv(result, path)
        assert "np.float64" not in path.read_text()
        assert parse_csv(path).rows[0].spec.thre == float(thre)

    def test_histogram_column_count_matches_layers(self, tmp_path):
        model, data, vocab = make_setup(n_layers=5)
        r = evaluate(model, data, PolicySpec("fixed", fixed_layer=3), vocab)
        path = tmp_path / "hist.csv"
        emit_histogram(r, path)
        header = path.read_text().splitlines()[0].split(",")
        assert sum(1 for h in header if h.startswith("hist_")) == 5

    def test_svg_contains_polyline_per_curve(self, tmp_path):
        path = tmp_path / "curves.svg"
        emit_svg(
            [("a", [(0.1, 0.9), (0.5, 0.8)]), ("b", [(0.2, 0.7)])],
            path,
        )
        text = path.read_text()
        assert text.count("<polyline") == 2
        assert text.startswith("<svg")

    def test_unwritable_path_raises_oserror(self, tmp_path):
        result = SweepResult([], 2, 0, "x", "y")
        with pytest.raises(OSError):
            emit_csv(result, tmp_path / "missing_dir" / "out.csv")


class TestComparePolicies:
    def test_target_zero_returns_full_model_scores(self):
        model, data, vocab = make_setup()
        full = evaluate(model, data, PolicySpec("fixed", fixed_layer=4), vocab)
        specs = [
            PolicySpec("fpabee", patience=2),
            PolicySpec("pabee"),
            PolicySpec("entropy"),
            PolicySpec("maxprob"),
            PolicySpec("learned"),
            PolicySpec("fixed"),
        ]
        results = compare_policies(model, data, 0.0, specs, vocab)
        for res in results:
            assert res.attained, res.spec.policy
            assert res.result.speedup == 0.0
            assert res.result.accuracy == full.accuracy

    def test_fixed_family_selects_layer_six_at_half_speedup(self):
        model, data, vocab = make_setup(n_layers=12)
        results = compare_policies(model, data, 0.5, [PolicySpec("fixed")], vocab)
        assert results[0].result.spec.fixed_layer == 6
        assert results[0].result.speedup == 0.5
        assert results[0].attained

    def test_unreachable_target_reported_not_raised(self):
        model, data, vocab = make_setup(n_layers=4)
        # fixed layers give speedups {0, .25, .5, .75}; 0.4 is off-grid
        results = compare_policies(model, data, 0.4, [PolicySpec("fixed")], vocab)
        assert not results[0].attained
        assert abs(results[0].result.speedup - 0.4) <= 0.25

    def test_continuous_knob_lands_within_tolerance(self):
        model, data, vocab = make_setup(n_examples=24)
        results = compare_policies(model, data, 0.5, THRESHOLD_SPECS, vocab)
        for res in results:
            assert res.attained, res.spec
            assert abs(res.result.speedup - 0.5) <= 0.02

    @pytest.mark.parametrize("tolerance", [-1.0, -np.inf, np.nan])
    def test_negative_or_nan_tolerance_rejected(self, tolerance):
        model, data, vocab = make_setup()
        with pytest.raises(ConfigError, match="tolerance"):
            compare_policies(model, data, 0.3, [PolicySpec("fixed")], vocab, tolerance=tolerance)

    @pytest.mark.parametrize("patience", [1, 2])
    def test_always_halt_end_reached_beyond_80_nats(self, patience):
        model, data, vocab = make_setup(n_layers=5, task="mlc", n_classes=4)
        for name, p in model.params.items():
            if name.startswith("head"):
                p.array[...] *= 200.0  # symkd scores up to about 137 nats
        target = 1 - (patience + 1) / 5
        spec = PolicySpec("fpabee", measure="symkd", patience=patience)
        res, = compare_policies(model, data, target, [spec], vocab)
        assert res.attained
        assert res.result.speedup == pytest.approx(target, abs=1e-12)
        assert res.spec.thre > 80.0


THRESHOLD_SPECS = [
    PolicySpec("fpabee", measure="jskd", patience=1),
    PolicySpec("entropy"),
    PolicySpec("maxprob"),
    PolicySpec("learned"),
]
COMPARED_SPECS = THRESHOLD_SPECS + [PolicySpec("pabee"), PolicySpec("fixed")]


@pytest.fixture(scope="module", params=[("slc", 3), ("mlc", 4)], ids=["slc", "mlc"])
def knob_frontier(request):
    """(model, data, vocab, {policy: [(knob, result)] for every knob of knob_curve})."""
    task, n_classes = request.param
    model, data, vocab = make_setup(n_layers=5, task=task, n_classes=n_classes)
    cache = record(model, data, vocab)
    frontier = {spec.policy: [(k, replay_result(cache, data, k))
                              for k in map(spec.with_knob, cache.knob_curve(spec)[0])]
                for spec in COMPARED_SPECS}
    return model, data, vocab, frontier


class TestExactKnobSearch:
    """compare_policies against a brute-force oracle: every knob of all six policies."""

    def check(self, knob_frontier, target, tolerance):
        model, data, vocab, frontier = knob_frontier
        results = compare_policies(model, data, target, COMPARED_SPECS, vocab, tolerance=tolerance)
        for spec, res in zip(COMPARED_SPECS, results):
            closest = min(abs(r.speedup - target) for _, r in frontier[spec.policy])
            tied = [(k, r) for k, r in frontier[spec.policy] if abs(r.speedup - target) == closest]
            best = max(r.score for _, r in tied)
            assert abs(res.result.speedup - target) == closest, (spec, target)
            assert res.attained == (closest <= tolerance), (spec, target)
            assert res.spec == next(k for k, r in tied if r.score == best), (spec, target)
            assert res.result == replay_result(record(model, data, vocab), data, res.spec)

    def test_candidates_cover_every_exit_pattern(self, knob_frontier):
        model, data, vocab, frontier = knob_frontier
        cache = record(model, data, vocab)
        for pairs in frontier.values():
            speedups = [r.speedup for _, r in pairs]
            assert speedups in (sorted(speedups), sorted(speedups, reverse=True))
        for spec in THRESHOLD_SPECS:
            knobs = [k.thre for k, _ in frontier[spec.policy]]
            patterns = {tuple(replay(cache, replace(spec, thre=t).build())[0]) for t in knobs}
            assert len(patterns) > 2, spec
            between = [(a + b) / 2 for a, b in zip(knobs, knobs[1:])] + [-1e6, 1e6]
            for t in between:
                assert tuple(replay(cache, replace(spec, thre=t).build())[0]) in patterns, (spec, t)

    @pytest.mark.parametrize("tolerance", [0.0, 0.01, 0.02])
    def test_attained_exactly_when_a_candidate_lands(self, knob_frontier, tolerance):
        for target in (0.0, 0.1, 0.25, 0.37, 0.5, 0.6, 0.75, 0.79, 0.95):
            self.check(knob_frontier, target, tolerance)

    def test_ties_go_to_the_higher_score_then_the_first_knob(self):
        model, data, vocab = make_setup(n_layers=4)
        # fixed layers 2 and 3 of 4 give speedups 0.5 and 0.25, both 0.125 from 0.375
        layers = [evaluate(model, data, PolicySpec("fixed", fixed_layer=j), vocab) for j in (2, 3)]
        res, = compare_policies(model, data, 0.375, [PolicySpec("fixed")], vocab)
        assert res.result == max(layers, key=lambda r: r.score)
        # pabee's patience 3 and 4 both run every sample to layer 4
        res, = compare_policies(model, data, 0.0, [PolicySpec("pabee")], vocab)
        first = next(p for p in range(1, 5)
                     if evaluate(model, data, PolicySpec("pabee", patience=p), vocab).speedup == 0.0)
        assert res.spec.patience == first <= 3

    @settings(max_examples=30)  # each example scores a fresh recording
    @given(st.floats(0.0, 1.0, exclude_max=True), st.sampled_from([0.0, 0.005, 0.02, 0.1]))
    def test_random_targets(self, knob_frontier, target, tolerance):
        self.check(knob_frontier, target, tolerance)


def six_policies(measure, kl_mode, patience):
    return [PolicySpec("fpabee", measure=measure, patience=patience, kl_mode=kl_mode),
            PolicySpec("pabee"), PolicySpec("entropy"), PolicySpec("maxprob"),
            PolicySpec("learned"), PolicySpec("fixed")]


class TestKnobCurve:
    """The closed-form speedups of knob_curve against run_exit over every knob."""

    @settings(max_examples=25)
    @given(task=st.sampled_from(["slc", "mlc"]), seed=st.integers(0, 1000),
           n_layers=st.integers(2, 6), measure=st.sampled_from(["kd", "rekd", "symkd", "jskd"]),
           kl_mode=st.booleans(), patience=st.integers(1, 3))
    def test_speedups_equal_replay(self, task, seed, n_layers, measure, kl_mode, patience):
        model, data, vocab = make_setup(n_layers=n_layers, task=task, n_classes=3, seed=seed)
        cache = record(model, data, vocab)
        for spec in six_policies(measure, kl_mode, patience):
            values, speedups = cache.knob_curve(spec)
            knobs = [spec.with_knob(v) for v in values]
            assert [k.knob_value() for k in knobs] == values.tolist(), spec
            assert speedups.tolist() == [replay_result(cache, data, k).speedup for k in knobs], spec
            assert speedups.tolist() in (sorted(speedups.tolist()),
                                         sorted(speedups.tolist(), reverse=True)), spec
            if spec.policy in ("fixed", "pabee"):
                continue
            thres = [k.thre for k in knobs]
            patterns = {tuple(replay(cache, k.build())[0]) for k in knobs}
            assert len(patterns) == len(knobs), spec
            others = [(a + b) / 2 for a, b in zip(thres, thres[1:])] + [min(thres) - 1, max(thres) + 1]
            for t in others:
                assert tuple(replay(cache, replace(spec, thre=t).build())[0]) in patterns, (spec, t)

    def test_empty_split_gives_zero_speedup(self):
        model, data, vocab = make_setup()
        cache = record(model, Dataset(data.task, data.n_classes, []), vocab)
        for spec in six_policies("jskd", False, 2):
            values, speedups = cache.knob_curve(spec)
            knobs = [spec.with_knob(v) for v in values]
            assert speedups.tolist() == [cache.evaluate(k).speedup for k in knobs] == [0.0] * len(knobs)


# Knobs under which the six policies exit at different layers of make_setup(n_layers=5),
# from layer 1 up to the final-layer fallback.
SIX_POLICIES = {
    "slc": [
        PolicySpec("fpabee", measure="jskd", thre=1.096, patience=1),
        PolicySpec("pabee", patience=1),
        PolicySpec("entropy", thre=1.065),
        PolicySpec("maxprob", thre=0.45),
        PolicySpec("learned", thre=0.5),
        PolicySpec("fixed", fixed_layer=3),
    ],
    "mlc": [
        PolicySpec("fpabee", measure="jskd", thre=2.75, patience=1),
        PolicySpec("pabee", patience=1),
        PolicySpec("entropy", thre=0.685),
        PolicySpec("maxprob", thre=0.6),
        PolicySpec("learned", thre=0.5),
        PolicySpec("fixed", fixed_layer=3),
    ],
}


def samples_of(h, groups=None):
    """The number of samples a state holds: the length groups' samples, the b
    of a [b, t, d] batch, or the one input of a [t, d] state."""
    return len(groups.first_rows) if groups is not None else h.shape[0] if h.ndim == 3 else 1


def count_layer_calls(model, monkeypatch):
    """Wrap ``model.forward_layer``; the returned list grows by one per sample-layer:
    by the number of samples in each call's state (see ``samples_of``)."""
    calls = []
    original = model.forward_layer

    def counted(h, layer_index, groups=None):
        calls.extend([layer_index] * samples_of(h, groups))
        return original(h, layer_index, groups)

    monkeypatch.setattr(model, "forward_layer", counted)
    return calls


@pytest.mark.parametrize("task, n_classes", [("slc", 3), ("mlc", 4)])
class TestReplay:
    def live(self, model, data, spec, vocab):
        """Per-sample (exit layer, prediction) of the live early-exit path."""
        policy = spec.build()
        out = []
        for ex in data.examples:
            prob, layer, _ = model.forward_early_exit(vocab.encode(ex.text, max_len=24), policy)
            out.append((layer, prob))
        return out

    def test_replay_equals_live_path_per_sample(self, task, n_classes):
        model, data, vocab = make_setup(n_layers=5, task=task, n_classes=n_classes)
        for spec in SIX_POLICIES[task]:
            live = self.live(model, data, spec, vocab)
            cache = record(model, data, vocab)
            exits = cache.exits(spec)
            probs = cache.probs[np.arange(len(exits)), exits - 1]
            assert exits.tolist() == [layer for layer, _ in live], spec
            for prob, (_, live_prob) in zip(probs, live):
                assert prob.tobytes() == live_prob.probs.tobytes(), spec
            r = evaluate(model, data, spec, vocab)
            assert r.histogram == np.bincount(exits, minlength=6)[1:].tolist()
            hits = sum(p.argmax() == ex.label if task == "slc" else p.label_set() == set(ex.labels)
                       for (_, p), ex in zip(live, data.examples))
            assert r.accuracy == hits / len(data)

    def test_evaluate_runs_exactly_the_live_layers(self, task, n_classes, monkeypatch):
        model, data, vocab = make_setup(n_layers=5, task=task, n_classes=n_classes)
        specs = SIX_POLICIES[task]
        live_layers = [sum(layer for layer, _ in self.live(model, data, s, vocab)) for s in specs]
        calls = count_layer_calls(model, monkeypatch)
        for spec, expected in zip(specs, live_layers):
            calls.clear()
            evaluate(model, data, spec, vocab)
            assert len(calls) == expected, spec

    def test_sweep_and_compare_run_each_layer_at_most_once(self, task, n_classes, monkeypatch):
        model, data, vocab = make_setup(n_layers=5, task=task, n_classes=n_classes)
        specs = SIX_POLICIES[task] + [PolicySpec("fixed", fixed_layer=5)]
        separate = {spec: evaluate(model, data, spec, vocab) for spec in specs}
        calls = count_layer_calls(model, monkeypatch)
        result = sweep(model, data, specs, vocab)
        assert max(Counter(calls).values()) <= len(data)
        assert {row.spec: row for row in result.rows} == separate
        calls.clear()
        # the same split under the same parameters reuses the sweep's recording
        compare_policies(model, data, 0.5, [replace(s, thre=None) for s in specs[:5]], vocab)
        assert calls == []

    @pytest.mark.parametrize("budget", [512, 40, 7])
    def test_sweep_records_each_chunk_in_one_call_per_layer(self, task, n_classes, budget, monkeypatch):
        model, data, vocab = make_setup(n_layers=5, task=task, n_classes=n_classes)
        lengths = [len(vocab.encode(ex.text, max_len=24)) for ex in data.examples]
        assert len(set(lengths)) < len(data)
        monkeypatch.setattr(harness, "_CHUNK_ROWS", budget)
        calls = []
        original = model.forward_layer
        monkeypatch.setattr(model, "forward_layer",
                            lambda h, j, groups: calls.append((j, groups.shapes)) or original(h, j, groups))
        sweep(model, data, [PolicySpec("fixed", fixed_layer=5)], vocab)
        chunks = [shapes for j, shapes in calls if j == 1]
        assert calls == [(j, shapes) for shapes in chunks for j in range(1, 6)]
        rows = [sum(b * t for b, t in shapes) for shapes in chunks]
        # each chunk fits the budget (or is one sample longer than it) and
        # closes only when the next sample would not fit
        assert all(r <= budget or shapes == ((1, r),) for r, shapes in zip(rows, chunks))
        assert all(r + nxt[0][1] > budget for r, nxt in zip(rows, chunks[1:]))
        assert sum(b for shapes in chunks for b, _ in shapes) == len(data)
        assert Counter(t for shapes in chunks for b, t in shapes for _ in range(b)) == Counter(lengths)
        if budget >= sum(lengths):
            assert chunks == [tuple((lengths.count(t), t) for t in dict.fromkeys(lengths))]

    def test_memo_leaves_the_callers_policy_alone(self, task, n_classes):
        model, data, vocab = make_setup(n_layers=5, task=task, n_classes=n_classes)
        _, other, _ = make_setup(n_layers=5, task=task, n_classes=n_classes, seed=7)
        fpabee, pabee = SIX_POLICIES[task][:2]
        measure = SimilarityMeasure("jskd")
        policies = [FPabee(measure, fpabee.thre, 1), Pabee(1)]
        scorers = [p.scorer for p in policies]
        first = [evaluate(model, data, p, vocab) for p in policies]
        swept = sweep(model, other, SIX_POLICIES[task], vocab)
        compared = compare_policies(model, other, 0.4, [replace(s, thre=None) for s in SIX_POLICIES[task]],
                                    vocab)
        assert [p.scorer for p in policies] == scorers and policies[0].scorer is measure
        # every result equals a fresh call on a fresh cache
        assert [evaluate(model, data, p, vocab) for p in policies] == first
        assert ([replace(r, spec=spec) for r, spec in zip(first, (fpabee, pabee))]
                == [evaluate(model, data, spec, vocab) for spec in (fpabee, pabee)])
        for row in swept.rows:
            assert row == record(model, other, vocab).evaluate(row.spec)
        for res in compared:
            assert res.result == record(model, other, vocab).evaluate(res.spec)


N_CLASSES = {"slc": 3, "mlc": 4}


@st.composite
def six_policy_specs(draw, task):
    """One of the six policies at a knob near the ones in SIX_POLICIES[task]."""
    spec = draw(st.sampled_from(SIX_POLICIES[task]))
    if spec.policy in ("fixed", "pabee"):
        return spec.with_knob(draw(st.integers(1, 5)))
    spec = spec.with_knob(spec.thre * draw(st.floats(0.8, 1.2)))
    return replace(spec, patience=draw(st.integers(1, 3))) if spec.policy == "fpabee" else spec


def count_confidence_rows(monkeypatch):
    """Wrap ``MultiExitModel._confidence``; the returned list grows by one layer
    index per sample-layer whose confidence was computed: one per first-token row."""
    calls = []
    original = MultiExitModel._confidence

    def counted(model, first, layer_index):
        calls.extend([layer_index] * len(first))
        return original(model, first, layer_index)

    monkeypatch.setattr(MultiExitModel, "_confidence", counted)
    return calls


class TestConfidenceOnDemand:
    """The confidence head runs exactly when the policy reads it, with the same results."""

    @settings(max_examples=40)
    @given(data=st.data(), task=st.sampled_from(["slc", "mlc"]))
    def test_early_exit_equals_run_exit_over_forward_full(self, data, task):
        model, dataset, vocab = make_setup(n_layers=5, task=task, n_classes=N_CLASSES[task])
        spec = data.draw(six_policy_specs(task))
        policy = spec.build()
        for ex in dataset.examples:
            ids = vocab.encode(ex.text, max_len=24)
            prob, layer, trace = model.forward_early_exit(ids, policy)
            stream = model.forward_full(ids)
            assert all(isinstance(c, float) for c in stream.confidences)
            ref_prob, ref_trace = run_exit(policy, zip(stream.probs, stream.confidences), 5)
            assert layer == ref_trace.exit_layer, spec
            assert prob.probs.tobytes() == ref_prob.probs.tobytes(), spec
            assert ref_prob is stream.probs[layer - 1], spec
            assert trace == ref_trace, spec

    @pytest.mark.parametrize("task", ["slc", "mlc"])
    def test_head_runs_once_per_sample_layer_only_for_learned(self, task, monkeypatch):
        model, data, vocab = make_setup(n_layers=5, task=task, n_classes=N_CLASSES[task])
        specs = SIX_POLICIES[task]
        learned = next(s for s in specs if s.policy == "learned")
        fpabee_grid = [replace(specs[0], thre=t, patience=p) for t in (0.5, 1.0, 3.0) for p in (1, 2)]
        layers = count_layer_calls(model, monkeypatch)
        confs = count_confidence_rows(monkeypatch)

        def run(call):
            layers.clear()
            confs.clear()
            call()
            return Counter(confs), Counter(layers)

        def serve(policy):
            for ex in data.examples:
                model.forward_early_exit(vocab.encode(ex.text, max_len=24), policy)

        for spec in specs:
            served, served_layers = run(lambda: serve(spec.build()))
            by_spec, _ = run(lambda: evaluate(model, data, spec, vocab))
            by_object, _ = run(lambda: evaluate(model, data, spec.build(), vocab))
            expected = served_layers if spec.policy == "learned" else Counter()
            assert served_layers and served == by_spec == by_object == expected, spec
        every_layer = Counter({j: len(data) for j in range(1, 6)})
        assert run(lambda: sweep(model, data, fpabee_grid, vocab)) == (Counter(), every_layer)
        unlearned = [replace(s, thre=None) for s in specs if s is not learned]
        assert run(lambda: compare_policies(model, data, 0.4, unlearned, vocab)) == (Counter(), Counter())
        # the first learned spec on a recording runs the head once per sample-layer
        assert run(lambda: sweep(model, data, fpabee_grid + [learned], vocab)) == (every_layer, Counter())
        every_spec = [replace(s, thre=None) for s in specs]
        assert run(lambda: compare_policies(model, data, 0.4, every_spec, vocab)) == (Counter(), Counter())
        # a new parameter state is a new recording
        model.params["conf0.b"].array[0] += 0.25
        assert run(lambda: compare_policies(model, data, 0.4, every_spec, vocab)) == (every_layer, every_layer)
        assert run(lambda: sweep(model, data, fpabee_grid, vocab)) == (Counter(), Counter())


def outcomes(model, data, vocab, layers):
    """sweep, compare_policies, dev_accuracy and param_hash, each a value or
    its ValueError's message, and the sample-layers each call ran (``layers``
    is a count_layer_calls list)."""
    task = data.task
    calls = [lambda: sweep(model, data, SIX_POLICIES[task], vocab),
             lambda: compare_policies(model, data, 0.4, [replace(s, thre=None) for s in SIX_POLICIES[task]],
                                      vocab),
             lambda: dev_accuracy(model, data, vocab),
             model.param_hash]
    out, ran = [], []
    for call in calls:
        layers.clear()
        try:
            out.append(call())
        except ValueError as e:
            out.append(("ValueError", str(e)))
        ran.append(len(layers))
    return out, ran


@st.composite
def changed_inputs(draw, model, data, vocab):
    """An in-place change to one parameter element, one token of one example,
    or the vocabulary; returns the (data, vocab) to call with after it. A sign
    flip sets the element to +0.0 now, for ``apply`` to write -0.0."""
    kind = draw(st.sampled_from(["ulp", "sign", "nan", "token", "vocab"]))
    if kind in ("ulp", "sign", "nan"):
        name = draw(st.sampled_from(sorted(model.params)))
        flat = model.params[name].array.reshape(-1)
        i = draw(st.integers(0, flat.size - 1))
        if kind == "sign":
            flat[i] = 0.0
        new = {"ulp": np.nextafter(flat[i], np.inf), "sign": -0.0, "nan": np.nan}[kind]

        def apply():
            flat[i] = new
            return data, vocab
    elif kind == "token":
        i = draw(st.integers(0, len(data) - 1))
        words = tokenize(data.examples[i].text)
        pos = draw(st.integers(0, min(len(words), 23) - 1))  # within max_seq_len after <cls>
        words[pos] = draw(st.sampled_from([t for t in vocab.tokens[3:] if t != words[pos]]))
        examples = list(data.examples)
        examples[i] = replace(examples[i], text=" ".join(words))

        def apply():
            return Dataset(data.task, data.n_classes, examples), vocab
    else:
        tokens = vocab.tokens[3:]
        k = draw(st.integers(1, len(tokens) - 1))  # every token gets another id

        def apply():
            return data, Vocab(vocab.tokens[:3] + tokens[k:] + tokens[:k])
    return kind, apply


class TestRecordingReuse:
    """One recording per parameter state and encoded split: after any change,
    every call equals a fresh model's; with none, repeated calls run no layer."""

    @settings(max_examples=40)
    @given(data=st.data(), task=st.sampled_from(["slc", "mlc"]), shared=st.booleans())
    def test_calls_after_a_change_equal_a_fresh_models(self, data, task, shared):
        model, split, vocab = make_setup(n_layers=5, task=task, n_classes=N_CLASSES[task],
                                         share_layer_params=shared)
        kind, apply = data.draw(changed_inputs(model, split, vocab))
        with pytest.MonkeyPatch.context() as mp:
            layers = count_layer_calls(model, mp)
            _, ran = outcomes(model, split, vocab, layers)
            # compare and dev_accuracy reuse the sweep's recording
            assert ran == [len(split) * 5, 0, 0, 0]
            split, vocab = apply()
            after, ran = outcomes(model, split, vocab, layers)
        assert ran[0] == len(split) * 5 or isinstance(after[0], tuple), kind
        if kind != "nan":
            with tempfile.TemporaryDirectory() as tmp:
                save_checkpoint(model, Path(tmp) / "m.npz")
                fresh, _ = load_checkpoint(Path(tmp) / "m.npz")
        else:  # a checkpoint holds finite values only
            fresh = MultiExitModel(model.config)
            fresh._buffer[...] = model._buffer
        assert after == outcomes(fresh, split, vocab, [])[0], kind

    @pytest.mark.parametrize("task", ["slc", "mlc"])
    def test_each_score_family_is_computed_once_per_recording(self, task, monkeypatch):
        model, data, vocab = make_setup(n_layers=5, task=task, n_classes=N_CLASSES[task])
        _, other, _ = make_setup(n_layers=5, task=task, n_classes=N_CLASSES[task], seed=7)
        scored = []
        original = SimilarityMeasure.scores
        monkeypatch.setattr(SimilarityMeasure, "scores",
                            lambda self, p, q: scored.append(self.variant) or original(self, p, q))
        grid = [PolicySpec("fpabee", measure="jskd", thre=t, patience=p) for t in (0.5, 1.0) for p in (1, 2)]
        compared = [PolicySpec("fpabee", measure="jskd", patience=2), PolicySpec("pabee")]

        def sweep_then_compare(split):
            scored.clear()
            swept = sweep(model, split, grid, vocab)
            compare_policies(model, split, 0.4, compared, vocab)
            return scored.copy(), swept

        # the compare reuses the sweep's jskd scores, as does a later call on the same split
        assert sweep_then_compare(data)[0] == ["jskd"]
        assert sweep_then_compare(data)[0] == []
        assert sweep_then_compare(other)[0] == ["jskd"]  # a new split is a new recording
        assert sweep_then_compare(other)[0] == []
        before = sweep_then_compare(other)[1]
        model.params["head4.w"].array[0, 0] += 0.5  # so is an in-place parameter write
        scores, after = sweep_then_compare(other)
        assert scores == ["jskd"] and after.model_hash != before.model_hash


@st.composite
def ragged_splits(draw, task, share_layer_params):
    """A randomized tiny model, a split of 0-12 texts whose encoded lengths mix
    1..max_seq_len, and a row budget: the default, or one small enough that
    the split takes several chunks and length groups are split across them."""
    max_seq_len = draw(st.integers(1, 20))
    n_heads = draw(st.sampled_from([1, 2, 4]))
    n_classes = draw(st.integers(2, 5))
    vocab = Vocab([f"w{i}" for i in range(17)])
    config = ModelConfig(vocab_size=len(vocab), n_classes=n_classes, task=task,
                         n_layers=draw(st.integers(2, 4)), d_model=n_heads * draw(st.sampled_from([2, 4, 8, 16])),
                         n_heads=n_heads, d_ff=draw(st.integers(4, 64)), max_seq_len=max_seq_len,
                         seed=0, share_layer_params=share_layer_params)
    model = MultiExitModel(config)
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    scale = draw(st.sampled_from([0.1, 0.5, 2.0]))
    for p in model.params.values():
        p.array[...] = rng.normal(0, scale, p.shape)
    examples = []
    for _ in range(draw(st.integers(0, 12))):
        words = draw(st.lists(st.sampled_from(vocab.tokens[3:]), max_size=max_seq_len + 2))
        label = draw(st.integers(0, n_classes - 1))
        examples.append(Example(" ".join(words), label=label) if task == "slc" else
                        Example(" ".join(words), labels=(label,)))
    budget = draw(st.one_of(st.just(harness._CHUNK_ROWS), st.integers(1, 3 * max_seq_len)))
    return model, Dataset(task, n_classes, examples), vocab, budget


class TestRaggedRecording:
    """The recording takes a split in chunks of mixed lengths, one
    forward_layer call per chunk-layer; every sample keeps its batch-1 bytes."""

    @pytest.mark.parametrize("share_layer_params", [False, True], ids=["bert", "albert"])
    @pytest.mark.parametrize("task", ["slc", "mlc"])
    @settings(max_examples=40)
    @given(data=st.data())
    def test_every_sample_has_its_forward_full_bytes(self, task, share_layer_params, data):
        model, dataset, vocab, budget = data.draw(ragged_splits(task, share_layer_params))
        chunks = []
        original = model.forward_layer

        def recorded_chunk(h, layer_index, groups):
            if layer_index == 1:
                chunks.append(groups.shapes)
            return original(h, layer_index, groups)

        with mock.patch.object(harness, "_CHUNK_ROWS", budget), \
                mock.patch.object(model, "forward_layer", recorded_chunk):
            cache = record(model, dataset, vocab)
        encoded = encode_dataset(dataset, vocab, model.config.max_seq_len)
        n = model.config.n_layers
        assert cache.probs.shape[:2] == cache.confidences.shape == (len(dataset), n)
        for i, ids in enumerate(encoded):
            stream = model.forward_full(ids)
            for j in range(n):
                assert cache.probs[i, j].tobytes() == stream.probs[j].probs.tobytes(), (i, j)
                assert cache.confidences[i, j].tobytes() == np.float64(stream.confidences[j]).tobytes(), (i, j)
        # whole samples in length groups, each chunk within the budget (or one
        # sample longer than it) and closed only when the next sample does not fit
        rows = [sum(b * t for b, t in shapes) for shapes in chunks]
        assert all(r <= budget or shapes == ((1, r),) for r, shapes in zip(rows, chunks))
        assert all(r + nxt[0][1] > budget for r, nxt in zip(rows, chunks[1:]))
        assert (Counter(t for shapes in chunks for b, t in shapes for _ in range(b))
                == Counter(len(ids) for ids in encoded))

    @pytest.mark.parametrize("task", ["slc", "mlc"])
    def test_empty_split_runs_no_layer(self, task, monkeypatch):
        model, data, vocab = make_setup(n_layers=3, task=task, n_classes=N_CLASSES[task])
        calls = count_layer_calls(model, monkeypatch)
        cache = record(model, Dataset(task, data.n_classes, []), vocab)
        assert calls == [] and cache.probs.shape[:2] == cache.confidences.shape == (0, 3)


class ChunkStub:
    """A one-layer stand-in model for ``harness._record`` whose state is each
    token row's sample index. It keeps each chunk's length groups and the
    samples its slots hold, in slot order."""

    config = SimpleNamespace(n_layers=1, d_model=1)

    def __init__(self):
        self.chunks = []

    def iter_layers(self, ids, confidence, groups):
        slots = np.concatenate([ids[lo:hi:t] for lo, hi, _, t in groups.spans])
        self.chunks.append((groups.shapes, slots.tolist()))
        h = ids[:, None].astype(np.float64)
        yield h, h[groups.first_rows], None


@settings(max_examples=300)
@given(lengths=st.lists(st.integers(1, 6) | st.integers(1, 100), max_size=40), budget=st.integers(1, 80))
def test_recorded_chunks_cut_the_by_length_order_at_the_budget(lengths, budget):
    """Joined in order, the chunks hold the samples in ``LengthGroups.by_length``
    order, each chunk laid out by ``by_length``; a chunk fits the budget or is
    one longer sample, and closes only when its next sample would not fit."""
    stub, lengths = ChunkStub(), np.array(lengths, dtype=np.int64)
    encoded = [np.full(t, i) for i, t in enumerate(lengths)]
    with mock.patch.object(harness, "_CHUNK_ROWS", budget):
        probs, pooled = harness._record(stub, encoded, lengths, (1,))
    order = LengthGroups.by_length(lengths)[1].tolist() if len(lengths) else []
    assert [i for _, members in stub.chunks for i in members] == order
    assert all(shapes == LengthGroups.by_length(lengths[members])[0].shapes for shapes, members in stub.chunks)
    rows = [int(lengths[members].sum()) for _, members in stub.chunks]
    assert all(r <= budget or len(members) == 1 for r, (_, members) in zip(rows, stub.chunks))
    assert all(r + lengths[nxt[0]] > budget for r, (_, nxt) in zip(rows, stub.chunks[1:]))
    # each sample's layer lands in its own row of the recording
    assert probs[:, 0, 0].tolist() == pooled[:, 0, 0].tolist() == list(range(len(lengths)))


@functools.lru_cache(maxsize=None)
def recorded(task, n_layers):
    """(model, data, vocab, scoring core) of make_setup, built once per task and depth."""
    model, data, vocab = make_setup(n_layers=n_layers, task=task, n_classes=N_CLASSES[task])
    return model, data, vocab, record(model, data, vocab)


def observed_scores(cache, spec):
    """Every finite ``last_score`` that ``spec``'s policy compares on the recorded layers."""
    policy, scores = spec.build(), set()
    for i in range(len(cache.probs)):
        policy.reset()
        for j, (prob, conf) in enumerate(recorded_layers(cache, i), start=1):
            policy.step(j, prob, conf)
            if policy.last_score is not None and math.isfinite(policy.last_score):
                scores.add(policy.last_score)
    return sorted(scores)


@st.composite
def any_spec(draw, core):
    """Any of the six policies at any knob over ``core``'s layers, with thresholds
    often exactly at a score the policy compares, or one float either side of it."""
    n = core.n_layers
    policy = draw(st.sampled_from(POLICY_NAMES))
    if policy == "fixed":
        return PolicySpec("fixed", fixed_layer=draw(st.integers(1, n)))
    if policy == "pabee":
        return PolicySpec("pabee", patience=draw(st.integers(1, n + 1)))
    if policy == "fpabee":
        spec = PolicySpec("fpabee", measure=draw(st.sampled_from(VARIANTS)), thre=0.0,
                          patience=draw(st.integers(1, n + 1)), kl_mode=draw(st.booleans()))
    else:
        spec = PolicySpec(policy, thre=0.0)
    scores = observed_scores(core, spec) or [0.0]
    at_score = st.sampled_from(scores).flatmap(
        lambda s: st.sampled_from([s, s, np.nextafter(s, -np.inf), np.nextafter(s, np.inf)]))
    thre = draw(st.one_of(at_score, st.floats(scores[0] - 1, scores[-1] + 1)))
    return replace(spec, thre=float(thre))


@st.composite
def closed_form_cases(draw):
    """(task, n, spec): any of the six policies at any knob of a recorded model."""
    task, n = draw(st.sampled_from(["slc", "mlc"])), draw(st.integers(2, 5))
    return task, n, draw(any_spec(recorded(task, n)[3]))


@st.composite
def drawn_cores(draw):
    """A scoring core of drawn arrays and no model: 0-6 samples of 2-5 layers,
    slc rows or mlc pairs with exact 0 and 1 entries, tied classes and layers
    equal to the one before, gold answers, and confidences in (0, 1), often tied."""
    task = draw(st.sampled_from(["slc", "mlc"]))
    samples, n, k = draw(st.integers(0, 6)), draw(st.integers(2, 5)), draw(st.integers(2, 4))
    probs = np.empty((samples, n) + ((k,) if task == "slc" else (k, 2)))
    for i, j in np.ndindex(samples, n):
        if j and draw(st.integers(0, 3)) == 0:
            probs[i, j] = probs[i, j - 1]
        elif task == "slc":
            w = np.array(draw(st.lists(st.sampled_from([0.0, 0.0, 1.0, 1.0, 2.0]) | st.floats(0.0, 1.0),
                                       min_size=k, max_size=k)))
            probs[i, j] = w / w.sum() if w.sum() > 0 else np.eye(k)[draw(st.integers(0, k - 1))]
        else:
            positive = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0),
                                     min_size=k, max_size=k))
            probs[i, j] = mlc_pairs(np.array(positive))
    if task == "slc":
        gold = np.array(draw(st.lists(st.integers(0, k - 1), min_size=samples, max_size=samples)),
                        dtype=np.int64)
    else:
        gold = np.array(draw(st.lists(st.lists(st.booleans(), min_size=k, max_size=k),
                                      min_size=samples, max_size=samples)), dtype=bool).reshape(samples, k)
    conf = st.sampled_from([0.25, 0.5, 0.75]) | st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
    confs = np.array(draw(st.lists(conf, min_size=samples * n, max_size=samples * n))).reshape(samples, n)
    return _LayerScores(task, probs, gold, confs)


def gold_dataset(core):
    """The Dataset whose ``gold()`` is ``core.gold``, for :func:`replay_result`."""
    k = core.probs.shape[2]
    examples = [Example("", label=int(g)) if core.task == "slc" else
                Example("", labels=tuple(np.flatnonzero(g).tolist())) for g in core.gold]
    return Dataset(core.task, k, examples)


class TestClosedForm:
    """The harness's one halting rule against the live loop, run_exit, for all six policies."""

    @settings(max_examples=300)
    @given(closed_form_cases())
    def test_exits_and_results_equal_run_exit(self, case):
        task, n, spec = case
        model, data, vocab, cache = recorded(task, n)
        exits = cache.exits(spec)
        ref_exits, ref_probs = replay(cache, spec.build())
        assert exits.tolist() == ref_exits.tolist(), spec
        assert all(prob.probs.tobytes() == row.tobytes()
                   for prob, row in zip(ref_probs, cache.probs[np.arange(len(exits)), exits - 1])), spec
        assert cache.evaluate(spec) == evaluate(model, data, spec, vocab) == replay_result(cache, data, spec), spec

    @settings(max_examples=300)
    @given(data=st.data())
    def test_drawn_arrays_exits_and_results_equal_run_exit(self, data):
        core = data.draw(drawn_cores())
        spec = data.draw(any_spec(core))
        assert gold_dataset(core).gold().tolist() == core.gold.tolist()
        exits = core.exits(spec)
        ref_exits, ref_probs = replay(core, spec.build())
        assert exits.tolist() == ref_exits.tolist(), spec
        assert all(prob.probs.tobytes() == row.tobytes()
                   for prob, row in zip(ref_probs, core.probs[np.arange(len(exits)), exits - 1])), spec
        assert core.evaluate(spec) == replay_result(core, gold_dataset(core), spec), spec

    @settings(max_examples=100)
    @given(core=drawn_cores(), measure=st.sampled_from(VARIANTS), kl_mode=st.booleans(),
           patience=st.integers(1, 3))
    def test_drawn_arrays_knob_curve_speedups_equal_evaluate(self, core, measure, kl_mode, patience):
        for spec in six_policies(measure, kl_mode, patience):
            values, speedups = core.knob_curve(spec)
            assert speedups.tolist() == [core.evaluate(spec.with_knob(v)).speedup for v in values], spec


ARRAY_FAMILIES = ([PolicySpec("fpabee", measure=m, thre=0.0, patience=1, kl_mode=kl)
                   for m in VARIANTS for kl in (False, True)]
                  + [PolicySpec("pabee", patience=1)]
                  + [PolicySpec(p, thre=0.0) for p in ("entropy", "maxprob", "learned")])


def assert_step_scores(core, spec):
    """``core``'s signed scores for ``spec`` equal its policy's ``step`` ``last_score``, bit for bit."""
    scores, (_, sign) = core.scores(spec), core.keys(spec)
    policy = spec.build()
    for i in range(len(core.probs)):
        policy.reset()
        for j, (prob, conf) in enumerate(recorded_layers(core, i)):
            policy.step(j + 1, prob, conf)
            want = np.inf if policy.last_score is None else sign * policy.last_score
            assert scores[i, j].tobytes() == np.float64(want).tobytes(), (spec, i, j)


class TestArrayScores:
    """Each policy family's array scores against its live ``step``, bit for bit."""

    @settings(max_examples=150)
    @given(task=st.sampled_from(["slc", "mlc"]), n_layers=st.integers(2, 5),
           seed=st.integers(0, 2**16), scale=st.sampled_from([0.05, 0.5, 3.0]),
           spec=st.sampled_from(ARRAY_FAMILIES))
    def test_scores_equal_step_last_score(self, task, n_layers, seed, scale, spec):
        model, data, vocab = make_setup(n_layers=n_layers, task=task, n_classes=N_CLASSES[task])
        rng = np.random.default_rng(seed)
        for p in model.params.values():  # large scales saturate the heads to exact 0 and 1
            p.array[...] = rng.normal(0, scale, p.shape)
        assert_step_scores(record(model, data, vocab), spec)

    @settings(max_examples=150)
    @given(core=drawn_cores(), spec=st.sampled_from(ARRAY_FAMILIES))
    def test_drawn_arrays_scores_equal_step_last_score(self, core, spec):
        assert_step_scores(core, spec)

    @pytest.mark.parametrize("task", ["slc", "mlc"])
    def test_nan_head_weight_raises_the_live_error(self, task):
        model, data, vocab = make_setup(n_layers=4, task=task, n_classes=N_CLASSES[task])
        model.params["head2.w"].array[0, 0] = np.nan
        spec = PolicySpec("fixed", fixed_layer=4)
        with pytest.raises(ValueError) as live:
            evaluate(model, data, spec, vocab)
        assert str(live.value).endswith("must be nonnegative and sum to 1")
        same = f"^{re.escape(str(live.value))}$"
        with pytest.raises(ValueError, match=same):
            sweep(model, data, [spec], vocab)
        with pytest.raises(ValueError, match=same):
            compare_policies(model, data, 0.3, [PolicySpec("entropy"), PolicySpec("pabee")], vocab)

    @pytest.mark.parametrize("task", ["slc", "mlc"])
    def test_nan_confidence_weight_raises_only_where_the_head_runs(self, task):
        model, data, vocab = make_setup(n_layers=4, task=task, n_classes=N_CLASSES[task])
        model.params["conf2.w"].array[0, 0] = np.nan
        spec = PolicySpec("learned", thre=1.0)  # never halts, so every sample reaches layer 3
        with pytest.raises(ValueError) as live:
            evaluate(model, data, spec, vocab)
        assert str(live.value) == "confidence values must lie in (0, 1)"
        same = f"^{re.escape(str(live.value))}$"
        with pytest.raises(ValueError, match=same):
            evaluate(model, data, spec.build(), vocab)
        with pytest.raises(ValueError, match=same):
            sweep(model, data, [PolicySpec("fixed", fixed_layer=4), spec], vocab)
        with pytest.raises(ValueError, match=same):
            compare_policies(model, data, 0.3, [PolicySpec("entropy"), PolicySpec("learned")], vocab)
        # no other policy runs the confidence head, so none reads the NaN
        others = [PolicySpec("fixed", fixed_layer=4), PolicySpec("entropy", thre=0.5), PolicySpec("pabee", patience=2)]
        assert sweep(model, data, others, vocab).rows
        assert all(evaluate(model, data, other, vocab).n_samples == len(data) for other in others)
        assert len(compare_policies(model, data, 0.3, [PolicySpec("entropy"), PolicySpec("pabee")], vocab)) == 2

    def test_pabee_and_fixed_knob_curves_evaluate_nothing(self, monkeypatch):
        model, data, vocab = make_setup(n_layers=5)
        cache = record(model, data, vocab)
        monkeypatch.setattr(harness._LayerScores, "evaluate", None)
        monkeypatch.setattr(harness, "_result", None)
        for spec in (PolicySpec("pabee"), PolicySpec("fixed")):
            knobs, speedups = cache.knob_curve(spec)
            assert knobs.tolist() == [1, 2, 3, 4, 5] and len(speedups) == 5
