"""Acceptance criteria for the workbench, one test per criterion.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS/FAIL line
per criterion. Criteria 4, 8 and 9 exercise the trained session fixtures
and take a few minutes of CPU between them.
"""

import math

import numpy as np
import pytest

from exitlab import tensor as T
from exitlab.cli import main as cli_main
from exitlab.data import SyntheticSpec, build_vocab, generate_synthetic
from exitlab.harness import PolicySpec, _LayerCache, _exits, compare_policies, evaluate, sweep
from exitlab.model import ModelConfig, MultiExitModel
from exitlab.policies import FPabee, Pabee
from exitlab.similarity import ProbDist, SimilarityMeasure
from exitlab.training import TrainConfig, layer_weights, train, _batch_losses, _weighted_total

from conftest import replay

LN2 = math.log(2.0)


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    print(f"[acceptance {num:02d}] {'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def untrained_setup(n_layers, n_examples=5, task="slc", n_classes=3):
    spec = SyntheticSpec(task=task, n_classes=n_classes, n_train=n_examples, n_dev=1,
                         n_test=1, easy_fraction=1.0, seed=0)
    splits = generate_synthetic(spec)
    vocab = build_vocab(splits.train, 200)
    config = ModelConfig(vocab_size=len(vocab), n_classes=n_classes, task=task,
                         n_layers=n_layers, d_model=8, n_heads=2, d_ff=16,
                         max_seq_len=24, seed=1)
    return MultiExitModel(config), splits.train, vocab


def test_criterion_1_fixed_exit_speedup_arithmetic():
    model, data, vocab = untrained_setup(n_layers=12)
    r3 = evaluate(model, data, PolicySpec("fixed", fixed_layer=3), vocab)
    r6 = evaluate(model, data, PolicySpec("fixed", fixed_layer=6), vocab)
    ok = r3.speedup == 0.75 and r6.speedup == 0.5
    report(1, "fixed-exit speedup arithmetic", ok,
           f"layer 3 of 12 -> {r3.speedup}, layer 6 of 12 -> {r6.speedup}")


def test_criterion_2_patience_recurrence_matches_direct_simulation():
    rng = np.random.default_rng(1234)
    dummy = ProbDist.slc([0.5, 0.5])
    mismatches = 0
    for _ in range(10_000):
        n = int(rng.integers(2, 25))
        scores = rng.uniform(0.0, 2.0, size=n - 1)
        thre = float(rng.uniform(0.0, 2.0))
        patience = int(rng.integers(1, 9))

        # reference: direct recurrence over the raw score sequence
        pat, expected = 0, n
        for i, s in enumerate(scores):
            pat = pat + 1 if s < thre else 0
            if pat >= patience:
                expected = i + 2
                break

        queue = list(scores)
        policy = FPabee(lambda p, c: queue.pop(0), thre, patience)
        got = n
        for layer in range(1, n + 1):
            if policy.step(layer, dummy).halt:
                got = layer
                break
        mismatches += got != expected
    report(2, "patience recurrence vs direct simulation", mismatches == 0,
           f"{mismatches} mismatches over 10000 random score streams")


def test_criterion_3_exact_match_comparator_reduces_to_classic_patience():
    rng = np.random.default_rng(99)
    mismatches = 0
    for _ in range(10_000):
        n = int(rng.integers(2, 13))
        patience = int(rng.integers(1, 5))
        if rng.random() < 0.5:
            k = int(rng.integers(2, 6))
            rows = [rng.dirichlet(np.ones(k)) for _ in range(n)]
            stream = [ProbDist.slc(r) for r in rows]
            predictions = [int(np.argmax(r)) for r in rows]
        else:
            k = int(rng.integers(1, 6))
            rows = [rng.uniform(0.05, 0.95, size=k) for _ in range(n)]
            stream = [ProbDist.mlc(r) for r in rows]
            predictions = [frozenset(np.flatnonzero(r > 0.5).tolist()) for r in rows]

        # reference: classic patience over the raw predictions
        pat, expected = 0, n
        for i in range(1, n):
            pat = pat + 1 if predictions[i] == predictions[i - 1] else 0
            if pat >= patience:
                expected = i + 1
                break

        classic = Pabee(patience)
        got = n
        for layer, p in enumerate(stream, start=1):
            if classic.step(layer, p).halt:
                got = layer
                break
        mismatches += got != expected
    report(3, "classic patience (flexible policy with match scorer) vs direct simulation",
           mismatches == 0, f"{mismatches} mismatches over 10000 prediction streams")


def test_criterion_4_monotonicity_on_trained_model(slc_workbench):
    model, splits, vocab = slc_workbench
    test = splits.test
    assert len(test) == 500

    cache = _LayerCache(model, test, vocab)
    thre_grid = [0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0]
    exits_by_thre = [
        replay(cache, PolicySpec("fpabee", measure="jskd", thre=t, patience=2).build())[0]
        for t in thre_grid
    ]
    thre_ok = all(
        (exits_by_thre[i + 1] <= exits_by_thre[i]).all()
        for i in range(len(thre_grid) - 1)
    )

    exits_by_patience = [
        replay(cache, PolicySpec("fpabee", measure="jskd", thre=0.05, patience=p).build())[0]
        for p in range(1, 6)
    ]
    patience_ok = all(
        (exits_by_patience[i + 1] >= exits_by_patience[i]).all()
        for i in range(4)
    )
    means_t = [float(e.mean()) for e in exits_by_thre]
    means_p = [float(e.mean()) for e in exits_by_patience]
    report(4, "per-sample monotonicity in threshold and patience",
           thre_ok and patience_ok,
           f"mean exit vs thre {['%.2f' % m for m in means_t]}, "
           f"vs patience {['%.2f' % m for m in means_p]}")


def test_criterion_5_similarity_measure_correctness():
    kd, rekd, symkd, jskd = (SimilarityMeasure(v) for v in ("kd", "rekd", "symkd", "jskd"))
    # analytic single-label cases at 1e-9
    checks = [
        abs(kd(ProbDist.slc([1, 0]), ProbDist.slc([0.5, 0.5])) - LN2),
        abs(kd(ProbDist.slc([0.5, 0.5]), ProbDist.slc([0.5, 0.5])) - LN2),
        abs(rekd(ProbDist.slc([0.5, 0.5]), ProbDist.slc([1, 0])) - LN2),
        abs(symkd(ProbDist.slc([0.5, 0.5]), ProbDist.slc([0.5, 0.5])) - 2 * LN2),
        abs(jskd(ProbDist.slc([1, 0]), ProbDist.slc([0, 1])) - LN2),
    ]
    analytic_ok = max(checks) < 1e-9

    rng = np.random.default_rng(7)
    law_failures = 0
    for _ in range(10_000):
        if rng.random() < 0.5:
            k = int(rng.integers(2, 11))
            p = ProbDist.slc(rng.dirichlet(np.ones(k)))
            q = ProbDist.slc(rng.dirichlet(np.ones(k)))
        else:
            k = int(rng.integers(1, 11))
            p = ProbDist.mlc(rng.uniform(0.02, 0.98, size=k))
            q = ProbDist.mlc(rng.uniform(0.02, 0.98, size=k))
        if rekd(p, q) != kd(q, p):
            law_failures += 1
        elif symkd(p, q) != symkd(q, p) or jskd(p, q) != jskd(q, p):
            law_failures += 1
        elif jskd(p, q) > symkd(p, q) + 1e-12:
            law_failures += 1
    report(5, "similarity analytic cases and exchange laws",
           analytic_ok and law_failures == 0,
           f"worst analytic dev {max(checks):.2e}, {law_failures} law failures in 10000 pairs")


def test_criterion_6_full_model_gradient_check():
    rng = np.random.default_rng(3)
    config = ModelConfig(vocab_size=16, n_classes=3, task="slc", n_layers=2,
                         d_model=8, n_heads=2, d_ff=16, max_seq_len=8, seed=0)
    model = MultiExitModel(config)
    for p in model.params.values():
        p.array[...] = rng.normal(0.0, 0.3, p.shape)
    ids = rng.integers(0, 16, size=(3, 6))
    mask = np.ones((3, 6))
    mask[2, 4:] = 0.0
    targets = np.array([0, 2, 1])

    def objective():
        probs, _ = model.forward_batch(ids, mask)
        losses, _ = _batch_losses(model, probs, targets)
        return _weighted_total(losses)

    grads = T.backward(objective(), wrt=model.params.values())
    eps, worst = 1e-4, 0.0
    checked = 0
    for name, p in model.params.items():
        flat, gflat = p.array.reshape(-1), grads[p].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            f_plus = objective().item()
            flat[i] = orig - eps
            f_minus = objective().item()
            flat[i] = orig
            fd = (f_plus - f_minus) / (2 * eps)
            denom = max(abs(fd), abs(gflat[i]), 1e-7)
            worst = max(worst, abs(fd - gflat[i]) / denom)
            checked += 1
    report(6, "full-model gradient vs central differences", worst < 1e-3,
           f"{checked} parameters checked, worst relative error {worst:.2e}")


def test_criterion_7_depth_weighted_total_recombination():
    # closed form at n=2
    exact_ok = abs((1 * 1.0 + 2 * 4.0) / 3 - 3.0) == 0.0
    worst = 0.0
    for n in (2, 6, 12):
        model, data, vocab = untrained_setup(n_layers=n, n_examples=24)
        history = train(model, data, TrainConfig(batch_size=8, epochs=1, seed=2), vocab)
        for rep in history:
            weights = layer_weights(n)
            recombined = float((weights * np.asarray(rep.per_layer_losses)).sum())
            worst = max(worst, abs(rep.total - recombined))
    report(7, "depth-weighted loss recombination", exact_ok and worst < 1e-9,
           f"worst recombination deviation {worst:.2e} over n in (2, 6, 12)")


def test_criterion_8_speedup_accuracy_tradeoff(slc_workbench):
    model, splits, vocab = slc_workbench
    test = splits.test

    full = evaluate(model, test, PolicySpec("fixed", fixed_layer=6), vocab)
    trained_ok = full.accuracy >= 0.90

    grid = [
        PolicySpec("fpabee", measure="jskd", thre=t, patience=p)
        for p in (1, 2)
        for t in (0.01, 0.02, 0.05, 0.1)
    ]
    rows = sweep(model, test, grid, vocab).rows
    good = [r for r in rows if r.speedup >= 0.30 and r.accuracy >= full.accuracy - 0.02]
    sweet_spot_ok = bool(good)

    matched = compare_policies(
        model, test, 0.5,
        [PolicySpec("fpabee", measure="jskd", patience=2), PolicySpec("pabee")],
        vocab,
    )
    by_policy = {m.result.spec.policy: m for m in matched}
    jskd, pabee = by_policy["fpabee"], by_policy["pabee"]
    matched_ok = jskd.attained and pabee.attained
    order_ok = jskd.result.accuracy >= pabee.result.accuracy

    best = max(good, key=lambda r: r.speedup) if good else None
    report(8, "speedup-accuracy tradeoff on the easy-biased task",
           trained_ok and sweet_spot_ok and matched_ok and order_ok,
           f"full acc {full.accuracy:.3f}; best qualifying point "
           f"(speedup {best.speedup:.3f}, acc {best.accuracy:.3f}); "
           f"at 50%: jskd acc {jskd.result.accuracy:.3f} @ {jskd.result.speedup:.3f} vs "
           f"pabee acc {pabee.result.accuracy:.3f} @ {pabee.result.speedup:.3f}")


def test_criterion_9_multi_label_path(mlc_workbench):
    model, splits, vocab = mlc_workbench
    test = splits.test

    full = evaluate(model, test, PolicySpec("fixed", fixed_layer=6), vocab)
    never_halt = evaluate(model, test, PolicySpec("maxprob", thre=1.0), vocab)
    f1_ok = never_halt.speedup == 0.0 and never_halt.micro_f1 == full.micro_f1

    all_specs = [
        PolicySpec("fpabee", measure="jskd", thre=0.3, patience=2),
        PolicySpec("pabee", patience=2),
        PolicySpec("entropy", thre=0.15),
        PolicySpec("maxprob", thre=0.9),
        PolicySpec("learned", thre=0.7),
        PolicySpec("fixed", fixed_layer=3),
    ]
    ran = [evaluate(model, test, s, vocab) for s in all_specs]
    policies_ok = all(
        sum(r.histogram) == len(test) and 0.0 <= r.speedup <= 1.0 for r in ran
    )
    # the jointly trained confidence head exits before full depth on average
    learned_row = next(r for r in ran if r.spec.policy == "learned")
    policies_ok = policies_ok and learned_row.mean_exit_layer < model.config.n_layers

    cache = _LayerCache(model, test, vocab)
    thre_grid = [0.05, 0.1, 0.2, 0.4, 0.8, 1.6]
    exits_by_thre = [
        replay(cache, PolicySpec("fpabee", measure="jskd", thre=t, patience=2).build())[0]
        for t in thre_grid
    ]
    thre_ok = all(
        (exits_by_thre[i + 1] <= exits_by_thre[i]).all() for i in range(len(thre_grid) - 1)
    )
    exits_by_patience = [
        replay(cache, PolicySpec("fpabee", measure="jskd", thre=0.4, patience=p).build())[0]
        for p in range(1, 6)
    ]
    patience_ok = all((exits_by_patience[i + 1] >= exits_by_patience[i]).all() for i in range(4))

    report(9, "multi-label path", f1_ok and policies_ok and thre_ok and patience_ok,
           f"full micro-F1 {full.micro_f1:.4f} reproduced at speedup 0; "
           f"{len(ran)} policies ran; monotonicity held")


def criteria_specs(task, model, test, vocab):
    """Every buildable PolicySpec criteria 4 and 8 (slc) or 9 (mlc) run, each once."""
    def fpabee(t, p):
        return PolicySpec("fpabee", measure="jskd", thre=t, patience=p)

    if task == "slc":
        specs = [fpabee(t, 2) for t in (0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0)]
        specs += [fpabee(0.05, p) for p in range(1, 6)]
        specs += [PolicySpec("fixed", fixed_layer=6)]
        specs += [fpabee(t, p) for p in (1, 2) for t in (0.01, 0.02, 0.05, 0.1)]
        matched = compare_policies(
            model, test, 0.5,
            [PolicySpec("fpabee", measure="jskd", patience=2), PolicySpec("pabee")], vocab)
        specs += [m.result.spec for m in matched]
    else:
        specs = [PolicySpec("fixed", fixed_layer=6), PolicySpec("maxprob", thre=1.0)]
        specs += [fpabee(0.3, 2), PolicySpec("pabee", patience=2), PolicySpec("entropy", thre=0.15),
                  PolicySpec("maxprob", thre=0.9), PolicySpec("learned", thre=0.7),
                  PolicySpec("fixed", fixed_layer=3)]
        specs += [fpabee(t, 2) for t in (0.05, 0.1, 0.2, 0.4, 0.8, 1.6)]
        specs += [fpabee(0.4, p) for p in range(1, 6)]
    return list(dict.fromkeys(specs))


@pytest.mark.parametrize("workbench", ["slc_workbench", "mlc_workbench"])
def test_replay_equals_live_on_trained_fixtures(workbench, request):
    """On every spec criteria 4, 8 and 9 use, the harness's closed-form
    exits and their predictions equal the live ``forward_early_exit``."""
    model, splits, vocab = request.getfixturevalue(workbench)
    test = splits.test
    cache = _LayerCache(model, test, vocab)
    specs = criteria_specs(model.config.task, model, test, vocab)
    mismatches = []
    for spec in specs:
        exits = _exits(cache, spec)
        probs = cache.probs[np.arange(len(exits)), exits - 1]
        policy = spec.build()
        for i, ex in enumerate(test.examples):
            ids = vocab.encode(ex.text, max_len=model.config.max_seq_len)
            prob, exit_layer, _ = model.forward_early_exit(ids, policy)
            if exit_layer != exits[i] or prob.probs.tobytes() != probs[i].tobytes():
                mismatches.append((spec, i))
    assert not mismatches, mismatches[:5]


def test_criterion_10_train_and_sweep_are_byte_deterministic(tmp_path):
    def run(tag):
        base = tmp_path / tag
        data_dir = base / "data"
        ckpt = base / "model.npz"
        out = base / "sweep.csv"
        assert cli_main([
            "gen-data", "--task", "slc", "--classes", "3", "--n-train", "150",
            "--n-dev", "20", "--n-test", "60", "--easy-fraction", "0.8",
            "--seed", "13", "--out-dir", str(data_dir),
        ]) == 0
        assert cli_main([
            "train", "--data", str(data_dir / "train.jsonl"), "--task", "slc",
            "--out", str(ckpt), "--layers", "3", "--d-model", "16", "--heads", "2",
            "--d-ff", "32", "--max-seq-len", "24", "--epochs", "3", "--lr", "0.005",
            "--batch-size", "16", "--seed", "2",
        ]) == 0
        assert cli_main([
            "sweep", "--model", str(ckpt), "--data", str(data_dir / "test.jsonl"),
            "--task", "slc", "--policy", "fpabee", "--measure", "jskd",
            "--thre-grid", "0.05,0.2,0.8", "--patience-grid", "1,2",
            "--seed", "3", "--out", str(out),
        ]) == 0
        return out.read_bytes()

    first = run("first")
    second = run("second")
    report(10, "train + sweep byte determinism", first == second,
           f"{len(first)} CSV bytes identical across runs")
