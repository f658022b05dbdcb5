"""Loss definitions, the depth-weighted objective, and the training loop."""

import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exitlab import tensor as T
from exitlab import training
from exitlab.data import Dataset, Example, SyntheticSpec, build_vocab, generate_synthetic
from exitlab.errors import ConfigError, DataError
from exitlab.model import ModelConfig, MultiExitModel
from exitlab.similarity import ProbDist, mlc_pairs, predictions
from exitlab.training import (
    ADAM_EPS,
    BETA1,
    BETA2,
    AdamW,
    TrainConfig,
    load_train_config,
    dev_accuracy,
    grid_search,
    layer_weights,
    make_grid,
    total_loss,
    train,
    _batch_losses,
    _weighted_total,
)


def bce_oracle(pos_probs, targets):
    total = 0.0
    for p, t in zip(pos_probs, targets):
        total += -(t * math.log(p) + (1 - t) * math.log(1 - p))
    return total / len(pos_probs)


def snapshot(model):
    return {name: p.array.copy() for name, p in model.params.items()}


def assert_params_equal(model, saved):
    for name, p in model.params.items():
        np.testing.assert_array_equal(p.array, saved[name])


def toy_setup(task="slc", n_classes=3, n_train=80, easy_fraction=1.0, seed=0):
    spec = SyntheticSpec(task=task, n_classes=n_classes, n_train=n_train, n_dev=20,
                         n_test=20, easy_fraction=easy_fraction, seed=seed)
    splits = generate_synthetic(spec)
    vocab = build_vocab(splits.train, 300)
    cfg = ModelConfig(vocab_size=len(vocab), n_classes=n_classes, task=task, n_layers=2,
                      d_model=16, n_heads=2, d_ff=32, max_seq_len=20, seed=1)
    return splits, vocab, cfg


def one_row_loss(task, prob_row, target):
    """``_batch_losses`` on one layer's prediction for one example."""
    cfg = ModelConfig(vocab_size=1, n_classes=len(prob_row), task=task, n_layers=2,
                      d_model=2, n_heads=1, d_ff=2, max_seq_len=1)
    losses, _ = _batch_losses(MultiExitModel(cfg), [T.Tensor(np.array([prob_row]))], np.array([target]))
    return losses[0].item()


class TestPerLayerLoss:
    def test_perfect_slc_prediction_is_zero(self):
        assert one_row_loss("slc", [1.0, 0.0], 0) == pytest.approx(0.0, abs=1e-9)

    def test_uniform_slc_is_log_k(self):
        for target in range(4):
            assert one_row_loss("slc", [0.25] * 4, target) == pytest.approx(math.log(4), abs=1e-9)

    def test_mlc_matches_scalar_bce_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            probs = rng.uniform(0.05, 0.95, size=3)
            targets = rng.integers(0, 2, size=3).astype(float)
            assert one_row_loss("mlc", probs, targets) == pytest.approx(bce_oracle(probs, targets), rel=1e-9)


@st.composite
def scored_batch(draw):
    """(task, [layers][b, k] probabilities, targets) with argmax ties and p = 0.5 likely."""
    task = draw(st.sampled_from(["slc", "mlc"]))
    k, b, layers = draw(st.integers(2, 4)), draw(st.integers(1, 5)), draw(st.integers(2, 3))
    if task == "slc":
        # small integer weights make exactly equal maxima common
        w = np.array(draw(st.lists(st.integers(1, 3), min_size=layers * b * k, max_size=layers * b * k)),
                     dtype=float).reshape(layers, b, k)
        probs = w / w.sum(axis=-1, keepdims=True)
        targets = np.array(draw(st.lists(st.integers(0, k - 1), min_size=b, max_size=b)))
    else:
        grid = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]) | st.floats(0.0, 1.0)
        probs = np.array(draw(st.lists(grid, min_size=layers * b * k, max_size=layers * b * k)))
        probs = probs.reshape(layers, b, k)
        targets = np.array(draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=b * k,
                                         max_size=b * k))).reshape(b, k)
    return task, probs, targets


@given(scored_batch())
def test_correctness_matrix_is_the_prediction_rule(batch):
    """``_batch_losses``' batched correctness equals ``ProbDist.prediction() == gold``."""
    task, probs, targets = batch
    k = probs.shape[-1]
    cfg = ModelConfig(vocab_size=1, n_classes=k, task=task, n_layers=len(probs),
                      d_model=2, n_heads=1, d_ff=2, max_seq_len=1)
    _, correct = _batch_losses(MultiExitModel(cfg), [T.Tensor(p) for p in probs], targets)
    for layer, rows in enumerate(probs):
        for i, row in enumerate(rows):
            if task == "slc":
                pred, gold = ProbDist.slc(row).prediction(), int(targets[i])
            else:
                pred, gold = ProbDist.mlc(row).prediction(), frozenset(np.flatnonzero(targets[i]).tolist())
            assert correct[layer, i] == (pred == gold), (layer, i)


@given(scored_batch())
def test_correctness_matrix_is_predictions_against_gold(batch):
    """Row by row, each layer's correctness is ``predictions(...) == gold`` of its
    exit distributions, with ``gold`` as ``Dataset.gold()`` gives it: class
    indices, or bool label masks. mlc probabilities of exactly 0.5 are drawn
    often and predict no label; slc ties go to the first maximum."""
    task, probs, targets = batch
    gold = targets if task == "slc" else targets == 1.0
    cfg = ModelConfig(vocab_size=1, n_classes=probs.shape[-1], task=task, n_layers=len(probs),
                      d_model=2, n_heads=1, d_ff=2, max_seq_len=1)
    _, correct = _batch_losses(MultiExitModel(cfg), [T.Tensor(p) for p in probs], gold)
    for layer, rows in enumerate(probs):
        dists = rows if task == "slc" else mlc_pairs(rows)
        want = [float(np.all(predictions(task, dist) == answer)) for dist, answer in zip(dists, gold)]
        assert correct[layer].tolist() == want, layer


class TestTotalLoss:
    def test_two_layer_exact_form(self):
        # (1*L1 + 2*L2) / 3
        assert total_loss([1.0, 4.0], 2) == pytest.approx(3.0, abs=1e-12)

    def test_equal_losses_pass_through(self):
        assert total_loss([0.7] * 5, 5) == pytest.approx(0.7, abs=1e-12)

    def test_random_losses_match_weighted_sum_oracle(self):
        rng = np.random.default_rng(1)
        losses = rng.uniform(0, 3, size=12).tolist()
        expected = sum((j + 1) * l for j, l in enumerate(losses)) / sum(range(1, 13))
        assert total_loss(losses, 12) == pytest.approx(expected, rel=1e-12)

    def test_weights_sum_to_one_exactly_in_rational_arithmetic(self):
        for n in (2, 3, 6, 12):
            total = sum(Fraction(j, sum(range(1, n + 1))) for j in range(1, n + 1))
            assert total == 1
            assert layer_weights(n).sum() == pytest.approx(1.0, abs=1e-12)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            total_loss([1.0], 2)


class TestObjectiveGradients:
    def test_total_gradient_is_weighted_sum_of_per_exit_gradients(self):
        splits, vocab, cfg = toy_setup()
        model = MultiExitModel(cfg)
        rng = np.random.default_rng(3)
        for p in model.params.values():
            p.array[...] = rng.normal(0, 0.2, p.shape)
        ids = np.array([vocab.encode(splits.train.examples[i].text, 20)[:5] for i in range(2)])
        mask = np.ones(ids.shape, dtype=float)
        targets = np.array([splits.train.examples[i].label for i in range(2)])

        probs, _ = model.forward_batch(ids, mask)
        losses, _ = _batch_losses(model, probs, targets)
        total_grads = T.backward(_weighted_total(losses), wrt=model.params.values())

        weights = layer_weights(len(losses))
        per_exit_grads = []
        for loss_t in losses:
            probs_i, _ = model.forward_batch(ids, mask)
            losses_i, _ = _batch_losses(model, probs_i, targets)
            per_exit_grads.append(T.backward(losses_i[len(per_exit_grads)], wrt=model.params.values()))
        for p in model.params.values():
            combined = sum(w * g[p] for w, g in zip(weights, per_exit_grads))
            np.testing.assert_allclose(total_grads[p], combined, atol=1e-10)


class TestTrainLoop:
    def test_zero_epochs_leaves_parameters_unchanged(self):
        splits, vocab, cfg = toy_setup()
        model = MultiExitModel(cfg)
        saved = snapshot(model)
        history = train(model, splits.train, TrainConfig(epochs=0), vocab)
        assert history == []
        assert_params_equal(model, saved)

    def test_zero_learning_rate_leaves_parameters_unchanged(self):
        splits, vocab, cfg = toy_setup()
        model = MultiExitModel(cfg)
        saved = snapshot(model)
        train(model, splits.train, TrainConfig(epochs=1, learning_rate=0.0), vocab)
        assert_params_equal(model, saved)

    def test_loss_drops_on_separable_task(self):
        splits, vocab, cfg = toy_setup(n_train=120)
        model = MultiExitModel(cfg)
        history = train(model, splits.train, TrainConfig(epochs=18, learning_rate=1e-2, seed=2), vocab)
        assert history[-1].total < 0.5 * history[0].total

    def test_report_total_recombines_per_layer_losses(self):
        splits, vocab, cfg = toy_setup()
        model = MultiExitModel(cfg)
        history = train(model, splits.train, TrainConfig(epochs=2, seed=0), vocab)
        for report in history:
            assert report.total == pytest.approx(
                total_loss(report.per_layer_losses, cfg.n_layers), abs=1e-9
            )

    def test_bit_reproducible_given_seed(self):
        splits, vocab, cfg = toy_setup()
        a = MultiExitModel(cfg)
        b = MultiExitModel(cfg)
        config = TrainConfig(epochs=2, seed=7)
        train(a, splits.train, config, vocab)
        train(b, splits.train, config, vocab)
        for name in a.params:
            np.testing.assert_array_equal(a.params[name].array, b.params[name].array)

    def test_task_mismatch_rejected(self):
        splits, vocab, cfg = toy_setup()
        model = MultiExitModel(cfg)
        bad = Dataset("mlc", 3, [Example("a", labels=(0,))])
        with pytest.raises(ConfigError, match="task"):
            train(model, bad, TrainConfig(epochs=1), vocab)

    def test_label_outside_class_range_names_the_example(self):
        splits, vocab, cfg = toy_setup()
        examples = list(splits.train.examples)
        examples[2] = Example(examples[2].text, label=cfg.n_classes)
        bad = Dataset("slc", cfg.n_classes, examples)
        with pytest.raises(DataError, match=f"example 2 has label {cfg.n_classes} outside"):
            train(MultiExitModel(cfg), bad, TrainConfig(epochs=1), vocab)

    def test_mlc_training_runs_and_improves(self):
        splits, vocab, cfg = toy_setup(task="mlc", n_classes=3, n_train=100)
        model = MultiExitModel(cfg)
        history = train(model, splits.train, TrainConfig(epochs=10, learning_rate=3e-3, seed=1), vocab)
        assert history[-1].total < history[0].total


class TestConfigFile:
    def test_partial_file_keeps_base_values(self, tmp_path):
        path = tmp_path / "train.cfg"
        path.write_text("epochs = 3\nlearning_rate = 0.01  # toy-scale rate\n")
        config = load_train_config(path, TrainConfig(batch_size=128, seed=4))
        assert (config.epochs, config.learning_rate, config.batch_size, config.seed) == (
            3, 0.01, 128, 4,
        )

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "train.cfg"
        path.write_text("momentum = 0.9\n")
        with pytest.raises(ConfigError, match="momentum"):
            load_train_config(path)

    def test_bad_value_reports_line(self, tmp_path):
        path = tmp_path / "train.cfg"
        path.write_text("# comment only\nepochs = soon\n")
        with pytest.raises(ConfigError, match=":2:"):
            load_train_config(path)


def tiny_model(shared=False):
    return MultiExitModel(ModelConfig(vocab_size=7, n_classes=3, n_layers=3, d_model=4, n_heads=2, d_ff=6,
                                      max_seq_len=5, seed=2, share_layer_params=shared))


def reference_adamw_step(params, m, v, step_count, grads, config):
    """AdamW parameter by parameter: the four expressions that the flat step
    over the buffer must reproduce bit for bit."""
    bc1 = 1.0 - BETA1**step_count
    bc2 = 1.0 - BETA2**step_count
    for name, p in params.items():
        g = grads[p]
        m[name] = BETA1 * m[name] + (1.0 - BETA1) * g
        v[name] = BETA2 * v[name] + (1.0 - BETA2) * g * g
        update = (m[name] / bc1) / (np.sqrt(v[name] / bc2) + ADAM_EPS)
        p.array[...] -= config.learning_rate * (update + config.weight_decay * p.array)


def adamw_steps(flat, ref, opt, config, rng, n_steps=7):
    """``n_steps`` steps of ``opt`` on ``flat`` and of the per-parameter
    reference on ``ref``, which starts from the same buffer. The gradients
    span many scales; every third parameter's is zero, and all are at step 4.
    After each step, ``flat``'s buffer and ``opt``'s moments must equal the
    reference's bytes."""
    m = {name: np.zeros(p.shape) for name, p in ref.params.items()}
    v = {name: np.zeros(p.shape) for name, p in ref.params.items()}
    for step in range(1, n_steps + 1):
        grads = {}
        for i, name in enumerate(ref.params):
            shape = ref.params[name].shape
            g = rng.normal(size=shape) * 10.0 ** rng.uniform(-9, 2, size=shape)
            grads[name] = np.zeros(shape) if step == 4 or i % 3 == 0 else g
        opt.step({flat.params[name]: g for name, g in grads.items()})
        reference_adamw_step(ref.params, m, v, step, {ref.params[n]: g for n, g in grads.items()}, config)
        assert flat._buffer.tobytes() == ref._buffer.tobytes(), step
        assert opt.m.tobytes() == np.concatenate([a.reshape(-1) for a in m.values()]).tobytes()
        assert opt.v.tobytes() == np.concatenate([a.reshape(-1) for a in v.values()]).tobytes()


@st.composite
def adamw_cases(draw):
    """A small BERT- or ALBERT-style config and a chunk size that some of its
    parameters exceed."""
    n_heads = draw(st.integers(1, 3))
    config = ModelConfig(vocab_size=draw(st.integers(1, 12)), n_classes=draw(st.integers(2, 5)),
                         task=draw(st.sampled_from(["slc", "mlc"])), n_layers=draw(st.integers(2, 4)),
                         d_model=n_heads * draw(st.integers(1, 3)), n_heads=n_heads,
                         d_ff=draw(st.integers(1, 12)), max_seq_len=draw(st.integers(1, 6)),
                         share_layer_params=draw(st.booleans()))
    largest = max(p.size for p in MultiExitModel(config).params.values())
    return config, draw(st.integers(1, largest - 1)), draw(st.integers(0, 2**32 - 1))


class TestAdamW:
    def test_weight_decay_shrinks_unused_parameter(self):
        model = tiny_model()
        model._buffer[...] = 10.0
        opt = AdamW(model, TrainConfig(learning_rate=0.1, weight_decay=0.5))
        opt.step({p: np.zeros(p.shape) for p in model.params.values()})
        np.testing.assert_allclose(model._buffer, 10.0 - 0.1 * 0.5 * 10.0)

    def test_step_direction_follows_negative_gradient(self):
        model = tiny_model()
        opt = AdamW(model, TrainConfig(learning_rate=0.01, weight_decay=0.0))
        grads = {p: np.zeros(p.shape) for p in model.params.values()}
        bias = model.params["head0.b"]
        grads[bias] = np.array([1.0, -1.0, 0.0])
        opt.step(grads)
        assert bias.array[0] < 0 < bias.array[1] and bias.array[2] == 0.0

    @pytest.mark.parametrize("shared", [False, True], ids=["bert", "albert"])
    def test_flat_step_matches_per_parameter_update_bit_for_bit(self, shared):
        """Over several steps, with nonzero weight decay, gradients over many
        scales, parameters whose gradient is zero and one all-zero step."""
        config = TrainConfig(learning_rate=3e-2, weight_decay=0.05)
        flat, ref = tiny_model(shared), tiny_model(shared)
        rng = np.random.default_rng(0)
        flat._buffer[...] = ref._buffer[...] = rng.normal(size=flat._buffer.size)
        opt = AdamW(flat, config)
        adamw_steps(flat, ref, opt, config, rng)

    @settings(max_examples=60)
    @given(case=adamw_cases())
    def test_chunks_tile_the_buffer_and_give_the_per_parameter_bits(self, case):
        """The chunk plan tiles the buffer in parameter order with maximal runs
        of whole parameters, and the chunked step gives the buffer and moment
        bytes of the per-parameter update."""
        model_config, chunk, seed = case
        config = TrainConfig(learning_rate=3e-2, weight_decay=0.05)
        flat, ref = MultiExitModel(model_config), MultiExitModel(model_config)
        rng = np.random.default_rng(seed)
        flat._buffer[...] = ref._buffer[...] = rng.normal(size=flat._buffer.size)
        with mock.patch.object(training, "ADAMW_CHUNK", chunk):
            opt = AdamW(flat, config)
        assert [t for _, _, run in opt.chunks for t in run] == opt.params
        assert opt.chunks[0][0] == 0 and opt.chunks[-1][1] == flat._buffer.size
        for (lo, hi, run), after in zip(opt.chunks, opt.chunks[1:] + [None]):
            assert hi - lo == sum(t.size for t in run) and (hi - lo <= chunk or len(run) == 1)
            assert run[0].array.ctypes.data == flat._buffer.ctypes.data + 8 * lo
            if after is not None:
                assert after[0] == hi and hi - lo + after[2][0].size > chunk
        assert any(len(run) == 1 and hi - lo > chunk for lo, hi, run in opt.chunks)
        adamw_steps(flat, ref, opt, config, rng, n_steps=5)


class TestGridSearch:
    def test_single_cell_identical_to_plain_train(self):
        splits, vocab, cfg = toy_setup()
        config = TrainConfig(epochs=2, seed=3)
        plain = MultiExitModel(cfg)
        train(plain, splits.train, config, vocab)
        result = grid_search(lambda: MultiExitModel(cfg), splits, [config], vocab)
        assert result.best_config == config
        for name in plain.params:
            np.testing.assert_array_equal(result.best_model.params[name].array, plain.params[name].array)

    def test_nonzero_learning_rate_beats_zero(self):
        splits, vocab, cfg = toy_setup(n_train=120)
        grid = make_grid([16], [0.0, 3e-3], TrainConfig(epochs=8, seed=1))
        result = grid_search(lambda: MultiExitModel(cfg), splits, grid, vocab)
        assert result.best_config.learning_rate == 3e-3
        assert len(result.rows) == 2
        accs = {row["learning_rate"]: row["dev_accuracy"] for row in result.rows}
        assert accs[3e-3] > accs[0.0]

    def test_full_grid_emits_one_row_per_cell(self):
        splits, vocab, cfg = toy_setup(n_train=40)
        grid = make_grid([16, 32, 128], [1e-5, 2e-5, 3e-5, 5e-5], TrainConfig(epochs=1, seed=0))
        result = grid_search(lambda: MultiExitModel(cfg), splits, grid, vocab)
        assert len(result.rows) == 12
        cells = {(row["batch_size"], row["learning_rate"]) for row in result.rows}
        assert len(cells) == 12

    def test_empty_grid_rejected(self):
        splits, vocab, cfg = toy_setup(n_train=10)
        with pytest.raises(ConfigError, match="grid"):
            grid_search(lambda: MultiExitModel(cfg), splits, [], vocab)
