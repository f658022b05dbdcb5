"""Multi-exit encoder: shape contracts, prefix equivalence, checkpointing."""

import hashlib
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exitlab import tensor as T
from exitlab.data import SyntheticSpec, Vocab, build_vocab, encode_dataset, generate_synthetic
from exitlab.errors import ConfigError, DataError
from exitlab.model import ModelConfig, MultiExitModel, load_checkpoint, save_checkpoint
from exitlab.policies import (CONFIDENCE, FINAL_FALLBACK, EntropyThreshold, FixedExit, FPabee,
                              LearnedConfidence, MaxProb, Pabee)
from exitlab.similarity import SLC, ProbDist, SimilarityMeasure, entropy
from exitlab.training import AdamW, TrainConfig, _objective, _pad_batch, train


def tiny_config(**kw):
    base = dict(vocab_size=20, n_classes=3, task="slc", n_layers=3,
                d_model=8, n_heads=2, d_ff=16, max_seq_len=10, seed=0)
    base.update(kw)
    return ModelConfig(**base)


def randomize(model, seed=0, scale=0.3):
    rng = np.random.default_rng(seed)
    for p in model.params.values():
        p.array[...] = rng.normal(0, scale, p.shape)
    return model


@pytest.fixture
def model():
    return MultiExitModel(tiny_config())


@pytest.fixture
def trained_like_model():
    # random weights stand in for training where only structure matters
    return randomize(MultiExitModel(tiny_config()), seed=1)


class TestConfig:
    def test_rejects_single_layer(self):
        with pytest.raises(ConfigError):
            tiny_config(n_layers=1)

    def test_rejects_indivisible_heads(self):
        with pytest.raises(ConfigError):
            tiny_config(d_model=9, n_heads=2)

    def test_rejects_single_class(self):
        with pytest.raises(ConfigError):
            tiny_config(n_classes=1)

    def test_rejects_unknown_task(self):
        with pytest.raises(ConfigError):
            tiny_config(task="regression")

    @pytest.mark.parametrize("field, value", [("n_layers", 2.0), ("d_model", 8.0), ("max_seq_len", 64.0),
                                              ("vocab_size", True), ("seed", 0.5), ("n_heads", "2"),
                                              ("share_layer_params", "no"), ("share_layer_params", 1)])
    def test_rejects_a_value_of_the_wrong_type(self, field, value):
        with pytest.raises(ConfigError, match=f"^{field} must be "):
            tiny_config(**{field: value})

    def test_takes_numpy_integers_as_ints(self, tmp_path):
        config = tiny_config(n_layers=np.int64(3), seed=np.uint8(2))
        assert config == tiny_config(n_layers=3, seed=2) and type(config.n_layers) is int
        save_checkpoint(MultiExitModel(config), tmp_path / "m.npz")  # the config's JSON takes it


class TestEmbed:
    def test_empty_sequence_rejected(self, model):
        with pytest.raises(DataError, match="non-empty"):
            model.embed([])

    def test_single_token_shape(self, model):
        out = model.embed([4])
        assert out.shape == (1, 8)

    def test_out_of_vocab_names_position(self, model):
        with pytest.raises(DataError, match="position 2"):
            model.embed([1, 2, 99])

    @pytest.mark.parametrize("tokens, bad, pos", [([1, -1, 3], -1, 1), ([[1, 2], [20, 3]], 20, 2),
                                                  ([[1, 2], [3, -2**63]], -2**63, 3)])
    def test_id_below_zero_or_past_the_vocabulary_names_the_first(self, model, tokens, bad, pos):
        with pytest.raises(DataError, match=f"^token id {bad} at flat position {pos} is outside"):
            model.embed(np.array(tokens, dtype=np.int64))

    def test_too_long_rejected(self, model):
        with pytest.raises(DataError, match="max_seq_len"):
            model.embed(list(range(11)))

    def test_deterministic_for_seed(self):
        a = MultiExitModel(tiny_config(seed=5)).embed([1, 2, 3])
        b = MultiExitModel(tiny_config(seed=5)).embed([1, 2, 3])
        np.testing.assert_array_equal(a, b)

    def test_batched_shape(self, model):
        out = model.embed(np.array([[1, 2], [3, 4]]))
        assert out.shape == (2, 2, 8)


class TestForwardLayer:
    def test_slc_sums_to_one(self, trained_like_model):
        m = trained_like_model
        h = m.embed([1, 2, 3])
        h, p = m.forward_layer(h, 1)
        assert p.probs.sum() == pytest.approx(1.0, abs=1e-9)

    def test_mlc_pairs_each_sum_to_one(self):
        m = randomize(MultiExitModel(tiny_config(task="mlc")), seed=2)
        h = m.embed([1, 2, 3])
        h, p = m.forward_layer(h, 1)
        assert p.probs.shape == (3, 2)
        np.testing.assert_allclose(p.probs.sum(axis=1), 1.0, atol=1e-9)

    def test_zero_initialized_heads_predict_uniform(self, model):
        h = model.embed([1, 2, 3])
        _, p = model.forward_layer(h, 1)
        np.testing.assert_allclose(p.probs, np.full(3, 1 / 3), atol=1e-12)

    def test_layer_index_out_of_range(self, model):
        h = model.embed([1])
        with pytest.raises(ValueError, match="layer_index"):
            model.forward_layer(h, 4)
        with pytest.raises(ValueError, match="layer_index"):
            model.forward_layer(h, 0)

    def test_untrained_confidence_head_outputs_half(self, model):
        # confidence heads start at zero, so the sigmoid sits at 0.5
        h = model.embed([1, 2, 3])
        h, _ = model.forward_layer(h, 1)
        assert model.layer_confidence(h, 1) == 0.5


class TestForwardFull:
    def test_stream_length_equals_layer_count(self, trained_like_model):
        stream = trained_like_model.forward_full([1, 2, 3])
        assert len(stream) == 3
        assert len(stream.confidences) == 3

    def test_prefix_property_against_stopped_run(self, trained_like_model):
        m = trained_like_model
        tokens = [5, 6, 7, 8]
        stream = m.forward_full(tokens)
        for j in (1, 2, 3):
            prob, exit_layer, _ = m.forward_early_exit(tokens, FixedExit(j))
            assert exit_layer == j
            np.testing.assert_array_equal(prob.probs, stream.probs[j - 1].probs)

    def test_deterministic_across_calls(self, trained_like_model):
        a = trained_like_model.forward_full([1, 2])
        b = trained_like_model.forward_full([1, 2])
        for pa, pb in zip(a.probs, b.probs):
            np.testing.assert_array_equal(pa.probs, pb.probs)


@st.composite
def tiny_models_and_tokens(draw):
    """A randomized tiny model (slc or mlc, shared blocks or not) and one input.

    Head widths reach 16, where numpy's matmul of a strided view can round
    differently from that of a contiguous copy (seen with numpy 2.4 and
    its bundled OpenBLAS).
    """
    max_seq_len = draw(st.integers(1, 16))
    n_heads = draw(st.sampled_from([1, 2, 4]))
    config = tiny_config(task=draw(st.sampled_from(["slc", "mlc"])),
                         n_classes=draw(st.integers(2, 5)), n_layers=draw(st.integers(2, 4)),
                         d_model=n_heads * draw(st.sampled_from([2, 4, 8, 16])), n_heads=n_heads,
                         d_ff=draw(st.integers(4, 24)), max_seq_len=max_seq_len,
                         share_layer_params=draw(st.booleans()))
    model = randomize(MultiExitModel(config), seed=draw(st.integers(0, 2**16)),
                      scale=draw(st.sampled_from([0.1, 0.5, 2.0])))
    length = draw(st.integers(1, max_seq_len))
    tokens = draw(st.lists(st.integers(0, config.vocab_size - 1), min_size=length, max_size=length))
    return model, tokens


class TestArrayInference:
    @settings(max_examples=60)
    @given(tiny_models_and_tokens())
    def test_iter_layers_bit_equal_to_taped_ops(self, model_and_tokens):
        model, tokens = model_and_tokens
        t, d = len(tokens), model.config.d_model
        make = ProbDist.slc if model.config.task == SLC else ProbDist.mlc
        ref = model.embed(tokens, taped=True)
        assert ref.node is not None
        assert np.array_equal(model.embed(tokens), ref.array)
        ref = ref.reshape((1, t, d))
        layers = 0
        for layer, (h, prob, conf) in enumerate(model.iter_layers(tokens), start=1):
            ref = model._block(ref, layer, None)
            assert isinstance(h, np.ndarray) and np.array_equal(h, ref.array.reshape((t, d)))
            first = T.embedding_lookup(ref.reshape((t, d)), [0])  # as forward_batch pools
            expected = make(model._exit_probs(first, layer).array[0])
            assert np.array_equal(prob.probs, expected.probs)
            assert conf == float(model._confidence(first, layer).array[0])
            layers += 1
        assert layers == model.config.n_layers


@st.composite
def tiny_models_and_batches(draw, task, share_layer_params):
    """A randomized tiny model and b >= 1 texts encoded to one length.

    The texts run through ``Vocab.encode`` with ``max_len=max_seq_len``, as
    the harness encodes them; a text longer than that is cut there.
    """
    max_seq_len = draw(st.integers(1, 12))
    n_heads = draw(st.sampled_from([1, 2, 4]))
    vocab = Vocab([f"w{i}" for i in range(17)])
    config = tiny_config(task=task, share_layer_params=share_layer_params, vocab_size=len(vocab),
                         n_classes=draw(st.integers(2, 5)), n_layers=draw(st.integers(2, 4)),
                         d_model=n_heads * draw(st.sampled_from([2, 4, 8, 16])), n_heads=n_heads,
                         d_ff=draw(st.integers(4, 24)), max_seq_len=max_seq_len)
    model = randomize(MultiExitModel(config), seed=draw(st.integers(0, 2**16)),
                      scale=draw(st.sampled_from([0.1, 0.5, 2.0])))
    words = draw(st.integers(0, max_seq_len + 3))
    texts = draw(st.lists(st.lists(st.sampled_from(vocab.tokens[3:]), min_size=words, max_size=words),
                          min_size=1, max_size=6))
    return model, [vocab.encode(" ".join(text), max_len=max_seq_len) for text in texts]


class TestBatchedInference:
    @pytest.mark.parametrize("share_layer_params", [False, True], ids=["bert", "albert"])
    @pytest.mark.parametrize("task", ["slc", "mlc"])
    @settings(max_examples=25)
    @given(data=st.data())
    def test_each_row_of_a_batch_has_its_batch_1_bytes(self, task, share_layer_params, data):
        model, encoded = data.draw(tiny_models_and_batches(task, share_layer_params))
        b, t = len(encoded), len(encoded[0])
        singles = [list(model.iter_layers(ids)) for ids in encoded]
        layers = 0
        for j, (h, probs, confs) in enumerate(model.iter_layers(np.stack(encoded))):
            assert h.shape == (b, t, model.config.d_model) and len(probs) == len(confs) == b
            assert probs.dtype == np.float64 and probs.shape == (b,) + singles[0][j][1].probs.shape
            for row, single in enumerate(singles):
                h1, prob1, conf1 = single[j]
                assert h[row].tobytes() == h1.tobytes()
                assert probs[row].tobytes() == prob1.probs.tobytes()
                assert np.float64(confs[row]).tobytes() == np.float64(conf1).tobytes()
            layers += 1
        assert layers == model.config.n_layers


class TestIterLayers:
    def test_suspended_generator_leaves_taping_on(self, trained_like_model):
        layers = trained_like_model.iter_layers([1, 2])
        next(layers)
        w = T.Tensor(np.ones((2, 1)), requires_grad=True)
        assert T.matmul(T.Tensor(np.ones((1, 2))), w).node is not None

    def test_runs_only_the_layers_consumed(self, trained_like_model, monkeypatch):
        m = trained_like_model
        calls = []
        original = m.forward_layer
        monkeypatch.setattr(m, "forward_layer", lambda h, j, *groups: calls.append(j) or original(h, j, *groups))
        layers = m.iter_layers([1, 2])
        assert calls == []
        next(layers)
        next(layers)
        assert calls == [1, 2]


class TestForwardEarlyExit:
    def test_fixed_policy_exits_at_that_layer(self, trained_like_model):
        for j in (1, 2, 3):
            _, exit_layer, trace = trained_like_model.forward_early_exit([1, 2], FixedExit(j))
            assert exit_layer == j
            assert trace.entries[-1].decision.halt

    def test_policy_that_never_fires_falls_back_to_final_layer(self, trained_like_model):
        m = trained_like_model
        prob, exit_layer, trace = m.forward_early_exit([1, 2], MaxProb(threshold=1.0))
        assert exit_layer == 3
        assert trace.reason == FINAL_FALLBACK
        full = m.forward_full([1, 2])
        np.testing.assert_array_equal(prob.probs, full.probs[-1].probs)

    def test_infinite_threshold_exits_at_patience_plus_one(self, trained_like_model):
        m = MultiExitModel(tiny_config(n_layers=6))
        randomize(m, seed=3)
        for patience in (1, 2, 3):
            policy = FPabee(SimilarityMeasure("kd"), thre=math.inf, patience=patience)
            _, exit_layer, _ = m.forward_early_exit([1, 2, 3], policy)
            assert exit_layer == patience + 1

    def test_trace_records_every_executed_layer(self, trained_like_model):
        _, exit_layer, trace = trained_like_model.forward_early_exit([4], FixedExit(2))
        assert [e.layer for e in trace.entries] == [1, 2]
        assert trace.exit_layer == exit_layer == 2

    @pytest.mark.parametrize("task", ["slc", "mlc"])
    def test_confidence_trace_scores_are_the_compared_values(self, task):
        m = randomize(MultiExitModel(tiny_config(task=task, n_layers=4)), seed=2)
        tokens = [3, 1, 2]
        stream = m.forward_full(tokens)
        expected = {
            "entropy": [entropy(p) for p in stream.probs],
            "maxprob": [float(p.probs.max() if p.kind == SLC else p.probs.max(axis=1).min())
                        for p in stream.probs],
            "learned": stream.confidences,
        }
        for policy in (EntropyThreshold, MaxProb, LearnedConfidence):
            values = expected[policy.name]
            for threshold in (0.0, sorted(values)[1], 1.0):
                _, exit_layer, trace = m.forward_early_exit(tokens, policy(threshold))
                scores = [e.score for e in trace.entries]
                assert scores == values[:exit_layer], policy.name
                # the score alone explains the exit: it crosses the threshold
                # at the halting layer and nowhere before
                crossed = [s < threshold if policy is EntropyThreshold else s > threshold
                           for s in scores]
                assert crossed == [False] * (exit_layer - 1) + [trace.reason == CONFIDENCE]

    def test_prediction_matches_forward_full_at_exit_layer(self, trained_like_model):
        m = trained_like_model
        tokens = [3, 1, 2]
        policy = FPabee(SimilarityMeasure("jskd"), thre=5.0, patience=1)
        prob, exit_layer, _ = m.forward_early_exit(tokens, policy)
        stream = m.forward_full(tokens)
        np.testing.assert_array_equal(prob.probs, stream.probs[exit_layer - 1].probs)


class TestSharedLayerParams:
    def test_single_block_parameter_set(self):
        m = MultiExitModel(tiny_config(share_layer_params=True))
        block_names = {n for n in m.params if n.startswith("block")}
        assert all(n.startswith("block0.") for n in block_names)
        # heads remain per layer
        assert "head0.w" in m.params and "head2.w" in m.params

    def test_forward_still_runs(self):
        m = randomize(MultiExitModel(tiny_config(share_layer_params=True)), seed=4)
        stream = m.forward_full([1, 2, 3])
        assert len(stream) == 3


class TestCheckpoint:
    def test_round_trip_preserves_params_and_config(self, tmp_path, trained_like_model):
        m = trained_like_model
        path = tmp_path / "model.npz"
        save_checkpoint(m, path, vocab=["<pad>", "<unk>", "<cls>", "a"])
        loaded, vocab = load_checkpoint(path)
        assert loaded.config == m.config
        assert vocab == ["<pad>", "<unk>", "<cls>", "a"]
        for name, p in m.params.items():
            np.testing.assert_array_equal(loaded.params[name].array, p.array)
        assert loaded.param_hash() == m.param_hash()

    def test_loaded_model_reproduces_outputs(self, tmp_path, trained_like_model):
        m = trained_like_model
        path = tmp_path / "model.npz"
        save_checkpoint(m, path)
        loaded, _ = load_checkpoint(path)
        a = m.forward_full([1, 2, 3])
        b = loaded.forward_full([1, 2, 3])
        for pa, pb in zip(a.probs, b.probs):
            np.testing.assert_array_equal(pa.probs, pb.probs)

    def test_version_field_enforced(self, tmp_path, model):
        import json

        path = tmp_path / "model.npz"
        save_checkpoint(m := model, path)
        # tamper with the version
        data = dict(np.load(path, allow_pickle=False))
        meta = json.loads(str(data["__meta__"]))
        meta["version"] = 999
        data["__meta__"] = np.array(json.dumps(meta))
        with open(path, "wb") as fh:
            np.savez(fh, **data)
        with pytest.raises(DataError, match="version"):
            load_checkpoint(path)

    @pytest.mark.parametrize("shared", [False, True], ids=["extra-array", "bert-file-claims-shared-blocks"])
    def test_rejects_an_array_the_config_does_not_name(self, tmp_path, trained_like_model, shared):
        import json

        path = tmp_path / "model.npz"
        save_checkpoint(trained_like_model, path)
        data = dict(np.load(path, allow_pickle=False))
        if shared:  # the config now builds block0 alone, so block1's arrays are unexpected
            meta = json.loads(str(data["__meta__"]))
            meta["config"]["share_layer_params"] = True
            data["__meta__"] = np.array(json.dumps(meta))
        else:
            data["block9.wq"] = np.zeros(1)
        with open(path, "wb") as fh:
            np.savez(fh, **data)
        unexpected = "block1.wq" if shared else "block9.wq"
        with pytest.raises(DataError, match=rf"holds parameter '{unexpected}', which its config does not name$"):
            load_checkpoint(path)

    def test_param_hash_changes_with_weights(self, model):
        before = model.param_hash()
        model.params["head0.w"].array[0, 0] = 1.0
        assert model.param_hash() != before


# The test-suite fixture architectures (conftest.py), BERT- and ALBERT-style.
FIXTURE_ARCH = {"slc": dict(n_classes=4, d_model=64, n_heads=4, d_ff=256, max_seq_len=24, seed=3),
                "mlc": dict(n_classes=5, d_model=48, n_heads=4, d_ff=192, max_seq_len=32, seed=4)}


def fixture_model(task, shared):
    """(model, train split, vocab): a fixture-architecture model and 48 training examples."""
    arch = FIXTURE_ARCH[task]
    splits = generate_synthetic(SyntheticSpec(task=task, n_classes=arch["n_classes"], n_train=48,
                                              n_dev=0, n_test=0, easy_fraction=0.7, seed=11))
    vocab = build_vocab(splits.train, 500)
    config = ModelConfig(vocab_size=len(vocab), task=task, n_layers=6, share_layer_params=shared, **arch)
    return MultiExitModel(config), splits.train, vocab


def checkpoint_sha256(model, vocab, path):
    save_checkpoint(model, path, vocab=vocab.tokens)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def buffer_pins(task, shared, tmp_path):
    """param_hash and checkpoint SHA-256 at init and after two epochs, and the
    epochs' per-layer and total losses as float.hex strings."""
    model, train_split, vocab = fixture_model(task, shared)
    pins = [model.param_hash(), checkpoint_sha256(model, vocab, tmp_path / "init.npz")]
    history = train(model, train_split, TrainConfig(batch_size=16, learning_rate=1.5e-3, epochs=2, seed=5),
                    vocab)
    pins += [model.param_hash(), checkpoint_sha256(model, vocab, tmp_path / "trained.npz")]
    return pins + [[[x.hex() for x in h.per_layer_losses + [h.total]] for h in history]]


# buffer_pins per fixture. The init entries date from before the parameters
# shared one buffer, when each parameter was an array of its own, and still
# hold. The trained entries are those of training on unpadded length groups:
# each projection is one 2-D gemm over the batch's token rows and no padded
# position is computed, which changed the summation order and so the bits.
BUFFER_PINS = {
    ("slc", False): [
        "efa84111bc398ded", "a352fda5f367e521e54452c4b41c89430e111cd295efecf5eefe47d5c4466a7a",
        "fe39a46939ac243e", "61019c11fc655148008d06b468f4e8b2d4ff087e25126952fc8e11e80523b011",
        [["0x1.67a9c16881a15p+0", "0x1.67c3e9be9e560p+0", "0x1.67d737474a033p+0", "0x1.67f3da8cd093dp+0",
          "0x1.680ff81f31ae8p+0", "0x1.681b5e6a83b00p+0", "0x1.67f9a70ca9c54p+0"],
         ["0x1.62744c75731dbp+0", "0x1.6265dc9272028p+0", "0x1.625773b082f85p+0", "0x1.624f58ec85bd3p+0",
          "0x1.624a452944e60p+0", "0x1.624b1c74044f0p+0", "0x1.6251fd6035c74p+0"]]],
    ("slc", True): [
        "0033243ebf1a90ca", "e05c935540cdba72d4b81b5ae33e2097d6ebe4bbf94f43fcdec723f8fe485ad9",
        "2f281c34dd07d0d5", "17c3ef0a6c02e12d7595ed095461949b0165567fc268e88bfa7b251e0a13af7a",
        [["0x1.67a1685a2abe5p+0", "0x1.67b86cda45a30p+0", "0x1.67d09ed5b76bdp+0", "0x1.67e79aea7a6ddp+0",
          "0x1.68035e36a9c64p+0", "0x1.680a1b3912351p+0", "0x1.67ecf407b0f52p+0"],
         ["0x1.627c1af7b7a6bp+0", "0x1.626e1ccb5dd60p+0", "0x1.625afac549645p+0", "0x1.62489166ab25bp+0",
          "0x1.622cb22436dbbp+0", "0x1.621c83656c6bdp+0", "0x1.623e01378d606p+0"]]],
    ("mlc", False): [
        "5bf98ac3113ff4c1", "caf579c347a3031759319d3cac838b8524df0f81fc4fa2f095b4562169944a28",
        "ef68abeab0eba47f", "297cbcddda7713b88820d3ee85bcf18a60e2cd84ea7f8ec18f0585204398e226",
        [["0x1.622eb1cad1571p-1", "0x1.62340f46b92e8p-1", "0x1.6229e7cc16777p-1", "0x1.620b999f2b4d9p-1",
          "0x1.6208ac3356848p-1", "0x1.622550bd55a63p-1", "0x1.621c1aa69115ep-1"],
         ["0x1.5d3f541fdc893p-1", "0x1.5d33d2438887fp-1", "0x1.5d16efc3826a8p-1", "0x1.5cf4404ffba50p-1",
          "0x1.5ce026624f758p-1", "0x1.5cea62df1d583p-1", "0x1.5cfb3b28be838p-1"]]],
    ("mlc", True): [
        "8a1e476cbaf6d1c2", "16befd3eaa2d2f9b593727996707e6c562438e4241a977b8f458005e937d6b9f",
        "8e9e9d81aec513ee", "87737e231bca93e8c0bb1b226f972bcee2cabf888de197dd4044f05c2e119a0b",
        [["0x1.6230f6c13a3bbp-1", "0x1.62150fae0aca4p-1", "0x1.6214e2d5638d0p-1", "0x1.62131183f4f73p-1",
          "0x1.620dff9ebb65bp-1", "0x1.620f0e94c2635p-1", "0x1.621296958044cp-1"],
         ["0x1.5d5795b864f14p-1", "0x1.5d2f3fa1fa8a5p-1", "0x1.5d1b920bc5b14p-1", "0x1.5d0fb661e119cp-1",
          "0x1.5cfcf8d3b2098p-1", "0x1.5d00a6cd9bad9p-1", "0x1.5d0f1138285e8p-1"]]],
}


def assert_one_buffer(model):
    """Every parameter is a view into model._buffer, in init order, tiling it exactly."""
    buffer, offset = model._buffer, 0
    for name, p in model.params.items():
        assert np.shares_memory(p.array, buffer) and model._arrays[name] is p.array, name
        assert p.array.ctypes.data == buffer.ctypes.data + 8 * offset, name
        offset += p.array.size
    assert offset == buffer.size


class TestParameterBuffer:
    @pytest.mark.parametrize("shared", [False, True], ids=["bert", "albert"])
    @pytest.mark.parametrize("task", ["slc", "mlc"])
    def test_digests_and_losses_match_separate_arrays(self, task, shared, tmp_path):
        assert buffer_pins(task, shared, tmp_path) == BUFFER_PINS[task, shared]

    @pytest.mark.parametrize("shared", [False, True], ids=["bert", "albert"])
    @pytest.mark.parametrize("task", ["slc", "mlc"])
    def test_parameters_stay_views_of_the_buffer(self, task, shared, tmp_path):
        model, train_split, vocab = fixture_model(task, shared)
        assert_one_buffer(model)
        train(model, train_split, TrainConfig(batch_size=48, epochs=1), vocab)  # one step
        assert_one_buffer(model)
        save_checkpoint(model, tmp_path / "m.npz", vocab=vocab.tokens)
        loaded, _ = load_checkpoint(tmp_path / "m.npz")
        assert_one_buffer(loaded)
        assert loaded._buffer.tobytes() == model._buffer.tobytes()

    def test_param_hash_follows_in_place_writes(self, model):
        """A memoized digest is dropped on any bitwise change, ±0.0 and NaN payloads included."""
        arr = model.params["block1.wbq"].array  # zero-initialized
        digests = [model.param_hash()]
        payload_nan = np.array(0x7FF8000000000001, dtype=np.uint64).view(np.float64)[()]
        for value in (-0.0, 0.0, np.nan, payload_nan, 1.0):
            arr[0] = value
            ref = MultiExitModel(model.config)
            ref.params["block1.wbq"].array[0] = value
            digests.append(model.param_hash())
            assert digests[-1] == ref.param_hash(), value
        assert len(set(digests)) == 5  # the second 0.0 restores the first digest
        assert digests[0] == digests[2]


# Thresholds near each random model's median score, so that exits spread.
PIN_KNOBS = {"slc": dict(kd=1.6, rekd=1.47, symkd=3.1, jskd=1.2, kl=0.09, entropy=1.18, maxprob=0.45,
                         learned=0.72),
             "mlc": dict(kd=3.85, rekd=3.8, symkd=7.2, jskd=3.2, kl=0.12, entropy=0.6, maxprob=0.524,
                         learned=0.37)}


def batch_1_digests(task, shared):
    """SHA-256 of batch-1 inference on a fixture-architecture model at a seeded
    random parameter state, over one input of every length 1..24: every
    ``iter_layers`` state, prob and confidence and every ``forward_full`` prob
    and confidence; and, per policy (fpabee with each measure and in KL mode,
    pabee, entropy, maxprob, learned, fixed), ``forward_early_exit``'s prob
    bytes, exit layer and trace scores as ``float.hex``."""
    arch = dict(FIXTURE_ARCH[task], n_layers=6, share_layer_params=shared)
    model = randomize(MultiExitModel(ModelConfig(vocab_size=500, task=task, **arch)), seed=7)
    knobs = PIN_KNOBS[task]
    policies = [FPabee(SimilarityMeasure(v), knobs[v], 1) for v in ("kd", "rekd", "symkd", "jskd")] + [
        FPabee(SimilarityMeasure("jskd", subtract_self_entropy=True), knobs["kl"], 1), Pabee(1),
        EntropyThreshold(knobs["entropy"]), MaxProb(knobs["maxprob"]), LearnedConfidence(knobs["learned"]),
        FixedExit(4)]
    rng = np.random.default_rng(8)
    full, early = hashlib.sha256(), hashlib.sha256()
    for t in range(1, 25):
        ids = rng.integers(0, 500, size=t)
        for h, prob, conf in model.iter_layers(ids):
            full.update(h.tobytes() + prob.probs.tobytes() + conf.hex().encode())
        stream = model.forward_full(ids)
        for prob, conf in zip(stream.probs, stream.confidences):
            full.update(prob.probs.tobytes() + conf.hex().encode())
        for policy in policies:
            prob, layer, trace = model.forward_early_exit(ids, policy)
            scores = " ".join("-" if e.score is None else float(e.score).hex() for e in trace.entries)
            early.update(prob.probs.tobytes() + bytes([layer]) + scores.encode())
    return [full.hexdigest(), early.hexdigest()]


# batch_1_digests per fixture, computed before the untaped block read its
# parameters as kept views and lost its wrappers: the inference bytes have
# not moved since.
BATCH_1_PINS = {
    ("slc", False): ["a35e2c1f2104ecc19167556074456df8d980609b0700d75bee87d38f5c010d09",
                     "cbda4a00255a26bc072be74a0620c7c3969a2054e2ba6cbfc613d53783e86574"],
    ("slc", True): ["86596515031a371556b4acd8b1248491dcdc743ff379271625fb256be7237fa2",
                    "9671795026b312e8a1bbee71b41eeb5a6aa59a43c44370db553a6956f54b04bb"],
    ("mlc", False): ["862d4d788d6c256994bd6dab7fb39cff2cb0a22f48d6ee23588881fa7172496a",
                     "d1b9c67963e311ba0a0e21503cb7791833e5c777c75fad184c6be8f1ff70d896"],
    ("mlc", True): ["b99eb3e2dad931a791762743b4eae35cede3add0cd4c4c4f32b8501dfe7e69fd",
                    "23a4c3e7aae7df4ed3b470b331df450a847dff9a41f4502ce9152fa4524048ac"],
}


class TestBatch1Pins:
    @pytest.mark.parametrize("shared", [False, True], ids=["bert", "albert"])
    @pytest.mark.parametrize("task", ["slc", "mlc"])
    def test_inference_bytes_match_the_pins(self, task, shared):
        assert batch_1_digests(task, shared) == BATCH_1_PINS[task, shared]

    @pytest.mark.parametrize("shared", [False, True], ids=["bert", "albert"])
    def test_in_place_writes_reach_the_kept_parameter_views(self, shared, tmp_path):
        """After in-place writes to a block parameter (ALBERT's shared block0
        included) and a head, the next layers equal a reloaded model's."""
        model = randomize(MultiExitModel(tiny_config(share_layer_params=shared)), seed=5)
        h = model.embed([1, 2, 3])
        before = [model.forward_layer(h, j) for j in (1, 2, 3)]
        block = "block0" if shared else "block1"
        model.params[f"{block}.wq"].array[0] += 0.5
        model._arrays[f"{block}.ln2.g"][:] = 0.75
        model.params["head2.w"].array[...] *= -1.0
        save_checkpoint(model, tmp_path / "m.npz")
        loaded, _ = load_checkpoint(tmp_path / "m.npz")
        after = [model.forward_layer(h, j) for j in (1, 2, 3)]
        for j, (h1, prob1) in enumerate(after, start=1):
            h2, prob2 = loaded.forward_layer(h, j)
            assert h1.tobytes() == h2.tobytes() and prob1.probs.tobytes() == prob2.probs.tobytes()
        assert after[1][0].tobytes() != before[1][0].tobytes()  # layer 2 runs the written block
        assert after[2][1].probs.tobytes() != before[2][1].probs.tobytes()  # layer 3 the written head
        ids, mask = _pad_batch([np.array([1, 2, 3]), np.array([4, 5])])
        for taped, ref in zip(*(m.forward_batch(ids, mask)[0] for m in (model, loaded))):
            assert taped.array.tobytes() == ref.array.tobytes()


def tape_results(loss):
    """The op results, one per tape node, of the graph behind ``loss``."""
    results, seen, stack = [], set(), [loss]
    while stack:
        t = stack.pop()
        if id(t) in seen or t.node is None:
            continue
        seen.add(id(t))
        results.append(t)
        stack.extend(t.node.parents)
    return results


def fixture_batch():
    """(model, ids, mask, gold): the slc fixture model and its first 32
    training examples as one padded batch."""
    model, train_split, vocab = fixture_model("slc", False)
    ids, mask = _pad_batch(encode_dataset(train_split, vocab, model.config.max_seq_len)[:32])
    return model, ids, mask, train_split.gold()[:32]


def test_training_tape_holds_one_node_per_projection_and_attention():
    """Each block tapes its q, k and v projections as one ``linear`` node
    each, its attention as one ``attention`` node, the w1 projection and its
    GELU as one ``linear_gelu`` node, and each of the wo and w2 projections
    with the residual layer norm after it as one ``linear_layer_norm``
    node. So the tape keeps no gemm before its bias add, no head split, no
    raw or scaled scores, no GELU pre-activation or tanh, and no
    projection or residual sum before a layer norm. Each layer gathers its
    first-token rows once (one ``embedding`` node besides the token and
    position lookups), and its exit and confidence heads are one ``linear``
    each. The 3n ``add`` nodes are the embedding sum and the loss sums. The
    batch is padded, and each attention runs on its real token rows only."""
    model, ids, mask, gold = fixture_batch()
    assert mask.min() == 0.0
    results = tape_results(_objective(model, ids, mask, gold)[0])
    counts = Counter(t.node.op for t in results)
    n = model.config.n_layers
    ops = ("linear", "linear_gelu", "linear_layer_norm", "attention", "layer_norm", "gelu", "embedding", "add",
           "matmul", "transpose")
    assert {op: counts[op] for op in ops} == {
        "linear": 5 * n, "linear_gelu": n, "linear_layer_norm": 2 * n, "attention": n, "layer_norm": 0,
        "gelu": 0, "embedding": n + 2, "add": 3 * n, "matmul": 0, "transpose": 0}
    assert len(results) == 196
    assert {t.shape for t in results if t.node.op == "attention"} == {(mask.sum(), model.config.d_model)}
    # each fused layer norm's parents: the residual, the projection's input, weight and bias, gain, bias
    assert {len(t.node.parents) for t in results if t.node.op == "linear_layer_norm"} == {6}


def traced_bytes(make):
    """``make()``'s result and the bytes, as tracemalloc counts them, that
    were allocated during the call and are still held when it returns."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = make()
        return kept, tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def test_training_memory_stays_within_bounds():
    """One fixture batch's tape holds 14.0 MB: each attention keeps its
    softmax but not its head-split q, k and v, which its parents hold; each
    GELU keeps its derivative but not its pre-activation or tanh; and no
    projection before a layer norm, nor the residual sum, outlives the
    layer norm that reads it. A tape that kept the projections, the
    pre-activations and the tanhs held 18.8 MB, and one that also kept the
    head splits and the sums 22.9 MB. AdamW holds the two moments and a
    two-row scratch of one chunk, 5.4 MB; with a gathered gradient and a
    scratch of the buffer's size it held 9.8 MB."""
    model, ids, mask, gold = fixture_batch()
    _objective(model, ids, mask, gold)  # first-call allocations stay out of the count
    objective, tape = traced_bytes(lambda: _objective(model, ids, mask, gold)[0])
    assert objective.node is not None and tape < 15e6
    optimizer, resident = traced_bytes(lambda: AdamW(model, TrainConfig()))
    assert resident < 7.6e6
    assert resident >= optimizer.m.nbytes + optimizer.v.nbytes


class TestForwardBatch:
    """The taped pass over a padded batch: its mask contract, its padding
    invariance and its agreement with batch-1 inference."""

    @pytest.mark.parametrize("mask, row", [
        (np.ones((2, 3)), None),
        ([[1, 1, 0, 0], [1, 0, 1, 0]], 1),
        ([[1, 1, 0, 0], [0, 0, 0, 0]], 1),
        ([[0, 1, 1, 0], [1, 1, 1, 1]], 0),
        ([[1, 0.5, 0, 0], [1, 1, 1, 1]], 0),
    ], ids=["shape", "hole", "all-padding", "leading-zero", "not-0-or-1"])
    def test_bad_pad_mask_raises_one_line(self, model, mask, row):
        ids = np.ones((2, 4), dtype=np.int64)
        match = "shape" if row is None else f"pad_mask row {row} is not one or more ones followed by zeros"
        with pytest.raises(ValueError, match=match) as info:
            model.forward_batch(ids, np.asarray(mask, dtype=np.float64))
        assert "\n" not in str(info.value)

    @pytest.mark.parametrize("task", ["slc", "mlc"])
    def test_padding_columns_leave_objective_and_gradients_bit_equal(self, task):
        model, train_split, vocab = fixture_model(task, False)
        randomize(model, seed=4, scale=0.1)
        encoded = encode_dataset(train_split, vocab, model.config.max_seq_len)
        gold = train_split.gold().astype(np.float64) if task == "mlc" else train_split.gold()
        params, width = list(model.params.values()), model.config.max_seq_len
        for start in range(0, len(encoded), 16):
            ids, mask = _pad_batch(encoded[start:start + 16])
            assert ids.shape[1] < width
            runs = []
            for extra in (0, width - ids.shape[1]):
                batch = (np.pad(x, ((0, 0), (0, extra))) for x in (ids, mask))
                objective = _objective(model, *batch, gold[start:start + 16])[0]
                grads = T.backward(objective, wrt=params)
                runs.append([objective.array.tobytes()] + [grads[p].tobytes() for p in params])
            assert runs[0] == runs[1]

    @pytest.mark.parametrize("share_layer_params", [False, True], ids=["bert", "albert"])
    @pytest.mark.parametrize("task", ["slc", "mlc"])
    def test_each_sample_matches_its_batch_1_inference(self, task, share_layer_params):
        """Every length 1..max_seq_len, mixed and repeated; the taped gemms
        run over all rows at once, so agreement is to rounding, not bits."""
        model = randomize(MultiExitModel(tiny_config(task=task, share_layer_params=share_layer_params,
                                                     n_layers=4, max_seq_len=9)), seed=5, scale=0.5)
        rng = np.random.default_rng(6)
        lengths = np.concatenate([rng.permutation(np.arange(1, 10)), [3, 1, 9, 3]])
        encoded = [rng.integers(0, model.config.vocab_size, size=n) for n in lengths]
        probs, confs = model.forward_batch(*_pad_batch(encoded))
        for i, tokens in enumerate(encoded):
            for j, (_, prob, conf) in enumerate(model.iter_layers(tokens)):
                want = prob.probs if task == SLC else prob.probs[:, 0]
                np.testing.assert_allclose(probs[j].array[i], want, rtol=0, atol=1e-12)
                assert abs(confs[j].array[i] - conf) <= 1e-12
