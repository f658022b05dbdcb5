"""Dataset ingestion, vocab construction, and synthetic generation."""

import numpy as np
import pytest

from exitlab.data import (
    CLS_ID,
    PAD_ID,
    RESERVED,
    UNK_ID,
    Dataset,
    Example,
    SyntheticSpec,
    Vocab,
    build_vocab,
    generate_synthetic,
    load_jsonl,
    save_jsonl,
    tokenize,
)
from exitlab.errors import ConfigError, DataError
from exitlab.harness import PolicySpec, sweep
from exitlab.model import ModelConfig, MultiExitModel
from exitlab.training import TrainConfig, train


class TestJsonl:
    def test_empty_file_is_data_error(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("\n\n")
        with pytest.raises(DataError, match="no records"):
            load_jsonl(path, "slc")

    def test_round_trip(self, tmp_path):
        ds = Dataset("slc", 3, [Example("a b c", label=2), Example("d e", label=0)])
        path = tmp_path / "d.jsonl"
        save_jsonl(ds, path)
        loaded = load_jsonl(path, "slc", n_classes=3)
        assert loaded.examples == ds.examples
        assert loaded.data_hash() == ds.data_hash()

    def test_mlc_round_trip(self, tmp_path):
        ds = Dataset("mlc", 4, [Example("x y", labels=(0, 3)), Example("z", labels=())])
        path = tmp_path / "m.jsonl"
        save_jsonl(ds, path)
        loaded = load_jsonl(path, "mlc", n_classes=4)
        assert loaded.examples == ds.examples

    def test_labels_array_rejected_for_slc(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"text": "a", "labels": [1]}\n')
        with pytest.raises(DataError, match="labels"):
            load_jsonl(path, "slc")

    def test_scalar_label_rejected_for_mlc(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"text": "a", "label": 1}\n')
        with pytest.raises(DataError, match="label"):
            load_jsonl(path, "mlc")

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"text": "a", "label": 0}\nnot json\n')
        with pytest.raises(DataError, match=":2:"):
            load_jsonl(path, "slc")

    def test_label_out_of_range(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"text": "a", "label": 5}\n')
        with pytest.raises(DataError) as e:
            load_jsonl(path, "slc", n_classes=3)
        assert str(e.value) == f"{path}: example 0 has label 5 outside [0, 3)"

    def test_missing_file_is_data_error(self, tmp_path):
        with pytest.raises(DataError, match="no such"):
            load_jsonl(tmp_path / "nope.jsonl", "slc")

    def test_bad_task_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError):
            load_jsonl(tmp_path / "x.jsonl", "multiclass")

    @pytest.mark.parametrize("task", ["slc", "mlc"])
    @pytest.mark.parametrize("n_classes", [1, 0, -3])
    def test_class_count_below_two_is_config_error(self, tmp_path, task, n_classes):
        path = tmp_path / "d.jsonl"
        path.write_text('{"text": "a", "label": 0}\n' if task == "slc"
                        else '{"text": "a", "labels": [0]}\n')
        with pytest.raises(ConfigError, match="n_classes"):
            load_jsonl(path, task, n_classes=n_classes)


class TestVocab:
    def test_build_keeps_most_frequent(self):
        ds = Dataset("slc", 2, [Example("a a b", label=0)])
        vocab = build_vocab(ds, max_size=10)
        assert vocab.tokens[: len(RESERVED)] == list(RESERVED)
        assert set(vocab.tokens[len(RESERVED):]) == {"a", "b"}

    def test_frequency_tie_breaks_lexicographically(self):
        ds = Dataset("slc", 2, [Example("zed apple zed apple mid", label=0)])
        vocab = build_vocab(ds, max_size=len(RESERVED) + 2)
        assert vocab.tokens[len(RESERVED):] == ["apple", "zed"]

    def test_unknown_token_encodes_as_unk(self):
        vocab = Vocab(list(RESERVED) + ["known"])
        ids = vocab.encode("known mystery")
        assert ids.tolist() == [CLS_ID, vocab.token_to_id["known"], UNK_ID]

    def test_cls_prepended_and_truncation(self):
        vocab = Vocab(list(RESERVED) + ["a", "b", "c"])
        ids = vocab.encode("a b c", max_len=3)
        assert ids[0] == CLS_ID and len(ids) == 3

    def test_reserved_ids_dense_from_zero(self):
        vocab = Vocab(list(RESERVED))
        assert (vocab.token_to_id["<pad>"], vocab.token_to_id["<unk>"], vocab.token_to_id["<cls>"]) == (
            PAD_ID,
            UNK_ID,
            CLS_ID,
        )

    def test_tokenize_round_trip_for_in_vocab_text(self):
        text = "the cat sat on the mat"
        ds = Dataset("slc", 2, [Example(text, label=0)])
        vocab = build_vocab(ds, 100)
        ids = vocab.encode(text)
        assert ids[1:].tolist() == [vocab.token_to_id[tok] for tok in tokenize(text)]


class TestSynthetic:
    def spec(self, **kw):
        base = dict(task="slc", n_classes=2, n_train=100, n_dev=10, n_test=10,
                    easy_fraction=1.0, noise=0.0, seed=9)
        base.update(kw)
        return SyntheticSpec(**base)

    def test_same_seed_same_dataset(self):
        a = generate_synthetic(self.spec())
        b = generate_synthetic(self.spec())
        assert a.train.examples == b.train.examples
        assert a.train.data_hash() == b.train.data_hash()

    def test_different_seed_differs(self):
        a = generate_synthetic(self.spec())
        b = generate_synthetic(self.spec(seed=10))
        assert a.train.examples != b.train.examples

    def test_label_counts_roughly_balanced(self):
        splits = generate_synthetic(self.spec())
        counts = np.bincount([ex.label for ex in splits.train.examples], minlength=2)
        assert abs(counts[0] - 50) <= 10

    def test_keyword_oracle_is_perfect_on_all_easy_data(self):
        # with easy_fraction=1 every example carries its class keyword
        splits = generate_synthetic(self.spec(n_classes=4, n_train=200))
        hits = 0
        for ex in splits.train.examples:
            toks = set(tokenize(ex.text))
            predicted = [c for c in range(4) if f"cue{c}" in toks]
            hits += predicted == [ex.label]
        assert hits == 200

    def test_hard_examples_have_pair_not_keyword(self):
        splits = generate_synthetic(self.spec(easy_fraction=0.0, n_classes=4, n_train=50))
        for ex in splits.train.examples:
            toks = set(tokenize(ex.text))
            assert not any(f"cue{c}" in toks for c in range(4))
            lefts = [int(t[4:]) for t in toks if t.startswith("left")]
            rights = [int(t[5:]) for t in toks if t.startswith("right")]
            assert len(lefts) == 1 and len(rights) == 1
            assert (lefts[0] + rights[0]) % 4 == ex.label

    def test_mlc_labels_within_range(self):
        splits = generate_synthetic(self.spec(task="mlc", n_classes=5, n_train=50))
        for ex in splits.train.examples:
            assert all(0 <= j < 5 for j in ex.labels)

    def test_split_sizes(self):
        splits = generate_synthetic(self.spec(n_train=30, n_dev=20, n_test=10))
        assert (len(splits.train), len(splits.dev), len(splits.test)) == (30, 20, 10)

    def test_invalid_fraction_rejected(self):
        with pytest.raises(ConfigError):
            self.spec(easy_fraction=1.5)


def _dataset_with_bad_label(task, bad):
    """Three classes; example 1 holds the label ``bad``."""
    if task == "slc":
        return Dataset("slc", 3, [Example("a", label=0), Example("a", label=bad)])
    return Dataset("mlc", 3, [Example("a", labels=(1,)), Example("a", labels=(0, bad))])


BAD_LABELS = [pytest.param(task, bad, id=f"{task}-{name}")
              for task in ("slc", "mlc") for bad, name in ((3, "above"), (-1, "negative"))]


class TestGold:
    """``Dataset.gold()``: the one answer key of the dataset check, training and scoring."""

    def test_slc_labels(self):
        gold = Dataset("slc", 3, [Example("a", label=2), Example("b", label=0)]).gold()
        assert gold.dtype == np.int64 and gold.tolist() == [2, 0]

    def test_mlc_masks(self):
        gold = Dataset("mlc", 3, [Example("a", labels=(0, 2)), Example("b", labels=(1,))]).gold()
        assert gold.dtype == bool and gold.tolist() == [[True, False, True], [False, True, False]]

    def test_mlc_empty_label_set(self):
        assert Dataset("mlc", 3, [Example("a", labels=())]).gold().tolist() == [[False] * 3]

    def test_mlc_full_label_set(self):
        assert Dataset("mlc", 4, [Example("a", labels=(0, 1, 2, 3))]).gold().tolist() == [[True] * 4]

    def test_empty_dataset(self):
        assert Dataset("slc", 3).gold().shape == (0,)
        assert Dataset("mlc", 3).gold().shape == (0, 3)

    @pytest.mark.parametrize("task, bad", BAD_LABELS)
    def test_out_of_range_rejected(self, task, bad):
        # a negative mlc label would wrap under numpy indexing: it must raise, not mark label 2
        with pytest.raises(DataError, match=rf"^example 1 has label {bad} outside \[0, 3\)$"):
            _dataset_with_bad_label(task, bad).gold()

    @pytest.mark.parametrize("task, bad", BAD_LABELS)
    def test_train_and_sweep_raise_the_same_message(self, task, bad):
        data = _dataset_with_bad_label(task, bad)
        model = MultiExitModel(ModelConfig(vocab_size=8, n_classes=3, task=task, n_layers=2, d_model=4,
                                           n_heads=2, d_ff=4, max_seq_len=8))
        vocab = Vocab(["a"])
        runs = [lambda: train(model, data, TrainConfig(epochs=1), vocab),
                lambda: sweep(model, data, [PolicySpec("fixed", fixed_layer=2)], vocab)]
        for run in runs:
            with pytest.raises(DataError) as e:
                run()
            assert str(e.value) == f"example 1 has label {bad} outside [0, 3)"
