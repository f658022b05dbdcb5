"""End-to-end CLI: gen-data -> train -> eval -> sweep -> compare, exit codes."""

import argparse
import contextlib
import io
import json
import os
import re
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exitlab.cli import build_parser, main
from exitlab.harness import POLICY_NAMES, parse_csv
from exitlab.model import CHECKPOINT_VERSION, ModelConfig, MultiExitModel, save_checkpoint
from exitlab.similarity import VARIANTS
from exitlab.training import TrainConfig

README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A tiny trained checkpoint plus data files, shared across CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    data_dir = root / "data"
    assert main([
        "gen-data", "--task", "slc", "--classes", "3", "--n-train", "120",
        "--n-dev", "30", "--n-test", "40", "--easy-fraction", "1.0",
        "--seed", "4", "--out-dir", str(data_dir),
    ]) == 0
    ckpt = root / "model.npz"
    assert main([
        "train", "--data", str(data_dir / "train.jsonl"), "--task", "slc",
        "--out", str(ckpt), "--layers", "3", "--d-model", "16", "--heads", "2",
        "--d-ff", "32", "--max-seq-len", "24", "--epochs", "10", "--lr", "0.01",
        "--batch-size", "16", "--seed", "0",
    ]) == 0
    return root, data_dir, ckpt


class TestHappyPath:
    def test_gen_data_writes_three_splits(self, workspace):
        _, data_dir, _ = workspace
        for split in ("train", "dev", "test"):
            assert (data_dir / f"{split}.jsonl").exists()

    def test_eval_writes_csv_and_histogram(self, workspace, capsys):
        root, data_dir, ckpt = workspace
        out_csv = root / "eval.csv"
        out_hist = root / "hist.csv"
        rc = main([
            "eval", "--model", str(ckpt), "--data", str(data_dir / "test.jsonl"),
            "--task", "slc", "--policy", "fpabee", "--measure", "jskd",
            "--thre", "0.2", "--patience", "1",
            "--out-csv", str(out_csv), "--out-hist", str(out_hist),
        ])
        assert rc == 0
        assert "speedup=" in capsys.readouterr().out
        assert len(parse_csv(out_csv).rows) == 1
        assert out_hist.read_text().count("hist_") == 3

    def test_sweep_and_svg(self, workspace):
        root, data_dir, ckpt = workspace
        out = root / "sweep.csv"
        svg = root / "sweep.svg"
        rc = main([
            "sweep", "--model", str(ckpt), "--data", str(data_dir / "test.jsonl"),
            "--task", "slc", "--policy", "fixed", "--layer-grid", "1,2,3",
            "--out", str(out), "--svg", str(svg),
        ])
        assert rc == 0
        rows = parse_csv(out).rows
        assert [r.speedup for r in rows] == sorted(r.speedup for r in rows)
        assert len(rows) == 3
        assert svg.read_text().startswith("<svg")

    def test_kl_mode_changes_scores(self, workspace):
        root, data_dir, ckpt = workspace
        out_a, out_b = root / "kl_off.csv", root / "kl_on.csv"
        argv = [
            "sweep", "--model", str(ckpt), "--data", str(data_dir / "test.jsonl"),
            "--task", "slc", "--policy", "fpabee", "--measure", "kd",
            "--thre-grid", "0.3", "--patience-grid", "1",
        ]
        assert main(argv + ["--out", str(out_a)]) == 0
        assert main(argv + ["--kl-mode", "--out", str(out_b)]) == 0
        a = parse_csv(out_a).rows[0]
        b = parse_csv(out_b).rows[0]
        # at the same threshold the KL-style score exits no later
        assert b.mean_exit_layer <= a.mean_exit_layer

    def test_compare_prints_table(self, workspace, capsys):
        root, data_dir, ckpt = workspace
        rc = main([
            "compare", "--model", str(ckpt), "--data", str(data_dir / "test.jsonl"),
            "--task", "slc", "--target-speedup", "0.0",
            "--policies", "fixed,entropy",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "policy,knob,speedup,score,attained" in out
        assert "fixed" in out and "entropy" in out

    def test_compare_out_round_trips_for_all_six_policies(self, workspace, capsys):
        root, data_dir, ckpt = workspace
        out = root / "compare.csv"
        rc = main([
            "compare", "--model", str(ckpt), "--data", str(data_dir / "test.jsonl"),
            "--task", "slc", "--target-speedup", "0.4", "--out", str(out),
        ])
        assert rc == 0
        printed = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        rows = parse_csv(out).rows
        assert [r.spec.policy for r in rows] == ["fpabee", "pabee", "entropy", "maxprob",
                                                 "learned", "fixed"]
        for (policy, knob, speedup, _, _), row in zip(printed, rows):
            assert (policy, knob, speedup) == (row.spec.policy, repr(row.spec.knob_value()),
                                               f"{row.speedup:.4f}")

    def test_sweep_is_byte_deterministic(self, workspace):
        root, data_dir, ckpt = workspace
        a, b = root / "a.csv", root / "b.csv"
        argv = [
            "sweep", "--model", str(ckpt), "--data", str(data_dir / "test.jsonl"),
            "--task", "slc", "--policy", "entropy", "--thre-grid", "0.1,0.4,0.9",
            "--seed", "7",
        ]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestExitCodes:
    def test_usage_error_is_one(self):
        assert main(["sweep", "--bogus-flag"]) == 1

    def test_unknown_policy_value_is_usage_error(self, workspace):
        root, data_dir, ckpt = workspace
        rc = main([
            "eval", "--model", str(ckpt), "--data", str(data_dir / "test.jsonl"),
            "--task", "slc", "--policy", "telepathy",
        ])
        assert rc == 1

    def test_missing_policy_knob_is_config_error(self, workspace):
        root, data_dir, ckpt = workspace
        rc = main([
            "eval", "--model", str(ckpt), "--data", str(data_dir / "test.jsonl"),
            "--task", "slc", "--policy", "fpabee",
        ])
        assert rc == 1

    def test_task_mismatch_is_config_error(self, workspace):
        root, data_dir, ckpt = workspace
        rc = main([
            "eval", "--model", str(ckpt), "--data", str(data_dir / "test.jsonl"),
            "--task", "mlc", "--policy", "fixed", "--fixed-layer", "1",
        ])
        assert rc == 1

    def test_missing_data_file_is_data_error(self, workspace, tmp_path):
        root, data_dir, ckpt = workspace
        rc = main([
            "eval", "--model", str(ckpt), "--data", str(tmp_path / "nope.jsonl"),
            "--task", "slc", "--policy", "fixed", "--fixed-layer", "1",
        ])
        assert rc == 2

    def test_malformed_data_is_data_error(self, workspace, tmp_path):
        root, data_dir, ckpt = workspace
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{broken\n")
        rc = main([
            "eval", "--model", str(ckpt), "--data", str(bad),
            "--task", "slc", "--policy", "fixed", "--fixed-layer", "1",
        ])
        assert rc == 2

    def test_unwritable_output_is_io_error(self, workspace, tmp_path):
        root, data_dir, ckpt = workspace
        rc = main([
            "sweep", "--model", str(ckpt), "--data", str(data_dir / "test.jsonl"),
            "--task", "slc", "--policy", "fixed", "--layer-grid", "1",
            "--out", str(tmp_path / "no_dir" / "out.csv"),
        ])
        assert rc == 3

    def test_grid_flags_must_come_together(self, workspace):
        root, data_dir, ckpt = workspace
        rc = main([
            "train", "--data", str(data_dir / "train.jsonl"), "--task", "slc",
            "--out", str(root / "m2.npz"), "--grid-batch-sizes", "16",
        ])
        assert rc == 1


def _npy_bytes():
    buf = io.BytesIO()
    np.save(buf, np.arange(3))
    return buf.getvalue()


def _npz_bytes(meta: str, **arrays):
    """An npz holding the given ``__meta__`` string and arrays."""
    buf = io.BytesIO()
    np.savez(buf, __meta__=np.array(meta), **arrays)
    return buf.getvalue()


def _meta_json(**fields):
    return json.dumps({"format": "exitlab-checkpoint", "version": CHECKPOINT_VERSION, **fields})


def _checkpoint_bytes(vocab, nan_bias=False):
    """A well-formed checkpoint with the given metadata vocab, and a NaN in
    one head bias if ``nan_bias``."""
    model = MultiExitModel(ModelConfig(vocab_size=9, n_classes=3, n_layers=2, d_model=4,
                                       n_heads=2, d_ff=4, max_seq_len=24))
    arrays = {name: t.array.copy() for name, t in model.params.items()}
    if nan_bias:
        arrays["head1.b"][0] = np.nan
    return _npz_bytes(_meta_json(config=asdict(model.config), vocab=vocab), **arrays)


class TestBadInputs:
    """Each bad knob, data file or checkpoint exits with its code and one stderr line.

    A row's own ``--data`` comes after the shared one, and argparse keeps the last.
    """

    @pytest.mark.parametrize("argv, checkpoint, code", [
        pytest.param(["eval", "--policy", "fpabee", "--thre", "0.2", "--patience", "0"], None, 1,
                     id="fpabee-patience-0"),
        pytest.param(["eval", "--policy", "pabee", "--patience", "0"], None, 1, id="pabee-patience-0"),
        pytest.param(["eval", "--policy", "fixed", "--fixed-layer", "0"], None, 1, id="fixed-layer-0"),
        pytest.param(["eval", "--policy", "entropy", "--thre", "nan"], None, 1, id="nan-thre"),
        pytest.param(["eval", "--policy", "maxprob", "--thre", "inf"], None, 1, id="inf-thre"),
        pytest.param(["eval", "--policy", "entropy", "--thre", "0.5", "--patience", "3"], None, 1,
                     id="entropy-with-patience"),
        pytest.param(["eval", "--policy", "learned", "--thre", "0.5", "--patience", "1"], None, 1,
                     id="learned-with-patience"),
        pytest.param(["eval", "--policy", "fixed", "--fixed-layer", "1", "--patience", "2"], None, 1,
                     id="fixed-with-patience"),
        pytest.param(["eval", "--policy", "maxprob", "--thre", "0.5", "--fixed-layer", "2"], None, 1,
                     id="maxprob-with-fixed-layer"),
        pytest.param(["eval", "--policy", "fpabee", "--thre", "0.2", "--patience", "1", "--fixed-layer", "1"],
                     None, 1, id="fpabee-with-fixed-layer"),
        pytest.param(["eval", "--policy", "pabee", "--patience", "1", "--fixed-layer", "2"], None, 1,
                     id="pabee-with-fixed-layer"),
        pytest.param(["compare", "--target-speedup", "1.5"], None, 1, id="target-above-one"),
        pytest.param(["compare", "--target-speedup", "-0.1"], None, 1, id="target-negative"),
        pytest.param(["compare", "--target-speedup", "nan"], None, 1, id="target-nan"),
        pytest.param(["compare", "--target-speedup", "0.3", "--policies", ","], None, 1,
                     id="comma-only-policies"),
        pytest.param(["compare", "--target-speedup", "0.3", "--policies", ""], None, 1, id="empty-policies"),
        pytest.param(["compare", "--target-speedup", "0.3", "--policies", "pabee", "--patience", "0"], None, 1,
                     id="compare-patience-0-without-fpabee"),
        pytest.param(["compare", "--target-speedup", "0.3", "--policies", "fixed,entropy", "--patience", "-1"],
                     None, 1, id="compare-patience-negative-without-fpabee"),
        pytest.param(["compare", "--target-speedup", "0.3", "--patience", "0"], None, 1,
                     id="compare-patience-0"),
        pytest.param(["eval", "--policy", "fixed", "--fixed-layer", "1", "--data", os.devnull], None, 2,
                     id="empty-data"),
        pytest.param(["eval", "--policy", "fixed", "--fixed-layer", "1"], b"garbage", 2,
                     id="garbage-checkpoint"),
        pytest.param(["eval", "--policy", "fixed", "--fixed-layer", "1"], b"", 2, id="empty-checkpoint"),
        pytest.param(["eval", "--policy", "fixed", "--fixed-layer", "1"], b"PK\x03\x04truncated", 2,
                     id="corrupt-zip-checkpoint"),
        pytest.param(["eval", "--policy", "fixed", "--fixed-layer", "1"], _npy_bytes(), 2,
                     id="npy-checkpoint"),
        pytest.param(["eval", "--policy", "fixed", "--fixed-layer", "1"],
                     _npz_bytes(_meta_json(config={"vocab_size": 9, "n_classes": 3, "warp_speed": 9})), 2,
                     id="unknown-config-key"),
        pytest.param(["eval", "--policy", "fixed", "--fixed-layer", "1"],
                     _npz_bytes(_meta_json(config={"vocab_size": 9, "n_classes": 3, "n_heads": 0})), 2,
                     id="zero-heads-config"),
        pytest.param(["eval", "--policy", "fixed", "--fixed-layer", "1"], _npz_bytes(_meta_json()), 2,
                     id="missing-config"),
        pytest.param(["eval", "--policy", "fixed", "--fixed-layer", "1"], _npz_bytes("{not json"), 2,
                     id="non-json-metadata"),
        pytest.param(["eval", "--policy", "fixed", "--fixed-layer", "1"], _npz_bytes("[1, 2]"), 2,
                     id="metadata-not-an-object"),
        pytest.param(["eval", "--policy", "fixed", "--fixed-layer", "1"],
                     _checkpoint_bytes(["a"], nan_bias=True), 2, id="nan-parameter-checkpoint"),
        pytest.param(["eval", "--policy", "fixed", "--fixed-layer", "1"], _checkpoint_bytes(5), 2,
                     id="int-vocab-checkpoint"),
        pytest.param(["eval", "--policy", "fixed", "--fixed-layer", "1"], _checkpoint_bytes({"a": 1}), 2,
                     id="dict-vocab-checkpoint"),
        pytest.param(["eval", "--policy", "fixed", "--fixed-layer", "4"], None, 1,
                     id="fixed-layer-above-n"),
        pytest.param(["sweep", "--policy", "fixed", "--layer-grid", "1,4", "--out", os.devnull], None, 1,
                     id="layer-grid-above-n"),
        pytest.param(["sweep", "--policy", "fixed", "--layer-grid", ",", "--out", os.devnull], None, 1,
                     id="empty-layer-grid"),
        pytest.param(["sweep", "--policy", "pabee", "--patience-grid", ",", "--out", os.devnull], None, 1,
                     id="empty-patience-grid"),
        pytest.param(["sweep", "--policy", "entropy", "--thre-grid", ",", "--out", os.devnull], None, 1,
                     id="empty-thre-grid"),
        # a flag the policy does not read is an error, not silently dropped
        pytest.param(["sweep", "--policy", "entropy", "--thre-grid", "0.5", "--patience-grid", "3",
                      "--out", os.devnull], None, 1, id="entropy-sweep-with-patience-grid"),
        pytest.param(["sweep", "--policy", "fixed", "--layer-grid", "2", "--patience-grid", "1",
                      "--out", os.devnull], None, 1, id="fixed-sweep-with-patience-grid"),
        pytest.param(["sweep", "--policy", "fixed", "--layer-grid", "2", "--thre-grid", "0.3",
                      "--out", os.devnull], None, 1, id="fixed-sweep-with-thre-grid"),
        pytest.param(["sweep", "--policy", "pabee", "--patience-grid", "2", "--thre-grid", "0.3",
                      "--out", os.devnull], None, 1, id="pabee-sweep-with-thre-grid"),
        pytest.param(["sweep", "--policy", "fpabee", "--thre-grid", "0.3", "--patience-grid", "1",
                      "--layer-grid", "2", "--out", os.devnull], None, 1, id="fpabee-sweep-with-layer-grid"),
        pytest.param(["sweep", "--policy", "learned", "--thre-grid", "0.5", "--layer-grid", "2",
                      "--out", os.devnull], None, 1, id="learned-sweep-with-layer-grid"),
        pytest.param(["sweep", "--policy", "maxprob", "--thre-grid", "0.5", "--kl-mode", "--out", os.devnull],
                     None, 1, id="maxprob-sweep-with-kl-mode"),
        pytest.param(["sweep", "--policy", "pabee", "--patience-grid", "1", "--kl-mode", "--out", os.devnull],
                     None, 1, id="pabee-sweep-with-kl-mode"),
        pytest.param(["eval", "--policy", "entropy", "--thre", "0.5", "--kl-mode"], None, 1,
                     id="entropy-with-kl-mode"),
        pytest.param(["eval", "--policy", "pabee", "--patience", "1", "--kl-mode"], None, 1,
                     id="pabee-with-kl-mode"),
        pytest.param(["eval", "--policy", "fixed", "--fixed-layer", "1", "--kl-mode"], None, 1,
                     id="fixed-with-kl-mode"),
        pytest.param(["eval", "--policy", "pabee", "--patience", "2", "--thre", "0.3"], None, 1,
                     id="pabee-with-thre"),
        pytest.param(["eval", "--policy", "fixed", "--fixed-layer", "2", "--thre", "0.3"], None, 1,
                     id="fixed-with-thre"),
        pytest.param(["eval", "--policy", "entropy", "--thre", "0.3", "--measure", "kd"], None, 1,
                     id="entropy-with-measure"),
        pytest.param(["sweep", "--policy", "entropy", "--thre-grid", "0.5", "--measure", "kd",
                      "--out", os.devnull], None, 1, id="entropy-sweep-with-measure"),
        # compare's --measure, --kl-mode and --patience set fpabee's fields only
        pytest.param(["compare", "--target-speedup", "0.3", "--policies", "entropy,pabee", "--kl-mode"],
                     None, 1, id="compare-kl-mode-without-fpabee"),
        pytest.param(["compare", "--target-speedup", "0.3", "--policies", "entropy,pabee", "--patience", "3"],
                     None, 1, id="compare-patience-without-fpabee"),
        pytest.param(["compare", "--target-speedup", "0.3", "--policies", "entropy,pabee", "--measure", "kd"],
                     None, 1, id="compare-measure-without-fpabee"),
    ])
    def test_exit_code_and_one_line_message(self, workspace, tmp_path, capsys, argv, checkpoint, code):
        root, data_dir, ckpt = workspace
        if checkpoint is not None:
            ckpt = tmp_path / "bad.npz"
            ckpt.write_bytes(checkpoint)
        rc = main(argv[:1] + ["--model", str(ckpt), "--data", str(data_dir / "test.jsonl"),
                              "--task", "slc"] + argv[1:])
        err = capsys.readouterr().err
        assert rc == code
        assert err.startswith("exitlab: ") and err.count("\n") == 1, err

    @pytest.mark.parametrize("argv, message", [
        pytest.param(["eval", "--policy", "pabee", "--patience=nan"],
                     "exitlab eval: error: argument --patience: invalid int value: 'nan'", id="patience-nan"),
        pytest.param(["compare"], "exitlab compare: error: the following arguments are required: "
                     "--target-speedup", id="compare-without-target-speedup"),
        pytest.param([], "exitlab: error: the following arguments are required: command", id="no-command"),
    ])
    def test_usage_error_is_one_line(self, workspace, capsys, argv, message):
        root, data_dir, ckpt = workspace
        shared = ["--model", str(ckpt), "--data", str(data_dir / "test.jsonl"), "--task", "slc"]
        rc = main(argv[:1] + shared + argv[1:] if argv else [])
        assert rc == 1
        assert capsys.readouterr().err == message + "\n"

    @pytest.mark.parametrize("flags, config", [
        pytest.param(["--lr", "nan"], None, id="lr-nan"),
        pytest.param(["--lr", "inf"], None, id="lr-inf"),
        pytest.param(["--lr", "-0.1"], None, id="lr-negative"),
        pytest.param(["--weight-decay", "inf"], None, id="weight-decay-inf"),
        pytest.param(["--weight-decay", "nan"], None, id="weight-decay-nan"),
        pytest.param([], "learning_rate = nan\n", id="config-lr-nan"),
        pytest.param([], "weight_decay = -1\n", id="config-weight-decay-negative"),
        pytest.param([], "seed = -1\n", id="config-seed-negative"),
        # constants in exitlab.training, not options: even their values are unknown keys
        pytest.param([], "beta1 = 0.9\n", id="config-beta1-unknown"),
        pytest.param([], "beta2 = 0.999\n", id="config-beta2-unknown"),
        pytest.param([], "adam_eps = 1e-8\n", id="config-adam-eps-unknown"),
        pytest.param([], "confidence_loss_weight = 0.1\n", id="config-confidence-weight-unknown"),
        pytest.param(["--seed", "-1"], None, id="seed-negative"),
        pytest.param(["--heads", "0"], None, id="heads-zero"),
        pytest.param(["--d-ff", "-4"], None, id="d-ff-negative"),
        pytest.param(["--max-vocab", "-5"], None, id="max-vocab-negative"),
        pytest.param(["--max-vocab", "3"], None, id="max-vocab-reserved-only"),
        pytest.param(["--classes", "0"], None, id="classes-zero"),
        pytest.param(["--classes", "1"], None, id="classes-one"),
        pytest.param(["--classes", "-3"], None, id="classes-negative"),
    ])
    def test_train_knob_exit_code_and_one_line_message(self, workspace, tmp_path, capsys, flags, config):
        root, data_dir, ckpt = workspace
        out = tmp_path / "m.npz"
        argv = ["train", "--data", str(data_dir / "train.jsonl"), "--task", "slc",
                "--out", str(out), "--layers", "2", "--d-model", "8", "--d-ff", "8"] + flags
        if config is not None:
            cfg = tmp_path / "train.cfg"
            cfg.write_text(config)
            argv += ["--config", str(cfg)]
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("exitlab: ") and err.count("\n") == 1, err
        if config is not None:
            assert config.split("=")[0].strip() in err, err
        assert not out.exists()

    @pytest.mark.parametrize("argv, flag, code", [
        pytest.param(["train", "--task", "slc", "--layers", "2", "--d-model", "8", "--d-ff", "8"],
                     "--data", 2, id="train-data"),
        pytest.param(["train", "--task", "slc", "--layers", "2", "--d-model", "8", "--d-ff", "8"],
                     "--config", 1, id="train-config"),
        pytest.param(["eval", "--policy", "fixed", "--fixed-layer", "1"], "--data", 2, id="eval-data"),
        pytest.param(["sweep", "--policy", "fixed", "--layer-grid", "1"], "--data", 2, id="sweep-data"),
        pytest.param(["compare", "--target-speedup", "0.3"], "--data", 2, id="compare-data"),
    ])
    def test_non_utf8_file_exit_code_and_one_line_message(self, workspace, tmp_path, capsys,
                                                          argv, flag, code):
        root, data_dir, ckpt = workspace
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"\xff\xfe\x00\x81")
        out = tmp_path / "out"
        if argv[0] == "train":
            argv = argv + ["--data", str(data_dir / "train.jsonl"), "--out", str(out)]
        else:
            argv = argv[:1] + ["--model", str(ckpt), "--data", str(data_dir / "test.jsonl"),
                               "--task", "slc"] + argv[1:]
            if argv[0] == "sweep":
                argv += ["--out", str(out)]
        rc = main(argv + [flag, str(bad)])
        err = capsys.readouterr().err
        assert rc == code
        assert err.startswith("exitlab: ") and err.count("\n") == 1, err
        assert "not UTF-8" in err
        assert not out.exists()

    @pytest.mark.parametrize("flags", [
        pytest.param(["--seed", "-1"], id="seed-negative"),
        pytest.param(["--classes", "1"], id="one-class"),
        pytest.param(["--easy-fraction", "1.5"], id="easy-fraction-above-one"),
        pytest.param(["--noise", "nan"], id="noise-nan"),
        pytest.param(["--n-test", "-1"], id="n-test-negative"),
    ])
    def test_gen_data_exit_code_and_one_line_message(self, tmp_path, capsys, flags):
        out_dir = tmp_path / "data"
        rc = main(["gen-data", "--task", "slc", "--classes", "3", "--n-train", "10",
                   "--out-dir", str(out_dir)] + flags)
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("exitlab: ") and err.count("\n") == 1, err
        assert not out_dir.exists()


@pytest.fixture(scope="module")
def contract_files(workspace, tmp_path_factory):
    """({kind: checkpoint path}, {kind: data path}, output dir) for the error-contract test."""
    root, data_dir, ckpt = workspace
    d = tmp_path_factory.mktemp("contract")
    (d / "empty").write_bytes(b"")
    (d / "binary").write_bytes(b"\xff\xfe\x00\x81\x00\x07")
    (d / "a-directory").mkdir()
    mlc = MultiExitModel(ModelConfig(vocab_size=9, n_classes=3, task="mlc", n_layers=2, d_model=4,
                                     n_heads=2, d_ff=4, max_seq_len=24))
    save_checkpoint(mlc, d / "mlc.npz", vocab=[f"w{i}" for i in range(9)])
    (d / "mlc.jsonl").write_text('{"text": "w3 w4", "labels": [0, 2]}\n')
    (d / "corrupt.npz").write_bytes(b"PK\x03\x04truncated")
    (d / "corrupt.jsonl").write_text('{"text": "a", "label": 0}\n{broken\n')
    common = {"missing": d / "missing", "empty": d / "empty", "directory": d / "a-directory",
              "binary": d / "binary"}
    models = {**common, "valid": ckpt, "wrong-task": d / "mlc.npz", "corrupt": d / "corrupt.npz"}
    datas = {**common, "valid": data_dir / "test.jsonl", "wrong-task": d / "mlc.jsonl",
             "corrupt": d / "corrupt.jsonl"}
    return models, datas, d


# Flag values at and past every edge: non-numbers, signs, zero, empty and
# comma-only lists, integers past int64, and a few valid ones to reach the
# checks after parsing.
EDGE_VALUES = ["nan", "inf", "-inf", "-1", "0", "", ",", ",,", "1", "2", "0.3", "1,2",
               str(2**63), str(10**30)]
COMMAND_FLAGS = {
    "eval": ["--thre", "--patience", "--fixed-layer", "--seed"],
    "sweep": ["--thre-grid", "--patience-grid", "--layer-grid", "--seed"],
    "compare": ["--policies", "--patience", "--seed"],
}


@st.composite
def edge_argvs(draw, models, datas, out_dir):
    """An eval, sweep or compare argv over a drawn checkpoint and data file,
    with any of its policy and numeric flags set to an edge value."""
    command = draw(st.sampled_from(sorted(COMMAND_FLAGS)))
    model, data = (draw(st.just("valid") | st.sampled_from(sorted(files))) for files in (models, datas))
    argv = [command, "--model", str(models[model]), "--data", str(datas[data]), "--task", "slc"]
    if command == "compare":
        argv += [f"--target-speedup={draw(st.sampled_from(EDGE_VALUES))}"]
    else:
        argv += ["--policy", draw(st.sampled_from(POLICY_NAMES))]
    for flag in draw(st.lists(st.sampled_from(COMMAND_FLAGS[command]), unique=True, max_size=3)):
        values = EDGE_VALUES + (["fpabee,pabee", "entropy,,fixed", "telepathy"] if flag == "--policies" else [])
        argv += [f"{flag}={draw(st.sampled_from(values))}"]  # one token, so -1 stays a value
    argv += draw(st.sampled_from([[], [], ["--kl-mode"]] + [["--measure", m] for m in VARIANTS]))
    if command != "eval":
        argv += ["--out", str(out_dir / "out.csv")]
    return argv


class TestErrorContract:
    @settings(max_examples=300)
    @given(data=st.data())
    def test_edge_inputs_exit_with_a_code_and_one_message(self, contract_files, data):
        argv = data.draw(edge_argvs(*contract_files))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)  # an exception that escapes fails the test with its traceback
        lines = err.getvalue().splitlines()
        assert rc in (0, 1, 2, 3), (argv, rc)
        assert "Traceback" not in err.getvalue(), argv
        if rc:
            assert len(lines) == 1 and lines[0].startswith("exitlab"), (argv, lines)


class TestTrainConfigFile:
    def test_config_file_overrides_training_flags(self, workspace, tmp_path, capsys):
        root, data_dir, ckpt = workspace
        cfg = tmp_path / "train.cfg"
        cfg.write_text("epochs = 1\nlearning_rate = 0.001\n")
        rc = main([
            "train", "--data", str(data_dir / "train.jsonl"), "--task", "slc",
            "--out", str(tmp_path / "m.npz"), "--layers", "2", "--d-model", "16",
            "--heads", "2", "--d-ff", "32", "--max-seq-len", "24", "--epochs", "3",
            "--config", str(cfg),
        ])
        assert rc == 0
        assert capsys.readouterr().out.count("epoch ") == 1

    def test_bad_config_file_is_config_error(self, workspace, tmp_path):
        root, data_dir, ckpt = workspace
        cfg = tmp_path / "train.cfg"
        cfg.write_text("warp_speed = 9\n")
        rc = main([
            "train", "--data", str(data_dir / "train.jsonl"), "--task", "slc",
            "--out", str(tmp_path / "m.npz"), "--config", str(cfg),
        ])
        assert rc == 1


class TestTrainGrid:
    def test_grid_search_path(self, workspace, capsys, tmp_path):
        root, data_dir, ckpt = workspace
        out = tmp_path / "grid_model.npz"
        rc = main([
            "train", "--data", str(data_dir / "train.jsonl"),
            "--dev", str(data_dir / "dev.jsonl"), "--task", "slc",
            "--out", str(out), "--layers", "2", "--d-model", "16", "--heads", "2",
            "--d-ff", "32", "--max-seq-len", "24", "--epochs", "2",
            "--grid-batch-sizes", "16,32", "--grid-lrs", "0.0,0.01",
        ])
        assert rc == 0
        printed = capsys.readouterr().out
        assert printed.count("\n") >= 5  # table rows + best line
        assert "best:" in printed
        assert out.exists()


class TestReadme:
    """The README's command-line and file-format sections name only what exists."""

    @staticmethod
    def section(title: str) -> str:
        text = README.read_text(encoding="utf-8")
        start = text.index(f"\n## {title}\n")
        end = text.find("\n## ", start + 1)
        return text[start:end if end >= 0 else None]

    def test_every_documented_flag_is_a_parser_option(self):
        options = set()
        for action in build_parser()._actions:
            if isinstance(action, argparse._SubParsersAction):
                for sub in action.choices.values():
                    options.update(sub._option_string_actions)
        documented = set(re.findall(r"--[a-z][a-z0-9-]*",
                                    self.section("Command line") + self.section("File formats")))
        assert documented and documented <= options, documented - options

    def test_training_config_keys_are_the_train_config_fields(self):
        listed = re.search(r"over the training fields:(.*?)\.", self.section("File formats"), re.S)
        assert set(re.findall(r"`(\w+)`", listed.group(1))) == {f.name for f in fields(TrainConfig)}
