"""Shared fixtures: trained desk-scale models used by harness and acceptance tests.

Training is deterministic, so every run of the suite reproduces the same
models bit for bit. The two heavyweight fixtures are session-scoped; they
cost a few minutes of CPU between them and are only built when requested.
"""

import numpy as np
import pytest
from hypothesis import settings

from exitlab.data import SyntheticSpec, build_vocab, generate_synthetic
from exitlab.harness import EvalResult, PolicySpec, _record_layers
from exitlab.model import ModelConfig, MultiExitModel
from exitlab.policies import run_exit
from exitlab.similarity import MLC, ProbDist
from exitlab.training import TrainConfig, train

# Property tests draw the same examples on every run and keep no example
# database, so a run's outcome depends on the code alone.
settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")

SLC_DATA = SyntheticSpec(task="slc", n_classes=4, n_train=3000, n_dev=300, n_test=500,
                         easy_fraction=0.7, noise=0.0, seed=11)
SLC_TRAIN = TrainConfig(batch_size=32, learning_rate=1.5e-3, epochs=18, seed=5)

MLC_DATA = SyntheticSpec(task="mlc", n_classes=5, n_train=2000, n_dev=200, n_test=400,
                         easy_fraction=0.7, noise=0.0, seed=21)
MLC_TRAIN = TrainConfig(batch_size=32, learning_rate=1.5e-3, epochs=10, seed=6)


def record(model, dataset, vocab):
    """The harness's scoring core of ``model`` over ``dataset``, confidences included."""
    return _record_layers(model, dataset, vocab, [PolicySpec("learned")])


def recorded_layers(core, i):
    """Sample ``i``'s recorded layers as the live path yields them: ``(ProbDist,
    confidence)`` pairs, the confidence ``None`` when the core holds none."""
    confs = core.confidences[i].tolist() if core.confidences is not None else [None] * core.n_layers
    return [(ProbDist(core.task, row), conf) for row, conf in zip(core.probs[i], confs)]


def replay(core, policy):
    """Reference exits for the harness's closed form: per-sample exit layer and
    prediction from :func:`run_exit` over each sample's recorded layers, the
    loop ``forward_early_exit`` runs."""
    exits = np.zeros(len(core.probs), dtype=np.int64)
    probs = []
    for i in range(len(core.probs)):
        prob, trace = run_exit(policy, recorded_layers(core, i), core.n_layers)
        exits[i] = trace.exit_layer
        probs.append(prob)
    return exits, probs


def reference_result(spec, dataset, n, exits, probs):
    """The EvalResult of per-sample exit layers and ``ProbDist`` predictions,
    scored one sample at a time through ``ProbDist.prediction()``."""
    mlc = dataset.task == MLC
    hits = tp = fp = fn = 0
    for prob, ex in zip(probs, dataset.examples):
        pred = prob.prediction()
        gold = frozenset(ex.labels) if mlc else ex.label
        hits += int(pred == gold)
        if mlc:
            tp += len(pred & gold)
            fp += len(pred - gold)
            fn += len(gold - pred)
    count = len(dataset)
    accuracy = hits / max(1, count)
    denom = 2 * tp + fp + fn
    micro_f1 = (2 * tp / denom if denom else 1.0) if mlc else accuracy
    mean_exit = float(exits.mean()) if count else float(n)
    return EvalResult(
        spec=spec,
        task=dataset.task,
        n_samples=count,
        accuracy=accuracy,
        micro_f1=micro_f1,
        speedup=1.0 - mean_exit / n,
        mean_exit_layer=mean_exit,
        histogram=np.bincount(exits, minlength=n + 1)[1:].tolist(),
    )


def replay_result(core, dataset, spec):
    """``spec``'s EvalResult on ``dataset``, the split ``core`` holds, scored
    from :func:`replay` by :func:`reference_result`."""
    return reference_result(spec, dataset, core.n_layers, *replay(core, spec.build()))


@pytest.fixture(scope="session")
def slc_workbench():
    """(model, splits, vocab): 6-layer SLC model trained on the easy-biased task."""
    splits = generate_synthetic(SLC_DATA)
    vocab = build_vocab(splits.train, 500)
    config = ModelConfig(vocab_size=len(vocab), n_classes=4, task="slc", n_layers=6,
                         d_model=64, n_heads=4, d_ff=256, max_seq_len=24, seed=3)
    model = MultiExitModel(config)
    train(model, splits.train, SLC_TRAIN, vocab)
    return model, splits, vocab


@pytest.fixture(scope="session")
def mlc_workbench():
    """(model, splits, vocab): 6-layer MLC model on the k=5 synthetic task."""
    splits = generate_synthetic(MLC_DATA)
    vocab = build_vocab(splits.train, 500)
    config = ModelConfig(vocab_size=len(vocab), n_classes=5, task="mlc", n_layers=6,
                         d_model=48, n_heads=4, d_ff=192, max_seq_len=32, seed=4)
    model = MultiExitModel(config)
    train(model, splits.train, MLC_TRAIN, vocab)
    return model, splits, vocab
