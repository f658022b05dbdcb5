"""Shared fixtures: trained desk-scale models used by harness and acceptance tests.

Training is deterministic, so every run of the suite reproduces the same
models bit for bit. The two heavyweight fixtures are session-scoped; they
cost a few minutes of CPU between them and are only built when requested.
"""

import numpy as np
import pytest
from hypothesis import settings

from exitlab.data import SyntheticSpec, build_vocab, generate_synthetic
from exitlab.harness import _result
from exitlab.model import ModelConfig, MultiExitModel
from exitlab.policies import run_exit
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


def replay(cache, policy):
    """Reference exits for the harness's closed form: per-sample exit layer and
    prediction from :func:`run_exit` over each sample's recorded layers, the
    loop ``forward_early_exit`` runs."""
    exits = np.zeros(len(cache.layers), dtype=np.int64)
    probs = []
    for i, layers in enumerate(cache.layers):
        exits[i], prob, *_ = run_exit(policy, layers, cache.n_layers)[-1]
        probs.append(prob)
    return exits, probs


def replay_result(cache, spec):
    """``spec``'s EvalResult scored from :func:`replay`."""
    return _result(spec, cache.dataset, cache.n_layers, *replay(cache, spec.build()))


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
