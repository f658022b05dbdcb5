"""Joint training of every exit head with a depth-weighted loss.

The per-layer classification losses L_1..L_n are combined as

    L = sum_j j * L_j / sum_j j

so deeper classifiers weigh linearly more. Single-label heads use
softmax + cross-entropy, multi-label heads sigmoid + binary
cross-entropy (averaged over labels). Each layer's confidence head is
trained jointly with a small auxiliary BCE term whose target is whether
that exit's prediction is correct.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from . import tensor as T
from .data import Dataset, DataSplits, Vocab, binarize_mlc, encode_dataset, text_lines
from .errors import ConfigError
from .harness import PolicySpec, _evaluate, _LayerCache
from .model import MultiExitModel
from .similarity import SLC

__all__ = [
    "TrainConfig",
    "LossReport",
    "load_train_config",
    "total_loss",
    "AdamW",
    "train",
    "make_grid",
    "grid_search",
    "GridSearchResult",
]

_LOG_FLOOR = 1e-12
CONFIDENCE_LOSS_WEIGHT = 0.1
BETA1, BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 32
    learning_rate: float = 2e-3
    epochs: int = 10
    weight_decay: float = 0.01
    seed: int = 0

    def __post_init__(self):
        if self.batch_size < 1:
            raise ConfigError("batch_size must be positive")
        if self.epochs < 0:
            raise ConfigError("epochs must be >= 0")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        for name in ("learning_rate", "weight_decay"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ConfigError(f"{name} must be a finite number >= 0, got {value}")


@dataclass
class LossReport:
    """One epoch: per-layer losses, their depth-weighted total, accuracies."""

    epoch: int
    per_layer_losses: list[float]
    total: float
    per_layer_accuracy: list[float]


_CONFIG_FIELDS = {f.name for f in fields(TrainConfig)}


def load_train_config(path, base: TrainConfig | None = None) -> TrainConfig:
    """Parse ``key = value`` lines (# starts a comment) into a TrainConfig.

    Unknown keys are configuration errors; omitted keys keep the value
    from ``base`` (or the defaults).
    """
    values = {}
    for lineno, line in text_lines(path, "config", ConfigError):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, raw = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_FIELDS:
            raise ConfigError(f"{path}:{lineno}: unknown training option {key!r}")
        caster = int if key in ("batch_size", "epochs", "seed") else float
        try:
            values[key] = caster(raw)
        except ValueError as e:
            raise ConfigError(f"{path}:{lineno}: bad value for {key!r}: {raw!r}") from e
    return replace(base or TrainConfig(), **values)


def layer_weights(n: int) -> np.ndarray:
    """Depth weights j / sum(1..n); they sum to 1."""
    j = np.arange(1, n + 1, dtype=np.float64)
    return j / j.sum()


def total_loss(per_layer: list[float], n: int) -> float:
    """Depth-weighted average of the per-layer losses."""
    if len(per_layer) != n:
        raise ValueError(f"expected {n} per-layer losses, got {len(per_layer)}")
    return float((layer_weights(n) * np.asarray(per_layer, dtype=np.float64)).sum())


class AdamW:
    """Adam with decoupled weight decay; state keyed by parameter name.

    The moment decays and epsilon are the constants ``BETA1``, ``BETA2``
    and ``ADAM_EPS``; the config gives the learning rate and weight decay.
    """

    def __init__(self, params: dict[str, T.Tensor], config: TrainConfig):
        self.params = dict(params)
        self.cfg = config
        self.step_count = 0
        self.m = {name: np.zeros(t.shape) for name, t in self.params.items()}
        self.v = {name: np.zeros(t.shape) for name, t in self.params.items()}

    def step(self, grads: dict[T.Tensor, np.ndarray]) -> None:
        c = self.cfg
        self.step_count += 1
        bc1 = 1.0 - BETA1**self.step_count
        bc2 = 1.0 - BETA2**self.step_count
        for name in sorted(self.params):
            p = self.params[name]
            g = grads.get(p)
            if g is None:
                continue
            self.m[name] = BETA1 * self.m[name] + (1.0 - BETA1) * g
            self.v[name] = BETA2 * self.v[name] + (1.0 - BETA2) * g * g
            update = (self.m[name] / bc1) / (np.sqrt(self.v[name] / bc2) + ADAM_EPS)
            p.array[...] -= c.learning_rate * (update + c.weight_decay * p.array)


# -- batching ----------------------------------------------------------------


def _pad_batch(seqs: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    width = max(len(s) for s in seqs)
    ids = np.zeros((len(seqs), width), dtype=np.int64)
    mask = np.zeros((len(seqs), width), dtype=np.float64)
    for row, s in enumerate(seqs):
        ids[row, : len(s)] = s
        mask[row, : len(s)] = 1.0
    return ids, mask


def _slc_targets(dataset: Dataset, idx: np.ndarray) -> np.ndarray:
    return np.asarray([dataset.examples[i].label for i in idx], dtype=np.int64)


def _mlc_targets(dataset: Dataset, idx: np.ndarray) -> np.ndarray:
    k = dataset.n_classes
    return np.stack([binarize_mlc(dataset.examples[i].labels, k) for i in idx])


def _bce(p: T.Tensor, target: T.Tensor) -> T.Tensor:
    """Elementwise binary cross-entropy of probabilities ``p`` against 0/1 ``target``."""
    return -(target * T.log(T.clamp_min(p, _LOG_FLOOR))
             + (1.0 - target) * T.log(T.clamp_min(1.0 - p, _LOG_FLOOR)))


def _batch_losses(
    model: MultiExitModel,
    probs: list[T.Tensor],
    targets: np.ndarray,
) -> tuple[list[T.Tensor], np.ndarray]:
    """Per-layer mean loss tensors plus a [n_layers, b] correctness matrix.

    The one definition of the per-layer loss: -ln p[target] for slc, the
    label-averaged binary cross-entropy for mlc, each averaged over the batch.
    """
    losses: list[T.Tensor] = []
    correct = np.zeros((len(probs), probs[0].shape[0]))
    if model.config.task == SLC:
        onehot = np.eye(model.config.n_classes)[targets]
        for i, p in enumerate(probs):
            picked = (T.log(T.clamp_min(p, _LOG_FLOOR)) * T.Tensor(onehot)).sum(axis=-1)
            losses.append(-picked.mean())
            correct[i] = p.array.argmax(axis=-1) == targets
    else:
        t = T.Tensor(targets)
        for i, p in enumerate(probs):
            losses.append(_bce(p, t).mean(axis=-1).mean())
            correct[i] = ((p.array > 0.5) == (targets > 0.5)).all(axis=-1)
    return losses, correct


def _weighted_total(losses: list[T.Tensor]) -> T.Tensor:
    weights = layer_weights(len(losses))
    total = losses[0] * float(weights[0])
    for w, loss in zip(weights[1:], losses[1:]):
        total = total + loss * float(w)
    return total


def _confidence_loss(confs: list[T.Tensor], correct: np.ndarray) -> T.Tensor:
    terms = [_bce(c, T.Tensor(correct[i])).mean() for i, c in enumerate(confs)]
    total = terms[0]
    for t in terms[1:]:
        total = total + t
    return total * (1.0 / len(terms))


def train(
    model: MultiExitModel,
    dataset: Dataset,
    config: TrainConfig,
    vocab: Vocab,
) -> list[LossReport]:
    """Optimize all exits jointly; deterministic for a fixed seed.

    Returns one report per epoch; the model is updated in place.
    """
    model.check_dataset(dataset)
    encoded = encode_dataset(dataset, vocab, model.config.max_seq_len)
    optimizer = AdamW(model.parameters(), config)
    wrt = list(model.parameters().values())
    rng = np.random.default_rng(config.seed)
    n_layers = model.config.n_layers
    history: list[LossReport] = []
    for epoch in range(config.epochs):
        order = rng.permutation(len(encoded))
        sum_losses = np.zeros(n_layers)
        sum_correct = np.zeros(n_layers)
        count = 0
        for start in range(0, len(order), config.batch_size):
            idx = order[start : start + config.batch_size]
            ids, mask = _pad_batch([encoded[i] for i in idx])
            targets = _slc_targets(dataset, idx) if dataset.task == SLC else _mlc_targets(dataset, idx)
            probs, confs = model.forward_batch(ids, mask)
            losses, correct = _batch_losses(model, probs, targets)
            objective = (_weighted_total(losses)
                         + _confidence_loss(confs, correct) * CONFIDENCE_LOSS_WEIGHT)
            grads = T.backward(objective, wrt=wrt)
            optimizer.step(grads)
            sum_losses += [loss.item() * len(idx) for loss in losses]
            sum_correct += correct.sum(axis=1)
            count += len(idx)
        per_layer = (sum_losses / count).tolist()
        history.append(
            LossReport(
                epoch=epoch,
                per_layer_losses=per_layer,
                total=total_loss(per_layer, n_layers),
                per_layer_accuracy=(sum_correct / count).tolist(),
            )
        )
    return history


# -- grid search --------------------------------------------------------------


@dataclass
class GridSearchResult:
    best_config: TrainConfig
    best_model: MultiExitModel
    rows: list[dict]


def make_grid(batch_sizes, learning_rates, base: TrainConfig | None = None) -> list[TrainConfig]:
    """Cartesian batch-size x learning-rate grid over a base config."""
    base = base or TrainConfig()
    return [
        replace(base, batch_size=int(b), learning_rate=float(lr))
        for b in batch_sizes
        for lr in learning_rates
    ]


def dev_accuracy(model: MultiExitModel, dataset: Dataset, vocab: Vocab) -> float:
    """Final-layer accuracy (slc) or exact-set accuracy (mlc), from one
    length-grouped recording of the dataset (see ``harness._LayerCache``)."""
    cache = _LayerCache(model, dataset, vocab)
    return _evaluate(cache, PolicySpec("fixed", fixed_layer=model.config.n_layers)).accuracy


def grid_search(
    model_factory,
    splits: DataSplits,
    grid: list[TrainConfig],
    vocab: Vocab,
) -> GridSearchResult:
    """Train one model per cell; select by dev accuracy at the final layer.

    Ties keep the earlier grid row. ``model_factory()`` must return a
    freshly initialized model each call.
    """
    if not grid:
        raise ConfigError("grid search needs at least one configuration")
    rows: list[dict] = []
    best = None
    for config in grid:
        model = model_factory()
        history = train(model, splits.train, config, vocab)
        acc = dev_accuracy(model, splits.dev, vocab)
        rows.append(
            {
                "batch_size": config.batch_size,
                "learning_rate": config.learning_rate,
                "epochs": config.epochs,
                "seed": config.seed,
                "dev_accuracy": acc,
                "final_train_loss": history[-1].total if history else float("nan"),
            }
        )
        if best is None or acc > best[0]:
            best = (acc, config, model)
    return GridSearchResult(best_config=best[1], best_model=best[2], rows=rows)
