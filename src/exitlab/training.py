"""Joint training of every exit head with a depth-weighted loss.

The per-layer classification losses L_1..L_n are combined as

    L = sum_j j * L_j / sum_j j

so deeper classifiers weigh linearly more. Single-label heads use
softmax + cross-entropy, multi-label heads sigmoid + binary
cross-entropy (averaged over labels). Each layer's confidence head is
trained jointly with a small auxiliary BCE term whose target is whether
that exit's ``similarity.predictions`` matches the answer key
``Dataset.gold()``, which also gives the loss targets.
:class:`AdamW` updates the model's one parameter buffer once per step,
in cache-sized chunks of whole parameters, with the bits of the
per-parameter update.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from . import tensor as T
from .data import Dataset, DataSplits, Vocab, encode_dataset, text_lines
from .errors import ConfigError
from .harness import PolicySpec, _evaluate, _LayerCache
from .model import MultiExitModel
from .similarity import LOG_FLOOR, SLC, mlc_pairs, predictions

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


ADAMW_CHUNK = 32768
"""Elements per chunk of :class:`AdamW`'s update. A chunk's slices of the
buffer and both moments, with its two scratch rows, take 1.25 MiB, which
stays in a 2 MiB L2 cache through the update's 16 passes."""


def _chunk_plan(params: list[T.Tensor], size: int) -> list[tuple[int, int, list[T.Tensor]]]:
    """The buffer as runs of whole consecutive parameters of at most ``size``
    elements each, as (lo, hi, parameters) in buffer order; a parameter of
    more than ``size`` elements is a run of its own."""
    chunks, lo, hi, run = [], 0, 0, []
    for t in params:
        if run and hi + t.size - lo > size:
            chunks.append((lo, hi, run))
            lo, run = hi, []
        run.append(t)
        hi += t.size
    chunks.append((lo, hi, run))
    return chunks


class AdamW:
    """Adam with decoupled weight decay, over a model's one parameter buffer.

    ``m`` and ``v`` have the buffer's layout. A step takes a gradient for
    every parameter, as ``backward`` with ``wrt`` gives them, and updates the
    buffer in place, chunk by chunk (:func:`_chunk_plan`), so that each
    chunk's passes run in cache. Every element gets the products of the
    per-parameter update in the same order, so the step gives its bits. The
    moment decays and epsilon are ``BETA1``, ``BETA2`` and ``ADAM_EPS``; the
    config gives the learning rate and weight decay.
    """

    def __init__(self, model: MultiExitModel, config: TrainConfig):
        self.params = list(model.params.values())
        self.buffer = model._buffer
        self.cfg = config
        self.step_count = 0
        self.m, self.v = np.zeros_like(self.buffer), np.zeros_like(self.buffer)
        self.chunks = _chunk_plan(self.params, ADAMW_CHUNK)
        # a chunk's gathered gradient and a scratch row: kept, since fresh
        # arrays would be page-faulted in every step
        self._scratch = np.empty((2, max(hi - lo for lo, hi, _ in self.chunks)))

    def step(self, grads: dict[T.Tensor, np.ndarray]) -> None:
        c = self.cfg
        self.step_count += 1
        bc1 = 1.0 - BETA1**self.step_count
        bc2 = 1.0 - BETA2**self.step_count
        for lo, hi, run in self.chunks:
            m, v, p = self.m[lo:hi], self.v[lo:hi], self.buffer[lo:hi]
            g, s = self._scratch[:, :hi - lo]
            np.concatenate([grads[t].reshape(-1) for t in run], out=g)
            m *= BETA1  # m = b1 m + (1 - b1) g
            m += np.multiply(g, 1.0 - BETA1, out=s)
            v *= BETA2  # v = b2 v + (1 - b2) g g
            v += np.multiply(np.multiply(g, 1.0 - BETA2, out=s), g, out=s)
            update = np.divide(m, bc1, out=g)  # (m / bc1) / (sqrt(v / bc2) + eps)
            update /= np.add(np.sqrt(np.divide(v, bc2, out=s), out=s), ADAM_EPS, out=s)
            decay = np.multiply(p, c.weight_decay, out=s)  # p -= lr (update + wd p)
            p -= np.multiply(np.add(decay, update, out=s), c.learning_rate, out=s)


# -- batching ----------------------------------------------------------------


def _pad_batch(seqs: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    width = max(len(s) for s in seqs)
    ids = np.zeros((len(seqs), width), dtype=np.int64)
    mask = np.zeros((len(seqs), width), dtype=np.float64)
    for row, s in enumerate(seqs):
        ids[row, : len(s)] = s
        mask[row, : len(s)] = 1.0
    return ids, mask


def _bce(p: T.Tensor, target: T.Tensor) -> T.Tensor:
    """Elementwise binary cross-entropy of probabilities ``p`` against 0/1 ``target``."""
    return -(target * T.log(T.clamp_min(p, LOG_FLOOR))
             + (1.0 - target) * T.log(T.clamp_min(1.0 - p, LOG_FLOOR)))


def _batch_losses(
    model: MultiExitModel,
    probs: list[T.Tensor],
    targets: np.ndarray,
) -> tuple[list[T.Tensor], np.ndarray]:
    """Per-layer mean loss tensors plus a [n_layers, b] correctness matrix.

    ``targets`` are the batch's ``Dataset.gold()`` rows: class indices (slc)
    or label masks (mlc, bools or 0/1 floats). The one definition of the
    per-layer loss: -ln p[target] for slc, the label-averaged binary
    cross-entropy for mlc, each averaged over the batch. The matrix is 1.0
    where a layer's ``similarity.predictions`` equals the sample's gold.
    """
    task = model.config.task
    if task == SLC:
        onehot = T.Tensor(np.eye(model.config.n_classes)[targets])
        losses = [-(T.log(T.clamp_min(p, LOG_FLOOR)) * onehot).sum(axis=-1).mean() for p in probs]
    else:
        t = T.Tensor(targets)
        losses = [_bce(p, t).mean(axis=-1).mean() for p in probs]
    layers = np.stack([p.array for p in probs])
    hits = predictions(task, layers if task == SLC else mlc_pairs(layers)) == targets
    correct = (hits if task == SLC else hits.all(axis=-1)).astype(np.float64)
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


def _objective(model: MultiExitModel, ids: np.ndarray, mask: np.ndarray,
               targets: np.ndarray) -> tuple[T.Tensor, list[float], np.ndarray]:
    """One padded batch's taped training objective, the depth-weighted exit
    loss plus the weighted confidence loss, with the values of the per-layer
    losses and the [n_layers, b] correctness matrix of :func:`_batch_losses`.
    Only the objective holds the tape."""
    probs, confs = model.forward_batch(ids, mask)
    losses, correct = _batch_losses(model, probs, targets)
    objective = _weighted_total(losses) + _confidence_loss(confs, correct) * CONFIDENCE_LOSS_WEIGHT
    return objective, [loss.item() for loss in losses], correct


def train(
    model: MultiExitModel,
    dataset: Dataset,
    config: TrainConfig,
    vocab: Vocab,
) -> list[LossReport]:
    """Optimize all exits jointly; deterministic for a fixed seed.

    Returns one report per epoch; the model is updated in place.
    """
    gold = model.check_dataset(dataset)
    encoded = encode_dataset(dataset, vocab, model.config.max_seq_len)
    optimizer = AdamW(model, config)
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
            objective, losses, correct = _objective(model, ids, mask, gold[idx])
            # grads stays bound until the next backward: freed with the tape, glibc trims
            # the heap top, and the next forward page-faults it back in (twice the faults)
            grads = T.backward(objective, wrt=optimizer.params)
            del objective  # the step's tape, which the next step's forward would hold too
            optimizer.step(grads)
            sum_losses += [loss * len(idx) for loss in losses]
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
