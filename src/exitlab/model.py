"""Multi-exit transformer encoder: one classifier head per layer.

Tokens are embedded (learned token + position tables), passed through n
post-norm transformer blocks, and after every block a linear head over
the first-token (CLS) pooled state produces a prediction: a softmax
distribution for single-label tasks, per-label sigmoids for multi-label.
A second scalar head per layer produces the confidence value used by the
learned-confidence baseline. Training always runs it; inference runs it
only when the exit policy reads it (``ExitPolicy.reads_confidence``,
which only the learned baseline sets), so every other policy's layers
skip the head.

One definition serves training and inference. Training runs
``_block`` and the heads on taped :class:`~exitlab.tensor.Tensor` values;
inference runs the same code on plain float64 ndarrays through
:data:`exitlab.tensor.arrays`, the same forward kernels with nothing
recorded, and gives the same bits as the taped ops.

Inference runs one input, or a batch of equal-length inputs with no
padding that gives each row its batch-1 bits; prefix equivalence holds
by construction, i.e. stopping at layer j reproduces the first j entries
of a full pass bit for bit. Early exit is :func:`exitlab.policies.run_exit`
over the lazy layers of :meth:`MultiExitModel.iter_layers`; each trace
entry records the layer's :meth:`~exitlab.similarity.ProbDist.prediction`.
"""

from __future__ import annotations

import hashlib
import json
import zipfile
from collections.abc import Iterator
from dataclasses import asdict, dataclass

import numpy as np

from . import tensor as T
from .data import Dataset
from .errors import ConfigError, DataError
from .policies import ExitPolicy, ExitTrace, TraceEntry, run_exit
from .similarity import MLC, SLC, ProbDist, check_probs

__all__ = [
    "ModelConfig",
    "PredictionStream",
    "MultiExitModel",
    "save_checkpoint",
    "load_checkpoint",
    "CHECKPOINT_VERSION",
]

CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyperparameters; defaults are desk scale."""

    vocab_size: int
    n_classes: int
    task: str = SLC
    n_layers: int = 6
    d_model: int = 64
    n_heads: int = 2
    d_ff: int = 256
    max_seq_len: int = 64
    seed: int = 0
    share_layer_params: bool = False

    def __post_init__(self):
        if self.task not in (SLC, MLC):
            raise ConfigError(f"task must be {SLC!r} or {MLC!r}, got {self.task!r}")
        if self.n_layers < 2:
            raise ConfigError("need at least 2 layers for cross-layer comparison")
        if self.n_classes < 2:
            raise ConfigError("need at least 2 classes")
        if min(self.d_model, self.n_heads, self.d_ff) < 1:
            raise ConfigError("d_model, n_heads and d_ff must be positive")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.d_model % self.n_heads != 0:
            raise ConfigError(f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")
        if self.vocab_size < 1 or self.max_seq_len < 1:
            raise ConfigError("vocab_size and max_seq_len must be positive")


@dataclass
class PredictionStream:
    """Ordered per-layer predictions (and confidence values) for one input."""

    probs: list[ProbDist]
    confidences: list[float]

    def __len__(self) -> int:
        return len(self.probs)


class MultiExitModel:
    """Embedding + n transformer blocks + n classifier heads."""

    def __init__(self, config: ModelConfig):
        self.config = config
        self.params: dict[str, T.Tensor] = {}
        # the same buffers as self.params, which optimizers and checkpoint
        # loading update in place, so this view never goes stale
        self._arrays: dict[str, np.ndarray] = {}
        self._init_params()

    # -- parameters ----------------------------------------------------

    def _param(self, name: str, array: np.ndarray) -> T.Tensor:
        t = T.Tensor(array, requires_grad=True)
        self.params[name] = t
        self._arrays[name] = t.array
        return t

    def _init_params(self) -> None:
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)
        std = 0.02

        def normal(*shape):
            return rng.normal(0.0, std, size=shape)

        self._param("embed.tok", normal(cfg.vocab_size, cfg.d_model))
        self._param("embed.pos", normal(cfg.max_seq_len, cfg.d_model))
        n_blocks = 1 if cfg.share_layer_params else cfg.n_layers
        for i in range(n_blocks):
            pre = f"block{i}"
            for w in ("wq", "wk", "wv", "wo"):
                self._param(f"{pre}.{w}", normal(cfg.d_model, cfg.d_model))
                self._param(f"{pre}.{w[0]}b{w[1]}", np.zeros(cfg.d_model))
            self._param(f"{pre}.ln1.g", np.ones(cfg.d_model))
            self._param(f"{pre}.ln1.b", np.zeros(cfg.d_model))
            self._param(f"{pre}.w1", normal(cfg.d_model, cfg.d_ff))
            self._param(f"{pre}.b1", np.zeros(cfg.d_ff))
            self._param(f"{pre}.w2", normal(cfg.d_ff, cfg.d_model))
            self._param(f"{pre}.b2", np.zeros(cfg.d_model))
            self._param(f"{pre}.ln2.g", np.ones(cfg.d_model))
            self._param(f"{pre}.ln2.b", np.zeros(cfg.d_model))
        # heads start at zero so an untrained model predicts uniformly
        for i in range(cfg.n_layers):
            self._param(f"head{i}.w", np.zeros((cfg.d_model, cfg.n_classes)))
            self._param(f"head{i}.b", np.zeros(cfg.n_classes))
            self._param(f"conf{i}.w", np.zeros((cfg.d_model, 1)))
            self._param(f"conf{i}.b", np.zeros(1))

    def parameters(self) -> dict[str, T.Tensor]:
        """Named parameter tensors (shared blocks appear once)."""
        return dict(self.params)

    def param_hash(self) -> str:
        """Stable digest of config plus every parameter's bytes."""
        h = hashlib.sha256()
        h.update(json.dumps(asdict(self.config), sort_keys=True).encode())
        for name in sorted(self.params):
            h.update(name.encode())
            h.update(self.params[name].array.tobytes())
        return h.hexdigest()[:16]

    def check_dataset(self, dataset: Dataset) -> None:
        """ConfigError on another task or class count; DataError on a label outside [0, n_classes)."""
        cfg = self.config
        if dataset.task != cfg.task:
            raise ConfigError(f"dataset task {dataset.task!r} does not match model task {cfg.task!r}")
        if dataset.n_classes != cfg.n_classes:
            raise ConfigError(f"dataset has {dataset.n_classes} classes, model expects {cfg.n_classes}")
        for i, ex in enumerate(dataset.examples):
            for j in (ex.label,) if cfg.task == SLC else ex.labels:
                if not 0 <= j < cfg.n_classes:
                    raise DataError(f"example {i} has label {j} outside [0, {cfg.n_classes})")

    def _block_prefix(self, layer_index: int) -> str:
        return "block0" if self.config.share_layer_params else f"block{layer_index - 1}"

    def _ops(self, taped: bool):
        """The op namespace and parameter map: taped Tensors, or plain arrays."""
        return (T, self.params) if taped else (T.arrays, self._arrays)

    # -- forward pieces --------------------------------------------------

    def embed(self, tokens, taped: bool = False) -> np.ndarray | T.Tensor:
        """Token + position embeddings, a plain array or, with ``taped``, a Tensor.

        1-D input of length t gives [t, d_model]; 2-D [b, t] input (already
        padded) gives [b, t, d_model].
        """
        ids = np.asarray(tokens, dtype=np.int64)
        if ids.ndim not in (1, 2) or ids.size == 0:
            raise DataError(f"embed needs a non-empty 1-D or 2-D id array, got shape {ids.shape}")
        seq_len = ids.shape[-1]
        if seq_len > self.config.max_seq_len:
            raise DataError(f"sequence length {seq_len} exceeds max_seq_len {self.config.max_seq_len}")
        bad = np.flatnonzero((ids < 0) | (ids >= self.config.vocab_size))
        if bad.size:
            pos = int(bad[0])
            raise DataError(
                f"token id {int(ids.reshape(-1)[pos])} at flat position {pos} "
                f"is outside the vocabulary (size {self.config.vocab_size})"
            )
        ops, p = self._ops(taped)
        tok = ops.embedding_lookup(p["embed.tok"], ids)
        pos = ops.embedding_lookup(p["embed.pos"], np.arange(seq_len))
        return tok + pos

    def _attention_mask(self, pad_mask: np.ndarray, n_heads: int) -> T.Tensor:
        """Additive mask [b, h, t, t]: large negative where the key is padding."""
        b, t = pad_mask.shape
        add = (1.0 - pad_mask[:, None, None, :]) * -1e9
        return T.Tensor(np.broadcast_to(add, (b, n_heads, t, t)).copy())

    def _block(self, h, layer_index: int, attn_mask: T.Tensor | None):
        """One transformer block on a [b, t, d_model] state.

        A Tensor state runs the taped ops on the parameter tensors; an
        ndarray state runs the same kernels on the parameter arrays.
        """
        cfg = self.config
        pre = self._block_prefix(layer_index)
        ops, p = self._ops(isinstance(h, T.Tensor))
        b, t, d = h.shape
        nh, hd = cfg.n_heads, cfg.d_model // cfg.n_heads

        def heads(x):
            return ops.transpose(x.reshape((b, t, nh, hd)), (0, 2, 1, 3))

        q = heads(ops.matmul(h, p[f"{pre}.wq"]) + p[f"{pre}.wbq"])
        k = heads(ops.matmul(h, p[f"{pre}.wk"]) + p[f"{pre}.wbk"])
        v = heads(ops.matmul(h, p[f"{pre}.wv"]) + p[f"{pre}.wbv"])
        scores = ops.matmul(q, ops.transpose(k, (0, 1, 3, 2))) * (1.0 / np.sqrt(hd))
        if attn_mask is not None:
            scores = scores + attn_mask
        ctx = ops.matmul(ops.softmax(scores, axis=-1), v)
        ctx = ops.transpose(ctx, (0, 2, 1, 3)).reshape((b, t, d))
        attn_out = ops.matmul(ctx, p[f"{pre}.wo"]) + p[f"{pre}.wbo"]
        h = ops.layer_norm(h + attn_out, p[f"{pre}.ln1.g"], p[f"{pre}.ln1.b"])
        ff = ops.gelu(ops.matmul(h, p[f"{pre}.w1"]) + p[f"{pre}.b1"])
        ff = ops.matmul(ff, p[f"{pre}.w2"]) + p[f"{pre}.b2"]
        return ops.layer_norm(h + ff, p[f"{pre}.ln2.g"], p[f"{pre}.ln2.b"])

    def _pooled_head(self, h, name: str):
        """Head ``name``'s logits [b, k] from the first-token rows of a [b, t, d_model] state.

        Taped, the head is one [b, d] @ [d, k] gemm. Untaped, it runs as
        [b, 1, d] @ [d, k], one product per row, so every row gets the bits
        it gets at batch 1: a 2-D gemm over b > 1 rows may round differently.
        """
        ops, p = self._ops(isinstance(h, T.Tensor))
        w, bias = p[f"{name}.w"], p[f"{name}.b"]
        if ops is T:
            return ops.matmul(ops.select(h, axis=1, index=0), w) + bias
        return (ops.matmul(h[:, :1], w) + bias)[:, 0]

    def _exit_probs(self, h, layer_index: int):
        """Exit ``layer_index``'s class probabilities [b, k] from a [b, t, d_model]
        state: softmax for slc, per-label sigmoid for mlc."""
        ops = self._ops(isinstance(h, T.Tensor))[0]
        logits = self._pooled_head(h, f"head{layer_index - 1}")
        return ops.softmax(logits, axis=-1) if self.config.task == SLC else ops.sigmoid(logits)

    def _confidence(self, h, layer_index: int):
        """Exit ``layer_index``'s confidence values [b] in (0, 1)."""
        ops = self._ops(isinstance(h, T.Tensor))[0]
        return ops.sigmoid(self._pooled_head(h, f"conf{layer_index - 1}").reshape((h.shape[0],)))

    def _to_probdist(self, prob_row: np.ndarray) -> ProbDist:
        if self.config.task == SLC:
            return ProbDist.slc(prob_row)
        return ProbDist.mlc(prob_row)

    # -- training-side forward -------------------------------------------

    def forward_batch(self, ids: np.ndarray, pad_mask: np.ndarray) -> tuple[list[T.Tensor], list[T.Tensor]]:
        """Tape-recording pass over a padded batch.

        Returns per-layer class probabilities [b, k] and per-layer
        confidence values [b], both as tensors attached to the tape.
        """
        mask_t = self._attention_mask(pad_mask, self.config.n_heads)
        h = self.embed(ids, taped=True)
        probs, confs = [], []
        for layer in range(1, self.config.n_layers + 1):
            h = self._block(h, layer, mask_t)
            probs.append(self._exit_probs(h, layer))
            confs.append(self._confidence(h, layer))
        return probs, confs

    # -- inference-side forward ---------------------------------------

    def forward_layer(self, h_prev: np.ndarray,
                      layer_index: int) -> tuple[np.ndarray, ProbDist | np.ndarray]:
        """Run one block on an array state; return the new state and the exit's prediction.

        ``h_prev`` is [t, d_model] for one input, which gives one
        :class:`ProbDist`, or [b, t, d_model] for b equal-length inputs, which
        gives one float64 array of b rows in the ``ProbDist.probs`` layout,
        [b, k] (slc) or [b, k, 2] (mlc), checked once as :class:`ProbDist`
        checks a row; each row's bits equal its batch-1 bits. The block and
        exit head run the shared kernels on plain arrays: nothing is taped.
        """
        if not 1 <= layer_index <= self.config.n_layers:
            raise ValueError(f"layer_index {layer_index} outside [1, {self.config.n_layers}]")
        h = self._block(h_prev if h_prev.ndim == 3 else h_prev[None], layer_index, None)
        probs = self._exit_probs(h, layer_index)
        if h_prev.ndim == 2:
            return h[0], self._to_probdist(probs[0])
        if self.config.task == MLC:
            probs = np.stack([probs, 1.0 - probs], axis=-1)  # ProbDist.mlc's pairs
        check_probs(self.config.task, probs, lead=1)
        return h, probs

    def layer_confidence(self, h: np.ndarray, layer_index: int) -> float | np.ndarray:
        """Confidence-head output in (0, 1): a float for a [t, d_model] array
        state, a [b] array for a [b, t, d_model] one."""
        conf = self._confidence(h if h.ndim == 3 else h[None], layer_index)
        return conf if h.ndim == 3 else float(conf[0])

    def iter_layers(self, tokens, confidence: bool = True) -> Iterator[
            tuple[np.ndarray, ProbDist | np.ndarray, float | np.ndarray | None]]:
        """Yield ``(h, prob, confidence)`` for layers 1..n, lazily.

        ``tokens`` is one input (1-D), or b inputs of one length ([b, t]),
        which gives each layer's predictions as one [b, k] / [b, k, 2] array
        (see :meth:`forward_layer`) and its confidences as a [b] array,
        bit-identical row by row to b batch-1 passes. Each layer runs only
        when the next item is requested, so a consumer that stops after
        layer j has computed exactly j layers. The confidence head runs only
        when read: with ``confidence=False`` it never runs and every layer
        yields ``None`` in its place, with the same states and predictions.
        The states are plain arrays and every layer runs the shared kernels
        untaped, so a suspended generator holds no tape and leaves taped
        training untouched.
        """
        h = self.embed(tokens)
        for layer in range(1, self.config.n_layers + 1):
            h, prob = self.forward_layer(h, layer)
            yield h, prob, self.layer_confidence(h, layer) if confidence else None

    def forward_full(self, tokens) -> PredictionStream:
        """All n layers, confidences included; the stream used for oracles."""
        stream = PredictionStream([], [])
        for _, prob, conf in self.iter_layers(tokens):
            stream.probs.append(prob)
            stream.confidences.append(conf)
        return stream

    def forward_early_exit(self, tokens, policy: ExitPolicy) -> tuple[ProbDist, int, ExitTrace]:
        """Run layers until ``policy`` halts; fall back to the final classifier.

        :func:`~exitlab.policies.run_exit` drives the layers, which run only
        up to the exit, and the confidence head runs only if
        ``policy.reads_confidence``. The returned prediction is bit-identical
        to the same layer's entry in :meth:`forward_full`.
        """
        layers = ((prob, conf) for _, prob, conf
                  in self.iter_layers(tokens, confidence=policy.reads_confidence))
        steps = run_exit(policy, layers, self.config.n_layers)
        entries = tuple(TraceEntry(layer, prob.prediction(), score, pat, decision)
                        for layer, prob, decision, score, pat in steps)
        layer, prob, decision, _, _ = steps[-1]
        return prob, layer, ExitTrace(entries, layer, decision.reason)


# -- checkpointing --------------------------------------------------------


def save_checkpoint(model: MultiExitModel, path, vocab: list[str] | None = None) -> None:
    """Write an npz container: config + named tensors + optional vocab."""
    meta = {
        "format": "exitlab-checkpoint",
        "version": CHECKPOINT_VERSION,
        "config": asdict(model.config),
        "vocab": vocab,
    }
    arrays = {name: t.array for name, t in model.params.items()}
    with open(path, "wb") as fh:
        np.savez(fh, __meta__=np.array(json.dumps(meta)), **arrays)


def load_checkpoint(path) -> tuple[MultiExitModel, list[str] | None]:
    """Rebuild a model (and its vocab, if stored) from :func:`save_checkpoint`."""
    try:
        archive = np.load(path, allow_pickle=False)
    except (ValueError, EOFError, zipfile.BadZipFile) as e:
        # numpy reports a non-npz file as pickled data, an empty one as EOF
        raise DataError(f"{path}: not a readable npz checkpoint") from e
    if not isinstance(archive, np.lib.npyio.NpzFile):
        raise DataError(f"{path}: a single .npy array, not an npz checkpoint")
    with archive as data:
        if "__meta__" not in data:
            raise DataError(f"{path}: not an exitlab checkpoint (missing metadata)")
        try:
            meta = json.loads(str(data["__meta__"]))
        except json.JSONDecodeError as e:
            raise DataError(f"{path}: checkpoint metadata is not JSON") from e
        if not isinstance(meta, dict):
            raise DataError(f"{path}: checkpoint metadata is not a JSON object")
        if meta.get("version") != CHECKPOINT_VERSION:
            raise DataError(
                f"{path}: checkpoint version {meta.get('version')!r} unsupported "
                f"(expected {CHECKPOINT_VERSION})"
            )
        if not isinstance(meta.get("config"), dict):
            raise DataError(f"{path}: checkpoint metadata has no model config")
        try:
            config = ModelConfig(**meta["config"])
        except (TypeError, ConfigError) as e:
            # an unknown or missing field, or a value of the wrong type or range
            raise DataError(f"{path}: bad model config in checkpoint: {e}") from e
        model = MultiExitModel(config)
        for name, t in model.params.items():
            if name not in data:
                raise DataError(f"{path}: checkpoint is missing parameter {name!r}")
            arr = np.asarray(data[name], dtype=np.float64)
            if arr.shape != t.shape:
                raise DataError(f"{path}: parameter {name!r} has shape {arr.shape}, expected {t.shape}")
            if not np.isfinite(arr).all():
                raise DataError(f"{path}: parameter {name!r} holds non-finite values")
            t.array[...] = arr
    vocab = meta.get("vocab")
    if vocab is not None and not (isinstance(vocab, list) and all(isinstance(tok, str) for tok in vocab)):
        raise DataError(f"{path}: checkpoint vocabulary must be a list of strings")
    return model, vocab
