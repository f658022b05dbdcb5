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
recorded, and gives the same bits as the taped ops. A block is six
``linear`` projections, one ``attention``, two residual layer norms and a
GELU in both modes, so training's tape holds one node for each: a taped
residual layer norm adds its two addends itself, and the tape keeps no
sum. Training computes no padded position:
:meth:`MultiExitModel.forward_batch` runs a padded batch as the unpadded
rows of its :class:`LengthGroups`, each projection as one 2-D gemm over
all rows and the attention group by group, so no attention takes a mask.
Each layer gathers its first-token rows once, and both heads read them,
each as one ``linear`` node.

Every parameter lives in one contiguous float64 buffer, in init order:
``params[name].array`` is a view into it. Optimizers, checkpoint loading
and tests write parameters in place and never rebind them. Values derived
from the parameters (the :meth:`~MultiExitModel.param_hash` digest, the
harness's layer recording) are kept in :meth:`MultiExitModel.derived`,
which checks the buffer bit for bit against a copy on every call and
drops them all on any difference.

Inference runs one input, a batch of equal-length inputs, or inputs of
mixed lengths as one state of concatenated rows described by its
:class:`LengthGroups`. None of them pads, and every sample gets its
batch-1 bits: the position-wise kernels (bias and residual adds, layer
norms, GELU, the heads over the first-token rows) run once over all rows,
while each length group runs its own attention and its own gemms, a
[b, t, d] ``np.matmul`` that computes each sample's product as batch 1
does (one 2-D gemm over rows of several samples may round differently).
Prefix equivalence holds by construction, i.e. stopping at layer j
reproduces the first j entries of a full pass bit for bit. Early exit is
:func:`exitlab.policies.run_exit` over the lazy layers of
:meth:`MultiExitModel.iter_layers`; each trace entry records the layer's
:meth:`~exitlab.similarity.ProbDist.prediction`.
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
from .policies import ExitPolicy, ExitTrace, run_exit
from .similarity import MLC, SLC, ProbDist, check_probs

__all__ = [
    "ModelConfig",
    "LengthGroups",
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


class LengthGroups:
    """The layout of a mixed-length state: groups of equal-length samples, row-concatenated.

    ``shapes`` lists the groups in order as (b, t): b samples of t tokens
    each. A state over them is one [rows, d_model] array holding each
    group's [b, t, d_model] block in turn, so sample by sample it holds
    every token position; the ids it embeds are laid out the same way,
    [rows]. ``spans`` gives each group's rows as (lo, hi, b, t) and
    ``first_rows`` each sample's first-token row, in sample order: the
    order the groups hold them, or, from :meth:`by_length`, the order of
    its input.
    """

    def __init__(self, shapes):
        self.shapes = tuple((int(b), int(t)) for b, t in shapes)
        if not self.shapes or min(min(shape) for shape in self.shapes) < 1:
            raise DataError(f"length groups need b >= 1 samples of t >= 1 tokens, got {self.shapes}")
        bounds = np.cumsum([0] + [b * t for b, t in self.shapes]).tolist()
        self.spans = tuple((lo, hi, b, t) for lo, hi, (b, t) in zip(bounds, bounds[1:], self.shapes))
        self.first_rows = np.concatenate([np.arange(lo, hi, t) for lo, hi, _, t in self.spans])
        self.positions = np.concatenate([np.tile(np.arange(t), b) for b, t in self.shapes])
        self.n_rows = bounds[-1]
        self.max_len = max(t for _, t in self.shapes)

    @classmethod
    def by_length(cls, lengths) -> tuple[LengthGroups, np.ndarray]:
        """The layout of samples of these token counts, grouped by length in
        first-appearance order as the harness records a split, and the index
        into ``lengths`` of the sample each slot of the groups holds."""
        by_length: dict[int, list[int]] = {}
        for i, t in enumerate(lengths):
            by_length.setdefault(int(t), []).append(i)
        groups = cls([(len(part), t) for t, part in by_length.items()])
        members = np.array([i for part in by_length.values() for i in part])
        groups.first_rows = groups.first_rows[np.argsort(members)]
        return groups, members


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
        self._arrays: dict[str, np.ndarray] = {}
        self._init_params()
        # one buffer holds every parameter in init order, and each array of
        # self._arrays and self.params is a view into it, which optimizers
        # and checkpoint loading update in place, so neither goes stale
        self._buffer = np.concatenate([a.reshape(-1) for a in self._arrays.values()])
        offset = 0
        for name, array in self._arrays.items():
            self._arrays[name] = self._buffer[offset:offset + array.size].reshape(array.shape)
            offset += array.size
        self.params: dict[str, T.Tensor] = {name: T.Tensor(view, requires_grad=True)
                                            for name, view in self._arrays.items()}
        self._memo: tuple[np.ndarray, dict] | None = None  # see derived()

    # -- parameters ----------------------------------------------------

    def _param(self, name: str, array: np.ndarray) -> None:
        self._arrays[name] = array

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

    def derived(self) -> dict:
        """A dict for values derived from the current parameters, emptied
        whenever any parameter changed since the last call.

        Each call compares the parameter buffer bit for bit with a copy
        taken when the dict was last emptied (as uint64, so a -0.0 for 0.0
        or another NaN payload counts as a change). Callers store what they
        derive under their own key; :meth:`param_hash` keeps its digest here.
        """
        bits = self._buffer.view(np.uint64)
        if self._memo is None or not np.array_equal(bits, self._memo[0]):
            self._memo = (bits.copy(), {})
        return self._memo[1]

    def param_hash(self) -> str:
        """Stable digest of config plus every parameter's bytes."""
        memo = self.derived()
        if "param_hash" not in memo:
            h = hashlib.sha256()
            h.update(json.dumps(asdict(self.config), sort_keys=True).encode())
            for name in sorted(self.params):
                h.update(name.encode())
                h.update(self.params[name].array.tobytes())
            memo["param_hash"] = h.hexdigest()[:16]
        return memo["param_hash"]

    def check_dataset(self, dataset: Dataset) -> np.ndarray:
        """The dataset's answer key, :meth:`~exitlab.data.Dataset.gold`, once it
        fits this model: ConfigError on another task or class count, and
        ``gold()``'s DataError on a label outside [0, n_classes)."""
        cfg = self.config
        if dataset.task != cfg.task:
            raise ConfigError(f"dataset task {dataset.task!r} does not match model task {cfg.task!r}")
        if dataset.n_classes != cfg.n_classes:
            raise ConfigError(f"dataset has {dataset.n_classes} classes, model expects {cfg.n_classes}")
        return dataset.gold()

    def _block_prefix(self, layer_index: int) -> str:
        return "block0" if self.config.share_layer_params else f"block{layer_index - 1}"

    def _ops(self, taped: bool):
        """The op namespace and parameter map: taped Tensors, or plain arrays."""
        return (T, self.params) if taped else (T.arrays, self._arrays)

    # -- forward pieces --------------------------------------------------

    def embed(self, tokens, taped: bool = False,
              groups: LengthGroups | None = None) -> np.ndarray | T.Tensor:
        """Token + position embeddings, a plain array or, with ``taped``, a Tensor.

        1-D input of length t gives [t, d_model]; 2-D [b, t] input, b inputs
        of one length, gives [b, t, d_model]. With ``groups``, the input is the
        [rows] ids of every group's samples in turn, and gives [rows, d_model].
        """
        ids = np.asarray(tokens, dtype=np.int64)
        if groups is None:
            if ids.ndim not in (1, 2) or ids.size == 0:
                raise DataError(f"embed needs a non-empty 1-D or 2-D id array, got shape {ids.shape}")
            seq_len, positions = ids.shape[-1], np.arange(ids.shape[-1])
        elif ids.shape != (groups.n_rows,):
            raise DataError(f"length groups {groups.shapes} need {groups.n_rows} ids, got shape {ids.shape}")
        else:
            seq_len, positions = groups.max_len, groups.positions
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
        pos = ops.embedding_lookup(p["embed.pos"], positions)
        return tok + pos

    def _block(self, h, layer_index: int, groups: LengthGroups | None = None):
        """One transformer block on a [b, t, d_model] state, or on the
        [rows, d_model] state of ``groups``.

        A Tensor state runs the taped ops on the parameter tensors, one
        tape node per projection and per attention, and each projection of
        a group state is one 2-D gemm over all rows: training needs the same
        bits from run to run, not batch-1 bits. An ndarray state runs the
        same kernels on the parameter arrays, adding residuals in place: the
        same sums without fresh arrays. There each gemm of a group state runs
        per group on its [b, t, .] block, as on a [b, t, d_model] state, so
        every row keeps its batch-1 bits. In both modes the attention runs
        per group, and every other kernel once over all rows.
        """
        cfg = self.config
        pre = self._block_prefix(layer_index)
        taped = isinstance(h, T.Tensor)
        ops, p = self._ops(taped)

        def linear(x, w, bias):
            w, bias = p[f"{pre}.{w}"], p[f"{pre}.{bias}"]
            if groups is None or taped:
                return ops.linear(x, w, bias)
            y = np.empty((groups.n_rows, w.shape[1]))
            for lo, hi, b, t in groups.spans:
                ops.matmul(x[lo:hi].reshape((b, t, -1)), w, out=y[lo:hi].reshape((b, t, -1)))
            y += bias
            return y

        def attention(q, k, v):
            if groups is not None:
                return ops.attention(q, k, v, cfg.n_heads, groups.spans)
            b, t, d = q.shape  # one group of b samples
            rows = (x.reshape((b * t, d)) for x in (q, k, v))
            return ops.attention(*rows, cfg.n_heads, ((0, b * t, b, t),)).reshape((b, t, d))

        def add_norm(x, y, ln):
            """Layer norm ``ln`` of the residual sum x + y: taped, one node that
            keeps no sum; on arrays, the sum overwrites y."""
            gain, bias = p[f"{pre}.{ln}.g"], p[f"{pre}.{ln}.b"]
            if taped:
                return ops.layer_norm(y, gain, bias, residual=x)
            return ops.layer_norm(np.add(x, y, out=y), gain, bias)

        q, k, v = linear(h, "wq", "wbq"), linear(h, "wk", "wbk"), linear(h, "wv", "wbv")
        h = add_norm(h, linear(attention(q, k, v), "wo", "wbo"), "ln1")
        ff = linear(ops.gelu(linear(h, "w1", "b1")), "w2", "b2")
        return add_norm(h, ff, "ln2")

    def _head(self, first, name: str):
        """Head ``name``'s logits [b, k] from the first-token rows [b, d_model].

        Taped, the head is one ``linear`` node. Untaped, it runs as
        [b, 1, d] @ [d, k], one product per row, so every row gets the bits
        it gets at batch 1: a 2-D gemm over b > 1 rows may round differently.
        """
        ops, p = self._ops(isinstance(first, T.Tensor))
        w, bias = p[f"{name}.w"], p[f"{name}.b"]
        return ops.linear(first, w, bias) if ops is T else ops.linear(first[:, None], w, bias)[:, 0]

    def _exit_probs(self, first, layer_index: int):
        """Exit ``layer_index``'s class probabilities [b, k] from the first-token
        rows (see :meth:`_head`): softmax for slc, per-label sigmoid for mlc."""
        ops = self._ops(isinstance(first, T.Tensor))[0]
        logits = self._head(first, f"head{layer_index - 1}")
        return ops.softmax(logits, axis=-1) if self.config.task == SLC else ops.sigmoid(logits)

    def _confidence(self, first, layer_index: int):
        """Exit ``layer_index``'s confidence values [b] in (0, 1)."""
        ops = self._ops(isinstance(first, T.Tensor))[0]
        logits = self._head(first, f"conf{layer_index - 1}")
        return ops.sigmoid(logits.reshape((logits.shape[0],)))

    def _to_probdist(self, prob_row: np.ndarray) -> ProbDist:
        if self.config.task == SLC:
            return ProbDist.slc(prob_row)
        return ProbDist.mlc(prob_row)

    # -- training-side forward -------------------------------------------

    def forward_batch(self, ids: np.ndarray, pad_mask: np.ndarray) -> tuple[list[T.Tensor], list[T.Tensor]]:
        """Tape-recording pass over a padded [b, t] batch that computes no padded position.

        Each ``pad_mask`` row marks its sample's tokens as one or more ones
        followed by zeros; a mask of another shape or row raises ValueError.
        The samples run unpadded, as the one [rows, d_model] state of their
        :class:`LengthGroups` by length. Each layer's two heads read one
        taped gather of its first-token rows, in batch order. Returns
        per-layer class probabilities [b, k] and per-layer confidence values
        [b], both as tensors attached to the tape.
        """
        ids, pad_mask = np.asarray(ids), np.asarray(pad_mask)
        if ids.ndim != 2 or ids.size == 0 or pad_mask.shape != ids.shape:
            raise ValueError(f"forward_batch needs non-empty [b, t] ids and a pad_mask of their shape, "
                             f"got {ids.shape} and {pad_mask.shape}")
        lengths = (pad_mask == 1).sum(axis=1)
        bad = (pad_mask != (np.arange(ids.shape[1]) < lengths[:, None])).any(axis=1) | (lengths == 0)
        if bad.any():
            row = int(np.argmax(bad))
            raise ValueError(f"pad_mask row {row} is not one or more ones followed by zeros: "
                             f"{pad_mask[row].tolist()}")
        groups, members = LengthGroups.by_length(lengths)
        h = self.embed(ids[members][pad_mask[members] == 1], taped=True, groups=groups)
        probs, confs = [], []
        for layer in range(1, self.config.n_layers + 1):
            h = self._block(h, layer, groups)
            first = T.embedding_lookup(h, groups.first_rows)
            probs.append(self._exit_probs(first, layer))
            confs.append(self._confidence(first, layer))
        return probs, confs

    # -- inference-side forward ---------------------------------------

    def forward_layer(self, h_prev: np.ndarray, layer_index: int,
                      groups: LengthGroups | None = None) -> tuple[np.ndarray, ProbDist | np.ndarray]:
        """Run one block on an array state; return the new state and the exit's prediction.

        ``h_prev`` is [t, d_model] for one input, which gives one
        :class:`ProbDist`; [b, t, d_model] for b equal-length inputs; or, with
        ``groups``, the [rows, d_model] state of their samples. A batch gives
        one float64 array with a row per sample in the ``ProbDist.probs``
        layout, [samples, k] (slc) or [samples, k, 2] (mlc), checked once as
        :class:`ProbDist` checks a row; each row's bits equal its batch-1
        bits. The block and exit head run the shared kernels on plain
        arrays: nothing is taped.
        """
        if not 1 <= layer_index <= self.config.n_layers:
            raise ValueError(f"layer_index {layer_index} outside [1, {self.config.n_layers}]")
        one = h_prev.ndim == 2 and groups is None
        h = self._block(h_prev[None] if one else h_prev, layer_index, groups)
        probs = self._exit_probs(h[:, 0] if groups is None else h[groups.first_rows], layer_index)
        if one:
            return h[0], self._to_probdist(probs[0])
        if self.config.task == MLC:
            probs = np.stack([probs, 1.0 - probs], axis=-1)  # ProbDist.mlc's pairs
        check_probs(self.config.task, probs, lead=1)
        return h, probs

    def layer_confidence(self, h: np.ndarray, layer_index: int,
                         groups: LengthGroups | None = None) -> float | np.ndarray:
        """Confidence-head output in (0, 1): a float for a [t, d_model] array
        state, an array with one value per sample for a batch state (see
        :meth:`forward_layer`). ValueError if any value is NaN, which a NaN
        head weight gives and no threshold would halt on."""
        one = h.ndim == 2 and groups is None
        first = h[:1] if one else h[:, 0] if groups is None else h[groups.first_rows]
        conf = self._confidence(first, layer_index)
        if not np.minimum.reduce(conf) > 0.0:  # a NaN fails: the sigmoid keeps the rest in (0, 1)
            raise ValueError("confidence values must lie in (0, 1)")
        return float(conf[0]) if one else conf

    def iter_layers(self, tokens, confidence: bool = True, groups: LengthGroups | None = None) -> Iterator[
            tuple[np.ndarray, ProbDist | np.ndarray, float | np.ndarray | None]]:
        """Yield ``(h, prob, confidence)`` for layers 1..n, lazily.

        ``tokens`` is one input (1-D); b inputs of one length ([b, t]); or,
        with ``groups``, the [rows] ids of inputs of mixed lengths, each
        length group's samples in turn. A batch gives each layer's
        predictions as one [samples, k] / [samples, k, 2] array (see
        :meth:`forward_layer`) and its confidences as a [samples] array,
        bit-identical row by row to batch-1 passes. Each layer runs only
        when the next item is requested, so a consumer that stops after
        layer j has computed exactly j layers. The confidence head runs only
        when read: with ``confidence=False`` it never runs and every layer
        yields ``None`` in its place, with the same states and predictions.
        The states are plain arrays and every layer runs the shared kernels
        untaped, so a suspended generator holds no tape and leaves taped
        training untouched.
        """
        h = self.embed(tokens, groups=groups)
        for layer in range(1, self.config.n_layers + 1):
            h, prob = self.forward_layer(h, layer, groups)
            yield h, prob, self.layer_confidence(h, layer, groups) if confidence else None

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
        prob, trace = run_exit(policy, layers, self.config.n_layers)
        return prob, trace.exit_layer, trace


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
