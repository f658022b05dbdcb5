"""Evaluation and benchmarking: speedup accounting, sweeps, and emitters.

Cost model: compute is proportional to the number of executed
transformer layers, so a sample exiting at layer j of n saves 1 - j/n of
the flops and the reported speedup is the per-sample average of that
ratio. Accuracy counts exits whose ``ProbDist.prediction()`` equals the
gold label (slc) or label set (mlc); ``micro_f1`` is the multi-label
micro-averaged F1 over those sets and equals accuracy on single-label
tasks. ``MultiExitModel.check_dataset`` rejects a mismatched dataset first
and returns those gold answers, ``Dataset.gold()``.

Record once, score from arrays: :func:`sweep`, :func:`compare_policies`
and ``training.dev_accuracy`` score every spec on one scoring core,
:class:`_LayerScores`, which holds only arrays: a [samples, n, ...]
probability array, the answer key and, for a ``learned`` spec, the
confidences. It knows no model, dataset or vocabulary; :func:`_record_layers`
builds it from a model's recording. A split is recorded once per parameter
state: the model keeps the last recording (:meth:`MultiExitModel.derived`),
and a call on the same encoded split under bitwise-unchanged parameters
runs no layer. The samples run in the order of ``LengthGroups.by_length``,
cut into chunks of up to ``_CHUNK_ROWS`` token rows of mixed lengths, one
layer call per chunk: the gemms and attention run per length group and
everything else once over the chunk's rows, with no padding, so every row
keeps its batch-1 bits. The confidence head runs over the recorded
first-token rows in the first call with a ``learned`` spec. Every policy
but ``fixed`` halts at the first layer whose key, the max of its signed
scores over the last ``patience`` layers (fpabee, pabee) or one layer
(the others), is below its signed threshold (signed by the policy's
``ExitPolicy.sign``, as its ``step`` compares). The scores are the
formulas each policy's ``step`` applies to one row, applied to the whole
array in one call per policy family, so they give the exits of every grid
point and knob of the call (:meth:`_LayerScores.scores`, ``exits``).
Stopping at layer j reproduces the first j layers of a full pass bit for
bit, so these are the live exits and predictions. ``evaluate`` runs
``forward_early_exit`` on each sample; both paths score their exits with
the same array counts (:func:`_result`). The reported speedup is still
the layer-count cost model above, not the wall time of the call. A
compare reports the knob whose speedup is closest to the target; among
equally close knobs the highest score wins, then the first in knob order.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .data import Dataset, Vocab, encode_dataset
from .errors import ConfigError
from .model import LengthGroups, MultiExitModel
from .policies import (
    EntropyThreshold,
    ExitPolicy,
    FixedExit,
    FPabee,
    LearnedConfidence,
    MaxProb,
    Pabee,
    max_probs,
    prediction_changes,
)
from .similarity import MLC, SLC, VARIANTS, SimilarityMeasure, entropies, predictions

__all__ = [
    "PolicySpec",
    "EvalResult",
    "SweepResult",
    "CompareResult",
    "evaluate",
    "sweep",
    "pareto_curve",
    "emit_csv",
    "parse_csv",
    "emit_histogram",
    "emit_svg",
    "compare_policies",
]

_POLICY_CLASSES = {cls.name: cls for cls in
                   (FPabee, Pabee, EntropyThreshold, MaxProb, LearnedConfidence, FixedExit)}
POLICY_NAMES = tuple(_POLICY_CLASSES)

# The PolicySpec fields each policy reads, its knob first. PolicySpec rejects
# any other field that is set; the result files and the CLI read this table.
POLICY_FIELDS = {
    "fpabee": ("thre", "patience", "measure", "kl_mode"),
    "pabee": ("patience",),
    "entropy": ("thre",),
    "maxprob": ("thre",),
    "learned": ("thre",),
    "fixed": ("fixed_layer",),
}

# Token rows per recorded chunk (see _record). A 4-point sweep of a
# 500-sample split at the test fixtures' architectures (2-vCPU Xeon, numpy
# 2.4, one BLAS thread) took the same time within 10% at 256, 512 and 1024
# rows, and 30-50% longer as one chunk of the whole split (4,200-4,800
# rows).
_CHUNK_ROWS = 512


def reject_unread(policies: list[str], values: dict, flags: dict | None = None,
                  knob: bool = True) -> None:
    """ConfigError for the first field in ``values`` that is set (neither None
    nor False) but read by no policy in ``policies`` (:data:`POLICY_FIELDS`;
    their knobs do not count when ``knob`` is false). The message names the
    field by its flag in ``flags``, or else by its own name."""
    start = 0 if knob else 1
    read = {f for p in policies for f in POLICY_FIELDS[p][start:]}
    for field, value in values.items():
        if value is not None and value is not False and field not in read:
            readers = [p for p, reads in POLICY_FIELDS.items() if field in reads[start:]]
            only = (f"{', '.join(readers[:-1])} and {readers[-1]}" if len(readers) > 1
                    else f"the {readers[0]} policy")
            flag = (flags or {}).get(field, "--" + field.replace("_", "-"))
            raise ConfigError(f"{flag} applies to {only} only, not {', '.join(policies)}")


@dataclass(frozen=True)
class PolicySpec:
    """Declarative policy selection, mirroring the CLI flags.

    ``thre`` is fpabee's similarity threshold and the confidence family's
    threshold, ``patience`` the patience of fpabee and pabee, ``fixed_layer``
    the fixed policy's layer. A field ``policy`` does not read (its row of
    :data:`POLICY_FIELDS`) must stay unset; fpabee's ``measure`` defaults to jskd.
    """

    policy: str
    measure: str | None = None
    thre: float | None = None
    patience: int | None = None
    fixed_layer: int | None = None
    kl_mode: bool = False

    def __post_init__(self):
        if self.policy not in POLICY_NAMES:
            raise ConfigError(f"unknown policy {self.policy!r}; expected one of {POLICY_NAMES}")
        reject_unread([self.policy], {f: v for f, v in vars(self).items() if f != "policy"})
        if self.measure is None and "measure" in POLICY_FIELDS[self.policy]:
            object.__setattr__(self, "measure", "jskd")
        if self.measure is not None and self.measure not in VARIANTS:
            raise ConfigError(f"unknown similarity measure {self.measure!r}; expected one of {VARIANTS}")
        for name, label in (("patience", "patience"), ("fixed_layer", "fixed exit layer")):
            value = getattr(self, name)  # integral values only, kept as int
            if value is None:
                continue
            if isinstance(value, bool) or not (isinstance(value, (int, np.integer)) or isinstance(
                    value, (float, np.floating)) and value.is_integer()):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
            if value < 1:
                raise ConfigError(f"{label} must be at least 1, got {int(value)}")
        if self.thre is not None and (isinstance(self.thre, bool) or not math.isfinite(self.thre)):
            raise ConfigError(f"thre must be a finite number, got {self.thre}")

    @property
    def knob(self) -> str:
        """The name of the field this spec's policy tunes."""
        return POLICY_FIELDS[self.policy][0]

    def build(self) -> ExitPolicy:
        missing = ["--" + f.replace("_", "-") for f in POLICY_FIELDS[self.policy]
                   if getattr(self, f) is None]
        if missing:
            raise ConfigError(f"{self.policy} needs {' and '.join(missing)}")
        if self.policy == "fpabee":
            measure = SimilarityMeasure(self.measure, subtract_self_entropy=self.kl_mode)
            return FPabee(measure, self.thre, self.patience)
        return _POLICY_CLASSES[self.policy](getattr(self, self.knob))

    def with_knob(self, knob) -> PolicySpec:
        """This spec with its knob (see :meth:`knob_value`) set to ``knob``;
        a layer or patience knob must be integral."""
        return replace(self, **{self.knob: float(knob) if self.knob == "thre" else knob})

    def knob_value(self) -> float | None:
        value = getattr(self, self.knob)
        return None if value is None else float(value)


@dataclass
class EvalResult:
    """Aggregate metrics for one policy configuration over one dataset."""

    spec: PolicySpec
    task: str
    n_samples: int
    accuracy: float
    micro_f1: float
    speedup: float
    mean_exit_layer: float
    histogram: list[int]

    @property
    def score(self) -> float:
        """The headline metric: accuracy (slc) or micro-F1 (mlc)."""
        return self.accuracy if self.task == SLC else self.micro_f1


@dataclass
class SweepResult:
    rows: list[EvalResult]
    n_layers: int
    seed: int
    model_hash: str
    data_hash: str


@dataclass
class CompareResult:
    spec: PolicySpec
    target_speedup: float
    result: EvalResult
    attained: bool


@dataclass
class _LayerScores:
    """Exits scored from arrays alone: every layer of every sample of one split.

    ``probs[i, j - 1]`` is sample i's exit distribution at layer j in the
    ``ProbDist.probs`` layout, so ``probs`` is [samples, n, k] (``task``
    slc) or [samples, n, k, 2] (mlc). ``gold`` is the answer key in
    ``Dataset.gold()``'s layout, which :func:`_result` scores against, and
    ``confidences`` [samples, n] holds each sample-layer's confidence value,
    which only a ``learned`` spec reads. ``memo`` keeps each policy
    family's :meth:`scores`; the cores of one recording share it.
    """

    task: str
    probs: np.ndarray
    gold: np.ndarray
    confidences: np.ndarray | None = None
    memo: dict = field(default_factory=dict)

    @property
    def n_layers(self) -> int:
        return self.probs.shape[1]

    def scores(self, spec: PolicySpec) -> np.ndarray:
        """The signed score ``spec``'s policy compares at every layer, [samples, n].

        The score is the policy's ``step`` ``last_score``, from the same
        formula applied to every layer at once, times its class's
        ``ExitPolicy.sign`` (see :meth:`keys`); a layer where nothing is
        compared (layer 1 of fpabee and pabee) scores ``inf``. Computed once
        per policy family (policy, measure, ``kl_mode``) per :attr:`memo`.
        """
        family = (spec.policy, spec.measure, spec.kl_mode)
        scores = self.memo.get(family)
        if scores is not None:
            return scores
        kind, probs = self.task, self.probs
        if spec.policy in ("fpabee", "pabee"):
            scores = np.full(probs.shape[:2], np.inf)
            if spec.policy == "pabee":
                scores[:, 1:] = prediction_changes(kind, probs[:, :-1], probs[:, 1:])
            else:
                # ProbDist.flat() of every row
                flat = probs.reshape(probs.shape[:2] + (math.prod(probs.shape[2:]),))
                measure = SimilarityMeasure(spec.measure, subtract_self_entropy=spec.kl_mode)
                scores[:, 1:] = measure.scores(flat[:, :-1], flat[:, 1:])
        elif spec.policy == "entropy":
            scores = entropies(kind, probs)
        elif spec.policy == "maxprob":
            scores = max_probs(kind, probs)
        else:
            scores = self.confidences
        self.memo[family] = scores = _read_only(_POLICY_CLASSES[spec.policy].sign * scores)
        return scores

    def keys(self, spec: PolicySpec) -> tuple[np.ndarray, float]:
        """``spec``'s halting keys, [samples, n], and the sign they carry.

        A threshold policy halts at the first layer whose key is below
        sign * its threshold. The key is the max of the signed
        :meth:`scores` at the last ``patience`` layers for fpabee and pabee,
        and the signed score at that layer otherwise; a layer with fewer
        scores up to it never halts, as its window reaches layer 1's ``inf``.
        The sign is the policy class's ``ExitPolicy.sign``: -1 for maxprob
        and learned, which halt above it.
        """
        sign = _POLICY_CLASSES[spec.policy].sign
        window = min(spec.patience, self.n_layers) if "patience" in POLICY_FIELDS[spec.policy] else 1
        scores = self.scores(spec)
        keys = scores.copy()
        for lag in range(1, window):
            np.maximum(keys[:, lag:], scores[:, :-lag], out=keys[:, lag:])
        return keys, sign

    def exits(self, spec: PolicySpec) -> np.ndarray:
        """Each sample's exit layer under ``spec``: the first layer whose key
        (:meth:`keys`) is below the signed threshold, 0.5 for pabee, or else
        the final layer; ``fixed`` exits at its layer."""
        policy = spec.build()  # an incomplete spec raises its ConfigError here
        if spec.policy == "fixed":
            return np.full(len(self.probs), spec.fixed_layer, dtype=np.int64)
        keys, sign = self.keys(spec)
        halts = keys < sign * (policy.thre if spec.policy == "pabee" else spec.thre)
        halts[:, -1] = True
        return halts.argmax(axis=1) + 1

    def evaluate(self, spec: PolicySpec) -> EvalResult:
        """``spec`` over the recorded layers: its exits and the distributions there."""
        _check_fixed_layer(spec, self.n_layers)
        exits = self.exits(spec)
        probs = self.probs[np.arange(len(exits)), exits - 1]
        return _result(spec, self.task, self.n_layers, exits, probs, self.gold)

    def knob_curve(self, spec: PolicySpec) -> tuple[np.ndarray, np.ndarray]:
        """Every knob value of ``spec`` with its own exit pattern, and each one's speedup.

        A knob value is what :meth:`PolicySpec.with_knob` takes, so a caller
        builds specs only for the knobs it evaluates.

        fixed and pabee take layers / patience 1..n, the speedup of each read
        from its :meth:`exits` as :func:`_result` reads it. A threshold
        policy halts at the first layer whose key (:meth:`keys`) is below its
        signed threshold t, so a sample runs layer j+1 exactly when the prefix
        minimum of its keys at layer j is at least t. The knobs are the distinct
        finite prefix minima and the next float above them; speedup is
        monotone along them.
        """
        n, count = self.n_layers, len(self.probs)
        if spec.knob != "thre":
            knobs = np.arange(1, n + 1)
            return knobs, np.array([1.0 - _mean_exit(self.exits(spec.with_knob(j)), n) / n
                                    for j in knobs])
        replace(spec, thre=0.0).build()  # fpabee without patience raises here
        keys, sign = self.keys(spec)
        ranked = np.sort(np.minimum.accumulate(keys[:, :-1], axis=1), axis=None)
        ts = np.unique(ranked[np.isfinite(ranked)])
        ts = np.append(ts, np.nextafter(ts[-1], np.inf) if ts.size else 0.0)
        # each sample runs 1 + (its prefix minima >= t) layers; the division is evaluate's mean
        layers_run = count + ranked.size - np.searchsorted(ranked, ts)
        mean_exit = layers_run / count if count else np.full(ts.size, float(n))
        return sign * ts, 1.0 - mean_exit / n


def _record_layers(model: MultiExitModel, dataset: Dataset, vocab: Vocab,
                   specs: list[PolicySpec], memo: dict | None = None) -> _LayerScores:
    """The scoring core of ``model`` over ``dataset``, recorded once per
    parameter state, with confidences when a spec's policy class
    ``reads_confidence``.

    ``model.check_dataset``, which gives ``gold``, runs on every call. The
    model keeps the last recording in :meth:`MultiExitModel.derived`
    (``memo``, when the caller holds it from that call already): the
    split's lengths and concatenated ids, each sample-layer's first-token
    row ``pooled`` [samples, n, d_model] (see :func:`_record`) and a core of
    read-only arrays. A call on the same encoded split under unchanged
    parameters runs no layer and gets that core's arrays and score memo
    with its own ``gold``. The confidence head runs over ``pooled`` once
    per recording, in the first call that reads it.
    """
    gold = model.check_dataset(dataset)
    encoded = encode_dataset(dataset, vocab, model.config.max_seq_len)
    lengths = np.array([len(ids) for ids in encoded], dtype=np.int64)
    ids = np.concatenate(encoded) if encoded else np.empty(0, dtype=np.int64)
    memo = model.derived() if memo is None else memo
    kept = memo.get("recording")
    if kept is None or not (np.array_equal(kept[0], lengths) and np.array_equal(kept[1], ids)):
        probs, pooled = _record(model, encoded, lengths, _row_shape(dataset))
        kept = memo["recording"] = (lengths, ids, _read_only(pooled),
                                    _LayerScores(dataset.task, _read_only(probs), gold))
    _, _, pooled, core = kept
    if core.confidences is None and any(_POLICY_CLASSES[s.policy].reads_confidence for s in specs):
        confs = np.empty(pooled.shape[:2])
        for j in range(confs.shape[1] if len(confs) else 0):
            confs[:, j] = model.layer_confidence(pooled[:, j][:, None], j + 1)
        core.confidences = _read_only(confs)
    return replace(core, gold=gold)


def _record(model: MultiExitModel, encoded: list[np.ndarray], lengths: np.ndarray,
            row_shape: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Every layer of every encoded sample: the exit distributions
    [samples, n, *row_shape] and first-token rows [samples, n, d_model].

    The samples, in ``LengthGroups.by_length`` order of their encoded
    lengths, are cut greedily into chunks of at most ``_CHUNK_ROWS`` token
    rows (a longer sample is a chunk of its own). Each chunk runs
    :meth:`MultiExitModel.iter_layers` once, as one unpadded state of its
    :class:`~exitlab.model.LengthGroups` whose rows keep their batch-1
    bits, so each sample-layer runs exactly once, in one ``forward_layer``
    call per chunk-layer, and its rows go straight into the two arrays."""
    n = model.config.n_layers
    probs = np.empty((len(encoded), n) + row_shape)
    pooled = np.empty((len(encoded), n, model.config.d_model))
    chunks, rows = [], 0
    for i in LengthGroups.by_length(lengths)[1] if len(encoded) else ():
        if not chunks or rows + lengths[i] > _CHUNK_ROWS:  # the next sample starts a chunk
            chunks.append([])
            rows = 0
        chunks[-1].append(i)
        rows += lengths[i]
    for chunk in map(np.array, chunks):
        layout, members = LengthGroups.by_length(lengths[chunk])
        ids = np.concatenate([encoded[i] for i in chunk[members]])
        for j, (h, layer_probs, _) in enumerate(model.iter_layers(ids, False, layout)):
            probs[chunk, j] = layer_probs
            pooled[chunk, j] = h[layout.first_rows]
    return probs, pooled


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _check_fixed_layer(spec: PolicySpec, n: int) -> None:
    if spec.fixed_layer is not None and spec.fixed_layer > n:
        raise ConfigError(f"fixed exit layer {spec.fixed_layer} exceeds the model's {n} layers")


def _row_shape(dataset: Dataset) -> tuple[int, ...]:
    """The shape of one ``ProbDist.probs`` of ``dataset``'s task."""
    return (dataset.n_classes, 2) if dataset.task == MLC else (dataset.n_classes,)


def _mean_exit(exits: np.ndarray, n: int) -> float:
    # the integer sum is exact, and int / int rounds once, as exits.mean() does
    return int(exits.sum()) / len(exits) if len(exits) else float(n)


def _result(spec: PolicySpec, task: str, n: int, exits: np.ndarray,
            probs: np.ndarray, gold: np.ndarray) -> EvalResult:
    """Score per-sample exit layers and the exits' distributions, [samples, k]
    or [samples, k, 2], against ``gold``, in ``Dataset.gold()``'s layout."""
    pred, count = predictions(task, probs), len(exits)
    if task == MLC:
        accuracy = int((pred == gold).all(axis=1).sum()) / max(1, count)
        tp, fp, fn = (int((pred & gold).sum()), int((pred & ~gold).sum()),
                      int((~pred & gold).sum()))
        denom = 2 * tp + fp + fn
        micro_f1 = 2 * tp / denom if denom else 1.0
    else:
        accuracy = micro_f1 = int((pred == gold).sum()) / max(1, count)
    mean_exit = _mean_exit(exits, n)
    return EvalResult(
        spec=spec,
        task=task,
        n_samples=count,
        accuracy=accuracy,
        micro_f1=micro_f1,
        speedup=1.0 - mean_exit / n,
        mean_exit_layer=mean_exit,
        histogram=np.bincount(exits, minlength=n + 1)[1:].tolist(),
    )


def _spec_of(policy: ExitPolicy) -> PolicySpec:
    """The spec that builds a policy equal to ``policy``, an object of one of
    the six policy classes (not a subclass) whose knobs a spec can hold,
    fpabee's over a :class:`SimilarityMeasure`; the bare policy name for any
    other object."""
    cls, knobs = type(policy), {}
    if cls is FPabee and type(policy.scorer) is SimilarityMeasure:
        knobs = dict(measure=policy.scorer.variant, thre=policy.thre, patience=policy.patience,
                     kl_mode=policy.scorer.subtract_self_entropy)
    elif cls is Pabee:
        knobs = dict(patience=policy.patience)
    elif cls is FixedExit:
        knobs = dict(fixed_layer=policy.layer)
    elif cls in (EntropyThreshold, MaxProb, LearnedConfidence):
        knobs = dict(thre=policy.threshold)
    try:
        return PolicySpec(policy.name, **knobs)
    except ConfigError:  # a knob no spec holds, such as an infinite threshold
        return PolicySpec(policy.name)


def evaluate(
    model: MultiExitModel,
    dataset: Dataset,
    policy: ExitPolicy | PolicySpec,
    vocab: Vocab,
) -> EvalResult:
    """Early-exit evaluation sample by sample (batch size 1).

    Runs ``forward_early_exit`` on each encoded sample, with ``spec.build()``
    for a spec and a policy object as given, and scores its exit layers
    and predictions as :func:`sweep` does. A policy object's result carries
    the spec that builds an equal policy where a spec can hold its knobs
    (see :func:`_spec_of`), and otherwise its bare policy name.
    """
    gold = model.check_dataset(dataset)
    n = model.config.n_layers
    if isinstance(policy, PolicySpec):
        _check_fixed_layer(policy, n)
        spec, built = policy, policy.build()
    else:
        spec, built = _spec_of(policy), policy
    exits = np.zeros(len(dataset), dtype=np.int64)
    probs = np.empty((len(dataset),) + _row_shape(dataset))
    for i, ids in enumerate(encode_dataset(dataset, vocab, model.config.max_seq_len)):
        prob, exits[i], _ = model.forward_early_exit(ids, built)
        probs[i] = prob.probs
    return _result(spec, dataset.task, n, exits, probs, gold)


def sweep(
    model: MultiExitModel,
    dataset: Dataset,
    specs: list[PolicySpec],
    vocab: Vocab,
    seed: int = 0,
) -> SweepResult:
    """One evaluation per grid point, rows sorted by ascending speedup.

    All grid points are scored on one scoring core (:func:`_record_layers`),
    which records every layer of every sample once, in chunks of length
    groups, or reuses the model's recording of the same split under
    unchanged parameters; the confidence head runs only for a ``learned`` spec.
    """
    memo = model.derived()  # one buffer compare serves the recording and the model hash
    layers = _record_layers(model, dataset, vocab, specs, memo)
    rows = sorted((layers.evaluate(spec) for spec in specs), key=lambda r: r.speedup)
    return SweepResult(rows=rows, n_layers=model.config.n_layers, seed=seed,
                       model_hash=model._param_hash(memo), data_hash=dataset.data_hash())


def pareto_curve(result: SweepResult | list[EvalResult]) -> list[tuple[float, float]]:
    """Non-dominated (speedup, score) points, speedup ascending.

    One sweep over the distinct points from fastest to slowest (higher
    score first on a tie): a point is kept when its score beats every
    score seen so far, i.e. every point at least as fast.
    """
    rows = result.rows if isinstance(result, SweepResult) else result
    frontier, best = [], -math.inf
    for p in sorted({(r.speedup, r.score) for r in rows}, reverse=True):
        if p[1] > best:
            frontier.append(p)
            best = p[1]
    return frontier[::-1]


# -- emitters -----------------------------------------------------------------


def _csv_header(n_layers: int) -> list[str]:
    return (
        ["policy", "measure", "thre", "patience", "accuracy", "micro_f1", "speedup", "mean_exit_layer"]
        + [f"hist_{i}" for i in range(1, n_layers + 1)]
        + ["seed", "model_hash", "data_hash", "kl_mode"]
    )


def _fmt(value) -> str:
    # float() first: a numpy scalar's repr is not a plain number
    return "" if value is None else repr(float(value)) if isinstance(value, float) else str(value)


def _cell(spec: PolicySpec, field: str) -> str:
    """``spec``'s ``field`` as a CSV cell, empty when its policy does not read it."""
    return _fmt(getattr(spec, field)) if field in POLICY_FIELDS[spec.policy] else ""


def _spec_cells(spec: PolicySpec) -> list[str]:
    """The policy, measure, knob (``thre`` column) and patience cells of a row."""
    return [spec.policy, _cell(spec, "measure"), _fmt(spec.knob_value()), _cell(spec, "patience")]


def emit_csv(result: SweepResult, path) -> None:
    """Write the sweep table; floats use repr so a re-parse is lossless."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(_csv_header(result.n_layers))
        for row in result.rows:
            writer.writerow(
                _spec_cells(row.spec)
                + [_fmt(row.accuracy), _fmt(row.micro_f1), _fmt(row.speedup),
                   _fmt(row.mean_exit_layer)]
                + [str(c) for c in row.histogram]
                + [str(result.seed), result.model_hash, result.data_hash,
                   _cell(row.spec, "kl_mode")]
            )


def parse_csv(path) -> SweepResult:
    """Inverse of :func:`emit_csv` (task is not stored; slc is assumed
    for scoring, which leaves the stored metric columns untouched).

    The ``thre`` column holds each row's knob; the other cells are read
    only for the fields the row's policy reads (:data:`POLICY_FIELDS`). A
    file without the ``kl_mode`` column reads as ``kl_mode=False``."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        hist_cols = [h for h in header if h.startswith("hist_")]
        n_layers = len(hist_cols)
        rows = []
        seed, model_hash, data_hash = 0, "", ""
        for rec in reader:
            m = dict(zip(header, rec))
            cells = {"measure": m["measure"] or None,
                     "patience": int(m["patience"]) if m["patience"] else None,
                     "kl_mode": m.get("kl_mode") == "True"}
            spec = PolicySpec(m["policy"], **{f: cells[f] for f in
                                              POLICY_FIELDS.get(m["policy"], ())[1:]})
            if m["thre"]:
                spec = spec.with_knob(float(m["thre"]))
            rows.append(
                EvalResult(
                    spec=spec,
                    task=SLC,
                    n_samples=sum(int(m[h]) for h in hist_cols),
                    accuracy=float(m["accuracy"]),
                    micro_f1=float(m["micro_f1"]),
                    speedup=float(m["speedup"]),
                    mean_exit_layer=float(m["mean_exit_layer"]),
                    histogram=[int(m[h]) for h in hist_cols],
                )
            )
            seed = int(m["seed"])
            model_hash = m["model_hash"]
            data_hash = m["data_hash"]
    return SweepResult(rows, n_layers, seed, model_hash, data_hash)


def emit_histogram(result: EvalResult, path) -> None:
    """Exit-layer distribution for one configuration, one column per layer."""
    n = len(result.histogram)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["policy", "measure", "thre", "patience"] + [f"hist_{i}" for i in range(1, n + 1)])
        writer.writerow(_spec_cells(result.spec) + [str(c) for c in result.histogram])


_SVG_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]


def emit_svg(curves: list[tuple[str, list[tuple[float, float]]]], path) -> None:
    """Self-contained polyline chart; no external renderer needed."""
    width, height, margin = 640, 480, 60
    xs = [p[0] for _, pts in curves for p in pts]
    ys = [p[1] for _, pts in curves for p in pts]
    if not xs:
        xs, ys = [0.0, 1.0], [0.0, 1.0]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    x_pad = (x_hi - x_lo) * 0.05 or 0.05
    y_pad = (y_hi - y_lo) * 0.05 or 0.05
    x_lo, x_hi = x_lo - x_pad, x_hi + x_pad
    y_lo, y_hi = y_lo - y_pad, y_hi + y_pad

    def sx(x):
        return margin + (x - x_lo) / (x_hi - x_lo) * (width - 2 * margin)

    def sy(y):
        return height - margin - (y - y_lo) / (y_hi - y_lo) * (height - 2 * margin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" stroke="black"/>',
        f'<text x="{width / 2:.1f}" y="{height - 15}" text-anchor="middle" '
        f'font-size="14">speedup</text>',
        f'<text x="18" y="{height / 2:.1f}" text-anchor="middle" font-size="14" '
        f'transform="rotate(-90 18 {height / 2:.1f})">score</text>',
    ]
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        xv = x_lo + frac * (x_hi - x_lo)
        yv = y_lo + frac * (y_hi - y_lo)
        parts.append(
            f'<text x="{sx(xv):.1f}" y="{height - margin + 18}" text-anchor="middle" '
            f'font-size="11">{xv:.3g}</text>'
        )
        parts.append(
            f'<text x="{margin - 8}" y="{sy(yv):.1f}" text-anchor="end" '
            f'font-size="11">{yv:.3g}</text>'
        )
    for i, (label, pts) in enumerate(curves):
        color = _SVG_COLORS[i % len(_SVG_COLORS)]
        coords = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in pts)
        parts.append(f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="2"/>')
        for x, y in pts:
            parts.append(f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="3" fill="{color}"/>')
        parts.append(
            f'<text x="{width - margin - 4}" y="{margin + 16 * i + 12}" text-anchor="end" '
            f'font-size="12" fill="{color}">{label}</text>'
        )
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")


# -- matched-speedup comparison ------------------------------------------------


def compare_policies(
    model: MultiExitModel,
    dataset: Dataset,
    target_speedup: float,
    specs: list[PolicySpec],
    vocab: Vocab,
    tolerance: float = 0.02,
) -> list[CompareResult]:
    """Report each policy at the knob whose speedup is closest to the target.

    The scoring core's ``knob_curve`` gives every knob's speedup; only the
    equally close knobs are evaluated, and the highest score wins, then the
    first in knob order. ``attained`` says whether that speedup lies within
    ``tolerance`` (a number >= 0) of the target. Every policy is scored on
    one recording of the split, which a sweep of it under the same
    parameters leaves for compare to reuse, score memo included.
    """
    if not 0.0 <= target_speedup < 1.0:
        raise ConfigError(f"target speedup must lie in [0, 1), got {target_speedup}")
    if not tolerance >= 0.0:
        raise ConfigError(f"tolerance must be a number >= 0, got {tolerance}")
    layers = _record_layers(model, dataset, vocab, specs)
    out: list[CompareResult] = []
    for spec in specs:
        knobs, speedups = layers.knob_curve(spec)
        gaps = np.abs(speedups - target_speedup)
        closest = gaps.min()
        best = max((layers.evaluate(spec.with_knob(knobs[k])) for k in np.flatnonzero(gaps == closest)),
                   key=lambda r: r.score)
        out.append(CompareResult(spec=best.spec, target_speedup=target_speedup, result=best,
                                 attained=bool(closest <= tolerance)))
    return out
