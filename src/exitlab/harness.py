"""Evaluation and benchmarking: speedup accounting, sweeps, and emitters.

Cost model: compute is proportional to the number of executed
transformer layers, so a sample exiting at layer j of n saves 1 - j/n of
the flops and the reported speedup is the per-sample average of that
ratio. Accuracy counts exits whose ``ProbDist.prediction()`` equals the
gold label (slc) or label set (mlc); ``micro_f1`` is the multi-label
micro-averaged F1 over those sets and equals accuracy on single-label
tasks. ``MultiExitModel.check_dataset`` rejects a mismatched dataset first.

Record once, replay many: each :func:`evaluate`, :func:`sweep` and
:func:`compare_policies` call runs each sample's layers at most once.
Policies are deterministic functions of the per-layer prediction stream,
and stopping at layer j reproduces the first j layers of a full pass bit
for bit, so every grid point and every compared knob of one call is
replayed over the layer outputs the call has already computed. Replay and
the live ``forward_early_exit`` run the one exit loop,
:func:`exitlab.policies.run_exit`, over a lazy per-sample layer stream.
Layers run by group: ``sweep`` and ``compare_policies`` group samples by
encoded length, and a group runs layer j once, as one unpadded [b, t]
batch whose rows keep their batch-1 bits, when the first of its samples
needs it; ``evaluate`` keeps one sample per group, so it runs exactly the
layers of the live early-exit path. As on that path, the confidence head
runs only when read: only if the call's policy, or one of its specs, is
``learned``. Within a call, the fpabee / pabee
scorer of every policy the harness builds is memoized per pair of
recorded predictions, so each pair is scored once for all knobs. The
reported speedup is still the layer-count cost model above, not the wall
time of the replay. A compare reports the knob whose speedup is closest
to the target; among equally close knobs the highest score wins, then
the first in knob order.
"""

from __future__ import annotations

import csv
import math
from collections.abc import Iterator
from dataclasses import dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .data import Dataset, Vocab, encode_dataset
from .errors import ConfigError
from .model import MultiExitModel
from .policies import (
    EntropyThreshold,
    ExitPolicy,
    FixedExit,
    FPabee,
    LearnedConfidence,
    MaxProb,
    Pabee,
    Scorer,
    run_exit,
)
from .similarity import MLC, SLC, ProbDist, SimilarityMeasure

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


@dataclass(frozen=True)
class PolicySpec:
    """Declarative policy selection, mirroring the CLI flags.

    ``thre`` is the policy's scalar knob: the similarity threshold for
    fpabee, the entropy / probability / confidence threshold for the
    confidence family. ``fixed_layer`` selects the fixed policy's layer
    and ``patience`` the patience count for both patience policies.
    """

    policy: str
    measure: str = "jskd"
    thre: float | None = None
    patience: int | None = None
    fixed_layer: int | None = None
    kl_mode: bool = False

    def __post_init__(self):
        if self.policy not in POLICY_NAMES:
            raise ConfigError(f"unknown policy {self.policy!r}; expected one of {POLICY_NAMES}")
        if self.patience is not None and self.patience < 1:
            raise ConfigError(f"patience must be at least 1, got {self.patience}")
        if self.fixed_layer is not None and self.fixed_layer < 1:
            raise ConfigError(f"fixed exit layer must be at least 1, got {self.fixed_layer}")
        if self.thre is not None and not math.isfinite(self.thre):
            raise ConfigError(f"thre must be a finite number, got {self.thre}")

    def build(self) -> ExitPolicy:
        if self.policy == "fpabee":
            if self.thre is None or self.patience is None:
                raise ConfigError("fpabee needs both --thre and --patience")
            measure = SimilarityMeasure(self.measure, subtract_self_entropy=self.kl_mode)
            return FPabee(measure, self.thre, self.patience)
        if self.policy == "pabee":
            if self.patience is None:
                raise ConfigError("pabee needs --patience")
            return Pabee(self.patience)
        if self.policy == "fixed":
            if self.fixed_layer is None:
                raise ConfigError("fixed needs --fixed-layer")
            return FixedExit(self.fixed_layer)
        if self.thre is None:
            raise ConfigError(f"{self.policy} needs --thre as its threshold")
        if self.policy == "entropy":
            return EntropyThreshold(self.thre)
        if self.policy == "maxprob":
            return MaxProb(self.thre)
        return LearnedConfidence(self.thre)

    @property
    def reads_confidence(self) -> bool:
        """Whether the built policy reads the confidence head, as its class says."""
        return _POLICY_CLASSES[self.policy].reads_confidence

    def with_knob(self, knob) -> PolicySpec:
        """This spec with its knob (see :meth:`knob_value`) set to ``knob``."""
        if self.policy == "fixed":
            return replace(self, fixed_layer=int(knob))
        if self.policy == "pabee":
            return replace(self, patience=int(knob))
        return replace(self, thre=float(knob))

    def knob_value(self) -> float | None:
        if self.policy == "fixed":
            return float(self.fixed_layer) if self.fixed_layer is not None else None
        if self.policy == "pabee":
            return float(self.patience) if self.patience is not None else None
        return self.thre


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


class _LayerCache:
    """Layer outputs of one model over one dataset, for one call.

    Samples run their layers in groups, one lazy
    :meth:`MultiExitModel.iter_layers` generator per group: with
    ``by_length``, one group per encoded length, whose [b, t] batch gives
    every member its batch-1 bits; otherwise one group per sample. A group
    runs layer j once, for all its members, the first time a stream of any
    member asks for it, so each sample-layer runs at most once, and with
    one-sample groups exactly the layers some stream reached. The
    confidence head runs only with ``confidence``; without it every
    stream yields ``None`` as its confidence.

    :meth:`build` gives a policy whose scorer is memoized over the recorded
    predictions, so replays of many knobs score each layer pair once. The
    cache lives as long as the call that built it, so nothing needs
    invalidating when parameters change.
    """

    def __init__(self, model: MultiExitModel, dataset: Dataset, vocab: Vocab,
                 by_length: bool = True, confidence: bool = True):
        model.check_dataset(dataset)
        self.dataset = dataset
        self.n_layers = model.config.n_layers
        encoded = encode_dataset(dataset, vocab, model.config.max_seq_len)
        groups: dict[int, list[int]] = {}
        for i, ids in enumerate(encoded):
            groups.setdefault(len(ids) if by_length else i, []).append(i)
        self._where = [(0, 0)] * len(encoded)  # sample -> (group, row in group)
        self._layers, self._seen = [], []
        for g, members in enumerate(groups.values()):
            self._layers.append(model.iter_layers(np.stack([encoded[i] for i in members]),
                                                  confidence=confidence))
            self._seen.append([])
            for row, i in enumerate(members):
                self._where[i] = (g, row)
        self._scores: dict[Scorer, dict[tuple[ProbDist, ProbDist], float]] = {}

    def stream(self, sample: int) -> Iterator[tuple[ProbDist, float]]:
        """``(prob, confidence)`` of ``sample`` at layers 1..n, lazily.

        A layer is computed the first time any stream of the sample's group reaches it.
        """
        group, row = self._where[sample]
        seen, layers = self._seen[group], self._layers[group]
        for j in range(self.n_layers):
            if j == len(seen):
                _, probs, confs = next(layers)
                seen.append(list(zip(probs, confs or [None] * len(probs))))
            yield seen[j][row]

    def build(self, spec: PolicySpec) -> ExitPolicy:
        """``spec.build()``, with an fpabee / pabee scorer memoized per pair of
        recorded predictions.

        The memo keys on the ``ProbDist`` objects, which hash by identity
        and which it keeps alive, so a key never names another pair. Only
        policies built here get the memo; a caller's policy object is left
        as it is.
        """
        policy = spec.build()
        if isinstance(policy, FPabee):
            scorer, memo = policy.scorer, self._scores.setdefault(policy.scorer, {})

            def memoized(prev: ProbDist, cur: ProbDist) -> float:
                s = memo.get((prev, cur))
                if s is None:
                    s = memo[prev, cur] = scorer(prev, cur)
                return s

            policy.scorer = memoized
        return policy


def _replay(cache: _LayerCache, policy: ExitPolicy) -> tuple[np.ndarray, list[ProbDist]]:
    """Per-sample exit layer and prediction: the last :func:`run_exit` step
    over each sample's stream, as ``forward_early_exit`` gives them."""
    exits = np.zeros(len(cache.dataset), dtype=np.int64)
    probs = []
    for i in range(len(cache.dataset)):
        exits[i], prob, *_ = run_exit(policy, cache.stream(i), cache.n_layers)[-1]
        probs.append(prob)
    return exits, probs


def _evaluate(cache: _LayerCache, policy: ExitPolicy | PolicySpec) -> EvalResult:
    dataset, n = cache.dataset, cache.n_layers
    if isinstance(policy, PolicySpec):
        if policy.policy == "fixed" and policy.fixed_layer is not None and policy.fixed_layer > n:
            raise ConfigError(f"fixed exit layer {policy.fixed_layer} exceeds the model's {n} layers")
        spec, built = policy, cache.build(policy)
    else:
        spec, built = PolicySpec(policy.name), policy
    exits, probs = _replay(cache, built)
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


def evaluate(
    model: MultiExitModel,
    dataset: Dataset,
    policy: ExitPolicy | PolicySpec,
    vocab: Vocab,
) -> EvalResult:
    """Early-exit evaluation sample by sample (batch size 1).

    Runs exactly the layers that ``forward_early_exit`` would run on each
    sample, confidence heads included only if the policy reads them, and
    gives the same exit layers and predictions.
    """
    cache = _LayerCache(model, dataset, vocab, by_length=False, confidence=policy.reads_confidence)
    return _evaluate(cache, policy)


def sweep(
    model: MultiExitModel,
    dataset: Dataset,
    specs: list[PolicySpec],
    vocab: Vocab,
    seed: int = 0,
) -> SweepResult:
    """One evaluation per grid point, rows sorted by ascending speedup.

    All grid points are replayed over one layer cache that records the
    samples in length groups, so each sample's layers run at most once.
    """
    cache = _LayerCache(model, dataset, vocab, confidence=any(s.reads_confidence for s in specs))
    rows = [_evaluate(cache, spec) for spec in specs]
    rows.sort(key=lambda r: r.speedup)
    return SweepResult(
        rows=rows,
        n_layers=model.config.n_layers,
        seed=seed,
        model_hash=model.param_hash(),
        data_hash=dataset.data_hash(),
    )


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


def emit_csv(result: SweepResult, path) -> None:
    """Write the sweep table; floats use repr so a re-parse is lossless."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(_csv_header(result.n_layers))
        for row in result.rows:
            spec = row.spec
            writer.writerow(
                [spec.policy, spec.measure if spec.policy == "fpabee" else "",
                 _fmt(spec.knob_value()), _fmt(spec.patience),
                 _fmt(row.accuracy), _fmt(row.micro_f1), _fmt(row.speedup),
                 _fmt(row.mean_exit_layer)]
                + [str(c) for c in row.histogram]
                + [str(result.seed), result.model_hash, result.data_hash,
                   str(spec.kl_mode) if spec.policy == "fpabee" else ""]
            )


def parse_csv(path) -> SweepResult:
    """Inverse of :func:`emit_csv` (task is not stored; slc is assumed
    for scoring, which leaves the stored metric columns untouched).

    The ``thre`` column holds each row's knob, so it becomes ``fixed_layer``
    on a ``fixed`` row, is dropped on a ``pabee`` row (whose patience has
    its own column) and is ``thre`` otherwise. ``kl_mode`` is read on
    fpabee rows; a file without that column reads as ``kl_mode=False``."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        hist_cols = [h for h in header if h.startswith("hist_")]
        n_layers = len(hist_cols)
        rows = []
        seed, model_hash, data_hash = 0, "", ""
        for rec in reader:
            m = dict(zip(header, rec))
            policy = m["policy"]
            knob = float(m["thre"]) if m["thre"] else None
            patience = int(m["patience"]) if m["patience"] else None
            if policy == "fixed":
                spec = PolicySpec(policy, fixed_layer=None if knob is None else int(knob))
            elif policy == "pabee":
                spec = PolicySpec(policy, patience=patience)
            else:
                spec = PolicySpec(policy, measure=m["measure"] or "jskd", thre=knob,
                                  patience=patience, kl_mode=m.get("kl_mode") == "True")
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
        spec = result.spec
        writer.writerow(
            [spec.policy, spec.measure if spec.policy == "fpabee" else "",
             _fmt(spec.knob_value()), _fmt(spec.patience)]
            + [str(c) for c in result.histogram]
        )


_SVG_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]


def emit_svg(curves: list[tuple[str, list[tuple[float, float]]]], path,
             x_label: str = "speedup", y_label: str = "score") -> None:
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
        f'font-size="14">{x_label}</text>',
        f'<text x="18" y="{height / 2:.1f}" text-anchor="middle" font-size="14" '
        f'transform="rotate(-90 18 {height / 2:.1f})">{y_label}</text>',
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


def _knob_curve(cache: _LayerCache, spec: PolicySpec) -> tuple[np.ndarray, np.ndarray]:
    """Every knob value of ``spec`` with its own exit pattern, and each one's speedup.

    A knob value is what :meth:`PolicySpec.with_knob` takes, so a caller
    builds specs only for the knobs it evaluates.

    fixed and pabee take layers / patience 1..n, each replayed. A threshold
    policy halts at the first layer whose key is below its threshold t: the
    max of the last ``patience`` scores (``last_score``) for fpabee, the
    score for entropy, the negated score (t = -thre) for maxprob and learned.
    So a sample runs layer j+1 exactly when the prefix minimum of its keys
    at layer j is at least t. The knobs are the distinct finite prefix
    minima and the next float above them; speedup is monotone along them.
    """
    n, count = cache.n_layers, len(cache.dataset)
    if spec.policy in ("fixed", "pabee"):
        knobs = np.arange(1, n + 1)
        return knobs, np.array([_evaluate(cache, spec.with_knob(j)).speedup for j in knobs])
    policy = cache.build(replace(spec, thre=0.0))
    sign = -1.0 if spec.policy in ("maxprob", "learned") else 1.0
    keys = np.full((count, n), np.inf)
    for i in range(count):
        policy.reset()
        for j, (prob, conf) in enumerate(cache.stream(i)):
            policy.step(j + 1, prob, conf)
            if policy.last_score is not None:
                keys[i, j] = sign * policy.last_score
    window = min(spec.patience, n) if spec.policy == "fpabee" else 1
    # inf padding: a layer with fewer than `window` scores up to it never halts
    padded = np.concatenate([np.full((count, window - 1), np.inf), keys], axis=1)
    keys = sliding_window_view(padded, window, axis=1).max(axis=-1)
    ranked = np.sort(np.minimum.accumulate(keys[:, :-1], axis=1), axis=None)
    ts = np.unique(ranked[np.isfinite(ranked)])
    ts = np.append(ts, np.nextafter(ts[-1], np.inf) if ts.size else 0.0)
    # each sample runs 1 + (its prefix minima >= t) layers; the division is _evaluate's mean
    layers_run = count + ranked.size - np.searchsorted(ranked, ts)
    mean_exit = layers_run / count if count else np.full(ts.size, float(n))
    return sign * ts, 1.0 - mean_exit / n


def compare_policies(
    model: MultiExitModel,
    dataset: Dataset,
    target_speedup: float,
    specs: list[PolicySpec],
    vocab: Vocab,
    tolerance: float = 0.02,
) -> list[CompareResult]:
    """Report each policy at the knob whose speedup is closest to the target.

    :func:`_knob_curve` gives every knob's speedup; only the equally close
    knobs are evaluated, and the highest score wins, then the first in knob
    order. ``attained`` says whether that speedup lies within ``tolerance``
    (a number >= 0) of the target. One layer cache serves every policy.
    """
    if not 0.0 <= target_speedup < 1.0:
        raise ConfigError(f"target speedup must lie in [0, 1), got {target_speedup}")
    if not tolerance >= 0.0:
        raise ConfigError(f"tolerance must be a number >= 0, got {tolerance}")
    cache = _LayerCache(model, dataset, vocab, confidence=any(s.reads_confidence for s in specs))
    out: list[CompareResult] = []
    for spec in specs:
        knobs, speedups = _knob_curve(cache, spec)
        gaps = np.abs(speedups - target_speedup)
        closest = gaps.min()
        best = max((_evaluate(cache, spec.with_knob(knobs[k])) for k in np.flatnonzero(gaps == closest)),
                   key=lambda r: r.score)
        out.append(CompareResult(spec=best.spec, target_speedup=target_speedup, result=best,
                                 attained=bool(closest <= tolerance)))
    return out
