"""Halt/continue state machines over a stream of per-layer predictions.

Every policy is one :class:`ExitPolicy` object holding its own per-sample
state: call ``reset()`` before each new input, then ``step`` once per
layer until it halts. :func:`run_exit` is the one loop that does so and
returns the sample's :class:`ExitTrace`; the live early-exit path runs it.
Each score a ``step`` compares is one row of an array formula
(:meth:`~exitlab.similarity.SimilarityMeasure.scores`,
:func:`prediction_changes`, :func:`~exitlab.similarity.entropies`,
:func:`max_probs`), which the harness applies to every recorded layer at
once to read the same exits.

The flexible patience policy (:class:`FPabee`) is the one implementation
of the counter recurrence: it counts consecutive cross-layer scores
strictly below a threshold, resets the counter on a score >= the
threshold, and halts once the counter reaches the patience value. The
classic patience policy (:class:`Pabee`) is the same recurrence scoring
whether ``ProbDist.prediction()`` changed. Confidence baselines (entropy,
max-prob, learned head) and a fixed-layer policy round out the set.

All policies are deterministic functions of the prediction stream and
their parameters.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .similarity import SLC, ProbDist, entropy, predictions

__all__ = [
    "ExitDecision",
    "TraceEntry",
    "ExitTrace",
    "run_exit",
    "prediction_changes",
    "prediction_match_scorer",
    "max_probs",
    "ExitPolicy",
    "FPabee",
    "Pabee",
    "EntropyThreshold",
    "MaxProb",
    "LearnedConfidence",
    "FixedExit",
]

PATIENCE_REACHED = "patience-reached"
CONFIDENCE = "confidence"
FIXED_LAYER = "fixed-layer"
FINAL_FALLBACK = "final-layer-fallback"

Scorer = Callable[[ProbDist, ProbDist], float]


@dataclass(frozen=True)
class ExitDecision:
    """Outcome of one policy step; ``reason`` is set only when halting."""

    halt: bool
    reason: str | None = None


@dataclass(frozen=True)
class TraceEntry:
    """One executed layer: the exit's ``ProbDist.prediction()`` plus the policy's view of it."""

    layer: int
    prediction: int | frozenset[int]
    score: float | None
    pat: int | None
    decision: ExitDecision


@dataclass(frozen=True)
class ExitTrace:
    """Per-sample record of every executed layer and the final exit."""

    entries: tuple[TraceEntry, ...]
    exit_layer: int
    reason: str

    def __post_init__(self):
        halts = [e for e in self.entries if e.decision.halt]
        if len(halts) != 1 or halts[0] is not self.entries[-1]:
            raise ValueError("trace must contain exactly one halting decision, at its last entry")
        if self.entries[-1].layer != self.exit_layer:
            raise ValueError("exit_layer must match the last recorded layer")


def prediction_changes(kind: str, prev: np.ndarray, cur: np.ndarray) -> np.ndarray:
    """1.0 where the prediction (:func:`~exitlab.similarity.predictions`) of a
    ``cur`` row differs from its ``prev`` row's, else 0.0, over any leading shape."""
    a, b = predictions(kind, prev), predictions(kind, cur)
    return (a != b if kind == SLC else (a != b).any(axis=-1)).astype(np.float64)


def prediction_match_scorer(prev: ProbDist, cur: ProbDist) -> float:
    """0.0 when ``prev.prediction() == cur.prediction()``, else 1.0
    (:func:`prediction_changes` of one row).

    Plugged into the flexible recurrence with any thre in (0, 1] it
    reproduces classic patience exiting decision-for-decision.
    """
    return float(prediction_changes(prev.kind, prev.probs, cur.probs))


def max_probs(kind: str, probs: np.ndarray) -> np.ndarray:
    """The winning probability of every row, over any leading shape: the max of
    [..., k] (slc), or the weakest label's max(p, 1-p) of [..., k, 2] (mlc)."""
    return probs.max(axis=-1) if kind == SLC else probs.max(axis=-1).min(axis=-1)


class ExitPolicy:
    """Common protocol: ``reset()`` per sample, then one ``step`` per layer.

    ``last_score`` is the value the latest ``step`` compared with the
    threshold (``None`` before any comparison, and always for fixed);
    ``pat`` is the patience counter. :func:`run_exit` records both per step.
    ``reads_confidence`` says whether ``step`` reads the confidence-head
    value; a policy that does not is stepped with ``confidence=None``, so
    the model never computes the head for it.
    """

    name = "base"
    reads_confidence = False
    last_score: float | None = None
    pat: int | None = None

    def reset(self) -> None:
        pass

    def step(self, layer: int, probs: ProbDist, confidence: float | None = None) -> ExitDecision:
        raise NotImplementedError


def run_exit(
    policy: ExitPolicy, layers: Iterable[tuple[ProbDist, float | None]], n_layers: int
) -> tuple[ProbDist, ExitTrace]:
    """Run ``policy`` over one sample's ``(prob, confidence)`` layers.

    Resets the policy, then steps it once per layer until it halts; a
    policy still running at layer ``n_layers`` gets the final-layer
    fallback there. ``layers`` is never read past the exit. Returns the
    exit layer's prob and the trace: one :class:`TraceEntry` per executed
    layer, the last holding the halting decision. A stream that ends
    before the policy halts, at or before layer ``n_layers``, raises
    ``ValueError``.
    """
    policy.reset()
    entries = []
    for layer, (prob, conf) in enumerate(layers, start=1):
        decision = policy.step(layer, prob, conf)
        if layer == n_layers and not decision.halt:
            decision = ExitDecision(True, FINAL_FALLBACK)
        entries.append(TraceEntry(layer, prob.prediction(), policy.last_score, policy.pat, decision))
        if decision.halt:
            return prob, ExitTrace(tuple(entries), layer, decision.reason)
    raise ValueError(f"layer stream ended after {len(entries)} layers without a halt (n_layers={n_layers})")


class FPabee(ExitPolicy):
    """Similarity-threshold patience.

    ``pat`` counts consecutive comparisons with score strictly below
    ``thre``; a score >= thre resets it to 0. There is no previous
    prediction at the first layer, so the first comparison happens at the
    second. ``scorer`` is any ``(prev, cur) -> float`` callable; a
    :class:`~exitlab.similarity.SimilarityMeasure` works directly.
    """

    name = "fpabee"

    def __init__(self, scorer: Scorer, thre: float, patience: int):
        self.scorer = scorer
        self.thre = float(thre)
        self.patience = int(patience)
        if self.patience < 1:
            raise ValueError("patience must be a positive integer")
        self.reset()

    def reset(self) -> None:
        self.pat = 0
        self.last_score = None
        self._prev = None

    def step(self, layer: int, probs: ProbDist, confidence: float | None = None) -> ExitDecision:
        prev, self._prev = self._prev, probs
        if prev is None:
            return ExitDecision(False)
        self.last_score = float(self.scorer(prev, probs))
        self.pat = self.pat + 1 if self.last_score < self.thre else 0
        halt = self.pat >= self.patience
        return ExitDecision(halt, PATIENCE_REACHED if halt else None)


class Pabee(FPabee):
    """Classic patience: increment on an unchanged prediction (argmax, or
    0.5-threshold label set), reset on any change."""

    name = "pabee"

    def __init__(self, patience: int):
        super().__init__(prediction_match_scorer, 0.5, patience)


class EntropyThreshold(ExitPolicy):
    """Halt when prediction entropy drops strictly below ``threshold``."""

    name = "entropy"

    def __init__(self, threshold: float):
        self.threshold = float(threshold)

    def step(self, layer: int, probs: ProbDist, confidence: float | None = None) -> ExitDecision:
        self.last_score = entropy(probs)
        halt = self.last_score < self.threshold
        return ExitDecision(halt, CONFIDENCE if halt else None)


class MaxProb(ExitPolicy):
    """Halt when the winning probability strictly exceeds ``threshold``.

    For mlc the weakest label decides: min over labels of max(p, 1-p).
    """

    name = "maxprob"

    def __init__(self, threshold: float):
        self.threshold = float(threshold)

    def step(self, layer: int, probs: ProbDist, confidence: float | None = None) -> ExitDecision:
        self.last_score = float(max_probs(probs.kind, probs.probs))
        halt = self.last_score > self.threshold
        return ExitDecision(halt, CONFIDENCE if halt else None)


class LearnedConfidence(ExitPolicy):
    """Halt when a trained per-layer confidence head exceeds ``threshold``."""

    name = "learned"
    reads_confidence = True

    def __init__(self, threshold: float):
        self.threshold = float(threshold)

    def step(self, layer: int, probs: ProbDist, confidence: float | None = None) -> ExitDecision:
        if confidence is None:
            raise ValueError("learned-confidence policy needs the per-layer confidence value")
        self.last_score = confidence
        halt = self.last_score > self.threshold
        return ExitDecision(halt, CONFIDENCE if halt else None)


class FixedExit(ExitPolicy):
    """Halt exactly at ``layer`` (final-layer fallback if it exceeds n)."""

    name = "fixed"

    def __init__(self, layer: int):
        if layer < 1:
            raise ValueError("fixed exit layer must be >= 1")
        self.layer = int(layer)

    def step(self, layer: int, probs: ProbDist, confidence: float | None = None) -> ExitDecision:
        halt = layer == self.layer
        return ExitDecision(halt, FIXED_LAYER if halt else None)
