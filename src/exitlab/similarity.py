"""Cross-layer similarity scores between successive classifier outputs.

Four variants of one cross-entropy primitive, all computed by
:func:`score`:

    kd(p, q)    = -sum_j p_j * ln(q_j)            (forward distillation)
    rekd(p, q)  = kd(q, p)                        (reverse direction)
    symkd(p, q) = kd(p, q) + kd(q, p)
    jskd(p, q)  = kd(p, m)/2 + kd(q, m)/2,  m = (p + q)/2

Probabilities are floored at 1e-12 inside the log. Scores are
cross-entropies as written, so a pair of identical distributions scores
its own entropy, not zero; thresholds are in nats.
Set ``subtract_self_entropy`` on a measure to get the KL-style variant
(identical inputs score 0) for ablations.

Multi-label distributions are treated as k independent binary problems
and the per-label scores are summed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ProbDist",
    "SimilarityMeasure",
    "VARIANTS",
    "score",
    "entropy",
]

SLC = "slc"
MLC = "mlc"
VARIANTS = ("kd", "rekd", "symkd", "jskd")

_SUM_TOL = 1e-9
_LOG_FLOOR = 1e-12  # a zero probability costs about 27.6 nats, not inf


@dataclass(frozen=True, eq=False)
class ProbDist:
    """A classifier output: one categorical vector, or k Bernoulli pairs.

    ``probs`` has shape (k,) for single-label and (k, 2) for multi-label,
    where row j is (p_j, 1 - p_j).
    """

    kind: str
    probs: np.ndarray

    def __post_init__(self):
        arr = np.array(self.probs, dtype=np.float64, order="C")
        arr.flags.writeable = False
        object.__setattr__(self, "probs", arr)
        # range checks are written so that NaN fails them: every comparison
        # with NaN is False
        if self.kind == SLC:
            if arr.ndim != 1 or arr.shape[0] < 2:
                raise ValueError(f"slc distribution needs a vector of k >= 2, got shape {arr.shape}")
            if not (arr.min() >= -_SUM_TOL and abs(arr.sum() - 1.0) <= _SUM_TOL):
                raise ValueError("slc probabilities must be nonnegative and sum to 1")
        elif self.kind == MLC:
            if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] < 1:
                raise ValueError(f"mlc distribution needs (k, 2) pairs with k >= 1, got shape {arr.shape}")
            if not (arr.min() >= -_SUM_TOL and np.abs(arr.sum(axis=1) - 1.0).max() <= _SUM_TOL):
                raise ValueError("every mlc pair must be nonnegative and sum to 1")
        else:
            raise ValueError(f"unknown distribution kind {self.kind!r}")

    @classmethod
    def slc(cls, probs) -> "ProbDist":
        return cls(SLC, np.asarray(probs, dtype=np.float64))

    @classmethod
    def mlc(cls, positive_probs) -> "ProbDist":
        """Build Bernoulli pairs from per-label positive-class probabilities."""
        p = np.asarray(positive_probs, dtype=np.float64)
        return cls(MLC, np.stack([p, 1.0 - p], axis=-1))

    @property
    def k(self) -> int:
        return self.probs.shape[0]

    def argmax(self) -> int:
        if self.kind != SLC:
            raise ValueError("argmax is defined for slc distributions")
        return int(np.argmax(self.probs))

    def label_set(self) -> frozenset[int]:
        """Labels whose positive probability exceeds 0.5 (strict)."""
        if self.kind != MLC:
            raise ValueError("label_set is defined for mlc distributions")
        return frozenset(np.flatnonzero(self.probs[:, 0] > 0.5).tolist())

    def prediction(self) -> int | frozenset[int]:
        """What this exit predicts: the argmax (slc) or the 0.5-threshold label set (mlc).

        Computed on the first call and kept: ``probs`` is read-only, so the
        answer cannot change.
        """
        pred = self.__dict__.get("_prediction")
        if pred is None:
            pred = self.argmax() if self.kind == SLC else self.label_set()
            object.__setattr__(self, "_prediction", pred)
        return pred

    def flat(self) -> np.ndarray:
        """Probability mass as a flat vector (pairs unrolled for mlc)."""
        return self.probs.reshape(-1)


@dataclass(frozen=True)
class SimilarityMeasure:
    """A named score variant, optionally in KL mode.

    Instances are callable as ``measure(prev, cur)`` so anything expecting
    a plain scorer can take one directly.
    """

    variant: str = "jskd"
    subtract_self_entropy: bool = False

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown similarity variant {self.variant!r}; expected one of {VARIANTS}")

    def __call__(self, prev: ProbDist, cur: ProbDist) -> float:
        return score(self, prev, cur)


def _check_pair(prev: ProbDist, cur: ProbDist) -> None:
    if prev.kind != cur.kind:
        raise ValueError(f"distribution kinds differ: {prev.kind!r} vs {cur.kind!r}")
    if prev.k != cur.k:
        raise ValueError(f"class counts differ: {prev.k} vs {cur.k}")


def _cross_entropy(w: np.ndarray, q: np.ndarray, subtract_self_entropy: bool) -> float:
    """kd on flat arrays: -sum w ln q, less w's own cross-entropy in KL mode."""
    s = float(-(w * np.log(np.maximum(q, _LOG_FLOOR))).sum())
    if subtract_self_entropy:
        s -= _cross_entropy(w, w, False)
    return s


def score(measure: SimilarityMeasure, prev: ProbDist, cur: ProbDist) -> float:
    """Apply ``measure`` to a pair of same-kind, same-k distributions."""
    _check_pair(prev, cur)
    p, q = prev.flat(), cur.flat()
    kl = measure.subtract_self_entropy
    if measure.variant == "kd":
        return _cross_entropy(p, q, kl)
    if measure.variant == "rekd":
        return _cross_entropy(q, p, kl)
    if measure.variant == "symkd":
        return _cross_entropy(p, q, kl) + _cross_entropy(q, p, kl)
    mid = (p + q) / 2.0
    return 0.5 * _cross_entropy(p, mid, kl) + 0.5 * _cross_entropy(q, mid, kl)


def entropy(dist: ProbDist) -> float:
    """Shannon entropy in nats; mean per-label binary entropy for mlc."""
    if dist.kind == SLC:
        p = dist.probs
        return float(-(p * np.log(np.maximum(p, _LOG_FLOOR))).sum())
    per_label = -(dist.probs * np.log(np.maximum(dist.probs, _LOG_FLOOR))).sum(axis=1)
    return float(per_label.mean())
