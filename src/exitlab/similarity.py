"""Cross-layer similarity scores between successive classifier outputs.

Four variants of one cross-entropy primitive, all computed by
:meth:`SimilarityMeasure.scores`:

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

Every formula here (the prediction rule, the validity check, the four
measures and :func:`entropies`) works on arrays of any leading shape in
the :class:`ProbDist` layout and reduces over the last axis, so a batch of
rows gets each row's own bits; :class:`ProbDist`, :func:`score` and
:func:`entropy` apply them to one row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ProbDist",
    "SimilarityMeasure",
    "VARIANTS",
    "check_probs",
    "predictions",
    "score",
    "entropy",
    "entropies",
]

SLC = "slc"
MLC = "mlc"
VARIANTS = ("kd", "rekd", "symkd", "jskd")

_SUM_TOL = 1e-9
_LOG_FLOOR = 1e-12  # a zero probability costs about 27.6 nats, not inf


def check_probs(kind: str, probs: np.ndarray, lead: int = 0) -> None:
    """Raise ValueError unless ``probs`` holds ``kind`` distributions after
    ``lead`` leading axes: [..., k] with k >= 2 (slc) or [..., k, 2] pairs
    with k >= 1 (mlc), every entry nonnegative and every row summing to 1.
    A batch fails with the message a :class:`ProbDist` of its bad row gives."""
    if kind == SLC:
        if probs.ndim != lead + 1 or probs.shape[-1] < 2:
            raise ValueError(f"slc distribution needs a vector of k >= 2, got shape {probs.shape}")
        message = "slc probabilities must be nonnegative and sum to 1"
    elif kind == MLC:
        if probs.ndim != lead + 2 or probs.shape[-1] != 2 or probs.shape[-2] < 1:
            raise ValueError(f"mlc distribution needs (k, 2) pairs with k >= 1, got shape {probs.shape}")
        message = "every mlc pair must be nonnegative and sum to 1"
    else:
        raise ValueError(f"unknown distribution kind {kind!r}")
    if not probs.size:
        return
    # written so that NaN fails: every comparison with NaN is False. Rows are
    # summed only once every entry is nonnegative, so inf + -inf cannot warn.
    valid = probs.min() >= -_SUM_TOL
    if valid:
        gaps = abs(probs.sum(axis=-1) - 1.0)
        valid = (gaps.max() if gaps.ndim else gaps) <= _SUM_TOL  # max() of one row's scalar only slows
    if not valid:
        raise ValueError(message)


def predictions(kind: str, probs: np.ndarray) -> np.ndarray:
    """The prediction rule over the last axis: the argmax of [..., k] (slc),
    or the [..., k] mask of labels whose positive probability exceeds 0.5,
    strictly, in [..., k, 2] pairs (mlc)."""
    return probs.argmax(axis=-1) if kind == SLC else probs[..., 0] > 0.5


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
        check_probs(self.kind, arr)

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
        return int(predictions(SLC, self.probs))

    def label_set(self) -> frozenset[int]:
        """Labels whose positive probability exceeds 0.5 (strict)."""
        if self.kind != MLC:
            raise ValueError("label_set is defined for mlc distributions")
        return frozenset(np.flatnonzero(predictions(MLC, self.probs)).tolist())

    def prediction(self) -> int | frozenset[int]:
        """What this exit predicts (:func:`predictions`): the argmax (slc) or the
        0.5-threshold label set (mlc)."""
        return self.argmax() if self.kind == SLC else self.label_set()

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

    def scores(self, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        """This measure of every row pair of ``p`` and ``q``, flat probability
        mass [..., m] (pairs unrolled for mlc), reduced over the last axis."""
        kl = self.subtract_self_entropy
        if self.variant == "kd":
            return _cross_entropy(p, q, kl)
        if self.variant == "rekd":
            return _cross_entropy(q, p, kl)
        if self.variant == "symkd":
            return _cross_entropy(p, q, kl) + _cross_entropy(q, p, kl)
        mid = (p + q) / 2.0
        return 0.5 * _cross_entropy(p, mid, kl) + 0.5 * _cross_entropy(q, mid, kl)


def _check_pair(prev: ProbDist, cur: ProbDist) -> None:
    if prev.kind != cur.kind:
        raise ValueError(f"distribution kinds differ: {prev.kind!r} vs {cur.kind!r}")
    if prev.k != cur.k:
        raise ValueError(f"class counts differ: {prev.k} vs {cur.k}")


def _cross_entropy(w: np.ndarray, q: np.ndarray, subtract_self_entropy: bool) -> np.ndarray:
    """kd over the last axis: -sum w ln q, less w's own cross-entropy in KL mode."""
    s = -(w * np.log(np.maximum(q, _LOG_FLOOR))).sum(axis=-1)
    if subtract_self_entropy:
        s = s - _cross_entropy(w, w, False)
    return s


def score(measure: SimilarityMeasure, prev: ProbDist, cur: ProbDist) -> float:
    """Apply ``measure`` to a pair of same-kind, same-k distributions."""
    _check_pair(prev, cur)
    return float(measure.scores(prev.flat(), cur.flat()))


def entropies(kind: str, probs: np.ndarray) -> np.ndarray:
    """Shannon entropy in nats of every [..., k] row (slc); the mean per-label
    binary entropy of every [..., k, 2] set of pairs (mlc)."""
    per_row = -(probs * np.log(np.maximum(probs, _LOG_FLOOR))).sum(axis=-1)
    return per_row if kind == SLC else per_row.mean(axis=-1)


def entropy(dist: ProbDist) -> float:
    """Shannon entropy in nats; mean per-label binary entropy for mlc."""
    return float(entropies(dist.kind, dist.probs))
