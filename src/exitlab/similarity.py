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

Every formula here (the mlc pairs, the prediction rule, the validity
check, the four measures and :func:`entropies`) works on arrays of any
leading shape in the :class:`ProbDist` layout, so a batch of rows gets
each row's own bits; :class:`ProbDist`, :func:`score` and
:func:`entropy` apply them to one row, the model and training to batches.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ProbDist",
    "SimilarityMeasure",
    "VARIANTS",
    "check_probs",
    "mlc_pairs",
    "predictions",
    "score",
    "entropy",
    "entropies",
]

SLC = "slc"
MLC = "mlc"
VARIANTS = ("kd", "rekd", "symkd", "jskd")

_SUM_TOL = 1e-9
LOG_FLOOR = 1e-12  # a zero probability costs about 27.6 nats, not inf, in scores and losses


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
    # The reduces are what ndarray.min, sum and max call, minus their wrappers.
    valid = np.minimum.reduce(probs, axis=None) >= -_SUM_TOL
    if valid:
        gaps = abs(np.add.reduce(probs, axis=-1) - 1.0)
        valid = (np.maximum.reduce(gaps, axis=None) if gaps.ndim else gaps) <= _SUM_TOL
    if not valid:
        raise ValueError(message)


def mlc_pairs(positive: np.ndarray) -> np.ndarray:
    """The [..., k, 2] pairs (p, 1 - p) of positive-label probabilities [..., k]."""
    return np.stack([positive, 1.0 - positive], axis=-1)


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
        arr.setflags(write=False)
        object.__setattr__(self, "probs", arr)
        check_probs(self.kind, arr)

    @classmethod
    def slc(cls, probs) -> "ProbDist":
        return cls(SLC, np.asarray(probs, dtype=np.float64))

    @classmethod
    def mlc(cls, positive_probs) -> "ProbDist":
        """Build Bernoulli pairs from per-label positive-class probabilities."""
        return cls(MLC, mlc_pairs(np.asarray(positive_probs, dtype=np.float64)))

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
            return _cross_entropy(p, _floored_log(q), kl)
        if self.variant == "rekd":
            return _cross_entropy(q, _floored_log(p), kl)
        if self.variant == "symkd":
            return _cross_entropy(p, _floored_log(q), kl) + _cross_entropy(q, _floored_log(p), kl)
        mid = (p + q) / 2.0
        log_mid = _floored_log(mid)  # both halves read the one log
        return 0.5 * _cross_entropy(p, log_mid, kl) + 0.5 * _cross_entropy(q, log_mid, kl)


def _check_pair(prev: ProbDist, cur: ProbDist) -> None:
    if prev.kind != cur.kind:
        raise ValueError(f"distribution kinds differ: {prev.kind!r} vs {cur.kind!r}")
    if prev.k != cur.k:
        raise ValueError(f"class counts differ: {prev.k} vs {cur.k}")


def _floored_log(q: np.ndarray) -> np.ndarray:
    """ln q with q floored at :data:`LOG_FLOOR`, the log every score and entropy takes."""
    return np.log(np.maximum(q, LOG_FLOOR))


def _cross_entropy(w: np.ndarray, log_q: np.ndarray, subtract_self_entropy: bool) -> np.ndarray:
    """kd over the last axis, given ``log_q = _floored_log(q)``: -sum w ln q,
    less w's own cross-entropy in KL mode. The add-reduce is what
    ``ndarray.sum`` calls, minus its Python wrapper."""
    s = -np.add.reduce(w * log_q, axis=-1)
    if subtract_self_entropy:
        s = s - _cross_entropy(w, _floored_log(w), False)
    return s


def score(measure: SimilarityMeasure, prev: ProbDist, cur: ProbDist) -> float:
    """Apply ``measure`` to a pair of same-kind, same-k distributions."""
    _check_pair(prev, cur)
    return float(measure.scores(prev.flat(), cur.flat()))


def entropies(kind: str, probs: np.ndarray) -> np.ndarray:
    """Shannon entropy in nats of every [..., k] row (slc); the mean per-label
    binary entropy of every [..., k, 2] set of pairs (mlc)."""
    per_row = _cross_entropy(probs, _floored_log(probs), False)
    # an add-reduce and a divide by the count is what ndarray.mean computes
    return per_row if kind == SLC else np.add.reduce(per_row, axis=-1) / per_row.shape[-1]


def entropy(dist: ProbDist) -> float:
    """Shannon entropy in nats; mean per-label binary entropy for mlc."""
    return float(entropies(dist.kind, dist.probs))
