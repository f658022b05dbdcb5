"""Datasets: JSONL ingestion, whitespace vocab, and synthetic task generation.

The synthetic generator builds classification tasks with a controlled
easy/hard split so early exiting has something to exploit: easy examples
carry one unambiguous class keyword, hard examples encode the class as a
pair of cue tokens (left-a + right-b -> class (a+b) mod k) that only a
model able to combine two tokens can resolve.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError
from .similarity import MLC, SLC

__all__ = [
    "Example",
    "Dataset",
    "DataSplits",
    "Vocab",
    "PAD_ID",
    "UNK_ID",
    "CLS_ID",
    "load_jsonl",
    "save_jsonl",
    "text_lines",
    "build_vocab",
    "encode_dataset",
    "SyntheticSpec",
    "generate_synthetic",
]

RESERVED = ("<pad>", "<unk>", "<cls>")
PAD_ID, UNK_ID, CLS_ID = 0, 1, 2


@dataclass(frozen=True)
class Example:
    """One labelled text: ``label`` for slc, sorted ``labels`` tuple for mlc."""

    text: str
    label: int | None = None
    labels: tuple[int, ...] | None = None


@dataclass
class Dataset:
    task: str
    n_classes: int
    examples: list[Example] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.examples)

    def gold(self) -> np.ndarray:
        """The answer key: labels [samples] (slc), or label-set masks [samples, k] (mlc).

        Every label is checked before any is indexed, so a label outside
        [0, n_classes), negative ones included, raises :class:`DataError`.
        """
        mlc, k = self.task == MLC, self.n_classes
        for i, ex in enumerate(self.examples):
            for j in ex.labels if mlc else (ex.label,):
                if not 0 <= j < k:
                    raise DataError(f"example {i} has label {j} outside [0, {k})")
        if not mlc:
            return np.array([ex.label for ex in self.examples], dtype=np.int64)
        gold = np.zeros((len(self), k), dtype=bool)
        for row, ex in zip(gold, self.examples):
            row[list(ex.labels)] = True
        return gold

    def data_hash(self) -> str:
        """Digest of the canonical JSONL serialization."""
        h = hashlib.sha256()
        h.update(f"{self.task}:{self.n_classes}".encode())
        for ex in self.examples:
            h.update(_record_line(self.task, ex).encode())
        return h.hexdigest()[:16]


@dataclass
class DataSplits:
    train: Dataset
    dev: Dataset
    test: Dataset


def tokenize(text: str) -> list[str]:
    return text.lower().split()


class Vocab:
    """token -> id map with reserved pad/unk/cls ids; CLS prefixes every encoding."""

    def __init__(self, tokens: list[str]):
        if list(tokens[: len(RESERVED)]) != list(RESERVED):
            tokens = list(RESERVED) + list(tokens)
        self.tokens = list(tokens)
        self.token_to_id = {tok: i for i, tok in enumerate(self.tokens)}
        if len(self.token_to_id) != len(self.tokens):
            raise DataError("vocabulary contains duplicate tokens")

    def __len__(self) -> int:
        return len(self.tokens)

    def encode(self, text: str, max_len: int | None = None) -> np.ndarray:
        ids = [CLS_ID] + [self.token_to_id.get(tok, UNK_ID) for tok in tokenize(text)]
        if max_len is not None:
            ids = ids[:max_len]
        return np.asarray(ids, dtype=np.int64)


def build_vocab(dataset: Dataset, max_size: int) -> Vocab:
    """Most frequent tokens first; frequency ties break lexicographically."""
    if max_size <= len(RESERVED):
        raise ConfigError(f"vocabulary size must exceed the {len(RESERVED)} reserved tokens, got {max_size}")
    counts = Counter()
    for ex in dataset.examples:
        counts.update(tokenize(ex.text))
    budget = max_size - len(RESERVED)
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:budget]
    return Vocab(list(RESERVED) + [tok for tok, _ in ranked])


def encode_dataset(dataset: Dataset, vocab: Vocab, max_len: int) -> list[np.ndarray]:
    """Every example's ids, CLS first, cut to ``max_len``: the one encoding
    that training and evaluation share."""
    return [vocab.encode(ex.text, max_len=max_len) for ex in dataset.examples]


# -- JSONL ------------------------------------------------------------------


def text_lines(path, kind: str, error: type[Exception]) -> Iterator[tuple[int, str]]:
    """``(line number, line)`` of a UTF-8 text file, numbered from 1.

    A missing file, or bytes that are not UTF-8, raise ``error`` with a
    one-line message naming the file as a ``kind`` file.
    """
    try:
        fh = open(path, "r", encoding="utf-8")
    except FileNotFoundError as e:
        raise error(f"{path}: no such {kind} file") from e
    with fh:
        try:
            yield from enumerate(fh, start=1)
        except UnicodeDecodeError as e:
            raise error(f"{path}: {kind} file is not UTF-8 text") from e


def _record_line(task: str, ex: Example) -> str:
    if task == SLC:
        rec = {"text": ex.text, "label": ex.label}
    else:
        rec = {"text": ex.text, "labels": list(ex.labels)}
    return json.dumps(rec, sort_keys=True)


def save_jsonl(dataset: Dataset, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for ex in dataset.examples:
            fh.write(_record_line(dataset.task, ex) + "\n")


def load_jsonl(path, task: str, n_classes: int | None = None) -> Dataset:
    """Read one record per line; validates schema and label ranges.

    With ``n_classes`` unset the class count is inferred as max label + 1
    (at least 2); a given one below 2 is a :class:`ConfigError`. A file
    without any record is a :class:`DataError`.
    """
    if task not in (SLC, MLC):
        raise ConfigError(f"task must be {SLC!r} or {MLC!r}, got {task!r}")
    if n_classes is not None and n_classes < 2:
        raise ConfigError(f"n_classes must be >= 2, got {n_classes}")
    examples: list[Example] = []
    for lineno, line in text_lines(path, "data", DataError):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as e:
            raise DataError(f"{path}:{lineno}: invalid JSON ({e.msg})") from e
        if not isinstance(rec, dict) or not isinstance(rec.get("text"), str):
            raise DataError(f"{path}:{lineno}: record must be an object with a string 'text'")
        if task == SLC:
            if "labels" in rec:
                raise DataError(f"{path}:{lineno}: 'labels' array not valid for an slc dataset")
            label = rec.get("label")
            if not isinstance(label, int) or isinstance(label, bool) or label < 0:
                raise DataError(f"{path}:{lineno}: 'label' must be a nonnegative integer")
            examples.append(Example(rec["text"], label=label))
        else:
            if "label" in rec:
                raise DataError(f"{path}:{lineno}: scalar 'label' not valid for an mlc dataset")
            labels = rec.get("labels")
            if not isinstance(labels, list) or any(
                not isinstance(v, int) or isinstance(v, bool) or v < 0 for v in labels
            ):
                raise DataError(f"{path}:{lineno}: 'labels' must be a list of nonnegative integers")
            examples.append(Example(rec["text"], labels=tuple(sorted(set(labels)))))
    if not examples:
        raise DataError(f"{path}: no records")

    if n_classes is None:
        seen_max = max(ex.label if task == SLC else max(ex.labels, default=-1) for ex in examples)
        n_classes = max(seen_max + 1, 2)
    dataset = Dataset(task, n_classes, examples)
    try:
        dataset.gold()  # the one label-range rule
    except DataError as e:
        raise DataError(f"{path}: {e}") from e
    return dataset


# -- synthetic tasks ---------------------------------------------------------

_FILLERS = ["the", "a", "of", "and", "is", "on", "it", "for", "with", "at"]


@dataclass(frozen=True)
class SyntheticSpec:
    """Controls the generated task; ``easy_fraction`` of examples are
    single-keyword decidable, the rest need a cue pair."""

    task: str
    n_classes: int
    n_train: int
    n_dev: int
    n_test: int
    easy_fraction: float = 0.7
    noise: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.task not in (SLC, MLC):
            raise ConfigError(f"task must be {SLC!r} or {MLC!r}")
        if self.n_classes < 2:
            raise ConfigError("n_classes must be >= 2")
        if not 0.0 <= self.easy_fraction <= 1.0:
            raise ConfigError("easy_fraction must lie in [0, 1]")
        if not 0.0 <= self.noise <= 1.0:
            raise ConfigError("noise must lie in [0, 1]")
        if min(self.n_train, self.n_dev, self.n_test) < 0:
            raise ConfigError("split sizes must be nonnegative")
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")


def _filler_words(rng: np.random.Generator, count: int) -> list[str]:
    pool = _FILLERS + [f"w{j}" for j in range(12)]
    return [pool[i] for i in rng.integers(0, len(pool), size=count)]


def _insert(rng: np.random.Generator, words: list[str], extra: list[str]) -> list[str]:
    out = list(words)
    for tok in extra:
        out.insert(int(rng.integers(0, len(out) + 1)), tok)
    return out


def _cue_tokens_for_class(rng: np.random.Generator, c: int, k: int, easy: bool) -> list[str]:
    if easy:
        return [f"cue{c}"]
    a = int(rng.integers(0, k))
    b = (c - a) % k
    return [f"left{a}", f"right{b}"]


def _make_example(rng: np.random.Generator, spec: SyntheticSpec) -> Example:
    k = spec.n_classes
    easy = bool(rng.random() < spec.easy_fraction)
    n_fill = int(rng.integers(4, 9))
    words = _filler_words(rng, n_fill)
    if spec.task == SLC:
        label = int(rng.integers(0, k))
        words = _insert(rng, words, _cue_tokens_for_class(rng, label, k, easy))
        if spec.noise > 0 and rng.random() < spec.noise:
            label = int(rng.integers(0, k))
        return Example(" ".join(words), label=label)
    present = [j for j in range(k) if rng.random() < 0.4]
    cues: list[str] = []
    for j in present:
        cues.extend(_cue_tokens_for_class(rng, j, k, easy))
    words = _insert(rng, words, cues)
    labels = set(present)
    if spec.noise > 0 and rng.random() < spec.noise:
        flip = int(rng.integers(0, k))
        labels.symmetric_difference_update({flip})
    return Example(" ".join(words), labels=tuple(sorted(labels)))


def generate_synthetic(spec: SyntheticSpec) -> DataSplits:
    """Seed-deterministic train/dev/test splits drawn from one stream."""
    rng = np.random.default_rng(spec.seed)
    splits = []
    for size in (spec.n_train, spec.n_dev, spec.n_test):
        examples = [_make_example(rng, spec) for _ in range(size)]
        splits.append(Dataset(spec.task, spec.n_classes, examples))
    return DataSplits(*splits)

