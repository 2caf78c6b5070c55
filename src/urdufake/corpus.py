"""Labeled corpora: TSV loading, split-count validation, synthetic generation.

The on-disk format is a 3-column TSV (id, label, text). Labels are "Fake" or
"Real" (case-insensitive on input); the label column may be empty only for
unlabeled corpora. Tabs are not allowed inside the text column, so exporting
replaces them with a space.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Iterator, Sequence


class CorpusError(ValueError):
    """Malformed corpus file or invalid generator parameters."""


class Label(str, Enum):
    FAKE = "Fake"
    REAL = "Real"

    @classmethod
    def parse(cls, token: str) -> "Label":
        t = token.strip().lower()
        if t == "fake":
            return cls.FAKE
        if t == "real":
            return cls.REAL
        raise ValueError(f"unknown label {token!r} (expected 'Fake' or 'Real')")

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


SPLITS = ("train", "test", "unlabeled")


@dataclass(frozen=True)
class Document:
    id: str
    text: str
    label: Label | None = None


@dataclass(frozen=True)
class Corpus:
    documents: tuple[Document, ...]
    split: str

    def __post_init__(self) -> None:
        if self.split not in SPLITS:
            raise CorpusError(f"unknown split {self.split!r}, expected one of {SPLITS}")
        seen: set[str] = set()
        for doc in self.documents:
            if doc.id in seen:
                raise CorpusError(f"duplicate document id {doc.id!r}")
            seen.add(doc.id)

    def __len__(self) -> int:
        return len(self.documents)

    def __iter__(self) -> Iterator[Document]:
        return iter(self.documents)

    def labels(self) -> list[Label | None]:
        return [d.label for d in self.documents]

    def label_counts(self) -> dict[Label, int]:
        counts = {Label.FAKE: 0, Label.REAL: 0}
        for d in self.documents:
            if d.label is not None:
                counts[d.label] += 1
        return counts


@dataclass(frozen=True)
class SplitExpectation:
    total: int
    per_label: dict[Label, int]

    def __post_init__(self) -> None:
        if sum(self.per_label.values()) != self.total:
            raise CorpusError(
                f"per-label counts {dict(self.per_label)} do not sum to total {self.total}"
            )


#: Published size of the shared-task training split: 1300 documents,
#: 750 Real and 550 Fake.
TRAIN_EXPECTATION = SplitExpectation(1300, {Label.REAL: 750, Label.FAKE: 550})
#: Published size of the shared-task test split: 300 documents, 200 Real / 100 Fake.
TEST_EXPECTATION = SplitExpectation(300, {Label.REAL: 200, Label.FAKE: 100})


@dataclass(frozen=True)
class SplitReport:
    """Actual vs expected per-label counts. Pass iff every count matches exactly."""

    split: str
    total_actual: int
    total_expected: int
    per_label: dict[Label, tuple[int, int]]  # label -> (actual, expected)

    @property
    def passed(self) -> bool:
        if self.total_actual != self.total_expected:
            return False
        return all(a == e for a, e in self.per_label.values())

    @property
    def status(self) -> str:
        return "pass" if self.passed else "warn"

    def as_text(self) -> str:
        lines = [f"split check [{self.split}]: {self.status}"]
        rows = [("total", self.total_actual, self.total_expected)] + [
            (label.value, a, e) for label, (a, e) in sorted(self.per_label.items())
        ]
        for name, actual, expected in rows:
            delta = actual - expected
            note = "ok" if delta == 0 else f"delta {delta:+d}"
            lines.append(f"  {name:<8} actual {actual:>6}  expected {expected:>6}  {note}")
        return "\n".join(lines)

    def as_kv(self) -> str:
        pairs = [("split", self.split), ("status", self.status),
                 ("total_actual", self.total_actual), ("total_expected", self.total_expected)]
        for label, (a, e) in sorted(self.per_label.items()):
            pairs.append((f"{label.value.lower()}_actual", a))
            pairs.append((f"{label.value.lower()}_expected", e))
        return "\n".join(f"{k}={v}" for k, v in pairs)


def read_lines(path: str | Path, error: type[Exception]) -> list[str]:
    """The lines of a UTF-8 text file, as iterating over the open file gives
    them; a file that is not UTF-8 raises error, naming it."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.readlines()
    except UnicodeDecodeError as exc:
        raise error(f"{Path(path).name} is not UTF-8 text ({exc.reason})") from exc


def load_corpus(path: str | Path, split: str) -> Corpus:
    """Load a 3-column TSV (id, label, text) into a Corpus.

    Empty lines are skipped. Any row with a column count other than 3, an
    unknown label token, a missing label on a labeled split, or text that is
    empty after trimming raises CorpusError naming the 1-based line number.
    """
    path = Path(path)
    if split not in SPLITS:
        raise CorpusError(f"unknown split {split!r}, expected one of {SPLITS}")
    docs: list[Document] = []
    for lineno, raw in enumerate(read_lines(path, CorpusError), start=1):
        line = raw.rstrip("\n").rstrip("\r")
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            raise CorpusError(f"{path.name}:{lineno}: expected 3 tab-separated columns, "
                              f"got {len(fields)}")
        doc_id, label_token, text = fields
        label: Label | None = None
        if label_token.strip():
            try:
                label = Label.parse(label_token)
            except ValueError as exc:
                raise CorpusError(f"{path.name}:{lineno}: {exc}") from exc
        elif split in ("train", "test"):
            raise CorpusError(f"{path.name}:{lineno}: missing label on {split} split")
        if not text.strip():
            raise CorpusError(f"{path.name}:{lineno}: empty text")
        docs.append(Document(id=doc_id, text=text, label=label))
    return Corpus(documents=tuple(docs), split=split)


def save_corpus(corpus: Corpus, path: str | Path) -> None:
    """Write a corpus back to TSV; tabs inside text are replaced by a space."""
    with open(path, "w", encoding="utf-8") as fh:
        for doc in corpus.documents:
            label = doc.label.value if doc.label is not None else ""
            text = doc.text.replace("\t", " ").replace("\n", " ")
            fh.write(f"{doc.id}\t{label}\t{text}\n")


def validate_split(corpus: Corpus, expected: SplitExpectation) -> SplitReport:
    """Compare corpus label counts against an expectation. Never raises."""
    counts = corpus.label_counts()
    per_label = {
        label: (counts.get(label, 0), expected.per_label.get(label, 0))
        for label in set(counts) | set(expected.per_label)
    }
    return SplitReport(
        split=corpus.split,
        total_actual=len(corpus),
        total_expected=expected.total,
        per_label=per_label,
    )


#: Tokens shared between both classes of a synthetic corpus, mimicking topic-
#: neutral vocabulary. Kept short so class pools dominate the signal.
SHARED_NOISE_POOL = tuple(f"xshared{i}" for i in range(8))


def generate_synthetic(
    seed: int,
    per_class: int,
    class_vocabs: tuple[Sequence[str], Sequence[str]],
    doc_len: tuple[int, int] = (6, 14),
    *,
    split: str = "train",
    noise_pool: Sequence[str] = SHARED_NOISE_POOL,
    noise_rate: float = 0.1,
) -> Corpus:
    """Deterministic synthetic corpus: per_class docs per label.

    class_vocabs is (fake_pool, real_pool); the pools must be disjoint and
    non-empty. Each token is drawn from the document's class pool, except a
    noise_rate fraction drawn from the shared noise pool. Output depends only
    on the arguments.
    """
    fake_pool, real_pool = class_vocabs
    if not fake_pool or not real_pool:
        raise CorpusError("class vocabularies must be non-empty")
    overlap = set(fake_pool) & set(real_pool)
    if overlap:
        raise CorpusError(f"class vocabularies overlap: {sorted(overlap)[:5]}")
    lo, hi = doc_len
    if lo < 1 or hi < lo:
        raise CorpusError(f"bad doc_len range {doc_len}")
    if per_class < 1:
        raise CorpusError("per_class must be >= 1")

    rng = random.Random(seed)
    docs: list[Document] = []
    for label, pool in ((Label.FAKE, list(fake_pool)), (Label.REAL, list(real_pool))):
        for i in range(per_class):
            n_tokens = rng.randint(lo, hi)
            tokens = [
                rng.choice(noise_pool) if noise_pool and rng.random() < noise_rate
                else rng.choice(pool)
                for _ in range(n_tokens)
            ]
            docs.append(
                Document(
                    id=f"{split}-{label.value.lower()}-{i:05d}",
                    text=" ".join(tokens),
                    label=label,
                )
            )
    return Corpus(documents=tuple(docs), split=split)
