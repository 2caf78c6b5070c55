"""Seeded generator of a corpus shaped like the Urdu fake-news shared task.

The benchmark writes the corpus to TSV files and the program under test only
ever reads those files, so the program sees nothing of the seed.

Shape (the one the ROADMAP baseline was measured on): 15,000 random
Urdu-script word types of 3-7 letters; each document has 80-450 tokens
drawn Zipf(1/r) over the type ranks; Real documents shift every rank above
200 by 37 (wrapping inside the tail), so the classes share their head words
and differ in the tail. The full-size split is 550 Fake / 750 Real for
training and 100 Fake / 200 Real for testing; callers pick smaller counts
with the same ratios.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

#: Letters of the Urdu alphabet (base forms, no diacritics), so the
#: program's normalization and diacritic stripping leave the words intact.
URDU_LETTERS = (
    "ابپتٹثجچحخدڈ"
    "ذرڑزژسشصضطظع"
    "غفقکگلمنوہھء"
    "یے"
)
N_TYPES = 15_000
HEAD_RANKS = 200
REAL_SHIFT = 37
DOC_TOKENS = (80, 450)


def word_types(rng: np.random.Generator, n_types: int = N_TYPES) -> list[str]:
    """n_types distinct random Urdu-letter words, in rank order.

    The length cycles 3, 4, 5, 6, 7 with the rank, so the frequent head words,
    and with them the character count of a document, are the same length
    whatever the seed.
    """
    seen: set[str] = set()
    words: list[str] = []
    while len(words) < n_types:
        length = 3 + len(words) % 5
        word = "".join(URDU_LETTERS[i] for i in rng.integers(0, len(URDU_LETTERS), length))
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


def shifted_rank(ranks: np.ndarray, n_types: int = N_TYPES) -> np.ndarray:
    """Real-class rank map: ranks above HEAD_RANKS move by REAL_SHIFT, wrapping."""
    tail = n_types - HEAD_RANKS
    moved = HEAD_RANKS + (ranks - HEAD_RANKS - 1 + REAL_SHIFT) % tail + 1
    return np.where(ranks > HEAD_RANKS, moved, ranks)


def make_docs(rng, words, n_fake, n_real, split):
    """(id, label, text) rows, Fake and Real interleaved in a seeded order.

    Document lengths are spread evenly over the DOC_TOKENS range and then
    shuffled, so every seed gives a split the same total size and the
    benchmark's timings vary with the content, not with how long the
    documents happened to be.
    """
    n_types = len(words)
    cdf = np.cumsum(1.0 / np.arange(1, n_types + 1))
    cdf /= cdf[-1]
    n_docs = n_fake + n_real
    labels = rng.permutation(["Fake"] * n_fake + ["Real"] * n_real)
    lengths = rng.permutation(np.linspace(*DOC_TOKENS, n_docs).round().astype(int))
    rows = []
    for i, (label, n_tokens) in enumerate(zip(labels, lengths)):
        ranks = np.searchsorted(cdf, rng.random(n_tokens), side="right") + 1
        ranks = np.minimum(ranks, n_types)
        if label == "Real":
            ranks = shifted_rank(ranks, n_types)
        rows.append((f"{split}-{i:05d}", str(label), " ".join(words[r - 1] for r in ranks)))
    return rows


def write_tsv(rows, path: Path) -> Path:
    with open(path, "w", encoding="utf-8") as fh:
        for doc_id, label, text in rows:
            fh.write(f"{doc_id}\t{label}\t{text}\n")
    return path


def generate(seed: int, out_dir: Path, splits: dict[str, tuple[int, int]]) -> dict[str, Path]:
    """Write one <name>.tsv per split under out_dir; same seed, same bytes.

    splits maps a split name to its (Fake, Real) counts; the splits are drawn
    in the given order from one word list and one random stream.
    """
    rng = np.random.default_rng(seed)
    words = word_types(rng)
    out_dir.mkdir(parents=True, exist_ok=True)
    return {
        name: write_tsv(make_docs(rng, words, n_fake, n_real, name), out_dir / f"{name}.tsv")
        for name, (n_fake, n_real) in splits.items()
    }

