"""Combined word/char n-gram bag-of-words with TF-IDF weighting.

Terms are namespaced ("w2:..." for word bigrams, "c3:..." for character
trigrams) so word and character features can never collide. Column indices
are assigned by lexicographic term order, making the whole downstream
pipeline reproducible independent of document order.

Counting and weighting are separate steps: build_vocabulary/count_terms
give raw per-doc term counts, apply_tfidf weights them by the vocabulary's
idf and normalizes them. The vocabulary is the one owner of the weighting:
its idf is derived from its document frequencies, never stored apart. So
the counts of a spec that covers several others can be built once and
restricted to each (Vocabulary.restrict) with the same bytes as building
each on its own.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np
from scipy import sparse

from .preprocess import PreprocessedDoc


class VectorizeError(ValueError):
    pass


WORD_ORDER_RANGE = range(1, 5)
CHAR_ORDER_RANGE = range(2, 7)


@dataclass(frozen=True)
class NgramSpec:
    """Which n-gram orders to extract: word n in 1..4, char n in 2..6."""

    word_orders: frozenset[int] = frozenset()
    char_orders: frozenset[int] = frozenset()

    def __post_init__(self) -> None:
        object.__setattr__(self, "word_orders", frozenset(self.word_orders))
        object.__setattr__(self, "char_orders", frozenset(self.char_orders))
        if not self.word_orders and not self.char_orders:
            raise VectorizeError("at least one of word_orders/char_orders must be non-empty")
        bad_w = self.word_orders - set(WORD_ORDER_RANGE)
        if bad_w:
            raise VectorizeError(f"word orders {sorted(bad_w)} outside supported range 1..4")
        bad_c = self.char_orders - set(CHAR_ORDER_RANGE)
        if bad_c:
            raise VectorizeError(f"char orders {sorted(bad_c)} outside supported range 2..6")

    def namespaces(self) -> frozenset[str]:
        """The term prefixes this spec produces: "w1:", "c3:", ..."""
        return frozenset({f"w{n}:" for n in self.word_orders}
                         | {f"c{n}:" for n in self.char_orders})

    @staticmethod
    def union(specs: Iterable[NgramSpec]) -> NgramSpec:
        specs = list(specs)
        return NgramSpec(frozenset().union(*(s.word_orders for s in specs)),
                         frozenset().union(*(s.char_orders for s in specs)))

    def describe(self) -> str:
        w = ",".join(str(n) for n in sorted(self.word_orders)) or "-"
        c = ",".join(str(n) for n in sorted(self.char_orders)) or "-"
        return f"word n={w} char n={c}"


def word_ngrams(tokens: Sequence[str], orders: Iterable[int]) -> list[str]:
    """All contiguous n-token windows, space-joined, prefixed "w{n}:".

    Generation order: ascending n, then left to right.
    """
    out: list[str] = []
    for n in sorted(set(orders)):
        prefix = f"w{n}:"
        for i in range(len(tokens) - n + 1):
            out.append(prefix + " ".join(tokens[i : i + n]))
    return out


def char_ngrams(char_stream: str, orders: Iterable[int]) -> list[str]:
    """All contiguous n-codepoint windows of the stream, prefixed "c{n}:".

    The stream is the space-joined token sequence, so windows cross token
    boundaries and include the separating spaces.
    """
    out: list[str] = []
    for n in sorted(set(orders)):
        prefix = f"c{n}:"
        for i in range(len(char_stream) - n + 1):
            out.append(prefix + char_stream[i : i + n])
    return out


def doc_terms(doc: PreprocessedDoc, spec: NgramSpec) -> list[str]:
    terms: list[str] = []
    if spec.word_orders:
        terms.extend(word_ngrams(doc.tokens, spec.word_orders))
    if spec.char_orders:
        terms.extend(char_ngrams(doc.char_stream, spec.char_orders))
    return terms


@dataclass(frozen=True)
class Vocabulary:
    """Dense term->column map with per-term document frequencies and the
    smoothed idf weights they imply.

    Indices run 0..V-1 in lexicographic term order. A vocabulary fresh from
    build_vocabulary also carries the raw term counts of the documents it
    was built from (see count_terms); one loaded from a model file, or held
    by a fitted pipeline, has none.
    """

    term_to_index: dict[str, int]
    doc_freq: np.ndarray  # int64, indexed by column
    n_docs: int
    counts: sparse.csr_matrix | None = field(default=None, repr=False, compare=False)

    @property
    def size(self) -> int:
        return len(self.term_to_index)

    @functools.cached_property
    def idf(self) -> np.ndarray:
        """Smoothed idf weights: idf[t] = ln((1 + N) / (1 + df[t])) + 1."""
        return np.log((1.0 + self.n_docs) / (1.0 + self.doc_freq.astype(np.float64))) + 1.0

    def terms_by_index(self) -> list[str]:
        return list(self._terms)

    @functools.cached_property
    def _terms(self) -> list[str]:
        out = [""] * self.size
        for term, idx in self.term_to_index.items():
            out[idx] = term
        return out

    def restrict(self, spec: NgramSpec) -> tuple[Vocabulary, np.ndarray]:
        """The terms in spec's namespaces, and the columns they hold here.

        When spec's orders are among those this vocabulary was built with,
        the result equals build_vocabulary(docs, spec) on the same documents,
        counts included: a term's df does not depend on the spec, and a
        subset of a sorted term list stays sorted. Each namespace ("w2:",
        "c3:", ...) is one contiguous run of columns.
        """
        terms = self._terms
        runs = []
        for ns in sorted(spec.namespaces()):
            lo = bisect.bisect_left(terms, ns)
            runs.append((lo, bisect.bisect_left(terms, ns[:-1] + _AFTER_COLON, lo)))
        cols = np.concatenate([np.arange(lo, hi, dtype=np.int64) for lo, hi in runs])
        if cols.size == 0:
            raise VectorizeError("all documents produced zero terms")
        if cols.size == self.size:
            return self, cols
        kept = list(itertools.chain.from_iterable(terms[lo:hi] for lo, hi in runs))
        return Vocabulary(term_to_index=dict(zip(kept, range(len(kept)))),
                          doc_freq=self.doc_freq[cols], n_docs=self.n_docs,
                          counts=None if self.counts is None else self.counts[:, cols]), cols


#: The character after ":", so "w2;" bounds the "w2:" namespace from above.
_AFTER_COLON = chr(ord(":") + 1)


def _count_docs(docs: Sequence[PreprocessedDoc], spec: NgramSpec,
                term_ids: dict[str, int], grow: bool) -> tuple[np.ndarray, ...]:
    """Flattened per-doc (indptr, term ids, counts) of each doc's terms.

    Terms missing from term_ids get the next free ids when grow is set and
    are dropped otherwise (test-time OOV). New ids follow set iteration
    order, which varies between processes; build_vocabulary renumbers
    columns by sorted term, so nothing downstream depends on it.
    """
    indptr = [0]
    ids: list[np.ndarray] = []
    counts: list[np.ndarray] = []
    for doc in docs:
        doc_counts = Counter(doc_terms(doc, spec))
        if grow:
            term_ids.update(zip(doc_counts.keys() - term_ids.keys(), itertools.count(len(term_ids))))
        n = len(doc_counts)
        doc_ids = np.fromiter(map(term_ids.get, doc_counts, itertools.repeat(-1)), np.int64, n)
        doc_n = np.fromiter(doc_counts.values(), np.int64, n)
        if not grow:
            known = doc_ids >= 0
            doc_ids, doc_n = doc_ids[known], doc_n[known]
        ids.append(doc_ids)
        counts.append(doc_n)
        indptr.append(indptr[-1] + doc_ids.size)
    return (np.asarray(indptr, dtype=np.int64),
            np.concatenate(ids) if ids else np.zeros(0, np.int64),
            np.concatenate(counts) if counts else np.zeros(0, np.int64))


def _count_matrix(indptr: np.ndarray, cols: np.ndarray, counts: np.ndarray,
                  n_cols: int) -> sparse.csr_matrix:
    X = sparse.csr_matrix((counts, cols, indptr), shape=(indptr.size - 1, n_cols))
    X.sort_indices()
    return X


def build_vocabulary(docs: Sequence[PreprocessedDoc], spec: NgramSpec) -> Vocabulary:
    """Union of all distinct namespaced terms with document frequencies, and
    the raw term counts of docs over it (Vocabulary.counts)."""
    if not docs:
        raise VectorizeError("cannot build a vocabulary from an empty corpus")
    term_ids: dict[str, int] = {}
    indptr, ids, counts = _count_docs(docs, spec, term_ids, grow=True)
    if not term_ids:
        raise VectorizeError("all documents produced zero terms")
    terms = sorted(term_ids)
    first_ids = np.fromiter(map(term_ids.__getitem__, terms), np.int64, len(terms))
    column_of = np.empty(len(terms), dtype=np.int64)
    column_of[first_ids] = np.arange(len(terms), dtype=np.int64)
    doc_freq = np.bincount(ids, minlength=len(terms)).astype(np.int64)[first_ids]
    return Vocabulary(
        term_to_index=dict(zip(terms, range(len(terms)))),
        doc_freq=doc_freq,
        n_docs=len(docs),
        counts=_count_matrix(indptr, column_of[ids], counts, len(terms)),
    )


def count_terms(
    docs: Sequence[PreprocessedDoc], vocabulary: Vocabulary, spec: NgramSpec
) -> sparse.csr_matrix:
    """Raw in-vocabulary term counts, one int64 row per doc, columns ascending.

    Terms absent from the vocabulary are ignored (test-time OOV).
    """
    indptr, cols, counts = _count_docs(docs, spec, vocabulary.term_to_index, grow=False)
    return _count_matrix(indptr, cols, counts, vocabulary.size)


def apply_tfidf(counts: sparse.csr_matrix, vocabulary: Vocabulary) -> sparse.csr_matrix:
    """Raw term counts over the vocabulary x its idf, L2-normalized per row.

    Each row's norm is taken with np.dot over that row's values in column
    order, so the result does not depend on which other rows or columns the
    counts came with. Documents with no in-vocabulary terms are all-zero rows.
    """
    if counts.shape[1] != vocabulary.size:
        raise VectorizeError(
            f"counts have {counts.shape[1]} columns, vocabulary has {vocabulary.size}"
        )
    if not counts.has_sorted_indices:
        counts = counts.sorted_indices()
    idf = vocabulary.idf
    indptr, indices = counts.indptr, counts.indices
    data = np.empty(counts.nnz, dtype=np.float64)
    for a, b in zip(indptr[:-1].tolist(), indptr[1:].tolist()):
        if a == b:
            continue
        vals = counts.data[a:b] * idf[indices[a:b]]
        norm = math.sqrt(float(np.dot(vals, vals)))
        if norm > 0.0:
            vals /= norm
        data[a:b] = vals
    X = sparse.csr_matrix(
        (data, indices.astype(np.int64), indptr.astype(np.int64)), shape=counts.shape
    )
    X.eliminate_zeros()
    return X


def transform(
    docs: Sequence[PreprocessedDoc], vocabulary: Vocabulary, spec: NgramSpec
) -> sparse.csr_matrix:
    """TF-IDF rows of docs: apply_tfidf of their count_terms."""
    return apply_tfidf(count_terms(docs, vocabulary, spec), vocabulary)


def write_vocabulary_tsv(vocabulary: Vocabulary, path: str | Path) -> None:
    """Dump as TSV (term, index, df), sorted by index."""
    terms = vocabulary.terms_by_index()
    with open(path, "w", encoding="utf-8") as fh:
        for idx, term in enumerate(terms):
            fh.write(f"{term}\t{idx}\t{int(vocabulary.doc_freq[idx])}\n")
