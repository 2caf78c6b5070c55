"""Combined word/char n-gram bag-of-words with TF-IDF weighting.

Terms are namespaced ("w2:..." for word bigrams, "c3:..." for character
trigrams) so word and character features can never collide. Column indices
are assigned by lexicographic term order, making the whole downstream
pipeline reproducible independent of document order.

Terms are counted, looked up and stored as exact integer keys; a term is
only spelled out as a string when it is printed (Vocabulary.terms_by_index).
The key coding:

- A vocabulary ranks the code points of its training documents' char
  streams (its alphabet, A symbols) and their word types (W symbols), each
  in ascending code-point order (Symbols).
- A char n-gram's key is the base-A number whose digits are the ranks of
  its n code points. All terms of one namespace have the same length, so
  keys compare as the strings do.
- A word n-gram's key is the base-W number of the ranks of its n tokens,
  with one trap: the term joins its tokens with spaces, and a token holding
  a code point below U+0020 sorts differently joined than alone
  ("w2:a\\x01 b" < "w2:a b" although "a" < "a\\x01"). So every token but
  the last is ranked by t + " " and the last by t. As no token holds a
  space, comparing two terms then stops inside the same token pair, at the
  same character, as comparing these digits does.
- A namespace's keys are uint64 while base ** n fits in 64 bits (A <= 1625
  code points for c6, W <= 65536 types for w4) and Python ints (numpy
  object arrays) beyond that, so keys are exact, with no overflow or
  collision, for any input.

The namespaces sort "c2:" < ... < "c6:" < "w1:" < ... < "w4:", so the
columns are each namespace's ascending keys in that order, one contiguous
run per namespace: exactly the lexicographic term order.

Counting and weighting are separate steps: build_vocabulary/count_terms
give raw per-doc term counts, apply_tfidf weights them by the vocabulary's
idf and normalizes them. The vocabulary is the one owner of the weighting:
its idf is derived from its document frequencies, never stored apart. So
the counts of a spec that covers several others can be built once and
restricted to each (Vocabulary.restrict) with the same bytes as building
each on its own.
"""

from __future__ import annotations

import functools
import itertools
import math
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


_NO_CODEPOINTS = np.zeros(0, dtype=np.uint32)


def _key_dtype(base: int, n: int) -> np.dtype:
    """uint64 while every n-digit base-`base` number fits, else Python ints."""
    return np.dtype(np.uint64) if base ** n <= 2 ** 64 else np.dtype(object)


def _codepoints(streams: list[str]) -> np.ndarray:
    return np.frombuffer("".join(streams).encode("utf-32-le", "surrogatepass"), dtype="<u4")


@dataclass(frozen=True, eq=False)
class Symbols:
    """The rank tables n-gram keys are written in: the code points of the
    training documents' char streams (when the spec has char orders) and
    their word types (when it has word orders), each ascending."""

    alphabet: np.ndarray  # uint32 code points
    words: tuple[str, ...]
    #: word -> its rank, the digit of an n-gram's last token
    word_rank: dict[str, int] = field(init=False, repr=False)
    #: each word's rank among the words as they sort with a space appended,
    #: the digit of a token that is not an n-gram's last
    lead_rank: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "word_rank", dict(zip(self.words, range(len(self.words)))))
        order = sorted(range(len(self.words)), key=lambda i: self.words[i] + " ")
        lead_rank = np.empty(len(order), dtype=np.int64)
        lead_rank[order] = np.arange(len(order), dtype=np.int64)
        object.__setattr__(self, "lead_rank", lead_rank)

    @classmethod
    def fit(cls, docs: Sequence[PreprocessedDoc], spec: NgramSpec) -> Symbols:
        """The tables of docs for spec. A token holding a space is refused:
        its word n-grams would join into the same term as other tokens'."""
        alphabet = _NO_CODEPOINTS
        if spec.char_orders:
            alphabet = np.unique(_codepoints([d.char_stream for d in docs]))
        words: tuple[str, ...] = ()
        if spec.word_orders:
            words = tuple(sorted(set(itertools.chain.from_iterable(d.tokens for d in docs))))
            spaced = next((w for w in words if " " in w), None)
            if spaced is not None:
                raise VectorizeError(f"token {spaced!r} contains a space")
        return cls(alphabet=alphabet, words=words)

    def for_spec(self, spec: NgramSpec) -> Symbols:
        """The tables fit(docs, spec) gives, for a spec whose orders are among
        those these were fitted for."""
        if ((spec.char_orders or not self.alphabet.size)
                and (spec.word_orders or not self.words)):
            return self
        return Symbols(alphabet=self.alphabet if spec.char_orders else _NO_CODEPOINTS,
                       words=self.words if spec.word_orders else ())


def _windows(ranks: np.ndarray, lead: np.ndarray, known: np.ndarray,
             lengths: list[int], base: int, orders: frozenset[int]
             ) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """Keys and document indices of every window of n known symbols inside
    one document, for each order n: the base-`base` number of the window's
    `lead` digits and its last symbol's `ranks` digit. Symbols are the
    concatenated documents' (lengths gives each document's count)."""
    total = ranks.size
    doc = np.repeat(np.arange(len(lengths), dtype=np.int64), lengths)
    pos = np.arange(total, dtype=np.int64)
    stop = np.cumsum(lengths, dtype=np.int64)[doc]
    if not known.all():
        unknown = np.append(np.flatnonzero(~known), total)
        stop = np.minimum(stop, unknown[np.searchsorted(unknown, pos)])
        ranks, lead = np.where(known, ranks, 0), np.where(known, lead, 0)
    run = stop - pos
    out = {}
    prefix = None
    for n in range(1, max(orders) + 1):
        m = total - n + 1
        if m <= 0:
            break
        dtype = _key_dtype(base, n)
        last = ranks[n - 1:].astype(dtype)
        keys = last if prefix is None else prefix[:m].astype(dtype, copy=False) * base + last
        if n in orders:
            ok = run[:m] >= n
            out[n] = keys[ok], doc[:m][ok]
        step = lead[n - 1:].astype(dtype)
        prefix = step if prefix is None else prefix[:m].astype(dtype, copy=False) * base + step
    return out


def _ngrams(docs: Sequence[PreprocessedDoc], spec: NgramSpec, symbols: Symbols
            ) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """namespace -> (keys, document indices) of every n-gram of docs made of
    symbols in the tables, in document order; namespaces in column order."""
    out = {}
    if spec.char_orders:
        streams = [d.char_stream for d in docs]
        cps = _codepoints(streams)
        alphabet = symbols.alphabet
        ranks = np.searchsorted(alphabet, cps)
        known = ranks < alphabet.size
        known[known] = alphabet[ranks[known]] == cps[known]
        windows = _windows(ranks, ranks, known, list(map(len, streams)), alphabet.size,
                           spec.char_orders)
        out.update((f"c{n}:", kd) for n, kd in windows.items())
    if spec.word_orders:
        tokens = list(itertools.chain.from_iterable(d.tokens for d in docs))
        ranks = np.fromiter(map(symbols.word_rank.get, tokens, itertools.repeat(-1)),
                            np.int64, len(tokens))
        known = ranks >= 0
        lead = symbols.lead_rank[np.where(known, ranks, 0)] if symbols.words else ranks
        windows = _windows(ranks, lead, known, [len(d.tokens) for d in docs],
                           len(symbols.words), spec.word_orders)
        out.update((f"w{n}:", kd) for n, kd in windows.items())
    return out


def _digits(keys: np.ndarray, base: int, n: int) -> list[np.ndarray]:
    """The n base-`base` digits of each key, most significant first."""
    out = []
    for _ in range(n):
        out.append((keys % base).astype(np.int64))
        keys = keys // base
    return out[::-1]


def _key_blob(keys: np.ndarray) -> np.ndarray:
    """uint64 keys as they are; Python-int keys as rows of 64-bit limbs,
    least significant first."""
    if keys.dtype != object:
        return keys
    limbs = max(1, -(-max(int(k).bit_length() for k in keys) // 64))
    mask = 2 ** 64 - 1
    return np.array([[(int(k) >> (64 * j)) & mask for j in range(limbs)] for k in keys],
                    dtype=np.uint64).reshape(len(keys), limbs)


def _keys_of_blob(blob: np.ndarray) -> np.ndarray:
    if blob.ndim == 1:
        return blob
    keys = np.zeros(blob.shape[0], dtype=object)
    for j in range(blob.shape[1]):
        keys = keys + (blob[:, j].astype(object) << (64 * j))
    return keys


@dataclass(frozen=True, eq=False)
class Vocabulary:
    """The terms, as the ascending keys of each non-empty namespace, with
    per-term document frequencies and the smoothed idf weights they imply.

    Indices run 0..V-1 in lexicographic term order. A vocabulary fresh from
    build_vocabulary also carries the raw term counts of the documents it
    was built from (see count_terms); one loaded from a model file, or held
    by a fitted pipeline, has none.
    """

    symbols: Symbols
    keys: dict[str, np.ndarray]  # namespace -> keys, namespaces in column order
    doc_freq: np.ndarray  # int64, indexed by column
    n_docs: int
    counts: sparse.csr_matrix | None = field(default=None, repr=False)

    @property
    def size(self) -> int:
        return int(self.doc_freq.size)

    @functools.cached_property
    def idf(self) -> np.ndarray:
        """Smoothed idf weights: idf[t] = ln((1 + N) / (1 + df[t])) + 1."""
        return np.log((1.0 + self.n_docs) / (1.0 + self.doc_freq.astype(np.float64))) + 1.0

    @functools.cached_property
    def _runs(self) -> dict[str, tuple[int, int]]:
        """namespace -> its [first, last + 1) columns."""
        ends = np.cumsum([k.size for k in self.keys.values()], dtype=np.int64)
        return {ns: (int(hi) - k.size, int(hi)) for (ns, k), hi in zip(self.keys.items(), ends)}

    def terms_by_index(self, columns: Sequence[int] | None = None) -> list[str]:
        """The terms of these columns (default: every column), as strings,
        in the order given."""
        cols = np.arange(self.size) if columns is None else np.asarray(columns, dtype=np.int64)
        order = np.argsort(cols, kind="stable")
        ranked = cols[order]
        out: list[str] = []
        for ns, keys in self.keys.items():
            lo, hi = self._runs[ns]
            first, last = np.searchsorted(ranked, (lo, hi))
            if first == last:
                continue
            keys, n = keys[ranked[first:last] - lo], int(ns[1])
            if ns[0] == "c":
                digits = _digits(keys, self.symbols.alphabet.size, n)
                text = np.stack([self.symbols.alphabet[d] for d in digits], axis=1)
                text = text.astype("<u4").tobytes().decode("utf-32-le", "surrogatepass")
                out.extend(ns + text[i:i + n] for i in range(0, len(text), n))
            else:
                words = np.array(self.symbols.words, dtype=object)
                digits = _digits(keys, len(self.symbols.words), n)
                by_lead = np.argsort(self.symbols.lead_rank)
                tokens = [words[by_lead[d]] for d in digits[:-1]] + [words[digits[-1]]]
                out.extend(ns + " ".join(t) for t in zip(*tokens))
        if columns is None:
            return out
        return [out[k] for k in np.argsort(order)]

    def restrict(self, spec: NgramSpec) -> tuple[Vocabulary, np.ndarray]:
        """The terms in spec's namespaces, and the columns they hold here.

        When spec's orders are among those this vocabulary was built with,
        the result equals build_vocabulary(docs, spec) on the same documents,
        counts included: a term's df and key do not depend on the spec, and
        each namespace is one contiguous run of columns.
        """
        kept = [ns for ns in self.keys if ns in spec.namespaces()]
        cols = np.concatenate([np.arange(*self._runs[ns], dtype=np.int64) for ns in kept]
                              or [np.zeros(0, np.int64)])
        if cols.size == 0:
            raise VectorizeError("all documents produced zero terms")
        symbols = self.symbols.for_spec(spec)
        if cols.size == self.size and symbols is self.symbols:
            return self, cols
        return Vocabulary(symbols=symbols, keys={ns: self.keys[ns] for ns in kept},
                          doc_freq=self.doc_freq[cols], n_docs=self.n_docs,
                          counts=None if self.counts is None else self.counts[:, cols]), cols

    @classmethod
    def from_terms(cls, terms: Sequence[str], doc_freq: np.ndarray, n_docs: int,
                   symbols: Symbols | None = None) -> Vocabulary:
        """The vocabulary of these sorted, distinct terms. The rank tables
        default to the code points of the char terms and the tokens of the
        word terms."""
        namespaces = [term.partition(":")[0] + ":" for term in terms]
        if namespaces != sorted(namespaces):
            raise VectorizeError("terms are not sorted")
        unknown = set(namespaces) - NgramSpec(WORD_ORDER_RANGE, CHAR_ORDER_RANGE).namespaces()
        if unknown:
            raise VectorizeError(f"unknown term namespaces {sorted(unknown)}")
        docs: dict[str, list[PreprocessedDoc]] = {}
        for ns, term in zip(namespaces, terms):
            body = term[len(ns):]
            docs.setdefault(ns, []).append(PreprocessedDoc((), body) if ns[0] == "c"
                                           else PreprocessedDoc.from_tokens(body.split(" ")))
        if symbols is None:
            chars = [d for ns in docs if ns[0] == "c" for d in docs[ns]]
            words = [d for ns in docs if ns[0] == "w" for d in docs[ns]]
            symbols = Symbols(alphabet=Symbols.fit(chars, NgramSpec(char_orders={2})).alphabet,
                              words=Symbols.fit(words, NgramSpec(word_orders={1})).words)
        keys = {}
        for ns, ns_docs in docs.items():
            n = int(ns[1])
            spec = NgramSpec(char_orders={n}) if ns[0] == "c" else NgramSpec(word_orders={n})
            found, doc = _ngrams(ns_docs, spec, symbols).get(ns, ((), ()))
            if not np.array_equal(doc, np.arange(len(ns_docs))) or np.any(found[1:] <= found[:-1]):
                raise VectorizeError(f"{ns} terms are not distinct, sorted {n}-grams "
                                     "of the rank tables' symbols")
            keys[ns] = found
        return cls(symbols=symbols, keys=keys, doc_freq=np.asarray(doc_freq, dtype=np.int64),
                   n_docs=n_docs)

    def blobs(self) -> tuple[dict[str, np.ndarray], dict[str, str]]:
        """The model-file arrays and texts from_blobs reads back."""
        arrays = {"doc_freq": self.doc_freq,
                  "vocab.n_docs": np.asarray([self.n_docs], dtype=np.int64),
                  "vocab.alphabet": self.symbols.alphabet}
        arrays.update((f"vocab.keys.{ns[:-1]}", _key_blob(k)) for ns, k in self.keys.items())
        return arrays, {"vocab.words": "".join(w + "\n" for w in self.symbols.words)}

    @classmethod
    def from_blobs(cls, arrays: dict[str, np.ndarray], texts: dict[str, str]) -> Vocabulary:
        """A vocabulary from blobs(), or from the term list of a file in
        model format major 1 or 2."""
        doc_freq, n_docs = arrays["doc_freq"], int(arrays["vocab.n_docs"][0])
        if "vocab.terms" in texts:
            terms = texts["vocab.terms"].split("\n") if texts["vocab.terms"] else []
            return cls.from_terms(terms, doc_freq, n_docs)
        symbols = Symbols(alphabet=arrays["vocab.alphabet"],
                          words=tuple(texts["vocab.words"].split("\n")[:-1]))
        prefix = "vocab.keys."
        keys = {name[len(prefix):] + ":": _keys_of_blob(blob)
                for name, blob in sorted(arrays.items()) if name.startswith(prefix)}
        return cls(symbols=symbols, keys=keys, doc_freq=doc_freq, n_docs=n_docs)


def _count_matrix(doc_parts: list[np.ndarray], col_parts: list[np.ndarray], n_docs: int,
                  n_cols: int) -> sparse.csr_matrix:
    """How often each column occurs in each document, as int64 CSR rows with
    ascending columns, from parts of the (document, column) occurrences."""
    pairs = np.concatenate([d * n_cols + c for d, c in zip(doc_parts, col_parts)]
                           or [np.zeros(0, np.int64)])
    pairs, counts = np.unique(pairs, return_counts=True)
    rows, cols = np.divmod(pairs, n_cols)
    indptr = np.searchsorted(rows, np.arange(n_docs + 1, dtype=np.int64))
    X = sparse.csr_matrix((counts.astype(np.int64), cols, indptr.astype(np.int64)),
                          shape=(n_docs, n_cols))
    X.sort_indices()
    return X


def build_vocabulary(docs: Sequence[PreprocessedDoc], spec: NgramSpec) -> Vocabulary:
    """Union of all distinct namespaced terms with document frequencies, and
    the raw term counts of docs over it (Vocabulary.counts)."""
    if not docs:
        raise VectorizeError("cannot build a vocabulary from an empty corpus")
    symbols = Symbols.fit(docs, spec)
    ngrams = _ngrams(docs, spec, symbols)
    keys, doc_parts, col_parts = {}, [], []
    size = 0
    for ns in sorted(ngrams):
        k, doc = ngrams.pop(ns)  # each namespace's occurrences are freed once coded
        if k.size:
            keys[ns], at = np.unique(k, return_inverse=True)
            doc_parts.append(doc)
            col_parts.append(size + at)
            size += keys[ns].size
    if not size:
        raise VectorizeError("all documents produced zero terms")
    counts = _count_matrix(doc_parts, col_parts, len(docs), size)
    return Vocabulary(
        symbols=symbols,
        keys=keys,
        doc_freq=np.bincount(counts.indices, minlength=size).astype(np.int64),
        n_docs=len(docs),
        counts=counts,
    )


def count_terms(
    docs: Sequence[PreprocessedDoc], vocabulary: Vocabulary, spec: NgramSpec
) -> sparse.csr_matrix:
    """Raw in-vocabulary term counts, one int64 row per doc, columns ascending.

    Terms absent from the vocabulary are ignored (test-time OOV).
    """
    doc_parts, col_parts = [], []
    for ns, (keys, doc) in _ngrams(docs, spec, vocabulary.symbols).items():
        if ns not in vocabulary.keys:
            continue
        # binary searches for keys in ascending order stay in the cache
        order = np.argsort(keys)
        keys, doc = keys[order], doc[order]
        known = vocabulary.keys[ns]
        at = np.searchsorted(known, keys)
        found = at < known.size
        found[found] = known[at[found]] == keys[found]
        doc_parts.append(doc[found])
        col_parts.append(vocabulary._runs[ns][0] + at[found])
    return _count_matrix(doc_parts, col_parts, len(docs), vocabulary.size)


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
