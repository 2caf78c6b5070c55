"""Reference featurizer: the straight-line string build_vocabulary/transform.

Every n-gram is built as its namespaced string ("w2:a b", "c3:abc"),
counted with a Counter and looked up in a dict, with columns in sorted term
order. This is the featurizer urdufake.vectorize replaced with integer
keys, and the per-row featurization the grid used before it shared counts
across rows. It is kept here as the oracle the integer keys, the
counting/weighting split and the spec restriction are checked against,
byte for byte.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Iterable, Sequence

import numpy as np
from scipy import sparse

from urdufake.preprocess import PreprocessedDoc
from urdufake.vectorize import NgramSpec, Symbols, Vocabulary, VectorizeError, _ngrams


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


def doc_terms(doc, spec: NgramSpec) -> list[str]:
    terms: list[str] = []
    if spec.word_orders:
        terms.extend(word_ngrams(doc.tokens, spec.word_orders))
    if spec.char_orders:
        terms.extend(char_ngrams(doc.char_stream, spec.char_orders))
    return terms


def reference_terms(docs, spec: NgramSpec) -> tuple[list[str], np.ndarray]:
    """The sorted distinct terms of docs and their document frequencies."""
    if not docs:
        raise VectorizeError("cannot build a vocabulary from an empty corpus")
    df: Counter[str] = Counter()
    for doc in docs:
        df.update(set(doc_terms(doc, spec)))
    if not df:
        raise VectorizeError("all documents produced zero terms")
    terms = sorted(df)
    return terms, np.fromiter((df[t] for t in terms), dtype=np.int64, count=len(terms))


def reference_symbols(docs, spec: NgramSpec) -> Symbols:
    """Every code point of the docs' char streams and every token, each
    sorted, for a spec with char and word orders respectively."""
    chars = sorted({c for d in docs for c in d.char_stream}) if spec.char_orders else []
    words = sorted({t for d in docs for t in d.tokens}) if spec.word_orders else []
    return Symbols(alphabet=np.array([ord(c) for c in chars], dtype=np.uint32),
                   words=tuple(words))


def vocabulary_of_terms(terms: Sequence[str], doc_freq: np.ndarray, n_docs: int,
                        symbols: Symbols) -> Vocabulary:
    """The vocabulary of these sorted, distinct terms, each coded into its
    key over the rank tables symbols."""
    namespaces = [term.partition(":")[0] + ":" for term in terms]
    if namespaces != sorted(namespaces):
        raise VectorizeError("terms are not sorted")
    docs: dict[str, list[PreprocessedDoc]] = {}
    for ns, term in zip(namespaces, terms):
        body = term[len(ns):]
        docs.setdefault(ns, []).append(PreprocessedDoc((), body) if ns[0] == "c"
                                       else PreprocessedDoc.from_tokens(body.split(" ")))
    keys = {}
    for ns, ns_docs in docs.items():
        found, doc = _ngrams(ns_docs, (ns,), symbols).get(ns, ((), ()))
        if not np.array_equal(doc, np.arange(len(ns_docs))) or np.any(found[1:] <= found[:-1]):
            raise VectorizeError(f"{ns} terms are not distinct, sorted {ns[1]}-grams "
                                 "of the rank tables' symbols")
        keys[ns] = found
    return Vocabulary(symbols=symbols, keys=keys, doc_freq=np.asarray(doc_freq, dtype=np.int64),
                      n_docs=n_docs)


def reference_build_vocabulary(docs, spec: NgramSpec) -> Vocabulary:
    terms, doc_freq = reference_terms(docs, spec)
    return vocabulary_of_terms(terms, doc_freq, len(docs), reference_symbols(docs, spec))


def reference_counts(docs, terms: Sequence[str], spec: NgramSpec) -> sparse.csr_matrix:
    """Raw counts of the terms in each doc, int64 CSR with ascending columns."""
    index = {t: i for i, t in enumerate(terms)}
    indptr, indices, data = [0], [], []
    for doc in docs:
        counts = Counter(t for t in doc_terms(doc, spec) if t in index)
        for col, term in sorted((index[t], t) for t in counts):
            indices.append(col)
            data.append(counts[term])
        indptr.append(len(indices))
    return sparse.csr_matrix(
        (np.asarray(data, dtype=np.int64), np.asarray(indices, dtype=np.int64),
         np.asarray(indptr, dtype=np.int64)),
        shape=(len(docs), len(terms)),
    )


def reference_idf(vocabulary: Vocabulary) -> np.ndarray:
    """Smoothed idf: ln((1 + N) / (1 + df)) + 1."""
    n = vocabulary.n_docs
    return np.log((1.0 + n) / (1.0 + vocabulary.doc_freq.astype(np.float64))) + 1.0


def reference_tfidf(docs, vocabulary: Vocabulary, spec: NgramSpec
                    ) -> tuple[sparse.csr_matrix, np.ndarray]:
    """The TF-IDF rows of docs and the norm each was divided by (1.0 for a
    row with nothing to divide)."""
    vocab = {t: i for i, t in enumerate(vocabulary.terms_by_index())}
    idf = reference_idf(vocabulary)
    indptr = [0]
    indices: list[int] = []
    data: list[float] = []
    norms = np.ones(len(docs))
    for i, doc in enumerate(docs):
        counts = Counter(doc_terms(doc, spec))
        cols = sorted(vocab[t] for t in counts if t in vocab)
        if cols:
            vals = np.empty(len(cols), dtype=np.float64)
            terms_by_col = {vocab[t]: c for t, c in counts.items() if t in vocab}
            for k, col in enumerate(cols):
                vals[k] = terms_by_col[col] * idf[col]
            # the sum of squares as apply_tfidf takes it: one np.add.reduceat
            # segment, which no BLAS thread count reorders
            norm = math.sqrt(float(np.add.reduceat(vals * vals, [0])[0]))
            if norm > 0.0:
                vals /= norm
                norms[i] = norm
            indices.extend(cols)
            data.extend(vals.tolist())
        indptr.append(len(indices))
    X = sparse.csr_matrix(
        (np.asarray(data, dtype=np.float64),
         np.asarray(indices, dtype=np.int64),
         np.asarray(indptr, dtype=np.int64)),
        shape=(len(docs), vocabulary.size),
    )
    X.eliminate_zeros()
    return X, norms


def reference_transform(docs, vocabulary: Vocabulary, spec: NgramSpec) -> sparse.csr_matrix:
    return reference_tfidf(docs, vocabulary, spec)[0]


def csr_bytes(X: sparse.csr_matrix) -> tuple:
    """Everything that makes two CSR matrices byte-identical."""
    return (X.shape, X.data.dtype.str, X.data.tobytes(), X.indices.dtype.str,
            X.indices.tobytes(), X.indptr.dtype.str, X.indptr.tobytes())
