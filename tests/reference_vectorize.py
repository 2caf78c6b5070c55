"""Reference featurizer: the straight-line string build_vocabulary/transform.

This is the per-row featurization the grid used before it shared counts
across rows. It is kept here as the oracle the counting/weighting split and
the spec restriction in urdufake.vectorize are checked against, byte for
byte.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np
from scipy import sparse

from urdufake.vectorize import NgramSpec, Vocabulary, VectorizeError, doc_terms


def reference_build_vocabulary(docs, spec: NgramSpec) -> Vocabulary:
    if not docs:
        raise VectorizeError("cannot build a vocabulary from an empty corpus")
    df: Counter[str] = Counter()
    for doc in docs:
        df.update(set(doc_terms(doc, spec)))
    if not df:
        raise VectorizeError("all documents produced zero terms")
    terms = sorted(df)
    term_to_index = {t: i for i, t in enumerate(terms)}
    doc_freq = np.fromiter((df[t] for t in terms), dtype=np.int64, count=len(terms))
    return Vocabulary(term_to_index=term_to_index, doc_freq=doc_freq, n_docs=len(docs))


def reference_idf(vocabulary: Vocabulary) -> np.ndarray:
    """Smoothed idf: ln((1 + N) / (1 + df)) + 1."""
    n = vocabulary.n_docs
    return np.log((1.0 + n) / (1.0 + vocabulary.doc_freq.astype(np.float64))) + 1.0


def reference_transform(docs, vocabulary: Vocabulary, spec: NgramSpec) -> sparse.csr_matrix:
    vocab = vocabulary.term_to_index
    idf = reference_idf(vocabulary)
    indptr = [0]
    indices: list[int] = []
    data: list[float] = []
    for doc in docs:
        counts = Counter(doc_terms(doc, spec))
        cols = sorted(vocab[t] for t in counts if t in vocab)
        if cols:
            vals = np.empty(len(cols), dtype=np.float64)
            terms_by_col = {vocab[t]: c for t, c in counts.items() if t in vocab}
            for k, col in enumerate(cols):
                vals[k] = terms_by_col[col] * idf[col]
            norm = math.sqrt(float(np.dot(vals, vals)))
            if norm > 0.0:
                vals /= norm
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
    return X


def csr_bytes(X: sparse.csr_matrix) -> tuple:
    """Everything that makes two CSR matrices byte-identical."""
    return (X.shape, X.data.dtype.str, X.data.tobytes(), X.indices.dtype.str,
            X.indices.tobytes(), X.indptr.dtype.str, X.indptr.tobytes())
