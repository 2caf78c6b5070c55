"""Chi-squared feature scoring and K-best selection.

Scores are computed on the (non-negative) TF-IDF values directly: observed
per-class feature mass vs the mass expected from class priors. K-best cuts
the columns at the K-th largest score, without sorting them.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import sparse


class SelectionError(ValueError):
    pass


def chi2_scores(X: sparse.spmatrix, y) -> np.ndarray:
    """Per-feature chi-squared statistic between class mass and prior-expected mass.

    For feature j with per-class sums O_cj, feature total F_j and class
    priors p_c: score_j = sum_c (O_cj - p_c F_j)^2 / (p_c F_j), defined as 0
    when F_j = 0. Requires non-negative X and at least two classes.
    """
    X = sparse.csr_matrix(X)
    if X.nnz and X.data.min() < 0:
        raise SelectionError("chi-squared requires non-negative feature values")
    y = np.asarray(y)
    if y.shape[0] != X.shape[0]:
        raise SelectionError(f"got {X.shape[0]} rows but {y.shape[0]} labels")
    classes, y_idx = np.unique(y, return_inverse=True)
    if classes.size < 2:
        raise SelectionError("chi-squared needs at least 2 classes present")

    n_classes = classes.size
    # one product adds each class's rows of a column in row order, as a
    # per-class row sum would, without copying the class's rows; in C order,
    # so that the sums over the classes below add them in class order
    indicator = np.zeros((y.shape[0], n_classes))
    indicator[np.arange(y.shape[0]), y_idx] = 1.0
    observed = np.ascontiguousarray((X.T @ indicator).T)
    feature_total = observed.sum(axis=0)
    priors = np.bincount(y_idx, minlength=n_classes).astype(np.float64) / y.shape[0]
    expected = priors[:, None] * feature_total[None, :]

    safe = np.where(expected > 0.0, expected, 1.0)
    scores = ((observed - expected) ** 2 / safe).sum(axis=0)
    scores[feature_total == 0.0] = 0.0
    if not np.all(np.isfinite(scores)):
        raise SelectionError("non-finite chi-squared score (non-finite input?)")
    return scores


@dataclass(frozen=True)
class SelectionMask:
    """Kept column indices, strictly ascending."""

    kept: np.ndarray

    def __post_init__(self) -> None:
        kept = np.asarray(self.kept, dtype=np.int64)
        object.__setattr__(self, "kept", kept)
        if kept.size and np.any(np.diff(kept) <= 0):
            raise SelectionError("mask indices must be strictly increasing")

    @property
    def n_kept(self) -> int:
        return int(self.kept.size)

    @functools.cached_property
    def column_map(self) -> np.ndarray:
        """Each column's index among the kept ones, or -1, for the columns up
        to one past the last kept; that last -1 stands for every column
        beyond it."""
        top = int(self.kept[-1]) + 1 if self.kept.size else 0
        cmap = np.full(top + 1, -1, dtype=np.int32)
        cmap[self.kept] = np.arange(self.kept.size, dtype=np.int32)
        return cmap


def select_k_best(scores: np.ndarray, k: int) -> SelectionMask:
    """Mask of the K highest-scoring features; ties break to the lower index.

    The first K columns of a stable descending sort, found in O(V) from the
    K-th largest score. K larger than the feature count clamps to all
    features with a warning; non-finite scores are refused.
    """
    if k < 1:
        raise SelectionError(f"K must be >= 1, got {k}")
    scores = np.asarray(scores, dtype=np.float64)
    if not np.isfinite(scores).all():
        raise SelectionError("scores must be finite")
    v = scores.shape[0]
    if k > v:
        warnings.warn(f"K={k} exceeds feature count V={v}; keeping all features", stacklevel=2)
    if k >= v:
        return SelectionMask(kept=np.arange(v))
    threshold = np.partition(scores, v - k)[v - k]
    keep = scores > threshold
    keep[np.flatnonzero(scores == threshold)[: k - np.count_nonzero(keep)]] = True
    return SelectionMask(kept=np.flatnonzero(keep))


def apply_mask(X: sparse.spmatrix, mask: SelectionMask) -> sparse.csr_matrix:
    """Column-slice X down to the kept features, re-indexed 0..K-1 in order,
    without explicit zeros; O(nnz) once the mask has built its column_map."""
    X = sparse.csr_matrix(X)
    if mask.kept.size and int(mask.kept[-1]) >= X.shape[1]:
        raise SelectionError(
            f"mask index {int(mask.kept[-1])} out of range for {X.shape[1]} columns"
        )
    cols = mask.column_map.take(X.indices, mode="clip")
    at = np.flatnonzero(cols >= 0)
    at = at[X.data[at] != 0]
    out = sparse.csr_matrix((X.data[at], cols[at], np.searchsorted(at, X.indptr)),
                            shape=(X.shape[0], mask.n_kept))
    out.sort_indices()
    return out
