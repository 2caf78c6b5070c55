"""Chi-squared feature scoring and K-best selection.

Scores are computed on the (non-negative) TF-IDF values directly: observed
per-class feature mass vs the mass expected from class priors.
"""

from __future__ import annotations

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
    observed = np.empty((n_classes, X.shape[1]), dtype=np.float64)
    for c in range(n_classes):
        observed[c] = np.asarray(X[y_idx == c].sum(axis=0)).ravel()
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


def feature_order(scores: np.ndarray) -> np.ndarray:
    """Column indices by descending score; ties keep the lower index first."""
    return np.argsort(-np.asarray(scores, dtype=np.float64), kind="stable")


def select_top(order: np.ndarray, k: int) -> SelectionMask:
    """Mask of the first K columns of a feature_order.

    K larger than the feature count clamps to all features with a warning.
    """
    if k < 1:
        raise SelectionError(f"K must be >= 1, got {k}")
    v = order.shape[0]
    if k > v:
        warnings.warn(f"K={k} exceeds feature count V={v}; keeping all features", stacklevel=2)
    return SelectionMask(kept=np.sort(order[: min(k, v)]))


def select_k_best(scores: np.ndarray, k: int) -> SelectionMask:
    """Mask of the K highest-scoring features; ties break to the lower index.

    K larger than the feature count clamps to all features with a warning.
    """
    return select_top(feature_order(scores), k)


def apply_mask(X: sparse.spmatrix, mask: SelectionMask) -> sparse.csr_matrix:
    """Column-slice X down to the kept features, re-indexed 0..K-1 in order."""
    X = sparse.csr_matrix(X)
    if mask.kept.size and int(mask.kept.max()) >= X.shape[1]:
        raise SelectionError(
            f"mask index {int(mask.kept.max())} out of range for {X.shape[1]} columns"
        )
    out = sparse.csr_matrix(X[:, mask.kept])
    out.sort_indices()
    out.eliminate_zeros()
    return out
