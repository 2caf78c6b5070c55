import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from urdufake.selection import (
    SelectionError,
    SelectionMask,
    apply_mask,
    chi2_scores,
    select_k_best,
)

from conftest import stable_k_best


def brute_force_chi2(X_dense: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Independent O/E reference: explicit loops over classes and features."""
    classes = sorted(set(y.tolist()))
    n = len(y)
    scores = np.zeros(X_dense.shape[1])
    for j in range(X_dense.shape[1]):
        observed = [sum(X_dense[i, j] for i in range(n) if y[i] == c) for c in classes]
        total = sum(observed)
        if total == 0:
            continue
        score = 0.0
        for c_idx, c in enumerate(classes):
            prior = sum(1 for v in y if v == c) / n
            expected = prior * total
            score += (observed[c_idx] - expected) ** 2 / expected
        scores[j] = score
    return scores


def per_class_chi2(X, y):
    """chi2_scores with each class's column sums taken from a copy of its
    rows: the reference its single product must equal bit for bit."""
    classes, y_idx = np.unique(y, return_inverse=True)
    observed = np.empty((classes.size, X.shape[1]), dtype=np.float64)
    for c in range(classes.size):
        observed[c] = np.asarray(X[y_idx == c].sum(axis=0)).ravel()
    feature_total = observed.sum(axis=0)
    priors = np.bincount(y_idx, minlength=classes.size).astype(np.float64) / y.shape[0]
    expected = priors[:, None] * feature_total[None, :]
    safe = np.where(expected > 0.0, expected, 1.0)
    scores = ((observed - expected) ** 2 / safe).sum(axis=0)
    scores[feature_total == 0.0] = 0.0
    return scores


@settings(max_examples=100, deadline=None)
@given(st.sampled_from((2, 3, 9)), st.integers(2, 40), st.integers(1, 30),
       st.integers(0, 2**32 - 1))
def test_chi2_equals_the_per_class_row_sums_bit_for_bit(n_classes, n_docs, n_feat, seed):
    rng = np.random.default_rng(seed)
    A = rng.random((n_docs, n_feat)) * (rng.random((n_docs, n_feat)) < 0.4)
    A[:, rng.random(n_feat) < 0.2] = 0.0  # empty columns
    X = sparse.csr_matrix(A)
    X.data[rng.random(X.nnz) < 0.1] = 0.0  # explicit zeros
    y = np.arange(n_docs) % n_classes
    rng.shuffle(y)
    assert chi2_scores(X, y).tobytes() == per_class_chi2(X, y).tobytes()


def test_chi2_hand_contingency_example():
    # one feature; class A docs have values [1, 0], class B docs [1, 2]
    X = sparse.csr_matrix(np.array([[1.0], [0.0], [1.0], [2.0]]))
    y = np.array(["A", "A", "B", "B"])
    assert chi2_scores(X, y)[0] == pytest.approx(1.0, abs=1e-12)


def test_chi2_zero_for_balanced_feature():
    X = sparse.csr_matrix(np.array([[2.0], [1.0], [1.0], [2.0]]))
    y = np.array([0, 0, 1, 1])
    assert chi2_scores(X, y)[0] == pytest.approx(0.0, abs=1e-12)


def test_chi2_zero_for_all_zero_feature():
    X = sparse.csr_matrix(np.zeros((4, 3)))
    y = np.array([0, 0, 1, 1])
    assert chi2_scores(X, y).tolist() == [0.0, 0.0, 0.0]


def test_chi2_rejects_negative_values():
    X = sparse.csr_matrix(np.array([[1.0, -0.5], [0.0, 1.0]]))
    with pytest.raises(SelectionError, match="non-negative"):
        chi2_scores(X, np.array([0, 1]))


def test_chi2_rejects_single_class():
    X = sparse.csr_matrix(np.ones((3, 2)))
    with pytest.raises(SelectionError, match="2 classes"):
        chi2_scores(X, np.array([1, 1, 1]))


def test_chi2_matches_brute_force_on_200_random_matrices():
    rng = np.random.default_rng(99)
    for _ in range(200):
        n_docs = int(rng.integers(2, 9))
        n_feat = int(rng.integers(1, 11))
        X = rng.random((n_docs, n_feat)) * (rng.random((n_docs, n_feat)) < 0.6)
        y = rng.integers(0, 2, size=n_docs)
        if len(set(y.tolist())) < 2:
            y[0] = 1 - y[0]
        got = chi2_scores(sparse.csr_matrix(X), y)
        want = brute_force_chi2(X, y)
        np.testing.assert_allclose(got, want, atol=1e-9, rtol=0)


def test_chi2_invariant_to_row_order():
    rng = np.random.default_rng(5)
    X = rng.random((8, 6))
    y = np.array([0, 1, 0, 1, 1, 0, 1, 0])
    perm = rng.permutation(8)
    a = chi2_scores(sparse.csr_matrix(X), y)
    b = chi2_scores(sparse.csr_matrix(X[perm]), y[perm])
    np.testing.assert_allclose(a, b, atol=1e-12)


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 8), st.integers(1, 10), st.integers(0, 2**32 - 1))
def test_chi2_oracle_property(n_docs, n_feat, seed):
    rng = np.random.default_rng(seed)
    X = rng.random((n_docs, n_feat)) * (rng.random((n_docs, n_feat)) < 0.5)
    y = rng.integers(0, 2, size=n_docs)
    if len(set(y.tolist())) < 2:
        y[0] = 1 - y[0]
    np.testing.assert_allclose(
        chi2_scores(sparse.csr_matrix(X), y), brute_force_chi2(X, y), atol=1e-9, rtol=0
    )


# --- select_k_best -----------------------------------------------------------

def test_select_k_best_basic():
    mask = select_k_best(np.array([0.1, 5.0, 3.0, 4.0]), 2)
    assert mask.kept.tolist() == [1, 3]
    assert mask.n_kept == 2


def test_select_k_best_tie_goes_to_lower_index():
    mask = select_k_best(np.array([5.0, 5.0, 1.0]), 1)
    assert mask.kept.tolist() == [0]


def test_select_k_best_clamps_with_warning():
    with pytest.warns(UserWarning, match="exceeds feature count"):
        mask = select_k_best(np.array([1.0, 2.0]), 10)
    assert mask.kept.tolist() == [0, 1]
    assert mask.n_kept == 2


def test_select_k_best_rejects_k_below_one():
    with pytest.raises(SelectionError):
        select_k_best(np.array([1.0]), 0)


def test_kept_scores_dominate_dropped():
    rng = np.random.default_rng(17)
    scores = rng.random(50)
    mask = select_k_best(scores, 20)
    dropped = np.setdiff1d(np.arange(50), mask.kept)
    assert scores[mask.kept].min() >= scores[dropped].max()


@given(st.lists(st.floats(min_value=0, max_value=100), min_size=1, max_size=40),
       st.integers(1, 40))
def test_select_k_best_size_property(scores, k):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        mask = select_k_best(np.array(scores), k)
    assert mask.n_kept == min(k, len(scores))
    assert (np.diff(mask.kept) > 0).all() or mask.n_kept <= 1


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from([0.0, 0.25, 1.0, 3.5]), min_size=1, max_size=60), st.data())
def test_select_k_best_keeps_the_stable_sort_cut_on_ties(scores, data):
    """Scores from a four-value set tie in long runs, so the K-th largest
    score is tied at almost every K; the kept columns are those the stable
    sort keeps, and the clamp warns exactly when K exceeds V."""
    scores = np.array(scores)
    k = data.draw(st.integers(1, scores.size + 2))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        kept = select_k_best(scores, k).kept
    assert kept.dtype == np.int64
    assert kept.tobytes() == stable_k_best(scores, k).tobytes()
    assert [str(w.message) for w in caught] == (
        [f"K={k} exceeds feature count V={scores.size}; keeping all features"]
        if k > scores.size else [])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_select_k_best_refuses_non_finite_scores(bad):
    # a NaN would break the threshold: [nan, 1, 2] at K=2 would keep one column
    for k in (1, 2, 3, 4):
        with pytest.raises(SelectionError, match="finite"):
            select_k_best(np.array([bad, 1.0, 2.0]), k)


# --- apply_mask --------------------------------------------------------------

def test_apply_mask_identity():
    X = sparse.csr_matrix(np.array([[1.0, 0.0, 2.0], [0.0, 3.0, 0.0]]))
    full = SelectionMask(kept=np.array([0, 1, 2]))
    np.testing.assert_array_equal(apply_mask(X, full).toarray(), X.toarray())


def test_apply_mask_single_column():
    X = sparse.csr_matrix(np.array([[1.0, 0.0, 2.0], [0.0, 3.0, 0.0]]))
    one = apply_mask(X, SelectionMask(kept=np.array([2])))
    assert one.shape == (2, 1)
    np.testing.assert_array_equal(one.toarray().ravel(), [2.0, 0.0])


def test_apply_mask_keeps_empty_rows_empty():
    X = sparse.csr_matrix(np.array([[0.0, 0.0], [1.0, 1.0]]))
    out = apply_mask(X, SelectionMask(kept=np.array([0])))
    assert out[0].nnz == 0


def test_apply_mask_out_of_range_rejected():
    X = sparse.csr_matrix(np.ones((2, 3)))
    with pytest.raises(SelectionError, match="out of range"):
        apply_mask(X, SelectionMask(kept=np.array([5])))


def test_mask_indices_must_increase():
    with pytest.raises(SelectionError):
        SelectionMask(kept=np.array([3, 1]))


def scipy_column_slice(X, mask):
    """The column slice apply_mask computes, by scipy fancy indexing: the oracle."""
    out = sparse.csr_matrix(X[:, mask.kept])
    out.sort_indices()
    out.eliminate_zeros()
    return out


def random_masks(rng, v):
    """An empty mask, masks keeping the first column only and the first and
    last, and random ones."""
    yield np.zeros(0, dtype=np.int64)
    yield np.array([0])
    yield np.unique([0, v - 1])
    for density in (0.1, 0.5, 1.0):
        yield np.flatnonzero(rng.random(v) < density)


def test_apply_mask_equals_scipy_column_slice_bit_for_bit():
    rng = np.random.default_rng(21)
    for trial in range(40):
        n, v = int(rng.integers(1, 12)), int(rng.integers(1, 40))
        A = rng.random((n, v)) * (rng.random((n, v)) < 0.4)
        A[rng.random(n) < 0.3] = 0.0  # empty rows
        X = sparse.csr_matrix(A.astype(np.float32) if trial % 4 == 0 else A)
        X.data[rng.random(X.nnz) < 0.1] = 0.0  # explicit zeros
        for kept in random_masks(rng, v):
            mask = SelectionMask(kept=kept)
            expected, out = scipy_column_slice(X, mask), apply_mask(X, mask)
            assert out.shape == expected.shape == (n, kept.size)
            for part in ("data", "indices", "indptr"):
                got, want = getattr(out, part), getattr(expected, part)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), part
            # a second call reuses the column map the first built
            again = apply_mask(X, mask)
            assert again.indices.tobytes() == out.indices.tobytes()

