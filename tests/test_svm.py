import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import sparse

from urdufake import svm
from urdufake.corpus import Label
from urdufake.svm import (
    KernelParams,
    SvmError,
    SvmModel,
    decision_function,
    labels_to_signs,
    signs_to_labels,
    train_svm,
)


def dense_poly_kernel(A, B, params):
    """Reference kernel used by the oracles, independent of the library path."""
    return (params.gamma * (A @ B.T) + params.coef0) ** params.degree


def reference_dual_objective(K, y, alpha):
    ay = alpha * y
    return float(alpha.sum() - 0.5 * ay @ K @ ay)


def model_dual_objective(model):
    """Dual objective from the stored support vectors alone (zero alphas drop out)."""
    sv = model.support_vectors.toarray()
    K = dense_poly_kernel(sv, sv, model.kernel)
    return float(np.abs(model.dual_coef).sum() - 0.5 * model.dual_coef @ K @ model.dual_coef)


def grid_qp_oracle(K, y, C, grid=12, refinements=8):
    """Brute-force dual maximization: grid over the first n-1 multipliers,
    the last solved exactly from the equality constraint; coarse-to-fine
    refinement around the incumbent (the objective is concave)."""
    n = len(y)
    lo, hi = np.zeros(n - 1), np.full(n - 1, C)
    best_a, best_obj = np.zeros(n), -np.inf
    for _ in range(refinements):
        axes = [np.linspace(lo[d], hi[d], grid + 1) for d in range(n - 1)]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=1)
        last = -y[-1] * (pts @ y[:-1])
        feas = (last >= -1e-12) & (last <= C + 1e-12)
        if feas.any():
            cand = np.concatenate([pts[feas], np.clip(last[feas, None], 0.0, C)], axis=1)
            ay = cand * y
            obj = cand.sum(axis=1) - 0.5 * np.einsum("mi,ij,mj->m", ay, K, ay)
            k = int(np.argmax(obj))
            if obj[k] > best_obj:
                best_obj, best_a = float(obj[k]), cand[k]
        span = (hi - lo) / grid * 2.0
        lo = np.clip(best_a[:-1] - span, 0.0, C)
        hi = np.clip(best_a[:-1] + span, 0.0, C)
    return best_a, best_obj


def random_instance(rng):
    n = int(rng.integers(2, 7))
    while True:
        y = rng.choice([-1.0, 1.0], size=n)
        if len(set(y.tolist())) == 2:
            break
    A = rng.normal(size=(n, int(rng.integers(1, 4))))
    C = float(rng.choice([0.5, 1.0, 10.0]))
    params = KernelParams(
        degree=int(rng.choice([1, 2])),
        gamma=float(rng.uniform(0.2, 2.0)),
        coef0=float(rng.choice([0.0, 1.0])),
    )
    return A, y, C, params


# --- kernel ------------------------------------------------------------------

def test_kernel_params_validation():
    with pytest.raises(SvmError):
        KernelParams(degree=0)
    with pytest.raises(SvmError):
        KernelParams(gamma=0.0)


@pytest.mark.parametrize("name, value", [
    ("gamma", np.inf), ("gamma", -np.inf), ("gamma", np.nan), ("coef0", np.inf), ("coef0", np.nan),
])
def test_kernel_params_refuse_non_finite(name, value):
    with pytest.raises(SvmError, match=f"^{name} must be finite, got {value}$"):
        KernelParams(**{name: value})


def test_gamma_none_trains_with_one_over_n_features():
    rng = np.random.default_rng(5)
    X = sparse.csr_matrix(rng.normal(size=(8, 7)))
    y = np.array([1.0, -1.0] * 4)
    m = train_svm(X, y, KernelParams(degree=2, gamma=None, coef0=1.0))
    assert m.kernel == KernelParams(degree=2, gamma=1.0 / 7, coef0=1.0)
    default = train_svm(X, y)
    assert default.kernel == KernelParams(degree=1, gamma=1.0 / 7, coef0=0.0)
    explicit = train_svm(X, y, KernelParams(gamma=1.0 / 7))
    np.testing.assert_array_equal(default.dual_coef, explicit.dual_coef)
    assert default.bias == explicit.bias


# --- training: analytic instance ---------------------------------------------

def analytic_model(C=1.0):
    X = sparse.csr_matrix(np.array([[1.0, 0.0], [-1.0, 0.0]]))
    y = np.array([1.0, -1.0])
    return train_svm(X, y, KernelParams(degree=1, gamma=0.5, coef0=0.0), C=C, tol=1e-4)


def test_analytic_two_point_instance():
    m = analytic_model()
    assert np.abs(m.dual_coef).tolist() == pytest.approx([1.0, 1.0], abs=1e-3)
    assert m.bias == pytest.approx(0.0, abs=1e-3)
    f = decision_function(m, sparse.csr_matrix(np.array([[2.0, 0.0]])))
    assert f[0] == pytest.approx(2.0, abs=1e-3)
    assert m.converged


def test_analytic_dual_coef_constraint():
    m = analytic_model()
    assert m.dual_coef.sum() == pytest.approx(0.0, abs=1e-6)


def test_decision_zero_vector_gives_bias():
    m = analytic_model()
    f = decision_function(m, sparse.csr_matrix(np.zeros((1, 2))))
    assert f[0] == pytest.approx(m.bias, abs=1e-12)


def test_model_without_support_vectors_returns_its_bias():
    m = SvmModel(support_vectors=sparse.csr_matrix((0, 3)), dual_coef=np.zeros(0), bias=-0.375,
                 kernel=KernelParams(degree=2, gamma=0.5, coef0=1.0), C=1.0, converged=True)
    f = decision_function(m, sparse.csr_matrix(np.array([[1.0, 2.0, 0.0], [0.0, 0.0, 0.0]])))
    assert f.tolist() == [-0.375, -0.375]


def test_decision_dimension_mismatch():
    m = analytic_model()
    with pytest.raises(SvmError, match="mismatch"):
        decision_function(m, sparse.csr_matrix(np.zeros((1, 3))))


def test_spread_weights_decide_over_wider_rows_as_over_the_model_columns():
    m = analytic_model()  # degree 1, on 2 features: columns 1 and 3 of 5
    wide = svm.spread_weights(m, np.array([1, 3]), 5)
    assert wide[[0, 2, 4]].tolist() == [0.0] * 3
    assert wide[[1, 3]].tolist() == m.weights.tolist()
    X = sparse.csr_matrix(np.array([[7.0, 2.0, 5.0, 0.5, 3.0], [1.0, 0.0, 1.0, 0.0, 1.0]]))
    expected = decision_function(m, X[:, [1, 3]])
    assert decision_function(m, X, weights=wide).tobytes() == expected.tobytes()
    with pytest.raises(SvmError, match="mismatch"):
        decision_function(m, X[:, :4], weights=wide)
    dual = SvmModel(support_vectors=m.support_vectors, dual_coef=m.dual_coef, bias=m.bias,
                    kernel=KernelParams(degree=2), C=m.C, converged=True)
    with pytest.raises(SvmError, match="not weights"):
        decision_function(dual, X, weights=wide)


def test_label_sign_flip_negates_decision():
    rng = np.random.default_rng(8)
    A = rng.normal(size=(10, 3))
    y = np.array([1.0] * 5 + [-1.0] * 5)
    p = KernelParams(degree=1, gamma=0.5, coef0=0.0)
    m1 = train_svm(sparse.csr_matrix(A), y, p, C=10.0, tol=1e-5)
    m2 = train_svm(sparse.csr_matrix(A), -y, p, C=10.0, tol=1e-5)
    q = sparse.csr_matrix(rng.normal(size=(5, 3)))
    np.testing.assert_allclose(
        decision_function(m1, q), -decision_function(m2, q), atol=1e-6
    )


# --- training: oracle checks --------------------------------------------------

def test_dual_objective_matches_grid_oracle_on_20_instances():
    rng = np.random.default_rng(123)
    for _ in range(20):
        A, y, C, params = random_instance(rng)
        K = dense_poly_kernel(A, A, params)
        m = train_svm(sparse.csr_matrix(A), y, params, C=C, tol=1e-5, max_passes=1000)
        _, obj_star = grid_qp_oracle(K, y, C)
        assert model_dual_objective(m) == pytest.approx(obj_star, abs=1e-3)


@pytest.mark.parametrize("degree", [1, 2])
@pytest.mark.parametrize("C", [0.5, 1.0, 10.0])
def test_zero_curvature_pair_matches_grid_oracle(degree, C):
    # rows 0 and 1 are one point with opposite labels, so the pair the solver
    # picks first has K_00 + K_11 - 2 K_01 = 0: a flat direction, which must
    # go to the bound
    A = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [-1.0, -0.5]])
    y = np.array([1.0, -1.0, 1.0, -1.0])
    params = KernelParams(degree=degree, gamma=1.0, coef0=1.0)
    K = dense_poly_kernel(A, A, params)
    assert K[0, 0] + K[1, 1] - 2.0 * K[0, 1] == 0.0
    m = train_svm(sparse.csr_matrix(A), y, params, C=C, tol=1e-5)
    assert m.converged
    _, obj_star = grid_qp_oracle(K, y, C)
    assert model_dual_objective(m) == pytest.approx(obj_star, abs=1e-3)


def test_kkt_conditions_hold_within_tol():
    rng = np.random.default_rng(2024)
    tol = 1e-4
    for _ in range(20):
        A, y, C, params = random_instance(rng)
        m = train_svm(sparse.csr_matrix(A), y, params, C=C, tol=tol, max_passes=1000)
        assert m.converged
        f = decision_function(m, sparse.csr_matrix(A))
        alpha = reconstruct_alphas(m, A, y)
        for i in range(len(y)):
            yf = y[i] * f[i]
            if alpha[i] <= 1e-12:
                assert yf >= 1.0 - tol - 1e-12
            elif alpha[i] >= C - 1e-12:
                assert yf <= 1.0 + tol + 1e-12
            else:
                assert abs(yf - 1.0) <= tol + 1e-12


def test_decision_function_matches_dense_kernel_oracle():
    rng = np.random.default_rng(909)
    for _ in range(10):
        A, y, C, params = random_instance(rng)
        m = train_svm(sparse.csr_matrix(A), y, params, C=C, tol=1e-5)
        Q = rng.normal(size=(4, A.shape[1]))
        expected = dense_poly_kernel(Q, m.support_vectors.toarray(), params) @ m.dual_coef + m.bias
        np.testing.assert_allclose(decision_function(m, sparse.csr_matrix(Q)), expected,
                                   rtol=1e-12, atol=1e-12)


def random_sparse_model(rng, params, n_sv, n_features):
    sv = sparse.random(n_sv, n_features, density=0.3, format="csr", random_state=rng)
    return SvmModel(support_vectors=sv, dual_coef=rng.normal(size=n_sv),
                    bias=float(rng.normal()), kernel=params, C=1.0, converged=True)


def test_degree_1_decisions_equal_the_dual_product():
    """Degree 1 decides through one weight vector; the dual product that
    higher degrees take is its oracle."""
    rng = np.random.default_rng(4242)
    for coef0 in (0.0, 1.0, -0.5):
        for gamma in (0.01, 0.7, 3.0):
            params = KernelParams(degree=1, gamma=gamma, coef0=coef0)
            m = random_sparse_model(rng, params, int(rng.integers(1, 40)),
                                    int(rng.integers(1, 60)))
            X = sparse.random(6, m.n_features, density=0.3, format="csr", random_state=rng)
            sv = m.support_vectors
            expected = svm._kernel(params, (X @ sv.T).toarray()) @ m.dual_coef + m.bias
            # the sums cancel, so their rounding is bounded by the terms' magnitude
            magnitude = (gamma * (abs(X) @ abs(sv).T).toarray() + abs(coef0)) @ abs(m.dual_coef)
            np.testing.assert_allclose(decision_function(m, X), expected, rtol=1e-12,
                                       atol=1e-12 * (magnitude.max() + abs(m.bias)))


def test_a_one_row_decision_equals_its_row_of_a_batch_bit_for_bit():
    rng = np.random.default_rng(17)
    for degree, n_sv in ((1, 30), (2, 44), (2, 1_300), (3, 26)):
        m = random_sparse_model(rng, KernelParams(degree=degree, gamma=0.5, coef0=1.0),
                                n_sv, 40)
        X = sparse.random(9, 40, density=0.3, format="csr", random_state=rng)
        batch = decision_function(m, X)
        rows = np.concatenate([decision_function(m, X[i]) for i in range(X.shape[0])])
        assert rows.tobytes() == batch.tobytes(), (degree, n_sv)


def test_a_degree_1_model_without_support_vectors_returns_its_bias():
    m = SvmModel(support_vectors=sparse.csr_matrix((0, 3)), dual_coef=np.zeros(0), bias=-0.375,
                 kernel=KernelParams(degree=1, gamma=0.5, coef0=1.0), C=1.0, converged=True)
    f = decision_function(m, sparse.csr_matrix(np.array([[1.0, 2.0, 0.0], [0.0, 0.0, 0.0]])))
    assert f.tolist() == [-0.375, -0.375]


MANY_SUPPORT_VECTORS_SCRIPT = """
import hashlib
import sys
import numpy as np
from scipy import sparse
from urdufake.svm import KernelParams, SvmModel, decision_function

degree = int(sys.argv[1])
rng = np.random.default_rng(0)
sv = sparse.random(10_001, 3_000, density=0.005, format="csr", random_state=rng)
model = SvmModel(support_vectors=sv, dual_coef=rng.normal(size=10_001), bias=0.25,
                 kernel=KernelParams(degree=degree, gamma=0.7, coef0=0.3), C=1.0,
                 converged=True)
X = sparse.random(20, 3_000, density=0.05, format="csr", random_state=rng)
for values in (decision_function(model, X),
               np.concatenate([decision_function(model, X[i]) for i in range(20)])):
    print(hashlib.sha256(values.tobytes()).hexdigest())
"""


def many_support_vector_digests(degree):
    """[[batch, row-by-row] decision digests] of a model of 10,001 support
    vectors, at 1 and at 2 BLAS threads."""
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads)
        out = subprocess.run([sys.executable, "-c", MANY_SUPPORT_VECTORS_SCRIPT, str(degree)],
                             env=env, capture_output=True, text=True, check=True, timeout=120)
        digests.append(out.stdout.split())
    return digests


def test_degree_1_decisions_do_not_depend_on_the_blas_thread_count():
    """A threaded BLAS splits a dot product of more than 10,000 elements
    across its threads, in an order that depends on their number, so the
    sum over 10,001 support vectors must not go through one."""
    digests = many_support_vector_digests(1)
    assert len(digests[0]) == 2 and digests[0] == digests[1]


def test_degree_2_decisions_depend_on_neither_the_batch_nor_the_blas_thread_count():
    """The dual form sums each row's kernel values times the dual
    coefficients by numpy's reduction, so a document's value is the same
    alone or in a batch, at 1 BLAS thread or 2."""
    digests = many_support_vector_digests(2)
    assert len(digests[0]) == 2 and digests[0] == digests[1]
    assert digests[0][0] == digests[0][1]


def reconstruct_alphas(model, A, y):
    sv = model.support_vectors.toarray()
    used = [False] * len(model.dual_coef)
    alpha = np.zeros(len(y))
    for r in range(len(y)):
        for s in range(len(model.dual_coef)):
            if (
                not used[s]
                and np.allclose(sv[s], A[r])
                and np.sign(model.dual_coef[s]) == np.sign(y[r])
            ):
                alpha[r] = abs(model.dual_coef[s])
                used[s] = True
                break
    return alpha


def test_dual_constraint_and_box_on_random_instances():
    rng = np.random.default_rng(77)
    for _ in range(10):
        A, y, C, params = random_instance(rng)
        m = train_svm(sparse.csr_matrix(A), y, params, C=C, tol=1e-5)
        assert m.dual_coef.shape[0] > 0
        assert float(m.dual_coef @ np.ones_like(m.dual_coef)) == pytest.approx(
            m.dual_coef.sum(), abs=0
        )
        assert abs(m.dual_coef.sum()) <= 1e-6
        assert (np.abs(m.dual_coef) <= C + 1e-12).all()
        assert (np.abs(m.dual_coef) > 0).all()


def test_row_cache_path_matches_full_gram(monkeypatch):
    # a Gram budget of three rows forces the bounded row-cache code path,
    # with rows evicted; the trained model must be the full-Gram one, bit
    # for bit
    rng = np.random.default_rng(12)
    A = sparse.csr_matrix(rng.normal(size=(15, 6)) * (rng.random((15, 6)) < 0.5))
    y = np.array([1.0] * 8 + [-1.0] * 7)
    for p in (KernelParams(degree=1, gamma=0.5), KernelParams(degree=2, gamma=0.5, coef0=1.0)):
        full = train_svm(A, y, p, C=1.0, tol=1e-5)
        with monkeypatch.context() as m:
            m.setattr(svm, "GRAM_BUDGET_BYTES", 15 * 8 * 3)
            cached = train_svm(A, y, p, C=1.0, tol=1e-5)
        np.testing.assert_array_equal(full.dual_coef, cached.dual_coef)
        assert full.bias == cached.bias
        assert (full.support_vectors != cached.support_vectors).nnz == 0
        assert 0 < full.n_support < 15


def test_training_memory_is_bounded_by_the_gram_budget(monkeypatch):
    # a 1 MB budget holds about 100 of the 1,200 kernel rows; nothing else
    # train_svm keeps may grow with n_SV * n
    X = sparse.random(1200, 300, density=0.05, format="csr", random_state=7)
    y = np.where(np.arange(1200) % 2 == 0, 1.0, -1.0)
    monkeypatch.setattr(svm, "GRAM_BUDGET_BYTES", 1e6)
    tracemalloc.start()
    try:
        with pytest.warns(UserWarning, match="did not converge"):
            train_svm(X, y, KernelParams(degree=1, gamma=1.0), C=1.0, max_passes=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


def test_training_deterministic():
    rng = np.random.default_rng(31)
    A = rng.normal(size=(12, 4))
    y = np.array([1.0] * 6 + [-1.0] * 6)
    p = KernelParams(degree=1, gamma=0.25, coef0=0.0)
    m1 = train_svm(sparse.csr_matrix(A), y, p, C=1.0)
    m2 = train_svm(sparse.csr_matrix(A), y, p, C=1.0)
    np.testing.assert_array_equal(m1.dual_coef, m2.dual_coef)
    assert m1.bias == m2.bias


def test_separable_2d_sets_reach_full_training_accuracy():
    rng = np.random.default_rng(404)
    for _ in range(5):
        n = 20
        pos = rng.normal(loc=(3.0, 3.0), scale=0.5, size=(n, 2))
        neg = rng.normal(loc=(-3.0, -3.0), scale=0.5, size=(n, 2))
        A = np.vstack([pos, neg])
        y = np.array([1.0] * n + [-1.0] * n)
        m = train_svm(sparse.csr_matrix(A), y, KernelParams(degree=1, gamma=0.5), C=10.0)
        f = decision_function(m, sparse.csr_matrix(A))
        assert (np.sign(f) == y).all()


def test_duplicate_training_point_predicted_with_its_label():
    A = np.array([[2.0, 0.0], [1.5, 0.3], [-2.0, 0.1], [-1.0, -1.0]])
    y = np.array([1.0, 1.0, -1.0, -1.0])
    m = train_svm(sparse.csr_matrix(A), y, KernelParams(degree=1, gamma=1.0), C=10.0)
    preds = signs_to_labels(decision_function(m, sparse.csr_matrix(A)))
    assert preds[0] is Label.FAKE and preds[2] is Label.REAL


def test_single_class_rejected():
    X = sparse.csr_matrix(np.ones((3, 2)))
    with pytest.raises(SvmError, match="both classes"):
        train_svm(X, np.array([1.0, 1.0, 1.0]))


@pytest.mark.parametrize("kwargs, message", [
    ({"C": 0.0}, "C must be positive"),
    ({"tol": 0.0}, "tol must be positive"),
    ({"tol": -1.0}, "tol must be positive"),
    ({"max_passes": 0}, "max_passes must be >= 1"),
    ({"C": np.inf}, "C must be finite, got inf"),
    ({"tol": np.inf}, "tol must be finite, got inf"),
    ({"tol": np.nan}, "tol must be finite, got nan"),
])
def test_solver_settings_rejected(kwargs, message):
    X = sparse.csr_matrix(np.eye(2))
    with pytest.raises(SvmError, match=message):
        train_svm(X, np.array([1.0, -1.0]), **kwargs)


def test_kernel_values_past_float64_raise_instead_of_a_nan_model():
    """(1e300 <x, z>)^2 overflows: the solve would give a NaN bias, and its
    KKT check would read as converged. The kernel is refused where it is
    computed, without a RuntimeWarning first."""
    X = sparse.csr_matrix(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.5, 0.2]]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SvmError, match="SMO diverged: a kernel value is not finite"):
            train_svm(X, [1.0, -1.0, 1.0, -1.0], KernelParams(degree=2, gamma=1e300))


def test_nonconvergence_sets_warning_flag():
    rng = np.random.default_rng(55)
    A = rng.normal(size=(30, 2))
    y = np.where(rng.random(30) < 0.5, 1.0, -1.0)
    if len(set(y.tolist())) < 2:
        y[0] = -y[0]
    with pytest.warns(UserWarning, match=r"max_passes=1 .*tol=1e-08"):
        m = train_svm(sparse.csr_matrix(A), y, KernelParams(degree=1, gamma=1.0), C=10.0,
                      tol=1e-8, max_passes=1)
    assert not m.converged


# --- prediction encoding ------------------------------------------------------

def test_labels_to_signs_encoding():
    signs = labels_to_signs([Label.FAKE, Label.REAL])
    assert signs.tolist() == [1.0, -1.0]


def test_prediction_thresholds():
    m = analytic_model()
    X = sparse.csr_matrix(np.array([[2.0, 0.0], [-0.5, 0.0], [0.0, 0.0]]))
    preds = signs_to_labels(decision_function(m, X))
    assert preds[0] is Label.FAKE   # decision +2.0
    assert preds[1] is Label.REAL   # decision -0.5
    assert preds[2] is Label.FAKE   # decision exactly 0 -> Fake
