"""Acceptance gate: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Criterion 7 needs the real shared-task dataset and is skipped unless
URDUFAKE_DATA_DIR points at a directory containing train.tsv and test.tsv.
"""

import math
import os
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse

from urdufake.cli import main as cli_main
from urdufake.cnn import grad_check, init_cnn
from urdufake.corpus import Label, generate_synthetic, load_corpus
from urdufake.metrics import ConfusionMatrix, format4, summarize
from urdufake.preprocess import Resources
from urdufake.runner import ExperimentConfig, fit_pipeline, load_model, save_model
from urdufake.selection import chi2_scores
from urdufake.svm import KernelParams, decision_function, train_svm

from conftest import run_alone

FAKE_POOL = tuple(f"jhoot{i}" for i in range(30))
REAL_POOL = tuple(f"sach{i}" for i in range(30))


def report_pass(n, detail):
    print(f"[acceptance] criterion {n:>2}: PASS - {detail}")


# -- 1 & 2: metric oracles against the published per-class table rows ----------

def test_criterion_1_metric_oracle_row7():
    start = time.perf_counter()
    rep = summarize(ConfusionMatrix(tp_fake=47, fn_fake=53, fp_fake=30, tn_fake=170))
    rounded = (
        format4(rep.precision_fake), format4(rep.recall_fake), format4(rep.f1_fake),
        format4(rep.precision_real), format4(rep.recall_real), format4(rep.f1_real),
        format4(rep.f1_macro), format4(rep.accuracy),
    )
    assert rounded == ("0.6104", "0.4700", "0.5311", "0.7623", "0.8500", "0.8038",
                       "0.6674", "0.7233")
    # unrounded values against exact fractions
    pf, rf = 47 / 77, 47 / 100
    f1f = 2 * pf * rf / (pf + rf)
    pr, rr = 170 / 223, 170 / 200
    f1r = 2 * pr * rr / (pr + rr)
    assert abs(rep.precision_fake - pf) < 5e-5
    assert abs(rep.f1_fake - f1f) < 5e-5
    assert abs(rep.f1_real - f1r) < 5e-5
    assert abs(rep.f1_macro - (f1f + f1r) / 2) < 5e-5
    assert abs(rep.accuracy - 217 / 300) < 5e-5
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report_pass(1, f"row-7 matrix reproduces all 4-dp table values ({elapsed:.3f}s)")


def test_criterion_2_metric_oracle_row1():
    start = time.perf_counter()
    rep = summarize(ConfusionMatrix(tp_fake=46, fn_fake=54, fp_fake=31, tn_fake=169))
    assert format4(rep.f1_macro) == "0.6594"
    assert format4(rep.accuracy) == "0.7167"
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report_pass(2, f"row-1 matrix gives f1_macro 0.6594, accuracy 0.7167 ({elapsed:.3f}s)")


# -- 3: chi-squared equivalence with a dense brute-force oracle ----------------

def brute_force_chi2(X_dense, y):
    classes = sorted(set(y.tolist()))
    n = len(y)
    scores = np.zeros(X_dense.shape[1])
    for j in range(X_dense.shape[1]):
        observed = [sum(X_dense[i, j] for i in range(n) if y[i] == c) for c in classes]
        total = sum(observed)
        if total == 0:
            continue
        acc = 0.0
        for c_idx, c in enumerate(classes):
            prior = sum(1 for v in y if v == c) / n
            expected = prior * total
            acc += (observed[c_idx] - expected) ** 2 / expected
        scores[j] = acc
    return scores


def test_criterion_3_chi2_matches_brute_force_200_matrices():
    rng = np.random.default_rng(20210923)
    worst = 0.0
    for _ in range(200):
        n_docs = int(rng.integers(2, 9))
        n_feat = int(rng.integers(1, 11))
        X = rng.random((n_docs, n_feat)) * (rng.random((n_docs, n_feat)) < 0.6)
        y = rng.integers(0, 2, size=n_docs)
        if len(set(y.tolist())) < 2:
            y[0] = 1 - y[0]
        got = chi2_scores(sparse.csr_matrix(X), y)
        want = brute_force_chi2(X, y)
        worst = max(worst, float(np.max(np.abs(got - want))))
        np.testing.assert_allclose(got, want, atol=1e-9, rtol=0)
    report_pass(3, f"200 random matrices, worst |delta| = {worst:.2e} <= 1e-9")


# -- 4: TF-IDF hand example ----------------------------------------------------

def test_criterion_4_tfidf_hand_example():
    from urdufake.preprocess import PreprocessedDoc
    from urdufake.vectorize import NgramSpec, build_vocabulary, transform

    docs = [PreprocessedDoc.from_tokens(["a", "b"]), PreprocessedDoc.from_tokens(["a", "a"])]
    spec = NgramSpec(word_orders={1})
    X = transform(docs, build_vocabulary(docs, spec)).toarray()
    # independent oracle: idf = ln((1+N)/(1+df)) + 1, raw counts, L2 row norm
    idf_a = math.log(3 / 3) + 1
    idf_b = math.log(3 / 2) + 1
    norm = math.hypot(1 * idf_a, 1 * idf_b)
    expected_d1 = (idf_a / norm, idf_b / norm)   # = (0.579739, 0.814802) to 6 dp
    assert abs(X[0, 0] - expected_d1[0]) < 1e-6
    assert abs(X[0, 1] - expected_d1[1]) < 1e-6
    assert abs(X[1, 0] - 1.0) < 1e-6
    assert X[1, 1] == 0.0
    report_pass(4, f"transform gives ({X[0,0]:.6f}, {X[0,1]:.6f}) and ({X[1,0]:.1f})")


# -- 5: SVM correctness ---------------------------------------------------------

def dense_poly_kernel(A, B, params):
    return (params.gamma * (A @ B.T) + params.coef0) ** params.degree


def grid_qp_oracle(K, y, C, grid=12, refinements=8):
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
    return best_obj


def test_criterion_5_svm_correctness():
    # (a) analytic two-point instance
    X = sparse.csr_matrix(np.array([[1.0, 0.0], [-1.0, 0.0]]))
    y2 = np.array([1.0, -1.0])
    m = train_svm(X, y2, KernelParams(degree=1, gamma=0.5, coef0=0.0), C=1.0, tol=1e-4)
    assert np.allclose(np.abs(m.dual_coef), [1.0, 1.0], atol=1e-3)
    assert abs(m.bias) < 1e-3
    f = decision_function(m, sparse.csr_matrix(np.array([[2.0, 0.0]])))[0]
    assert abs(f - 2.0) < 1e-3

    # (b) + (c) 20 random instances vs the brute-force QP oracle, KKT within tol
    rng = np.random.default_rng(123)
    tol = 1e-5
    worst_gap = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 7))
        while True:
            y = rng.choice([-1.0, 1.0], size=n)
            if len(set(y.tolist())) == 2:
                break
        A = rng.normal(size=(n, int(rng.integers(1, 4))))
        C = float(rng.choice([0.5, 1.0, 10.0]))
        params = KernelParams(degree=int(rng.choice([1, 2])),
                              gamma=float(rng.uniform(0.2, 2.0)),
                              coef0=float(rng.choice([0.0, 1.0])))
        model = train_svm(sparse.csr_matrix(A), y, params, C=C, tol=tol, max_passes=1000)
        sv = model.support_vectors.toarray()
        K_sv = dense_poly_kernel(sv, sv, model.kernel)
        obj_model = float(np.abs(model.dual_coef).sum()
                          - 0.5 * model.dual_coef @ K_sv @ model.dual_coef)
        obj_star = grid_qp_oracle(dense_poly_kernel(A, A, params), y, C)
        worst_gap = max(worst_gap, abs(obj_model - obj_star))
        assert abs(obj_model - obj_star) < 1e-3

        # (c) KKT conditions at the trained solution
        fvals = decision_function(model, sparse.csr_matrix(A))
        alpha = np.zeros(n)
        used = [False] * len(model.dual_coef)
        for r in range(n):
            for s in range(len(model.dual_coef)):
                if (not used[s] and np.allclose(sv[s], A[r])
                        and np.sign(model.dual_coef[s]) == np.sign(y[r])):
                    alpha[r] = abs(model.dual_coef[s])
                    used[s] = True
                    break
        for i in range(n):
            yf = y[i] * fvals[i]
            if alpha[i] <= 1e-12:
                assert yf >= 1.0 - tol - 1e-12
            elif alpha[i] >= C - 1e-12:
                assert yf <= 1.0 + tol + 1e-12
            else:
                assert abs(yf - 1.0) <= tol + 1e-12
    report_pass(5, f"analytic instance exact; 20 oracle gaps <= {worst_gap:.2e}; KKT within tol")


# -- 6: CNN gradient check -------------------------------------------------------

def test_criterion_6_cnn_gradient_check():
    start = time.perf_counter()
    rng = np.random.default_rng(42)
    model = init_cnn(vocab_size=50, max_len=20, channels=(1, 2, 3), seed=3)
    ids = rng.integers(0, 50, size=(4, 20))
    y = rng.integers(0, 2, size=4).astype(float)
    report = grad_check(model, ids, y, n_samples=10, h=1e-5, seed=0)
    elapsed = time.perf_counter() - start
    assert report.max_rel_error < 1e-4
    assert elapsed < 60.0
    report_pass(6, f"max relative error {report.max_rel_error:.2e} < 1e-4 ({elapsed:.1f}s)")


# -- 7: dataset-conditional reproduction (needs the real shared-task data) ------

def test_criterion_7_shared_task_reproduction():
    data_dir = os.environ.get("URDUFAKE_DATA_DIR")
    if not data_dir:
        pytest.skip(
            "criterion 7 is dataset-conditional: set URDUFAKE_DATA_DIR to a directory "
            "with the shared-task train.tsv/test.tsv to run it"
        )
    train = load_corpus(Path(data_dir) / "train.tsv", "train")
    test = load_corpus(Path(data_dir) / "test.tsv", "test")
    resources = Resources.load(
        stopwords_path=os.environ.get("URDUFAKE_STOPWORDS"),
        lemmas_path=os.environ.get("URDUFAKE_LEMMAS"),
    )
    config = ExperimentConfig(
        name="row7", word_orders=(1, 2, 3, 4), char_orders=(2, 3, 4, 5, 6), k_best=20000
    )
    row = run_alone(train, test, config, resources)
    assert abs(row.v_total - 1_557_000) <= 0.10 * 1_557_000, (
        f"total features {row.v_total} outside 1.557M +/- 10%"
    )
    assert abs(row.report.f1_macro - 0.6674) <= 0.03, (
        f"f1_macro {row.report.f1_macro:.4f} outside 0.6674 +/- 0.03"
    )
    report_pass(7, f"V={row.v_total}, f1_macro={row.report.f1_macro:.4f}")


# -- 8: end-to-end synthetic through both classifiers ----------------------------

def test_criterion_8_end_to_end_synthetic():
    start = time.perf_counter()
    train = generate_synthetic(7, 200, (FAKE_POOL, REAL_POOL), (6, 14), split="train")
    test = generate_synthetic(1007, 50, (FAKE_POOL, REAL_POOL), (6, 14), split="test")
    resources = Resources.default()

    svm_cfg = ExperimentConfig(name="svm-synth", k_best=20000, seed=7)
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # K clamps on the small corpus
        svm_row = run_alone(train, test, svm_cfg, resources)
    assert svm_row.report.f1_macro >= 0.95

    cnn_cfg = ExperimentConfig(
        name="cnn-synth", classifier="cnn", cnn_unit="word",
        cnn_channels=(1, 2, 3, 4), cnn_epochs=7, seed=7,
    )
    cnn_row = run_alone(train, test, cnn_cfg, resources)
    assert cnn_row.report.f1_macro >= 0.90

    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    report_pass(8, f"svm f1_macro={svm_row.report.f1_macro:.3f}, "
                   f"cnn f1_macro={cnn_row.report.f1_macro:.3f} ({elapsed:.1f}s)")


# -- 9: grid determinism ----------------------------------------------------------

GRID = """
seed = 7
classifier = svm
k_best = 400

[experiment]
name = g1
word_orders = 1,2
char_orders = 2,3

[experiment]
name = g2
word_orders = 1
char_orders = 2,3,4
"""


def test_criterion_9_grid_determinism(tmp_path):
    from urdufake.corpus import save_corpus

    train = generate_synthetic(7, 60, (FAKE_POOL, REAL_POOL), (5, 10), split="train")
    test = generate_synthetic(8, 20, (FAKE_POOL, REAL_POOL), (5, 10), split="test")
    save_corpus(train, tmp_path / "train.tsv")
    save_corpus(test, tmp_path / "test.tsv")
    (tmp_path / "grid.cfg").write_text(GRID, encoding="utf-8")
    for out in ("r1", "r2"):
        rc = cli_main([
            "--out-dir", str(tmp_path / out), "--config", str(tmp_path / "grid.cfg"),
            "experiment", "--train", str(tmp_path / "train.tsv"),
            "--test", str(tmp_path / "test.tsv"), "--save-models",
        ])
        assert rc == 0
    tsv1 = (tmp_path / "r1" / "results.tsv").read_bytes()
    tsv2 = (tmp_path / "r2" / "results.tsv").read_bytes()
    assert tsv1 == tsv2
    models1 = sorted((tmp_path / "r1" / "models").glob("*.ufnd"))
    models2 = sorted((tmp_path / "r2" / "models").glob("*.ufnd"))
    assert len(models1) == 2
    for a, b in zip(models1, models2):
        assert a.read_bytes() == b.read_bytes()
    report_pass(9, "two grid runs produced byte-identical results.tsv and model files")


# -- 10: persistence round trip ----------------------------------------------------

def test_criterion_10_persistence_round_trip(tmp_path):
    train = generate_synthetic(7, 60, (FAKE_POOL, REAL_POOL), (5, 10), split="train")
    query = generate_synthetic(21, 50, (FAKE_POOL, REAL_POOL), (5, 10), split="test")
    assert len(query) == 100
    resources = Resources.default()
    fitted = fit_pipeline(train, ExperimentConfig(name="rt", k_best=500), resources)
    path = tmp_path / "model.ufnd"
    save_model(path, fitted)
    loaded = load_model(path)
    direct_labels = fitted.predict(query, resources)
    loaded_labels = loaded.predict(query, resources)
    direct_values = fitted.decision_values(query, resources)
    loaded_values = loaded.decision_values(query, resources)
    assert direct_labels == loaded_labels
    np.testing.assert_array_equal(direct_values, loaded_values)
    report_pass(10, "save -> load -> predict identical on 100 documents")
