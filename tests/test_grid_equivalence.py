"""The shared-work grid against per-row fitting with the reference featurizer.

run_grid featurizes the union of its SVM rows' n-gram specs once and
restricts it to each row. These tests check that every row still gets the
bytes a row fitted on its own gets: the oracle fits each row with the
string featurizer in reference_vectorize.py, stage by stage as the runner
did before the grid shared work, and the runner's own one-row
fit_pipeline/run_config must agree with both.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from urdufake.corpus import generate_synthetic
from urdufake.metrics import confusion, summarize
from urdufake.preprocess import PreprocessConfig, PreprocessedDoc, preprocess_corpus
from urdufake.runner import (
    ExperimentConfig,
    FittedPipeline,
    PipelineError,
    ResultRow,
    fit_pipeline,
    render_results_tsv,
    run_config,
    run_grid,
    save_model,
)
from urdufake.selection import apply_mask, chi2_scores, select_k_best
from urdufake.svm import (
    KernelParams,
    decision_function,
    labels_to_signs,
    signs_to_labels,
    train_svm,
)
from urdufake.vectorize import (
    NgramSpec,
    VectorizeError,
    apply_tfidf,
    build_vocabulary,
    count_terms,
    transform,
)

from conftest import FAKE_POOL, REAL_POOL
from reference_vectorize import (
    csr_bytes,
    reference_build_vocabulary,
    reference_idf,
    reference_transform,
)


def _stage(name, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except Exception as exc:
        raise PipelineError(name, exc) from exc


def reference_fit_svm(train, config, resources) -> FittedPipeline:
    """One SVM row fitted on its own with the reference featurizer."""
    docs = _stage("preprocess", preprocess_corpus, train, config.preprocess, resources)
    spec = config.ngram_spec()
    vocab = _stage("build_vocabulary", reference_build_vocabulary, docs, spec)
    X = _stage("transform", reference_transform, docs, vocab, spec)
    y = labels_to_signs([d.label for d in train])
    mask = _stage("select_k_best", select_k_best, _stage("chi2_scores", chi2_scores, X, y),
                  config.k_best)
    X_sel = _stage("apply_mask", apply_mask, X, mask)
    gamma = config.svm_gamma if config.svm_gamma is not None else 1.0 / max(1, mask.n_kept)
    model = _stage("train_svm", train_svm, X_sel, y,
                   params=KernelParams(degree=config.svm_degree, gamma=gamma,
                                       coef0=config.svm_coef0),
                   C=config.svm_c, tol=config.svm_tol, max_passes=config.svm_max_passes)
    return FittedPipeline(config=config, kind="svm", vocabulary=vocab, mask=mask, svm=model)


def reference_row(train, test, config, resources, sn):
    """(result row, fitted pipeline or None), as the grid recorded rows
    before it shared work across them."""
    try:
        if config.classifier == "cnn":
            fitted = fit_pipeline(train, config, resources)
            predictions = fitted.predict(test, resources)
        else:
            fitted = reference_fit_svm(train, config, resources)
            docs = preprocess_corpus(test, config.preprocess, resources)
            X = reference_transform(docs, fitted.vocabulary, config.ngram_spec())
            predictions = signs_to_labels(decision_function(fitted.svm, apply_mask(X, fitted.mask)))
    except Exception as exc:
        return ResultRow(sn=sn, name=config.name, digest=config.digest(), block="",
                         k_best=config.k_best, v_total=0, k_selected=0, report=None,
                         seconds=0.0, error=str(exc)), None
    block = (config.ngram_spec().describe() if config.classifier == "svm"
             else f"cnn {config.cnn_unit} channels {','.join(map(str, config.cnn_channels))}")
    return ResultRow(
        sn=sn, name=config.name, digest=config.digest(), block=block,
        k_best=config.k_best if config.classifier == "svm" else 0,
        v_total=fitted.total_features, k_selected=fitted.selected_features,
        report=summarize(confusion([d.label for d in test], predictions)), seconds=0.0,
    ), fitted


def mixed_grid() -> list[ExperimentConfig]:
    """The four shipped specs at small K (one spec at two K), a row with
    other preprocessing, a CNN row, and a word-4-gram row that gets no terms
    from three-token documents while the union of its group does."""
    base = ExperimentConfig(seed=7)
    svm = [
        ("w12_c23456", (1, 2), (2, 3, 4, 5, 6), 200),
        ("w123_c2345", (1, 2, 3), (2, 3, 4, 5), 300),
        ("w1234_c23456_a", (1, 2, 3, 4), (2, 3, 4, 5, 6), 400),
        ("w4_only", (4,), (), 50),
        ("w1234_c23456_b", (1, 2, 3, 4), (2, 3, 4, 5, 6), 150),
        ("w1234_c3456", (1, 2, 3, 4), (3, 4, 5, 6), 250),
    ]
    configs = [replace(base, name=n, word_orders=w, char_orders=c, k_best=k)
               for n, w, c, k in svm]
    configs.insert(2, replace(base, name="raw_w1_c2", word_orders=(1,), char_orders=(2,),
                              k_best=100, preprocess=PreprocessConfig(remove_stopwords=False,
                                                                      lemmatize=False)))
    configs.insert(5, replace(base, name="cnn", classifier="cnn", cnn_epochs=2,
                              cnn_channels=(1, 2)))
    return configs


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_mixed_grid_matches_per_row_reference(resources, tmp_path):
    train = generate_synthetic(3, 20, (FAKE_POOL, REAL_POOL), (2, 3), split="train")
    test = generate_synthetic(4, 8, (FAKE_POOL, REAL_POOL), (2, 3), split="test")
    configs = mixed_grid()

    saved = {}

    def keep(row, fitted):
        path = tmp_path / f"grid-{row.sn:02d}.ufnd"
        save_model(path, fitted)
        saved[row.sn] = path.read_bytes()

    rows = run_grid(train, test, configs, resources, on_fitted=keep)
    expected_rows, expected_models = [], {}
    for sn, config in enumerate(configs, start=1):
        row, fitted = reference_row(train, test, config, resources, sn)
        expected_rows.append(row)
        if fitted is not None:
            path = tmp_path / f"ref-{sn:02d}.ufnd"
            save_model(path, fitted)
            expected_models[sn] = path.read_bytes()

    assert render_results_tsv(rows) == render_results_tsv(expected_rows)
    failed = [r for r in rows if not r.ok]
    assert [r.name for r in failed] == ["w4_only"]
    assert failed[0].error == "stage 'build_vocabulary': all documents produced zero terms"
    assert sorted(saved) == sorted(expected_models) == [r.sn for r in rows if r.ok]
    for sn, blob in saved.items():
        assert blob == expected_models[sn], configs[sn - 1].name

    # the runner's one-row paths are the same fit
    for sn, config in enumerate(configs, start=1):
        if sn in saved:
            path = tmp_path / f"one-{sn:02d}.ufnd"
            save_model(path, fit_pipeline(train, config, resources))
            assert path.read_bytes() == saved[sn], config.name
    one_row = [run_config(train, test, c, resources, sn=sn)
               for sn, c in enumerate(configs, start=1) if sn in saved]
    assert render_results_tsv(one_row) == render_results_tsv([r for r in rows if r.ok])


# --- restriction against the reference featurizer ----------------------------

TOKENS = ["aa", "ab", "ba", "b", "abc", "ca", "c"]
doc_tokens = st.lists(st.sampled_from(TOKENS), min_size=0, max_size=10)
word_subsets = st.frozensets(st.integers(1, 4))
char_subsets = st.frozensets(st.integers(2, 6))


@settings(max_examples=80, deadline=None)
@given(
    train=st.lists(doc_tokens, min_size=1, max_size=6),
    test=st.lists(doc_tokens, min_size=0, max_size=4),
    words=word_subsets, chars=char_subsets,
    extra_words=word_subsets, extra_chars=char_subsets,
)
def test_restricted_counts_equal_reference_transform(train, test, words, chars,
                                                     extra_words, extra_chars):
    if not words and not chars:
        return
    train_docs = [PreprocessedDoc.from_tokens(t) for t in train]
    test_docs = [PreprocessedDoc.from_tokens(t) for t in test]
    spec = NgramSpec(words, chars)
    union_spec = NgramSpec(words | extra_words, chars | extra_chars)

    try:
        ref_vocab = reference_build_vocabulary(train_docs, spec)
    except VectorizeError as exc:
        with pytest.raises(VectorizeError, match=str(exc)):
            build_vocabulary(train_docs, union_spec).restrict(spec)
        return
    union = build_vocabulary(train_docs, union_spec)
    vocab, cols = union.restrict(spec)
    assert vocab.terms_by_index() == ref_vocab.terms_by_index()
    assert vocab.doc_freq.tobytes() == ref_vocab.doc_freq.tobytes()
    assert [union.terms_by_index()[c] for c in cols] == vocab.terms_by_index()

    assert vocab.idf.tobytes() == reference_idf(ref_vocab).tobytes()
    assert csr_bytes(apply_tfidf(vocab.counts, vocab)) == \
        csr_bytes(reference_transform(train_docs, ref_vocab, spec))

    restricted = count_terms(test_docs, union, union_spec)[:, cols]
    assert csr_bytes(apply_tfidf(restricted, vocab)) == \
        csr_bytes(reference_transform(test_docs, ref_vocab, spec))
    assert csr_bytes(transform(test_docs, vocab, spec)) == \
        csr_bytes(reference_transform(test_docs, ref_vocab, spec))


def test_restrict_to_own_spec_is_identity():
    docs = [PreprocessedDoc.from_tokens(["aa", "b", "aa"]), PreprocessedDoc.from_tokens(["b"])]
    spec = NgramSpec({1, 2}, {2, 3})
    vocab = build_vocabulary(docs, spec)
    same, cols = vocab.restrict(spec)
    assert same is vocab
    np.testing.assert_array_equal(cols, np.arange(vocab.size))
