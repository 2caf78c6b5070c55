"""The shared-work grid against per-row fitting with the reference featurizer.

run_grid featurizes the union of its SVM rows' n-gram specs once and
restricts it to each row. These tests check that every row still gets the
bytes a row fitted on its own gets: the oracle fits each row with the
string featurizer in reference_vectorize.py, stage by stage as the runner
did before the grid shared work, and the runner's own one-row paths,
fit_pipeline and a one-row run_grid, must agree with both.
"""

import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from urdufake import persistence, runner
from urdufake.corpus import generate_synthetic
from urdufake.metrics import confusion, summarize
from urdufake.preprocess import PreprocessConfig, PreprocessedDoc, preprocess_corpus
from urdufake.runner import (
    ExperimentConfig,
    FittedPipeline,
    PipelineError,
    ResultRow,
    fit_pipeline,
    parse_config_file,
    render_results_tsv,
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
    Vocabulary,
    apply_tfidf,
    build_vocabulary,
    count_terms,
    transform,
)

from conftest import FAKE_POOL, REAL_POOL, run_alone, stable_k_best
from reference_vectorize import (
    csr_bytes,
    reference_build_vocabulary,
    reference_counts,
    reference_idf,
    reference_terms,
    reference_tfidf,
    reference_transform,
)

ROOT = Path(__file__).resolve().parent.parent


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
    X, norms = _stage("transform", reference_tfidf, docs, vocab, spec)
    y = labels_to_signs([d.label for d in train])
    mask = _stage("select_k_best", select_k_best, _stage("chi2_scores", chi2_scores, X, y),
                  config.k_best)
    X_sel = _stage("apply_mask", apply_mask, X, mask)
    gamma = config.svm_gamma if config.svm_gamma is not None else 1.0 / max(1, mask.n_kept)
    model = _stage("train_svm", train_svm, X_sel, y,
                   params=KernelParams(degree=config.svm_degree, gamma=gamma,
                                       coef0=config.svm_coef0),
                   C=config.svm_c, tol=config.svm_tol, max_passes=config.svm_max_passes)
    return FittedPipeline(config=config, vocabulary=vocab, mask=mask, svm=model,
                          sv_norms=norms[model.support], resources_digest=resources.digest)


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
    one_row = [run_alone(train, test, c, resources, sn=sn)
               for sn, c in enumerate(configs, start=1) if sn in saved]
    assert render_results_tsv(one_row) == render_results_tsv([r for r in rows if r.ok])


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_every_row_keeps_the_select_k_best_columns(resources):
    """The grid scores each spec's features once and cuts every K of the
    spec from those scores, keeping the columns a stable sort keeps."""
    train = generate_synthetic(3, 20, (FAKE_POOL, REAL_POOL), (2, 3), split="train")
    test = generate_synthetic(4, 8, (FAKE_POOL, REAL_POOL), (2, 3), split="test")
    configs = [c for c in mixed_grid() if c.classifier == "svm" and c.name != "w4_only"]
    kept = {}
    run_grid(train, test, configs, resources,
             on_fitted=lambda row, fitted: kept.setdefault(row.name, fitted.mask.kept))
    y = labels_to_signs([d.label for d in train])
    masks = {}
    for config in configs:
        docs = preprocess_corpus(train, config.preprocess, resources)
        vocab = build_vocabulary(docs, config.ngram_spec())
        scores = chi2_scores(apply_tfidf(vocab.counts, vocab), y)
        masks[config.name] = stable_k_best(scores, config.k_best)
        assert kept[config.name].tobytes() == masks[config.name].tobytes(), config.name
    # one spec at two K values that both cut
    assert masks["w1234_c23456_b"].size == 150 < masks["w1234_c23456_a"].size == 400


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_shipped_grid_featurizes_each_spec_once(resources, monkeypatch):
    """The 9-row shipped grid has 4 distinct specs: each is restricted,
    weighted on both splits and chi-squared scored once, and its feature
    matrices are let go before its rows are delivered, so the grid holds no
    spec's features between tasks. The test decision values are computed
    once per fit key, and each row's are those its fitted pipeline gives
    the test split, bit for bit. The grid runs in-process, so the counts
    and the work are this process's."""
    monkeypatch.setattr(runner, "_usable_cpus", lambda: 1)
    train = generate_synthetic(3, 20, (FAKE_POOL, REAL_POOL), (5, 10), split="train")
    test = generate_synthetic(4, 8, (FAKE_POOL, REAL_POOL), (5, 10), split="test")
    configs = parse_config_file(ROOT / "configs" / "shared_task_grid.cfg")
    calls = {"restrict": 0, "weigh_counts": 0, "apply_tfidf": 0, "chi2_scores": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(Vocabulary, "restrict", counted("restrict", Vocabulary.restrict))
    monkeypatch.setattr(runner, "weigh_counts", counted("weigh_counts", runner.weigh_counts))
    monkeypatch.setattr(runner, "apply_tfidf", counted("apply_tfidf", runner.apply_tfidf))
    monkeypatch.setattr(runner, "chi2_scores", counted("chi2_scores", runner.chi2_scores))
    margins = []  # (model, its test decision values), one per call

    def recorded(model, X):
        margins.append((model, decision_function(model, X)))
        return margins[-1][1]

    monkeypatch.setattr(runner, "decision_function", recorded)
    works, matrices = [], []  # matrices: (spec, its train and test TF-IDF rows, as weakrefs)

    class RecordedWork(runner._SharedWork):
        def __init__(self, *args):
            super().__init__(*args)
            works.append(self)

        def features(self, spec):
            features = super().features(spec)
            matrices.append((spec, weakref.ref(features[1]), weakref.ref(features[2])))
            return features

    monkeypatch.setattr(runner, "_SharedWork", RecordedWork)
    specs = [config.ngram_spec() for config in configs]
    kept, fitted_rows = {}, []

    def keep(row, fitted):
        kept[row.sn] = {spec for spec, *refs in matrices
                        if any(ref() is not None for ref in refs)}
        fitted_rows.append(fitted)

    rows = run_grid(train, test, configs, resources, on_fitted=keep)
    grid_margins = list(margins)

    assert [r.ok for r in rows] == [True] * 9 and len(set(specs)) == 4 and len(works) == 1
    # the train split is weighed with its norms kept, the test split by apply_tfidf
    assert calls == {"restrict": 4, "weigh_counts": 4, "apply_tfidf": 4, "chi2_scores": 4}
    assert len(matrices) == 4 and kept == {sn: set() for sn in range(1, 10)}
    keys = {runner._fit_key(c, r.k_selected) for c, r in zip(configs, rows)}
    assert len(grid_margins) == len(keys) == 4 and len(fitted_rows) == 9
    for fitted in fitted_rows:
        values = next(v for model, v in grid_margins if model is fitted.svm)
        assert values.tobytes() == fitted.decision_values(test, resources).tobytes()


# --- integer keys and restriction against the reference featurizer ---------

#: Token letters: ASCII and Urdu ones, code points below U+0020 that are not
#: whitespace (they sort below the space that joins a word n-gram's
#: tokens), and astral code points. Short tokens over few letters make
#: tokens that are prefixes of each other.
LETTERS = "ab" + "\u0628\u067e" + "\x01\x1b" + "\U0001f600\U00010000"
doc_tokens = st.lists(st.text(alphabet=LETTERS, min_size=1, max_size=3), min_size=0, max_size=10)
word_subsets = st.frozensets(st.integers(1, 4))
char_subsets = st.frozensets(st.integers(2, 6))

#: A document whose stream holds 1,700 distinct code points, more than the
#: 1,625 whose char 6-grams fit in 64 bits.
WIDE_ALPHABET_DOC = tuple(chr(0x4E00 + i) + chr(0x4E00 + 1699 - i) for i in range(850))
#: A document of 66,000 distinct tokens, more than the 65,536 whose word
#: 4-grams fit in 64 bits.
WIDE_WORDS_DOC = tuple(f"{i:x}" for i in range(66_000))


def vocabulary_bytes(vocab) -> tuple:
    """Everything a vocabulary holds and saves, as bytes."""
    arrays, texts = vocab.blobs()
    return ({name: (a.dtype.str, a.shape, a.tobytes()) for name, a in arrays.items()}, texts,
            None if vocab.counts is None else csr_bytes(vocab.counts))


def check_against_reference(train, test, spec, union_spec):
    """The integer featurizer on token lists train/test gives the reference
    featurizer's terms, df, counts and TF-IDF rows, for the spec itself and
    restricted from the union spec."""
    train_docs = [PreprocessedDoc.from_tokens(t) for t in train]
    test_docs = [PreprocessedDoc.from_tokens(t) for t in test]
    try:
        terms, doc_freq = reference_terms(train_docs, spec)
    except VectorizeError as exc:
        with pytest.raises(VectorizeError, match=str(exc)):
            build_vocabulary(train_docs, union_spec).restrict(spec)
        return
    union_terms, union_df = reference_terms(train_docs, union_spec)
    union = build_vocabulary(train_docs, union_spec)
    assert union.terms_by_index() == union_terms
    assert union.doc_freq.tobytes() == union_df.tobytes()
    assert csr_bytes(union.counts) == \
        csr_bytes(reference_counts(train_docs, union_terms, union_spec))

    vocab, cols = union.restrict(spec)
    assert vocab.terms_by_index() == terms
    assert vocab.doc_freq.tobytes() == doc_freq.tobytes()
    assert [union_terms[c] for c in cols] == terms
    assert csr_bytes(vocab.counts) == csr_bytes(reference_counts(train_docs, terms, spec))
    own = build_vocabulary(train_docs, spec)
    assert vocabulary_bytes(vocab) == vocabulary_bytes(own)
    ref_vocab = reference_build_vocabulary(train_docs, spec)
    assert vocabulary_bytes(replace(own, counts=None)) == vocabulary_bytes(ref_vocab)

    assert vocab.idf.tobytes() == reference_idf(ref_vocab).tobytes()
    assert csr_bytes(apply_tfidf(vocab.counts, vocab)) == \
        csr_bytes(reference_transform(train_docs, ref_vocab, spec))

    restricted = count_terms(test_docs, union)[:, cols]
    assert csr_bytes(apply_tfidf(restricted, vocab)) == \
        csr_bytes(reference_transform(test_docs, ref_vocab, spec))
    assert csr_bytes(transform(test_docs, vocab)) == \
        csr_bytes(reference_transform(test_docs, ref_vocab, spec))
    assert csr_bytes(count_terms(test_docs, vocab)) == \
        csr_bytes(reference_counts(test_docs, terms, union_spec))
    return union


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
    check_against_reference(train, test, NgramSpec(words, chars),
                            NgramSpec(words | extra_words, chars | extra_chars))


@settings(max_examples=4, deadline=None)
@given(
    train=st.lists(doc_tokens, min_size=0, max_size=3),
    test=st.lists(doc_tokens, min_size=1, max_size=3),
    words=word_subsets, chars=char_subsets.filter(bool),
)
def test_char_keys_past_64_bits_equal_reference(train, test, words, chars):
    union = check_against_reference(
        [WIDE_ALPHABET_DOC] + train, test + [WIDE_ALPHABET_DOC[::-1]],
        NgramSpec(words, chars), NgramSpec(words, chars | {5, 6}))
    assert union.keys["c6:"].dtype == object and union.keys["c5:"].dtype == np.uint64


@settings(max_examples=2, deadline=None)
@given(
    train=st.lists(doc_tokens, min_size=0, max_size=3),
    test=st.lists(doc_tokens, min_size=1, max_size=3),
    words=word_subsets.filter(bool),
)
def test_word_keys_past_64_bits_equal_reference(train, test, words):
    union = check_against_reference(
        [WIDE_WORDS_DOC] + train, test + [WIDE_WORDS_DOC[1000:3000]],
        NgramSpec(words), NgramSpec(words | {3, 4}))
    assert union.keys["w4:"].dtype == object and union.keys["w3:"].dtype == np.uint64


@pytest.mark.parametrize("tokens, spec, wide", [
    (WIDE_ALPHABET_DOC, NgramSpec({1}, {2, 6}), "c6:"),
    (WIDE_WORDS_DOC, NgramSpec({1, 4}), "w4:"),
])
def test_keys_past_64_bits_survive_a_model_file(tmp_path, tokens, spec, wide):
    docs = [PreprocessedDoc.from_tokens(tokens), PreprocessedDoc.from_tokens(tokens[::-3])]
    vocab = replace(build_vocabulary(docs, spec), counts=None)
    assert vocab.keys[wide].dtype == object
    arrays, texts = vocab.blobs()
    path = tmp_path / "vocab.ufnd"
    persistence.write_container(path, {}, arrays, texts)
    loaded = Vocabulary.from_blobs(*persistence.read_container(path)[1:])
    assert vocabulary_bytes(loaded) == vocabulary_bytes(vocab)
    assert loaded.terms_by_index() == vocab.terms_by_index()
    assert csr_bytes(count_terms(docs, loaded)) == csr_bytes(count_terms(docs, vocab))


@pytest.mark.parametrize("tokens, spec", [
    (WIDE_ALPHABET_DOC, NgramSpec({1, 2}, {2, 6})),
    (WIDE_WORDS_DOC, NgramSpec({1, 4}, {2})),
])
def test_terms_of_chosen_columns_are_those_of_all_columns(tokens, spec):
    vocab = build_vocabulary([PreprocessedDoc.from_tokens(tokens)], spec)
    terms = vocab.terms_by_index()
    # repeats, any order, and the first and last column of every namespace
    cols = np.r_[np.random.default_rng(0).integers(0, vocab.size, size=200),
                 [c for lo, hi in vocab._runs.values() for c in (hi - 1, lo)]]
    assert vocab.terms_by_index(cols) == [terms[c] for c in cols]
    assert vocab.terms_by_index([]) == []


def test_a_token_holding_a_space_is_refused():
    with pytest.raises(VectorizeError, match="contains a space"):
        build_vocabulary([PreprocessedDoc.from_tokens(["a b", "c"])], NgramSpec({1}))


def test_restrict_to_own_spec_is_identity():
    docs = [PreprocessedDoc.from_tokens(["aa", "b", "aa"]), PreprocessedDoc.from_tokens(["b"])]
    spec = NgramSpec({1, 2}, {2, 3})
    vocab = build_vocabulary(docs, spec)
    same, cols = vocab.restrict(spec)
    assert same is vocab
    np.testing.assert_array_equal(cols, np.arange(vocab.size))
