import importlib.util
import io
import re
import tracemalloc
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from urdufake import runner
from urdufake.cli import _INPUT_ERRORS
from urdufake.corpus import Corpus, Document, Label, generate_synthetic, load_corpus
from urdufake import persistence
from urdufake.persistence import MAGIC, ModelFormatError
from urdufake.preprocess import PreprocessConfig, ResourceError, Resources, preprocess_corpus
from urdufake.runner import (
    ConfigError,
    ExperimentConfig,
    PipelineError,
    fit_pipeline,
    load_model,
    parse_config_file,
    parse_config_text,
    render_results_md,
    render_results_tsv,
    run_grid,
    save_model,
    serialize_configs,
)
from urdufake.selection import apply_mask
from urdufake.svm import KernelParams, decision_function
from urdufake.vectorize import transform

from conftest import FAKE_POOL, REAL_POOL, run_alone

ROOT = Path(__file__).resolve().parent.parent


# --- config file format --------------------------------------------------------

CONFIG_TEXT = """
# grid defaults
seed = 7
classifier = svm
remove_stopwords = true

[experiment]
name = a
word_orders = 1,2
char_orders = 2,3,4
k_best = 100

[experiment]
name = b
word_orders = 1
char_orders = -
k_best = 50
svm_gamma = 0.25
"""


def test_parse_config_blocks_inherit_defaults():
    configs = parse_config_text(CONFIG_TEXT)
    assert [c.name for c in configs] == ["a", "b"]
    assert all(c.seed == 7 for c in configs)
    assert configs[0].word_orders == (1, 2)
    assert configs[1].char_orders == ()
    assert configs[1].svm_gamma == 0.25
    assert configs[0].svm_gamma is None


def test_config_round_trip_lossless():
    configs = parse_config_text(CONFIG_TEXT)
    text = serialize_configs(configs)
    assert parse_config_text(text) == configs


def test_config_round_trip_covers_cnn_fields():
    cfg = ExperimentConfig(
        name="cnn-run", classifier="cnn", cnn_unit="char", cnn_channels=(1, 2, 3, 4, 5, 6),
        cnn_epochs=3, cnn_max_len=400, cnn_embedding_dropout=0.1,
        preprocess=PreprocessConfig(remove_diacritics=False),
    )
    assert parse_config_text(serialize_configs([cfg])) == [cfg]


def test_config_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown config key"):
        parse_config_text("bogus = 1\n[experiment]\n")


def test_config_bad_bool_rejected():
    with pytest.raises(ConfigError):
        parse_config_text("lemmatize = maybe\n[experiment]\n")


def test_config_digest_stable():
    cfg = ExperimentConfig(name="x")
    assert cfg.digest() == cfg.digest()
    assert cfg.digest() != ExperimentConfig(name="y").digest()


#: The digests of the shipped configs; results.tsv and every saved model carry them.
SHIPPED_DIGESTS = {
    "shared_task_grid.cfg": ["99e33d7a9cc3", "414d785efd6e", "ff305adea0cd", "8ed570fd0277",
                             "60b68d505770", "1db2890570bd", "7be2d9075fef", "256a9da486dd",
                             "d8b688cb51fa"],
    "cnn_variants.cfg": ["8c2fdac3b9bf", "9d1090a922b5", "ae0aadb99828", "f4ef61610462"],
}


@pytest.mark.parametrize("config_file", sorted(SHIPPED_DIGESTS))
def test_shipped_config_digests_are_pinned(config_file):
    configs = parse_config_file(ROOT / "configs" / config_file)
    assert [c.digest() for c in configs] == SHIPPED_DIGESTS[config_file]


@pytest.mark.parametrize("field_name", ["name", "cnn_unit"])
@pytest.mark.parametrize("value", ["a#b", " pad", "pad ", "x\ny", "x\ry", "x\u2028y", "a\tb",
                                   "a|b"])
def test_config_text_that_would_not_round_trip_is_rejected(field_name, value):
    with pytest.raises(ConfigError, match=field_name):
        ExperimentConfig(**{field_name: value})


@pytest.mark.parametrize("value", ["a\tb", "a|b"])
def test_config_parser_refuses_a_name_that_would_split_a_results_row(value):
    with pytest.raises(ConfigError, match="name must not contain"):
        parse_config_text(f"[experiment]\nname = {value}\n")


#: A strategy per field annotation a config key may have; a new annotation
#: fails here until it has one.
_ONE_LINE = st.text().filter(
    lambda s: not any(c in s for c in "#|\t") and s == s.strip() and len(s.splitlines()) <= 1)
_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_STRATEGIES = {
    "str": _ONE_LINE,
    "int": st.integers(),
    "float": _FINITE,
    "bool": st.booleans(),
    "tuple[int, ...]": st.lists(st.integers(), max_size=6).map(tuple),
    "float | None": st.none() | _FINITE,
    "int | None": st.none() | st.integers(),
}


def _fields_of(cls, **strategies):
    return st.builds(cls, **{f.name: strategies[f.name] if f.name in strategies
                             else _STRATEGIES[f.type] for f in fields(cls)})


@settings(max_examples=200, deadline=None)
@given(_fields_of(ExperimentConfig, classifier=st.sampled_from(["svm", "cnn"]),
                  preprocess=_fields_of(PreprocessConfig)))
def test_every_config_round_trips_through_its_text(cfg):
    assert parse_config_text(serialize_configs([cfg])) == [cfg]


def test_readme_key_table_lists_every_config_key_with_its_default():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Config keys\n", 1)[1].split("\n#", 1)[0]
    table = re.findall(r"^\| `(\w+)` \| [^|]+ \| `([^`]*)` \|", section, re.MULTILINE)
    default_lines = serialize_configs([ExperimentConfig()]).splitlines()[1:]
    assert table == [tuple(line.split(" = ", 1)) for line in default_lines]


# --- pipeline ------------------------------------------------------------------

def test_one_row_synthetic_svm(synthetic_train, synthetic_test, resources):
    cfg = ExperimentConfig(name="syn", k_best=5000)
    row = run_alone(synthetic_train, synthetic_test, cfg, resources)
    assert row.ok
    assert row.report.f1_macro >= 0.95
    assert row.v_total > 0 and row.k_selected <= 5000


def test_one_row_k_larger_than_v_clamps(small_train, small_test, resources):
    cfg = ExperimentConfig(name="clamp", k_best=10**7, word_orders=(1,), char_orders=())
    with pytest.warns(UserWarning, match="exceeds feature count"):
        row = run_alone(small_train, small_test, cfg, resources)
    assert row.k_selected == row.v_total


def test_one_row_deterministic(small_train, small_test, resources):
    cfg = ExperimentConfig(name="det", k_best=300, seed=5)
    r1 = run_alone(small_train, small_test, cfg, resources)
    r2 = run_alone(small_train, small_test, cfg, resources)
    assert r1.report == r2.report
    assert r1.digest == r2.digest


def test_a_degree_2_pipeline_gives_each_document_its_value_alone(synthetic_train,
                                                                 synthetic_test, resources):
    """Every test document's decision value, byte for byte, is the one it
    gets scored on its own."""
    cfg = ExperimentConfig(name="dual", svm_degree=2, svm_gamma=1.0, svm_coef0=1.0,
                           word_orders=(1, 2), char_orders=(2, 3), k_best=2000)
    fitted = fit_pipeline(synthetic_train, cfg, resources)
    assert fitted.svm.n_support > 1
    batch = fitted.decision_values(synthetic_test, resources)
    alone = np.concatenate([fitted.decision_values(Corpus((doc,), split="test"), resources)
                            for doc in synthetic_test])
    assert alone.tobytes() == batch.tobytes()


@pytest.fixture(scope="module")
def wide_pipeline(resources):
    """A degree-1 pipeline (coef0 != 0) over 12,000 word columns that keeps
    half of them, and test documents: one of more than 10,000 terms, one
    with out-of-vocabulary words, an empty one and one whose only term the
    mask drops."""
    rng = np.random.default_rng(0)

    def words(n):
        return " ".join(f"w{w:05d}" for w in rng.choice(12_000, size=n, replace=False))

    train = Corpus(tuple(Document(f"d{i}", words(10_500), [Label.FAKE, Label.REAL][i % 2])
                         for i in range(4)), "train")
    config = ExperimentConfig(name="wide", word_orders=(1,), char_orders=(), k_best=6_000,
                              svm_gamma=0.5, svm_coef0=0.25)
    fitted = fit_pipeline(train, config, resources)
    assert fitted.vocabulary.size > 10_000 and fitted.mask.n_kept == 6_000
    dropped = np.setdiff1d(np.arange(fitted.vocabulary.size), fitted.mask.kept)[0]
    texts = [words(10_500), "unseen " + words(20) + " words", "",
             fitted.vocabulary.terms_by_index([dropped])[0].removeprefix("w1:")]
    test = Corpus(tuple(Document(f"t{i}", text, Label.FAKE) for i, text in enumerate(texts)),
                  "test")
    return fitted, preprocess_corpus(test, config.preprocess, resources)


def test_a_degree_1_pipeline_decides_over_the_vocabulary_as_over_the_masked_rows(
        wide_pipeline):
    """Through the weights spread over the vocabulary's columns, each
    document gets the value of the rows masked to the model's columns, bit
    for bit."""
    fitted, docs = wide_pipeline
    X = transform(docs, fitted.vocabulary)
    masked = apply_mask(X, fitted.mask)
    assert X.getnnz(axis=1)[0] > 10_000 and X.getnnz(axis=1)[2] == 0
    assert X.getnnz(axis=1)[3] > 0 and masked.getnnz(axis=1)[3] == 0
    values = fitted.values_of(docs)
    assert values.tobytes() == decision_function(fitted.svm, masked).tobytes()
    assert values[2] == values[3] != 0.0  # the intercept alone, coef0 included


def test_a_degree_1_pipeline_makes_no_masked_copy(wide_pipeline, monkeypatch):
    fitted, docs = wide_pipeline
    calls = []

    def spy(X, mask):
        calls.append(X.shape)
        return apply_mask(X, mask)

    monkeypatch.setattr(runner, "apply_mask", spy)
    fitted.values_of(docs)
    assert calls == []
    replace(fitted, svm=replace(fitted.svm, kernel=KernelParams(degree=2))).values_of(docs)
    assert calls == [(len(docs), fitted.vocabulary.size)]


def test_no_leakage_test_split_does_not_affect_fit(small_train, resources):
    cfg = ExperimentConfig(name="leak", k_best=200)
    other_test = generate_synthetic(999, 10, (FAKE_POOL, REAL_POOL), (5, 10), split="test")
    f1 = fit_pipeline(small_train, cfg, resources)
    f2 = fit_pipeline(small_train, cfg, resources)
    # fitting never sees a test corpus at all; two fits agree exactly
    assert f1.vocabulary.terms_by_index() == f2.vocabulary.terms_by_index()
    np.testing.assert_array_equal(f1.vocabulary.idf, f2.vocabulary.idf)
    np.testing.assert_array_equal(f1.mask.kept, f2.mask.kept)
    # and predictions on different test sets come from the same artifacts
    p1 = f1.predict(other_test, resources)
    p2 = f2.predict(other_test, resources)
    assert p1 == p2


def test_pipeline_error_names_stage(resources):
    empty_after_preproc = Corpus(
        documents=(Document("a", "کا", Label.FAKE), Document("b", "کی", Label.REAL)),
        split="train",
    )
    cfg = ExperimentConfig(name="bad", word_orders=(1,), char_orders=())
    with pytest.raises(PipelineError, match="build_vocabulary"):
        fit_pipeline(empty_after_preproc, cfg, resources)


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_run_grid_continues_after_row_failure(small_train, small_test, resources):
    good = ExperimentConfig(name="good", k_best=100, word_orders=(1,), char_orders=())
    # k_best = 0 fails inside the selection stage
    bad = ExperimentConfig(name="bad", k_best=0, word_orders=(1,), char_orders=())
    rows = run_grid(small_train, small_test, [good, bad, good], resources)
    assert [r.ok for r in rows] == [True, False, True]
    assert "select_k_best" in rows[1].error
    assert rows[1].sn == 2


def test_run_grid_names_the_row_in_its_warnings(small_train, small_test, resources):
    fits = ExperimentConfig(name="fits", k_best=20, word_orders=(1,), char_orders=())
    clamps = ExperimentConfig(name="clamps", k_best=10**7, word_orders=(1,), char_orders=())
    with pytest.warns(UserWarning, match=r"row 2 clamps: K=\d+ exceeds feature count") as caught:
        rows = run_grid(small_train, small_test, [fits, clamps], resources)
    assert all(r.ok for r in rows)
    assert [w.filename for w in caught] == [__file__]


def test_fit_pipeline_and_a_one_row_grid_name_the_config_in_their_warnings(
        small_train, small_test, resources):
    clamps = ExperimentConfig(name="clamps", k_best=10**7, word_orders=(1,), char_orders=())
    with pytest.warns(UserWarning, match=r"^clamps: K=\d+ exceeds feature count") as caught:
        fit_pipeline(small_train, clamps, resources)
    assert [w.filename for w in caught] == [__file__]
    with pytest.warns(UserWarning,
                      match=r"^row 1 clamps: K=\d+ exceeds feature count") as caught:
        run_grid(small_train, small_test, [clamps], resources)
    assert [w.filename for w in caught] == [__file__]


def test_failing_cnn_row_writes_k_best_0(small_train, small_test, resources):
    good = ExperimentConfig(name="good", k_best=20, word_orders=(1,), char_orders=())
    bad = ExperimentConfig(name="bad", classifier="cnn", cnn_unit="bogus")
    rows = run_grid(small_train, small_test, [good, bad], resources)
    assert [r.ok for r in rows] == [True, False]
    assert "stage 'fit_encoder'" in rows[1].error
    assert [r.k_best for r in rows] == [20, 0]
    cells = render_results_tsv(rows).split("\n")[2].split("\t")
    assert cells[:4] == ["2", "bad", "", "0"]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_training_that_ends_non_finite_is_an_error_row_and_fits_nothing(small_test,
                                                                        resources):
    """Kernel values past float64, and a learning rate past float32 on one
    batch, each leave the fitted parameters non-finite."""
    train = generate_synthetic(3, 5, (FAKE_POOL, REAL_POOL), (5, 10), split="train")
    svm = ExperimentConfig(name="svm", svm_gamma=1e300, svm_degree=2, k_best=50)
    cnn = ExperimentConfig(name="cnn", classifier="cnn", cnn_epochs=1, cnn_batch_size=64,
                           cnn_learning_rate=1e39)
    rows = run_grid(train, small_test, [svm, cnn, replace(svm, name="ok", svm_gamma=None)],
                    resources)
    assert [r.error for r in rows] == [
        "stage 'train_svm': SMO diverged: a kernel value is not finite",
        "stage 'train_cnn': embedding holds a non-finite value after training", None]
    for config in (svm, cnn):
        with pytest.raises(PipelineError, match="not finite|non-finite"):
            fit_pipeline(train, config, resources)


def test_invalid_ngram_orders_fail_their_row_at_the_build_vocabulary_stage(
        small_train, small_test, resources):
    first = ExperimentConfig(name="first", k_best=50, word_orders=(1,), char_orders=(2,))
    bad = ExperimentConfig(name="bad", k_best=50, word_orders=(1, 5), char_orders=())
    last = ExperimentConfig(name="last", k_best=100, word_orders=(1, 2), char_orders=())
    rows = run_grid(small_train, small_test, [first, bad, last], resources)
    assert rows[1].error == ("stage 'build_vocabulary': word orders [5] outside supported "
                             "range 1..4")
    for sn, config in ((1, first), (3, last)):
        alone = run_alone(small_train, small_test, config, resources, sn=sn)
        assert replace(rows[sn - 1], seconds=0.0) == replace(alone, seconds=0.0)


def test_run_grid_single_config(small_train, small_test, resources):
    rows = run_grid(small_train, small_test,
                    [ExperimentConfig(name="solo", k_best=100)], resources)
    assert len(rows) == 1 and rows[0].sn == 1


def test_run_grid_empty_rejected(small_train, small_test, resources):
    with pytest.raises(ConfigError):
        run_grid(small_train, small_test, [], resources)


def test_cnn_pipeline_through_runner(small_train, small_test, resources):
    cfg = ExperimentConfig(name="cnn", classifier="cnn", cnn_epochs=3, seed=3,
                           cnn_channels=(1, 2))
    row = run_alone(small_train, small_test, cfg, resources)
    assert row.ok
    assert 0.0 <= row.report.f1_macro <= 1.0
    assert row.k_best == 0


# --- rendering -----------------------------------------------------------------

def grid_rows(small_train, small_test, resources):
    configs = [
        ExperimentConfig(name="r1", k_best=50, word_orders=(1,), char_orders=()),
        ExperimentConfig(name="r2", k_best=150, word_orders=(1, 2), char_orders=(2,)),
        ExperimentConfig(name="r3", k_best=0, word_orders=(1,), char_orders=()),
    ]
    return run_grid(small_train, small_test, configs, resources)


def test_results_tsv_shape_and_rounding(small_train, small_test, resources):
    rows = grid_rows(small_train, small_test, resources)
    text = render_results_tsv(rows)
    lines = text.strip().split("\n")
    assert len(lines) == 4  # header + 3 rows
    header = lines[0].split("\t")
    assert header[0] == "sn" and "f1_macro" in header
    ok_cells = lines[1].split("\t")
    f1_macro = ok_cells[header.index("f1_macro")]
    assert len(f1_macro.split(".")[1]) == 4  # 4-dp presentation
    err_cells = lines[3].split("\t")
    assert err_cells[header.index("status")] == "error"


def test_results_md_flags_best(small_train, small_test, resources):
    rows = grid_rows(small_train, small_test, resources)
    md = render_results_md(rows)
    assert "**" in md       # best score flagged
    assert "ERROR" in md


def test_results_tsv_deterministic(small_train, small_test, resources):
    a = render_results_tsv(grid_rows(small_train, small_test, resources))
    b = render_results_tsv(grid_rows(small_train, small_test, resources))
    assert a == b


# --- persistence ---------------------------------------------------------------

def test_save_load_round_trip_svm(small_train, small_test, resources, tmp_path):
    cfg = ExperimentConfig(name="persist", k_best=200)
    fitted = fit_pipeline(small_train, cfg, resources)
    path = tmp_path / "m.ufnd"
    save_model(path, fitted)
    loaded = load_model(path)
    np.testing.assert_array_equal(
        fitted.decision_values(small_test, resources),
        loaded.decision_values(small_test, resources),
    )
    assert fitted.predict(small_test, resources) == loaded.predict(small_test, resources)
    assert loaded.config == cfg


def test_a_model_of_2_40_documents_loads_and_predicts_in_little_memory(
        small_train, small_test, resources, tmp_path):
    """vocab.n_docs comes from the file: the idf weights of a model that
    claims 2**40 training documents take memory per column, not per
    possible document frequency."""
    path = tmp_path / "m.ufnd"
    save_model(path, fit_pipeline(small_train, ExperimentConfig(k_best=200), resources))
    meta, arrays, texts = persistence.read_container(path)
    arrays["vocab.n_docs"] = np.asarray([2**40])
    persistence.write_container(path, dict(meta), dict(arrays), dict(texts))
    tracemalloc.start()
    try:
        values = load_model(path).decision_values(small_test, resources)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert values.shape == (len(small_test),) and np.isfinite(values).all()
    assert peak < 16 * 2**20


def test_a_model_counts_the_orders_its_vocabulary_holds_not_those_its_config_names(
        small_train, small_test, resources, tmp_path):
    cfg = ExperimentConfig(name="w12_c23456", word_orders=(1, 2), char_orders=(2, 3, 4, 5, 6),
                           k_best=500)
    path, edited = tmp_path / "m.ufnd", tmp_path / "edited.ufnd"
    save_model(path, fit_pipeline(small_train, cfg, resources))
    meta, arrays, texts = persistence.read_container(path)
    config = meta["config"].replace("word_orders = 1,2\n", "word_orders = 1\n")
    assert config != meta["config"]
    persistence.write_container(edited, dict(meta, config=config), dict(arrays), dict(texts))
    loaded = load_model(edited)
    assert loaded.config.word_orders == (1,)
    assert loaded.decision_values(small_test, resources).tobytes() == \
        load_model(path).decision_values(small_test, resources).tobytes()


def test_save_load_round_trip_cnn(small_train, small_test, resources, tmp_path):
    cfg = ExperimentConfig(name="persist-cnn", classifier="cnn", cnn_epochs=2,
                           cnn_channels=(1, 2), seed=1)
    fitted = fit_pipeline(small_train, cfg, resources)
    path = tmp_path / "m.ufnd"
    save_model(path, fitted)
    loaded = load_model(path)
    np.testing.assert_array_equal(
        fitted.decision_values(small_test, resources),
        loaded.decision_values(small_test, resources),
    )
    assert fitted.predict(small_test, resources) == loaded.predict(small_test, resources)
    _, arrays, _ = persistence.read_container(path)
    assert {arrays[name].dtype for name in arrays if name != "cnn.max_len"
            } == {np.dtype(np.float32)}


def test_a_float64_cnn_file_loads_and_predicts_in_float64(small_train, small_test, resources,
                                                           tmp_path):
    """A CNN file written in float64, as models were before they became
    float32, runs in float64 and predicts bit-identically to the float64
    model in memory."""
    cfg = ExperimentConfig(name="f64-cnn", classifier="cnn", cnn_epochs=2,
                           cnn_channels=(1, 2), seed=1)
    fitted = fit_pipeline(small_train, cfg, resources)
    fitted = replace(fitted, cnn=fitted.cnn.astype(np.float64))
    path = tmp_path / "m.ufnd"
    save_model(path, fitted)
    _, arrays, _ = persistence.read_container(path)
    assert arrays["cnn.dense_w"].dtype == np.float64
    loaded = load_model(path)
    assert loaded.cnn.dtype == np.float64
    expected = fitted.decision_values(small_test, resources)
    assert expected.dtype == np.float64
    np.testing.assert_array_equal(loaded.decision_values(small_test, resources), expected)
    # half the size of the float64 file
    save_model(tmp_path / "f32.ufnd", replace(fitted, cnn=fitted.cnn.astype(np.float32)))
    assert (tmp_path / "f32.ufnd").stat().st_size < 0.6 * path.stat().st_size


#: The blobs of an SVM model file: the vocabulary as its rank tables and the
#: term keys of each namespace, and the support vectors as their term counts
#: and one norm each.
SVM_ARRAYS = {
    "doc_freq", "mask.kept", "vocab.n_docs", "vocab.alphabet",
    *(f"vocab.keys.c{n}" for n in range(2, 7)), *(f"vocab.keys.w{n}" for n in range(1, 5)),
    "svm.sv.counts", "svm.sv.norms", "svm.sv.indices", "svm.sv.indptr",
    "svm.dual_coef", "svm.scalars",
}


def test_a_file_of_another_major_version_is_refused(small_train, resources, tmp_path,
                                                     monkeypatch):
    """A major-4 file, which held the support vectors' values in svm.sv.data
    and their shape in svm.sv.shape, and a major-6 file each stop loading
    with one line naming their version."""
    fitted = fit_pipeline(small_train, ExperimentConfig(name="compat", k_best=200), resources)
    path = tmp_path / "m.ufnd"
    save_model(path, fitted)
    meta, arrays, texts = persistence.read_container(path)
    del arrays["svm.sv.counts"], arrays["svm.sv.norms"]
    arrays["svm.sv.data"] = fitted.svm.support_vectors.data
    arrays["svm.sv.shape"] = np.asarray(fitted.svm.support_vectors.shape)
    for major in (4, 6):
        other = tmp_path / f"major{major}.ufnd"
        with monkeypatch.context() as m:
            m.setattr(persistence, "MAJOR", major)
            persistence.write_container(other, meta, arrays, texts)
        assert other.read_bytes()[4:8] == major.to_bytes(4, "little")
        with pytest.raises(ModelFormatError) as err:
            load_model(other)
        assert str(err.value) == (f"model format major version {major} is not the supported 5; "
                                  "train the model again, or load it with the version that "
                                  "wrote it")


def _lemma_file(tmp_path):
    path = tmp_path / "lemmas.tsv"
    path.write_text("jhoot1\tjhoot2\n", encoding="utf-8")
    return path


@pytest.mark.parametrize("kind", ["svm", "cnn"])
def test_predicting_with_other_resources_is_refused(small_train, small_test, resources,
                                                    tmp_path, kind):
    cfg = ExperimentConfig(name="res", k_best=100, classifier=kind, cnn_epochs=1)
    fitted = fit_pipeline(small_train, cfg, resources)
    path = tmp_path / "m.ufnd"
    save_model(path, fitted)
    loaded = load_model(path)
    assert loaded.resources_digest == resources.digest
    np.testing.assert_array_equal(loaded.decision_values(small_test, Resources.default()),
                                  fitted.decision_values(small_test, resources))
    other = Resources.load(lemmas_path=_lemma_file(tmp_path))
    for pipeline in (fitted, loaded):
        with pytest.raises(ResourceError, match="fitted with other stopwords"):
            pipeline.decision_values(small_test, other)


def test_save_is_byte_deterministic(small_train, resources, tmp_path):
    cfg = ExperimentConfig(name="det", k_best=100)
    a, b = tmp_path / "a.ufnd", tmp_path / "b.ufnd"
    save_model(a, fit_pipeline(small_train, cfg, resources))
    save_model(b, fit_pipeline(small_train, cfg, resources))
    assert a.read_bytes() == b.read_bytes()


def test_load_empty_file_names_magic_check(tmp_path):
    p = tmp_path / "empty.ufnd"
    p.write_bytes(b"")
    with pytest.raises(ModelFormatError, match="magic-byte"):
        load_model(p)


def test_load_wrong_magic(tmp_path):
    p = tmp_path / "bad.ufnd"
    p.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(ModelFormatError, match="magic-byte"):
        load_model(p)


def test_load_truncated_file(small_train, resources, tmp_path):
    cfg = ExperimentConfig(name="t", k_best=100)
    p = tmp_path / "m.ufnd"
    save_model(p, fit_pipeline(small_train, cfg, resources))
    blob = p.read_bytes()
    p.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(ModelFormatError, match="truncated"):
        load_model(p)


def test_load_undecodable_blob_names_it(tmp_path):
    p = tmp_path / "m.ufnd"
    persistence.write_container(p, {}, {"svm.dual_coef": np.zeros(3)})
    p.write_bytes(p.read_bytes().replace(b"\x93NUMPY", b"\x93NUMPX"))
    with pytest.raises(ModelFormatError, match="cannot decode blob 'svm.dual_coef'"):
        persistence.read_container(p)


def _npy_bytes(arr: np.ndarray, **kwargs) -> bytes:
    buf = io.BytesIO()
    np.lib.format.write_array(buf, arr, **kwargs)
    return buf.getvalue()


@pytest.mark.parametrize("case, payload", [
    ("pickled_object", _npy_bytes(np.array([{}], dtype=object), allow_pickle=True)),
    ("fortran_order", _npy_bytes(np.asfortranarray(np.ones((2, 3))))),
    ("version_2", _npy_bytes(np.ones(3), version=(2, 0))),
    ("data_short", _npy_bytes(np.ones(3))[:-8]),
    ("data_long", _npy_bytes(np.ones(3)) + b"\0" * 8),
    ("shape_text", _npy_bytes(np.ones(3)).replace(b"(3,), }", b"(03,), }")
                                         .replace(b"  \n", b" \n")),
    ("unknown_dtype", _npy_bytes(np.ones(3)).replace(b"<f8", b"<f3")),
])
def test_an_npy_blob_other_than_np_save_writes_is_one_corrupt_file_line(
        tmp_path, monkeypatch, case, payload):
    monkeypatch.setattr(persistence, "_array_bytes", lambda arr: payload)
    p = tmp_path / "m.ufnd"
    persistence.write_container(p, {}, {"svm.dual_coef": np.zeros(3)})
    with pytest.raises(ModelFormatError) as err:
        persistence.read_container(p)
    assert str(err.value) == "corrupt model file: cannot decode blob 'svm.dual_coef'"


@pytest.mark.parametrize("kind", ["svm", "cnn"])
def test_every_blob_decodes_as_np_load_reads_it(sweep_models, monkeypatch, kind):
    payloads = []
    decode = persistence._npy

    def spy(payload):
        payloads.append(payload)
        return decode(payload)

    monkeypatch.setattr(persistence, "_npy", spy)
    _, arrays, _ = persistence.read_container(sweep_models[kind])
    assert len(payloads) == len(arrays)
    for payload, arr in zip(payloads, (arrays[name] for name in arrays)):
        expected = np.load(io.BytesIO(payload), allow_pickle=False)
        assert arr.dtype == expected.dtype and arr.shape == expected.shape
        assert arr.flags.writeable and arr.flags.c_contiguous
        np.testing.assert_array_equal(arr, expected)


def test_load_missing_metadata_key_names_it(tmp_path):
    p = tmp_path / "m.ufnd"
    persistence.write_container(p, {}, {})
    with pytest.raises(ModelFormatError, match="no metadata key 'config'"):
        load_model(p)


#: The array blobs of the CNN model file the damaged-blob sweep saves.
SWEEP_CNN_ARRAYS = {
    "cnn.embedding", "cnn.dense_w", "cnn.dense_b", "cnn.out_w", "cnn.out_b",
    "cnn.max_len", "cnn.conv_w.1", "cnn.conv_b.1", "cnn.conv_w.2", "cnn.conv_b.2",
}


@pytest.fixture(scope="module")
def sweep_models(synthetic_train, resources, tmp_path_factory):
    """kind -> an SVM or CNN model file fitted on the synthetic train split."""
    out = tmp_path_factory.mktemp("sweep")
    paths = {}
    for kind, config, blobs in (
            ("svm", ExperimentConfig(name="sweep-svm", k_best=200), SVM_ARRAYS),
            ("cnn", ExperimentConfig(name="sweep-cnn", classifier="cnn", cnn_epochs=1,
                                     cnn_channels=(1, 2)), SWEEP_CNN_ARRAYS)):
        paths[kind] = out / f"{kind}.ufnd"
        save_model(paths[kind], fit_pipeline(synthetic_train, config, resources))
        assert set(persistence.read_container(paths[kind])[1]) == blobs
    return paths


@pytest.mark.parametrize("kind", ["svm", "cnn"])
def test_model_metadata_is_the_config_and_resources_digest(sweep_models, resources, kind):
    """The config owns the classifier and every setting it names, so the
    metadata holds nothing else but the fitted resources' digest."""
    meta = persistence.read_container(sweep_models[kind])[0]
    assert set(meta) == {"config", "resources"}
    assert meta["resources"] == resources.digest


def test_integer_blobs_are_stored_narrow_and_load_wide(sweep_models, tmp_path):
    _, arrays, _ = persistence.read_container(sweep_models["svm"])
    narrow = [n for n in arrays if n.startswith("vocab.keys.")] + [
        "doc_freq", "vocab.alphabet", "mask.kept", "svm.sv.counts", "svm.sv.indices",
        "svm.sv.indptr"]
    for name in narrow:
        assert arrays[name].dtype.kind == "u" and arrays[name].dtype.itemsize < 8, name
    loaded = load_model(sweep_models["svm"])
    vocab = loaded.vocabulary
    assert vocab.doc_freq.dtype == np.int64 and vocab.symbols.alphabet.dtype == np.uint32
    assert {k.dtype for k in vocab.keys.values()} == {np.dtype(np.uint64)}
    assert loaded.mask.kept.dtype == np.int64
    # only integer arrays with no negative entry are narrowed
    path = tmp_path / "ints.ufnd"
    kept = {"negative": np.array([-1, 300]), "float": np.array([1.0, 2.0]),
            "empty": np.zeros(0, dtype=np.int64), "wide": np.array([0, 2**40])}
    persistence.write_container(path, {}, kept)
    dtypes = {n: a.dtype.str for n, a in persistence.read_container(path)[1].items()}
    assert dtypes == {"negative": "<i8", "float": "<f8", "empty": "|u1", "wide": "<u8"}


def _damaged(arr: np.ndarray, change: str) -> np.ndarray:
    """arr without its first or last entry, or with its middle entry set to
    -1, which an unsigned dtype holds as its max."""
    if change == "drop_first":
        return arr[1:]
    if change == "drop_last":
        return arr[:-1]
    arr = arr.copy()
    arr.flat[arr.size // 2] = np.array(-1).astype(arr.dtype)
    return arr


@pytest.mark.parametrize("change", ["drop_first", "drop_last", "middle_minus_1"])
@pytest.mark.parametrize("kind, blob", [("svm", b) for b in sorted(SVM_ARRAYS)]
                         + [("cnn", b) for b in sorted(SWEEP_CNN_ARRAYS)])
def test_a_damaged_array_blob_predicts_or_gives_an_input_error(
        sweep_models, synthetic_test, resources, tmp_path, kind, blob, change):
    """A model file with one array blob damaged either still predicts or
    raises an error the CLI reports on one line: no crash, no traceback."""
    meta, arrays, texts = persistence.read_container(sweep_models[kind])
    arrays[blob] = _damaged(arrays[blob], change)
    path = tmp_path / "damaged.ufnd"
    persistence.write_container(path, meta, arrays, texts)
    try:
        load_model(path).decision_values(synthetic_test, resources)
    except _INPUT_ERRORS:
        pass


def _support_vector_damage(arrays: dict, case: str) -> None:
    """Damage the support-vector blobs of a model file's arrays in place."""
    counts, norms = arrays["svm.sv.counts"].copy(), arrays["svm.sv.norms"].copy()
    if case == "count_0":
        counts[counts.size // 2] = 0
    elif case.startswith("norm_"):
        norms[norms.size // 2] = float(case[len("norm_"):])
    elif case == "norms_short":
        norms = norms[:-1]
    else:  # norms_long
        norms = np.append(norms, 1.0)
    arrays["svm.sv.counts"], arrays["svm.sv.norms"] = counts, norms


@pytest.mark.parametrize("case, message", [
    ("count_0", "svm.sv.counts holds a count that is not an integer >= 1"),
    ("norm_nan", "svm.sv.norms holds a norm that is not finite or is below 1"),
    ("norm_inf", "svm.sv.norms holds a norm that is not finite or is below 1"),
    ("norm_0", "svm.sv.norms holds a norm that is not finite or is below 1"),
    ("norm_-1.5", "svm.sv.norms holds a norm that is not finite or is below 1"),
    ("norm_0.5", "svm.sv.norms holds a norm that is not finite or is below 1"),
    ("norms_short", "svm.dual_coef has "),
    ("norms_long", "svm.dual_coef has "),
])
def test_a_bad_support_vector_count_or_norm_is_one_corrupt_file_line(
        sweep_models, tmp_path, case, message):
    meta, arrays, texts = persistence.read_container(sweep_models["svm"])
    _support_vector_damage(arrays, case)
    path = tmp_path / "damaged.ufnd"
    persistence.write_container(path, meta, arrays, texts)
    with pytest.raises(ModelFormatError) as err:
        load_model(path)
    assert str(err.value).startswith(f"corrupt model file: {message}")
    assert "\n" not in str(err.value)


def test_saving_support_vectors_that_counts_and_norms_do_not_give_is_refused(
        small_train, resources, tmp_path):
    """Norms one ulp off, or none, would not give the support vectors back
    bit for bit; nor would a CNN file's channels that are not its config's."""
    fitted = fit_pipeline(small_train, ExperimentConfig(name="sv", k_best=100), resources)
    norms = fitted.sv_norms.copy()
    norms[0] = np.nextafter(norms[0], np.inf)
    path = tmp_path / "m.ufnd"
    for bad in (replace(fitted, sv_norms=norms), replace(fitted, sv_norms=None)):
        with pytest.raises(ValueError, match="support vectors are not term counts weighted"):
            save_model(path, bad)
        assert not path.exists()
    cnn = fit_pipeline(small_train, ExperimentConfig(name="c", classifier="cnn", cnn_epochs=1,
                                                     cnn_channels=(1, 2)), resources)
    with pytest.raises(ValueError, match="channels"):
        save_model(path, replace(cnn, config=replace(cnn.config, cnn_channels=(1, 3))))
    assert not path.exists()


@pytest.fixture(scope="module")
def long_split(tmp_path_factory):
    """(train, test) of long documents, 80-450 tokens each: the
    shared-task-shaped corpus of perfbench/corpus_gen.py at seed 1, 11:15
    train / 5:10 test documents, as the CI workflow writes it."""
    spec = importlib.util.spec_from_file_location("corpus_gen",
                                                  ROOT / "perfbench" / "corpus_gen.py")
    corpus_gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(corpus_gen)
    paths = corpus_gen.generate(1, tmp_path_factory.mktemp("long"),
                                {"train": (11, 15), "test": (5, 10)})
    return load_corpus(paths["train"], "train"), load_corpus(paths["test"], "test")


@pytest.mark.parametrize("split", ["synthetic", "long"])
def test_every_saved_grid_row_reloads_its_support_vectors_and_values_bit_for_bit(
        request, resources, tmp_path, split):
    """Each row the shipped grid saves loads back with the support-vector
    values and test decision values of the pipeline in memory, byte for
    byte, and saves again to the same bytes."""
    if split == "synthetic":
        train, test = (request.getfixturevalue(f"synthetic_{s}") for s in ("train", "test"))
    else:
        train, test = request.getfixturevalue("long_split")
    checked = []

    def keep(row, fitted):
        path, again = tmp_path / f"row-{row.sn:02d}.ufnd", tmp_path / "again.ufnd"
        save_model(path, fitted)
        loaded = load_model(path)
        ours, theirs = fitted.svm.support_vectors, loaded.svm.support_vectors
        assert ours.shape == theirs.shape and ours.nnz > 0, row.name
        assert np.array_equal(ours.indptr, theirs.indptr), row.name
        assert np.array_equal(ours.indices, theirs.indices), row.name
        assert ours.data.tobytes() == theirs.data.tobytes(), row.name
        assert (loaded.decision_values(test, resources).tobytes()
                == fitted.decision_values(test, resources).tobytes()), row.name
        save_model(again, loaded)
        assert again.read_bytes() == path.read_bytes(), row.name
        checked.append(row.sn)

    configs = parse_config_file(ROOT / "configs" / "shared_task_grid.cfg")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rows = run_grid(train, test, configs, resources, on_fitted=keep)
    assert all(r.ok for r in rows) and sorted(checked) == list(range(1, 10))
    if split == "long":  # no K clamps: each row selects among many more terms
        assert all(r.k_selected < r.v_total for r in rows)
