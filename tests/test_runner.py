import re
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from urdufake.corpus import Corpus, Document, Label, generate_synthetic
from urdufake import persistence
from urdufake.persistence import MAGIC, ModelFormatError
from urdufake.preprocess import PreprocessConfig, ResourceError, Resources
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
    run_config,
    run_grid,
    save_model,
    serialize_configs,
)

from conftest import FAKE_POOL, REAL_POOL

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

def test_run_config_synthetic_svm(synthetic_train, synthetic_test, resources):
    cfg = ExperimentConfig(name="syn", k_best=5000)
    row = run_config(synthetic_train, synthetic_test, cfg, resources)
    assert row.ok
    assert row.report.f1_macro >= 0.95
    assert row.v_total > 0 and row.k_selected <= 5000


def test_run_config_k_larger_than_v_clamps(small_train, small_test, resources):
    cfg = ExperimentConfig(name="clamp", k_best=10**7, word_orders=(1,), char_orders=())
    with pytest.warns(UserWarning, match="exceeds feature count"):
        row = run_config(small_train, small_test, cfg, resources)
    assert row.k_selected == row.v_total


def test_run_config_deterministic(small_train, small_test, resources):
    cfg = ExperimentConfig(name="det", k_best=300, seed=5)
    r1 = run_config(small_train, small_test, cfg, resources)
    r2 = run_config(small_train, small_test, cfg, resources)
    assert r1.report == r2.report
    assert r1.digest == r2.digest


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


def test_fit_pipeline_and_run_config_name_the_config_in_their_warnings(
        small_train, small_test, resources):
    clamps = ExperimentConfig(name="clamps", k_best=10**7, word_orders=(1,), char_orders=())
    with pytest.warns(UserWarning, match=r"^clamps: K=\d+ exceeds feature count") as caught:
        fit_pipeline(small_train, clamps, resources)
    assert [w.filename for w in caught] == [__file__]
    with pytest.warns(UserWarning, match=r"^clamps: K=\d+ exceeds feature count") as caught:
        run_config(small_train, small_test, clamps, resources)
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
    row = run_config(small_train, small_test, cfg, resources)
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


#: The blobs of an SVM model file in format major 3: the vocabulary as its
#: rank tables and the term keys of each namespace.
MAJOR_3_SVM_ARRAYS = {
    "doc_freq", "mask.kept", "vocab.n_docs", "vocab.alphabet",
    *(f"vocab.keys.c{n}" for n in range(2, 7)), *(f"vocab.keys.w{n}" for n in range(1, 5)),
    "svm.sv.data", "svm.sv.indices", "svm.sv.indptr", "svm.sv.shape",
    "svm.dual_coef", "svm.scalars",
}

#: The blobs of an SVM model file in format major 1, which held the terms as
#: text and also stored the idf (derived from doc_freq and vocab.n_docs) and
#: the requested K. Major 2 dropped those two.
MAJOR_1_SVM_ARRAYS = {
    "idf", "doc_freq", "mask.kept", "mask.k", "vocab.n_docs",
    "svm.sv.data", "svm.sv.indices", "svm.sv.indptr", "svm.sv.shape",
    "svm.dual_coef", "svm.scalars",
}


def _old_svm_model(major, train, resources, tmp_path, monkeypatch):
    """(pipeline, a file of it in an older format major, which held the terms
    as text and no resource digest)."""
    cfg = ExperimentConfig(name="compat", k_best=200)
    fitted = fit_pipeline(train, cfg, resources)
    new = tmp_path / "new.ufnd"
    save_model(new, fitted)
    assert new.read_bytes()[4:8] == (3).to_bytes(4, "little")
    meta, arrays, texts = persistence.read_container(new)
    assert set(arrays) == MAJOR_3_SVM_ARRAYS
    assert set(texts) == {"vocab.words"}
    assert meta.pop("resources") == resources.digest

    arrays = {k: v for k, v in arrays.items() if k in MAJOR_1_SVM_ARRAYS}
    if major == 1:
        arrays["idf"] = fitted.vocabulary.idf
        arrays["mask.k"] = np.asarray([cfg.k_best], dtype=np.int64)
    texts = {"vocab.terms": "\n".join(fitted.vocabulary.terms_by_index())}
    old = tmp_path / f"major{major}.ufnd"
    with monkeypatch.context() as m:
        m.setattr(persistence, "MAJOR", major)
        persistence.write_container(old, meta, arrays, texts)
    assert old.read_bytes()[4:8] == major.to_bytes(4, "little")
    return fitted, old


def test_major_1_svm_model_still_loads(small_train, small_test, resources, tmp_path,
                                       monkeypatch):
    fitted, old = _old_svm_model(1, small_train, resources, tmp_path, monkeypatch)
    assert set(persistence.read_container(old)[1]) == MAJOR_1_SVM_ARRAYS
    loaded = load_model(old)
    assert loaded.vocabulary.terms_by_index() == fitted.vocabulary.terms_by_index()
    np.testing.assert_array_equal(loaded.decision_values(small_test, resources),
                                  fitted.decision_values(small_test, resources))


def test_major_2_svm_model_loads_and_resaves_as_major_3(small_train, small_test, resources,
                                                         tmp_path, monkeypatch):
    fitted, old = _old_svm_model(2, small_train, resources, tmp_path, monkeypatch)
    assert set(persistence.read_container(old)[1]) == MAJOR_1_SVM_ARRAYS - {"idf", "mask.k"}
    loaded = load_model(old)
    assert loaded.resources_digest is None
    assert loaded.vocabulary.terms_by_index() == fitted.vocabulary.terms_by_index()
    assert loaded.vocabulary.doc_freq.tobytes() == fitted.vocabulary.doc_freq.tobytes()
    np.testing.assert_array_equal(loaded.decision_values(small_test, resources),
                                  fitted.decision_values(small_test, resources))
    # no digest, so other resources are not refused
    other = Resources.load(lemmas_path=_lemma_file(tmp_path))
    loaded.decision_values(small_test, other)
    # the terms coded on load are the keys a fresh fit stores
    resaved = tmp_path / "resaved.ufnd"
    save_model(resaved, replace(loaded, resources_digest=fitted.resources_digest))
    fresh = tmp_path / "fresh.ufnd"
    save_model(fresh, fitted)
    _, new_arrays, _ = persistence.read_container(fresh)
    _, resaved_arrays, _ = persistence.read_container(resaved)
    for name in sorted(n for n in new_arrays if n.startswith("vocab.keys.")):
        assert resaved_arrays[name].tobytes() == new_arrays[name].tobytes(), name


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


def test_load_newer_major_version_refused(small_train, resources, tmp_path):
    cfg = ExperimentConfig(name="v", k_best=100)
    p = tmp_path / "m.ufnd"
    save_model(p, fit_pipeline(small_train, cfg, resources))
    blob = bytearray(p.read_bytes())
    blob[4:8] = (99).to_bytes(4, "little")
    p.write_bytes(bytes(blob))
    with pytest.raises(ModelFormatError, match="newer than supported"):
        load_model(p)


def test_load_truncated_file(small_train, resources, tmp_path):
    cfg = ExperimentConfig(name="t", k_best=100)
    p = tmp_path / "m.ufnd"
    save_model(p, fit_pipeline(small_train, cfg, resources))
    blob = p.read_bytes()
    p.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(ModelFormatError, match="truncated"):
        load_model(p)
