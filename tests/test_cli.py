import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import urdufake
from urdufake import persistence
from urdufake.cli import main
from urdufake.corpus import generate_synthetic, load_corpus, save_corpus
from urdufake.preprocess import Resources, preprocess_corpus
from urdufake.runner import parse_config_file
from urdufake.selection import chi2_scores
from urdufake.svm import labels_to_signs
from urdufake.vectorize import apply_tfidf, build_vocabulary

from conftest import FAKE_POOL, REAL_POOL

ROOT = Path(__file__).resolve().parent.parent

GRID_CONFIG = """
seed = 7
classifier = svm
k_best = 300

[experiment]
name = words-only
word_orders = 1,2
char_orders = -

[experiment]
name = words-and-chars
word_orders = 1,2
char_orders = 2,3
"""


@pytest.fixture()
def data_dir(tmp_path):
    train = generate_synthetic(7, 40, (FAKE_POOL, REAL_POOL), (5, 10), split="train")
    test = generate_synthetic(8, 15, (FAKE_POOL, REAL_POOL), (5, 10), split="test")
    save_corpus(train, tmp_path / "train.tsv")
    save_corpus(test, tmp_path / "test.tsv")
    (tmp_path / "grid.cfg").write_text(GRID_CONFIG, encoding="utf-8")
    return tmp_path


def run(args):
    return main([str(a) for a in args])


def test_preprocess_command(data_dir, capsys):
    out = data_dir / "out"
    rc = run(["--out-dir", out, "preprocess", "--input", data_dir / "train.tsv",
              "--split", "train", "--expect-total", "80",
              "--expect-fake", "40", "--expect-real", "40"])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "split check [train]: pass" in printed
    lines = (out / "preprocessed.tsv").read_text(encoding="utf-8").strip().split("\n")
    assert len(lines) == 80


def test_preprocess_kv_report(data_dir, capsys):
    rc = run(["--out-dir", data_dir / "o2", "preprocess", "--input", data_dir / "train.tsv",
              "--expect-total", "81", "--expect-fake", "40", "--expect-real", "41", "--kv"])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "status=warn" in printed


def test_featurize_command(data_dir, capsys):
    rc = run(["--out-dir", data_dir / "feat", "featurize", "--train", data_dir / "train.tsv"])
    assert rc == 0
    vocab_lines = (data_dir / "feat" / "vocab.tsv").read_text(encoding="utf-8").strip().split("\n")
    first = vocab_lines[0].split("\t")
    assert len(first) == 3 and first[1] == "0"


def test_train_predict_evaluate_round_trip(data_dir, capsys):
    out = data_dir / "run"
    assert run(["--out-dir", out, "--config", data_dir / "grid.cfg",
                "train", "--train", data_dir / "train.tsv"]) == 0
    model = out / "model.ufnd"
    assert model.exists()

    assert run(["--out-dir", out, "predict", "--model", model,
                "--input", data_dir / "test.tsv", "--split", "test"]) == 0
    preds = (out / "predictions.tsv").read_text(encoding="utf-8").strip().split("\n")
    assert len(preds) == 30
    assert all(p.split("\t")[1] in ("Fake", "Real") for p in preds)

    assert run(["--out-dir", out, "evaluate", "--gold", data_dir / "test.tsv",
                "--pred", out / "predictions.tsv"]) == 0
    printed = capsys.readouterr().out
    assert "f1_macro" in printed
    assert (out / "report.tsv").exists()


def test_experiment_command_outputs(data_dir, capsys):
    out = data_dir / "exp"
    rc = run(["--out-dir", out, "--config", data_dir / "grid.cfg",
              "experiment", "--train", data_dir / "train.tsv",
              "--test", data_dir / "test.tsv"])
    assert rc == 0
    tsv = (out / "results.tsv").read_text(encoding="utf-8")
    assert tsv.startswith("sn\t")
    assert len(tsv.strip().split("\n")) == 3
    assert (out / "results.md").exists()


def test_experiment_determinism_byte_identical(data_dir):
    out1, out2 = data_dir / "e1", data_dir / "e2"
    for out in (out1, out2):
        rc = run(["--out-dir", out, "--config", data_dir / "grid.cfg",
                  "experiment", "--train", data_dir / "train.tsv",
                  "--test", data_dir / "test.tsv", "--save-models"])
        assert rc == 0
    assert (out1 / "results.tsv").read_bytes() == (out2 / "results.tsv").read_bytes()
    m1 = sorted((out1 / "models").glob("*.ufnd"))
    m2 = sorted((out2 / "models").glob("*.ufnd"))
    assert len(m1) == 2
    for a, b in zip(m1, m2):
        assert a.read_bytes() == b.read_bytes()


def test_train_cnn_writes_history(data_dir, tmp_path):
    cfg = tmp_path / "cnn.cfg"
    cfg.write_text(
        "[experiment]\nname = tiny-cnn\nclassifier = cnn\ncnn_epochs = 2\n"
        "cnn_channels = 1,2\nseed = 3\n",
        encoding="utf-8",
    )
    out = data_dir / "cnn"
    rc = run(["--out-dir", out, "--config", cfg, "train", "--train", data_dir / "train.tsv"])
    assert rc == 0
    lines = (out / "history.tsv").read_text(encoding="utf-8").strip().split("\n")
    assert lines[0] == "epoch\tloss\taccuracy"
    assert len(lines) == 3


def test_inspect_command(data_dir, capsys):
    out = data_dir / "insp"
    rc = run(["--out-dir", out, "--config", data_dir / "grid.cfg",
              "inspect", "--train", data_dir / "train.tsv", "--top", "10"])
    assert rc == 0
    lines = (out / "top_features.tsv").read_text(encoding="utf-8").strip().split("\n")
    assert len(lines) == 10
    rank, term, score = lines[0].split("\t")
    assert rank == "1" and float(score) >= float(lines[-1].split("\t")[2])


def test_inspect_ranks_as_the_full_stable_order(data_dir, capsys):
    """Each --top M writes the first M lines of the ranking a stable sort of
    every score by descending score gives: ranks, terms, score reprs and
    ties in ascending column order. Some M cut inside a run of tied scores;
    an M beyond the vocabulary writes every feature without a warning."""
    corpus = load_corpus(data_dir / "train.tsv", "train")
    config = parse_config_file(data_dir / "grid.cfg")[0]
    vocab = build_vocabulary(preprocess_corpus(corpus, config.preprocess, Resources.default()),
                             config.ngram_spec())
    scores = chi2_scores(apply_tfidf(vocab.counts, vocab),
                         labels_to_signs([d.label for d in corpus]))
    order = np.argsort(-scores, kind="stable")
    lines = [f"{rank}\t{term}\t{float(scores[col])!r}\n" for rank, (col, term)
             in enumerate(zip(order, vocab.terms_by_index(order)), start=1)]
    v = len(lines)
    tops = [1, 2, 7, 10, 33, v // 2, v - 1, v, 10**6]
    assert any(scores[order[m - 1]] == scores[order[m]] for m in tops if m < v)
    for m in tops:
        out = data_dir / f"top{m}"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["--out-dir", out, "--config", data_dir / "grid.cfg",
                        "inspect", "--train", data_dir / "train.tsv", "--top", m]) == 0
        assert (out / "top_features.tsv").read_text(encoding="utf-8") == "".join(lines[:m]), m
    assert f"(top {v} of {v} features)" in capsys.readouterr().out.splitlines()[-1]


def test_seed_flag_overrides_config(data_dir):
    out = data_dir / "seeded"
    rc = run(["--out-dir", out, "--config", data_dir / "grid.cfg", "--seed", "99",
              "experiment", "--train", data_dir / "train.tsv",
              "--test", data_dir / "test.tsv"])
    assert rc == 0


def test_custom_resources_flags(data_dir, tmp_path):
    sw = tmp_path / "sw.txt"
    sw.write_text("xshared0\nxshared1\n", encoding="utf-8")
    out = data_dir / "res"
    rc = run(["--out-dir", out, "--stopwords", sw, "preprocess",
              "--input", data_dir / "train.tsv"])
    assert rc == 0
    text = (out / "preprocessed.tsv").read_text(encoding="utf-8")
    assert "xshared0" not in text.split("\t", 2)[-1]


#: Config values the parser reads but a fitting stage rejects.
BAD_CONFIG_VALUES = {
    "svm_degree_0": "svm_degree = 0\n",
    "svm_gamma_negative": "svm_gamma = -1\n",
    "svm_c_0": "svm_c = 0\n",
    "svm_tol_negative": "svm_tol = -1\nsvm_max_passes = 2\n",
    "svm_max_passes_negative": "svm_max_passes = -3\n",
    "svm_gamma_inf": "svm_gamma = inf\n",
    "svm_coef0_nan": "svm_coef0 = nan\n",
    "svm_c_inf": "svm_c = inf\n",
    "svm_tol_inf": "svm_tol = inf\n",
    "svm_gamma_overflow": "svm_gamma = 1e300\nsvm_degree = 2\nk_best = 50\n",
    "cnn_epochs_0": "classifier = cnn\ncnn_epochs = 0\n",
    "cnn_dropout_1.5": "classifier = cnn\ncnn_embedding_dropout = 1.5\n",
    "cnn_learning_rate_nan": "classifier = cnn\ncnn_epochs = 1\ncnn_batch_size = 64\n"
                             "cnn_learning_rate = nan\n",
}

#: The command line of each not_utf8_<reader> case, which reads FILE with
#: that reader; TRAIN and TEST are the splits.
NOT_UTF8_ARGV = {
    "not_utf8_corpus": ["train", "--train", "FILE"],
    "not_utf8_config": ["--config", "FILE", "train", "--train", "TRAIN"],
    "not_utf8_stopwords": ["--stopwords", "FILE", "train", "--train", "TRAIN"],
    "not_utf8_lemmas": ["--lemmas", "FILE", "train", "--train", "TRAIN"],
    "not_utf8_normmap": ["--normmap", "FILE", "train", "--train", "TRAIN"],
    "not_utf8_pred": ["evaluate", "--gold", "TEST", "--pred", "FILE"],
}


def _saved_model(data_dir, config="k_best = 50\n"):
    """Train a small model (an SVM by default) and return the path of its file."""
    (data_dir / "small.cfg").write_text(config, encoding="utf-8")
    assert run(["--out-dir", data_dir / "m", "--config", data_dir / "small.cfg",
                "train", "--train", data_dir / "train.tsv"]) == 0
    return data_dir / "m" / "model.ufnd"


def _corrupt_model(data_dir, case):
    """A saved model with its first metadata byte changed; with major version
    4; without its last blob or with that blob twice, its blob count changed
    to match; with a byte after its last blob; or with the stated size of its
    metadata or its first blob far beyond the end of the file."""
    path = _saved_model(data_dir)
    words = persistence.read_container(path)[2]["vocab.words"].encode("utf-8")
    blob = bytearray(path.read_bytes())
    # the last blob is the vocab.words text: u16 name length, name, u8 kind,
    # u64 size, payload
    last = blob[len(blob) - (2 + len(b"vocab.words") + 1 + 8 + len(words)):]
    meta_at = 4 + 8 + 8
    count_at = meta_at + int.from_bytes(blob[12:20], "little")
    n_blobs = int.from_bytes(blob[count_at:count_at + 4], "little")
    if case == "model_metadata_corrupt":
        blob[meta_at] ^= 1
    elif case == "model_major_4":
        blob[4:8] = (4).to_bytes(4, "little")
    elif case == "model_blob_missing":
        blob[count_at:count_at + 4] = (n_blobs - 1).to_bytes(4, "little")
        blob = blob[:-len(last)]
    elif case == "model_blob_repeated":
        blob[count_at:count_at + 4] = (n_blobs + 1).to_bytes(4, "little")
        blob += last
    elif case == "model_trailing_byte":
        blob += b"\0"
    elif case == "model_metadata_size_2_62":
        blob[12:20] = (2**62).to_bytes(8, "little")
    else:  # the u64 after the first blob's u16 name length, name and u8 kind
        size_at = count_at + 4 + 2 + int.from_bytes(blob[count_at + 4:count_at + 6], "little") + 1
        blob[size_at:size_at + 8] = (2 ** int(case.rsplit("_", 1)[1])).to_bytes(8, "little")
    path = data_dir / f"{case}.ufnd"
    path.write_bytes(bytes(blob))
    return path


def _out_of_range_model(data_dir, case):
    """A saved model rewritten with one value out of range, or with one blob
    that disagrees with the others. Integer blobs are stored in the smallest
    unsigned dtype that holds them, so one is widened before a larger value
    goes in."""
    config = ("classifier = cnn\ncnn_epochs = 1\ncnn_channels = 1\n"
              if case.startswith("cnn_model") else "k_best = 50\n")
    meta, arrays, texts = persistence.read_container(_saved_model(data_dir, config))
    if case == "model_gamma_nan":
        arrays["svm.scalars"][1] = np.nan  # bias, gamma, converged
    elif case == "model_degree_0":
        meta["config"] = meta["config"].replace("svm_degree = 1\n", "svm_degree = 0\n")
    elif case == "model_dual_coef_short":
        arrays["svm.dual_coef"] = arrays["svm.dual_coef"][:-1]
    elif case == "model_sv_count_0":
        arrays["svm.sv.counts"][0] = 0
    elif case == "model_sv_norm_nan":
        arrays["svm.sv.norms"][-1] = np.nan
    elif case == "model_sv_norm_negative":
        arrays["svm.sv.norms"][0] = -arrays["svm.sv.norms"][0]
    elif case == "model_sv_norms_short":
        arrays["svm.sv.norms"] = arrays["svm.sv.norms"][:-1]
    elif case == "model_sv_index_out_of_range":
        arrays["svm.sv.indices"] = arrays["svm.sv.indices"].astype(np.int64)
        arrays["svm.sv.indices"][0] = 10**9
    elif case == "model_doc_freq_short":
        arrays["doc_freq"] = arrays["doc_freq"][:-3]
    elif case == "model_mask_kept_short":
        arrays["mask.kept"] = arrays["mask.kept"][:-1]
    elif case == "model_mask_kept_float":
        arrays["mask.kept"] = arrays["mask.kept"] + 0.5
    elif case == "model_n_docs_float":
        arrays["vocab.n_docs"] = arrays["vocab.n_docs"] + 0.5
    elif case == "model_resources_not_str":
        meta["resources"] = 1
    elif case == "model_words_unordered":
        words = texts["vocab.words"].split("\n")[:-1]
        words[0], words[-1] = words[-1], words[0]
        texts["vocab.words"] = "".join(w + "\n" for w in words)
    elif case == "model_config_classifier_mismatch":
        meta["config"] = meta["config"].replace("classifier = svm\n", "classifier = cnn\n")
    elif case == "cnn_model_max_len_0":
        arrays["cnn.max_len"][0] = 0
    elif case == "cnn_model_max_len_float":
        arrays["cnn.max_len"] = arrays["cnn.max_len"] + 0.5
    elif case == "cnn_model_embedding_short":
        arrays["cnn.embedding"] = arrays["cnn.embedding"][:3]
    elif case == "cnn_model_mixed_dtype":
        arrays["cnn.dense_w"] = arrays["cnn.dense_w"].astype(np.float16)
    else:
        meta["config"] = meta["config"].replace("cnn_unit = word\n", "cnn_unit = byte\n")
    path = data_dir / f"{case}.ufnd"
    persistence.write_container(path, dict(meta), dict(arrays), dict(texts))
    return path


def _bad_input(data_dir, case):
    """Write the bad input of a case and return its command line."""
    train, test = data_dir / "train.tsv", data_dir / "test.tsv"
    if case == "unknown_corpus_label":
        (data_dir / "maybe.tsv").write_text("d1\tMaybe\tsome text\n", encoding="utf-8")
        return ["train", "--train", data_dir / "maybe.tsv"]
    if case == "missing_train_file":
        return ["train", "--train", data_dir / "absent.tsv"]
    if case == "not_a_model_file":
        return ["predict", "--model", train, "--input", test]
    if case in ("model_metadata_corrupt", "model_major_4", "model_blob_missing",
                "model_blob_repeated", "model_trailing_byte", "model_metadata_size_2_62",
                "model_blob_size_2_62", "model_blob_size_2_40"):
        return ["predict", "--model", _corrupt_model(data_dir, case), "--input", test]
    if case in ("model_gamma_nan", "model_degree_0", "model_dual_coef_short",
                "model_sv_count_0", "model_sv_norm_nan", "model_sv_norm_negative",
                "model_sv_norms_short", "model_sv_index_out_of_range", "model_doc_freq_short",
                "model_mask_kept_short", "model_mask_kept_float", "model_n_docs_float",
                "model_resources_not_str", "model_words_unordered",
                "model_config_classifier_mismatch", "cnn_model_max_len_0",
                "cnn_model_max_len_float", "cnn_model_embedding_short",
                "cnn_model_mixed_dtype", "cnn_model_unit_byte"):
        return ["predict", "--model", _out_of_range_model(data_dir, case), "--input", test]
    if case == "empty_gold_corpus":
        (data_dir / "empty.tsv").write_text("", encoding="utf-8")
        return ["evaluate", "--gold", data_dir / "empty.tsv", "--pred", data_dir / "empty.tsv"]
    if case in ("empty_train_experiment", "empty_test_experiment"):
        (data_dir / "empty.tsv").write_text("", encoding="utf-8")
        if case == "empty_train_experiment":
            train = data_dir / "empty.tsv"
        else:
            test = data_dir / "empty.tsv"
        return ["--config", ROOT / "configs" / "shared_task_grid.cfg", "experiment",
                "--train", train, "--test", test]
    if case == "unknown_predicted_label":
        first_id = test.read_text(encoding="utf-8").split("\t", 1)[0]
        (data_dir / "pred.tsv").write_text(f"{first_id}\tMaybe\t0.5\n", encoding="utf-8")
        return ["evaluate", "--gold", test, "--pred", data_dir / "pred.tsv"]
    if case == "duplicate_predicted_id":
        (data_dir / "gold.tsv").write_text("x1\tFake\tsome text\n", encoding="utf-8")
        (data_dir / "pred.tsv").write_text("x1\tFake\nx1\tReal\n", encoding="utf-8")
        return ["evaluate", "--gold", data_dir / "gold.tsv", "--pred", data_dir / "pred.tsv"]
    if case == "predicted_id_not_in_gold":
        (data_dir / "gold.tsv").write_text("x1\tFake\tsome text\n", encoding="utf-8")
        (data_dir / "pred.tsv").write_text("x1\tFake\nzz9\tReal\n", encoding="utf-8")
        return ["evaluate", "--gold", data_dir / "gold.tsv", "--pred", data_dir / "pred.tsv"]
    if case == "unknown_config_key":
        (data_dir / "bad.cfg").write_text("k_bset = 10\n", encoding="utf-8")
        return ["--config", data_dir / "bad.cfg", "train", "--train", train]
    if case in BAD_CONFIG_VALUES:
        (data_dir / "bad.cfg").write_text(BAD_CONFIG_VALUES[case], encoding="utf-8")
        return ["--config", data_dir / "bad.cfg", "train", "--train", train]
    if case in NOT_UTF8_ARGV:
        path = data_dir / f"{case}.txt"
        path.write_bytes("d1\tFake\tcaf\u00e9\n".encode("latin-1"))
        paths = {"FILE": path, "TRAIN": train, "TEST": test}
        return [paths.get(arg, arg) for arg in NOT_UTF8_ARGV[case]]
    if case == "tab_in_row_name":
        (data_dir / "bad.cfg").write_text("[experiment]\nname = a\tb\n", encoding="utf-8")
        return ["--config", data_dir / "bad.cfg", "experiment", "--train", train, "--test", test]
    if case == "other_resources_predict":
        model = _saved_model(data_dir)
        (data_dir / "sw.txt").write_text("xshared0\n", encoding="utf-8")
        return ["--stopwords", data_dir / "sw.txt", "predict", "--model", model,
                "--input", test]
    if case == "one_class_inspect":
        fake_only = "".join(line for line in train.read_text(encoding="utf-8").splitlines(True)
                            if "\tFake\t" in line)
        (data_dir / "fake.tsv").write_text(fake_only, encoding="utf-8")
        return ["inspect", "--train", data_dir / "fake.tsv"]
    if case == "inspect_top_negative":
        return ["inspect", "--train", train, "--top", "-3"]
    raise AssertionError(case)


def run_printing_warnings(args) -> int:
    """run(args) with each warning printed on sys.stderr, as a real run
    prints it, not recorded by pytest."""
    def show(message, category, filename, lineno, file=None, line=None):
        sys.stderr.write(warnings.formatwarning(message, category, filename, lineno, line))

    with warnings.catch_warnings():
        warnings.simplefilter("default")
        warnings.showwarning = show
        return run(args)


#: Run as `python -m urdufake.cli`, so that the module entry and a real
#: stderr stay covered: a corpus error, a model-file error, and a config
#: error that must fail before the row's K warning is issued.
CHILD_PROCESS_CASES = {"unknown_corpus_label", "not_a_model_file", "svm_degree_0"}


@pytest.mark.parametrize("case, message", [
    ("unknown_corpus_label", "maybe.tsv:1: unknown label 'Maybe'"),
    ("missing_train_file", "No such file or directory"),
    ("not_a_model_file", "magic-byte check failed"),
    ("model_metadata_corrupt", "corrupt model file: cannot decode the metadata"),
    ("model_major_4", "model format major version 4 is not the supported 5; "),
    ("model_blob_missing", "model file has no text blob 'vocab.words'"),
    ("model_blob_repeated", "corrupt model file: blob 'vocab.words' occurs twice"),
    ("model_trailing_byte", "corrupt model file: bytes after the last blob"),
    ("model_metadata_size_2_62", "truncated model file while reading metadata"),
    ("model_blob_size_2_62", "truncated model file while reading blob "),
    ("model_blob_size_2_40", "truncated model file while reading blob "),
    ("model_gamma_nan", "corrupt model file: gamma must be finite, got nan"),
    ("model_degree_0", "corrupt model file: degree must be >= 1, got 0"),
    ("model_dual_coef_short", "corrupt model file: svm.dual_coef has "),
    ("model_sv_count_0", "corrupt model file: svm.sv.counts holds a count that is not an "
                         "integer >= 1"),
    ("model_sv_norm_nan", "corrupt model file: svm.sv.norms holds a norm that is not finite "
                          "or is below 1"),
    ("model_sv_norm_negative", "corrupt model file: svm.sv.norms holds a norm that is not "
                               "finite or is below 1"),
    ("model_sv_norms_short", "corrupt model file: svm.dual_coef has "),
    ("model_sv_index_out_of_range", "corrupt model file: svm.sv: indices must be < "),
    ("model_doc_freq_short", "corrupt model file: doc_freq has "),
    ("model_mask_kept_short", "corrupt model file: svm.sv: indices must be < 49"),
    ("model_mask_kept_float", "corrupt model file: Cannot cast array data from "
                              "dtype('float64') to dtype('int64')"),
    ("model_n_docs_float", "corrupt model file: Cannot cast array data from "
                           "dtype('float64') to dtype('int64')"),
    ("model_resources_not_str", "corrupt model file: metadata 'resources' is int, not str"),
    ("model_words_unordered", "corrupt model file: vocab.words is not strictly ascending"),
    ("model_config_classifier_mismatch", "model file has no array blob 'cnn.embedding'"),
    ("cnn_model_max_len_0", "corrupt model file: max_len=0 is shorter than the largest "
                            "kernel size 1"),
    ("cnn_model_max_len_float", "corrupt model file: Cannot cast array data from "
                                "dtype('float64') to dtype('int64')"),
    ("cnn_model_embedding_short", "corrupt model file: cnn.embedding has 3 rows for "),
    ("cnn_model_mixed_dtype", "corrupt model file: parameters must be all float32 or all "
                              "float64, got float16, float32"),
    ("cnn_model_unit_byte", "corrupt model file: unit must be 'word' or 'char', got 'byte'"),
    ("empty_gold_corpus", "cannot evaluate an empty prediction set"),
    ("empty_train_experiment", "the train split has no documents"),
    ("empty_test_experiment", "the test split has no documents"),
    ("unknown_predicted_label", "pred.tsv:1: unknown label 'Maybe'"),
    ("duplicate_predicted_id", "pred.tsv:2: duplicate id 'x1'"),
    ("predicted_id_not_in_gold", "pred.tsv:2: id 'zz9' is not in the gold corpus"),
    ("unknown_config_key", "unknown config key 'k_bset'"),
    ("one_class_inspect", "needs at least 2 classes"),
    ("inspect_top_negative", "--top must be >= 1, got -3"),
    ("tab_in_row_name", "name must not contain '#', '|', a tab"),
    ("other_resources_predict", "the model was fitted with other stopwords, lemmas or "
                                "normalization map"),
    ("svm_degree_0", "stage 'train_svm': degree must be >= 1, got 0"),
    ("svm_gamma_negative", "stage 'train_svm': gamma must be positive, got -1.0"),
    ("svm_c_0", "stage 'train_svm': C must be positive, got 0.0"),
    ("svm_tol_negative", "stage 'train_svm': tol must be positive, got -1.0"),
    ("svm_max_passes_negative", "stage 'train_svm': max_passes must be >= 1, got -3"),
    ("svm_gamma_inf", "stage 'train_svm': gamma must be finite, got inf"),
    ("svm_coef0_nan", "stage 'train_svm': coef0 must be finite, got nan"),
    ("svm_c_inf", "stage 'train_svm': C must be finite, got inf"),
    ("svm_tol_inf", "stage 'train_svm': tol must be finite, got inf"),
    ("svm_gamma_overflow", "stage 'train_svm': SMO diverged: a kernel value is not finite"),
    ("cnn_epochs_0", "stage 'train_cnn': epochs and batch_size must be positive"),
    ("cnn_dropout_1.5", "stage 'train_cnn': embedding_dropout must be in [0, 1)"),
    ("cnn_learning_rate_nan", "stage 'train_cnn': learning_rate must be finite, got nan"),
    *((case, f"{case}.txt is not UTF-8 text") for case in NOT_UTF8_ARGV),
])
def test_bad_input_gives_one_line_error_and_exit_2(data_dir, capsys, case, message):
    argv = ["--out-dir", data_dir / "err"] + _bad_input(data_dir, case)
    capsys.readouterr()  # what making the input printed
    if case in CHILD_PROCESS_CASES:
        src = str(Path(urdufake.__file__).resolve().parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-m", "urdufake.cli", *map(str, argv)],
                              capture_output=True, text=True, encoding="utf-8", env=env,
                              timeout=120)
        code, err = proc.returncode, proc.stderr
    else:
        code, err = run_printing_warnings(argv), capsys.readouterr().err
    assert code == 2
    assert err.startswith("urdufake: error: ") and err.endswith("\n")
    assert err.count("\n") == 1
    assert message in err and "Traceback" not in err
    assert not (data_dir / "err" / "model.ufnd").exists()
