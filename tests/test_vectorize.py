import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from urdufake.preprocess import PreprocessedDoc
from urdufake.vectorize import (
    NgramSpec,
    Symbols,
    VectorizeError,
    build_vocabulary,
    idf_weights,
    transform,
    write_vocabulary_tsv,
)

from reference_vectorize import char_ngrams, word_ngrams

pdoc = PreprocessedDoc.from_tokens


# --- n-gram extraction -------------------------------------------------------

def test_word_bigrams():
    assert word_ngrams(["a", "b", "c"], {2}) == ["w2:a b", "w2:b c"]


def test_word_ngrams_ascending_order_then_left_to_right():
    assert word_ngrams(["a", "b"], {2, 1}) == ["w1:a", "w1:b", "w2:a b"]


def test_word_ngrams_empty_tokens():
    assert word_ngrams([], {1, 2, 3}) == []


@given(st.lists(st.sampled_from("abc"), min_size=1, max_size=30))
def test_word_ngram_count_orders_1_2(tokens):
    assert len(word_ngrams(tokens, {1, 2})) == 2 * len(tokens) - 1


def test_char_bigrams_exact_window():
    assert char_ngrams("ab", {2}) == ["c2:ab"]
    assert char_ngrams("abc", {2}) == ["c2:ab", "c2:bc"]


def test_char_ngrams_cross_token_boundaries():
    assert char_ngrams("a b", {2}) == ["c2:a ", "c2: b"]


def test_char_ngrams_count_over_length4_stream():
    out = char_ngrams("abcd", {2, 3, 4, 5, 6})
    assert len(out) == 3 + 2 + 1 + 0 + 0


@given(st.text(min_size=0, max_size=50), st.sets(st.sampled_from([2, 3, 4, 5, 6]), min_size=1))
def test_char_ngram_count_formula(stream, orders):
    expected = sum(max(0, len(stream) - n + 1) for n in orders)
    assert len(char_ngrams(stream, orders)) == expected


def test_namespacing_prevents_collisions():
    w = word_ngrams(["ab"], {1})
    c = char_ngrams("ab", {2})
    assert w == ["w1:ab"] and c == ["c2:ab"] and w[0] != c[0]


# --- NgramSpec validation ----------------------------------------------------

def test_spec_requires_some_orders():
    with pytest.raises(VectorizeError):
        NgramSpec(frozenset(), frozenset())


def test_spec_rejects_out_of_range_orders():
    with pytest.raises(VectorizeError):
        NgramSpec(word_orders=frozenset({5}))
    with pytest.raises(VectorizeError):
        NgramSpec(char_orders=frozenset({1}))


# --- vocabulary --------------------------------------------------------------

def test_build_vocabulary_df_and_lexicographic_indices():
    vocab = build_vocabulary([pdoc(["a", "b"]), pdoc(["a"])], NgramSpec(word_orders={1}))
    assert vocab.terms_by_index() == ["w1:a", "w1:b"]
    assert vocab.doc_freq.tolist() == [2, 1]
    assert vocab.size == 2 and vocab.n_docs == 2


@pytest.mark.parametrize("words", [
    (),
    ("a", "ab", "b"),
    ("a", "a\x01", "a\x1b", "ab", "b", "b\x1fc", "bc"),
    ("\x00", "\x1f", "x", "x\x00", "xy"),
])
def test_lead_rank_orders_words_as_they_sort_with_a_space_appended(words):
    order = sorted(range(len(words)), key=lambda i: words[i] + " ")
    expected = np.empty(len(words), dtype=np.int64)
    expected[order] = np.arange(len(words))
    lead_rank = Symbols(alphabet=np.zeros(0, dtype=np.uint32), words=words).lead_rank
    assert lead_rank.dtype == np.int64 and lead_rank.tolist() == expected.tolist()


def test_build_vocabulary_deterministic():
    docs = [pdoc(["z", "a"]), pdoc(["m", "z"])]
    spec = NgramSpec(word_orders={1, 2}, char_orders={2})
    assert build_vocabulary(docs, spec).terms_by_index() == \
        build_vocabulary(docs, spec).terms_by_index()


def test_build_vocabulary_all_empty_docs_errors():
    with pytest.raises(VectorizeError, match="zero terms"):
        build_vocabulary([pdoc([]), pdoc([])], NgramSpec(word_orders={1}))


def test_vocabulary_size_monotone_in_spec():
    docs = [pdoc(["aa", "bb", "cc"]), pdoc(["bb", "dd"])]
    small = build_vocabulary(docs, NgramSpec(word_orders={1}, char_orders={2}))
    large = build_vocabulary(docs, NgramSpec(word_orders={1, 2}, char_orders={2, 3}))
    assert small.size <= large.size
    assert set(small.terms_by_index()) <= set(large.terms_by_index())


def test_vocabulary_dump_tsv(tmp_path):
    vocab = build_vocabulary([pdoc(["b", "a"])], NgramSpec(word_orders={1}))
    out = tmp_path / "vocab.tsv"
    write_vocabulary_tsv(vocab, out)
    assert out.read_text(encoding="utf-8") == "w1:a\t0\t1\nw1:b\t1\t1\n"


# --- tf-idf ------------------------------------------------------------------

def test_idf_formula_hand_values():
    vocab = build_vocabulary([pdoc(["a", "b"]), pdoc(["a"])], NgramSpec(word_orders={1}))
    assert vocab.idf[0] == pytest.approx(1.0, abs=1e-12)            # df=2, N=2
    assert vocab.idf[1] == pytest.approx(math.log(1.5) + 1, abs=1e-12)  # df=1, N=2


def test_idf_is_one_when_df_equals_n():
    docs = [pdoc(["x"]) for _ in range(7)]
    vocab = build_vocabulary(docs, NgramSpec(word_orders={1}))
    assert vocab.idf[0] == pytest.approx(1.0, abs=0)


def test_idf_per_column_equals_the_table_of_every_df_bit_for_bit():
    """idf_weights evaluates the formula per column when there are fewer
    columns than possible dfs, and looks each column up in a table of every
    df otherwise; the two give the same bits."""
    rng = np.random.default_rng(0)
    for n_docs in [*range(1, 300), 10**5, 10**6 + 7]:
        df = np.arange(1, n_docs + 1) if n_docs < 300 else rng.integers(1, n_docs + 1, 1000)
        padded = np.concatenate([df, np.ones(n_docs + 1 - df.size, dtype=df.dtype)])
        per_column, table = idf_weights(df, n_docs), idf_weights(padded, n_docs)[:df.size]
        assert per_column.tobytes() == table.tobytes(), n_docs


def test_transform_hand_example():
    docs = [pdoc(["a", "b"]), pdoc(["a", "a"])]
    spec = NgramSpec(word_orders={1})
    vocab = build_vocabulary(docs, spec)
    X = transform(docs, vocab).toarray()
    # independent straight-line derivation of the expected row values
    idf_a, idf_b = 1.0, math.log(3.0 / 2.0) + 1.0
    norm1 = math.hypot(idf_a, idf_b)
    assert X[0, 0] == pytest.approx(idf_a / norm1, abs=1e-12)
    assert X[0, 1] == pytest.approx(idf_b / norm1, abs=1e-12)
    assert X[1, 0] == pytest.approx(1.0, abs=1e-12)
    assert X[1, 1] == 0.0


def test_transform_empty_doc_zero_row():
    docs = [pdoc(["a"]), pdoc([])]
    spec = NgramSpec(word_orders={1})
    X = transform(docs, build_vocabulary(docs, spec))
    assert X[1].nnz == 0


def test_transform_oov_only_doc_zero_row():
    train = [pdoc(["a"]), pdoc(["b"])]
    spec = NgramSpec(word_orders={1})
    X = transform([pdoc(["zzz", "qqq"])], build_vocabulary(train, spec))
    assert X.nnz == 0


def test_transform_column_count_is_vocab_size():
    docs = [pdoc(["a", "b", "c"]), pdoc(["d"])]
    for spec in (NgramSpec(word_orders={1}), NgramSpec(word_orders={1, 2}, char_orders={2, 3})):
        vocab = build_vocabulary(docs, spec)
        X = transform(docs, vocab)
        assert X.shape == (2, vocab.size)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(st.sampled_from(["aa", "ab", "ba", "bb", "cc"]), min_size=0, max_size=8),
        min_size=1,
        max_size=8,
    )
)
def test_transform_rows_nonneg_and_unit_norm(token_lists):
    docs = [pdoc(toks) for toks in token_lists]
    if not any(toks for toks in token_lists):
        return
    spec = NgramSpec(word_orders={1, 2}, char_orders={2})
    vocab = build_vocabulary(docs, spec)
    X = transform(docs, vocab)
    assert (X.data >= 0).all()
    assert X.has_canonical_format
    norms = np.sqrt(np.asarray(X.multiply(X).sum(axis=1)).ravel())
    for r, toks in enumerate(token_lists):
        if toks:
            assert norms[r] == pytest.approx(1.0, abs=1e-9)
        else:
            assert norms[r] == 0.0


#: Fits an SVM on four documents of 10,500 distinct words each (drawn from
#: 12,000) and prints the sha256 of the TF-IDF rows of a fifth, of the
#: fitted model file and of the fifth's decision value.
LONG_ROWS_SCRIPT = """
import hashlib, sys, warnings
import numpy as np
from urdufake.corpus import Corpus, Document, Label
from urdufake.preprocess import Resources, preprocess_corpus
from urdufake.runner import ExperimentConfig, fit_pipeline, save_model
from urdufake.vectorize import apply_tfidf, count_terms

rng = np.random.default_rng(0)
def doc(i, label):
    words = rng.choice(12_000, size=10_500, replace=False)
    return Document(f"d{i}", " ".join(f"w{w:05d}" for w in words), label)
train = Corpus(tuple(doc(i, [Label.FAKE, Label.REAL][i % 2]) for i in range(4)), "train")
test = Corpus((doc(9, Label.FAKE),), "test")
config, res = ExperimentConfig(word_orders=(1,), char_orders=()), Resources.default()
with warnings.catch_warnings():
    warnings.simplefilter("ignore")  # K exceeds the 12,000 features
    fitted = fit_pipeline(train, config, res)
X = apply_tfidf(count_terms(preprocess_corpus(test, config.preprocess, res), fitted.vocabulary),
                fitted.vocabulary)
assert X.nnz > 10_000, X.nnz
save_model(sys.argv[1], fitted)
with open(sys.argv[1], "rb") as fh:
    model = fh.read()
for blob in (X.data.tobytes() + X.indices.tobytes() + X.indptr.tobytes(), model,
             fitted.decision_values(test, res).tobytes()):
    print(hashlib.sha256(blob).hexdigest())
"""


def test_tfidf_rows_and_decisions_do_not_depend_on_the_blas_thread_count(tmp_path):
    """A threaded BLAS splits a dot product of more than 10,000 elements
    across its threads, in an order that depends on their number, so a
    row's norm must not go through one. The model and the decision values
    are built from such rows."""
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads)
        out = subprocess.run([sys.executable, "-c", LONG_ROWS_SCRIPT, str(tmp_path / threads)],
                             env=env, capture_output=True, text=True, check=True, timeout=120)
        digests.append(out.stdout.split())
    assert len(digests[0]) == 3 and digests[0] == digests[1]


def test_csr_invariants_sorted_indices_no_zeros():
    docs = [pdoc(["b", "a", "b"]), pdoc(["c"])]
    spec = NgramSpec(word_orders={1}, char_orders={2})
    X = transform(docs, build_vocabulary(docs, spec))
    for r in range(X.shape[0]):
        row = X.indices[X.indptr[r]:X.indptr[r + 1]]
        assert (np.diff(row) > 0).all()
    assert (X.data != 0).all()
