import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from urdufake import cnn
from urdufake.cnn import (
    CnnError,
    GradCheckReport,
    SequenceEncoder,
    TrainConfig,
    TrainingDiverged,
    bce_loss,
    encode,
    forward,
    grad_check,
    init_cnn,
    pooled_length,
    probs_to_labels,
    train_cnn,
    _backward,
    _forward_cached,
)
from urdufake.corpus import Label
from urdufake.preprocess import PreprocessedDoc

from reference_cnn import padded_forward, reference_backward, reference_forward_cached

pdoc = PreprocessedDoc.from_tokens


# --- encoder -----------------------------------------------------------------

def test_encoder_ids_start_at_one_by_frequency():
    docs = [pdoc(["b", "b", "a"]), pdoc(["b", "c"])]
    enc = SequenceEncoder.fit(docs, unit="word")
    assert enc.term_to_id["b"] == 1          # most frequent
    assert enc.term_to_id["a"] == 2          # ties broken lexicographically
    assert enc.term_to_id["c"] == 3
    assert enc.vocab_size == 4


def test_encode_pads_short_docs_with_zeros():
    docs = [pdoc(["a", "b", "c", "d", "e"])]
    enc = SequenceEncoder.fit(docs, unit="word")
    X = encode([pdoc(["a", "b"])], enc)
    assert X.shape == (1, 5)
    assert (X[0, 2:] == 0).all() and (X[0, :2] > 0).all()


def test_encode_unknown_terms_are_zero():
    enc = SequenceEncoder.fit([pdoc(["a"])], unit="word", max_len=3)
    X = encode([pdoc(["zzz", "qqq"])], enc)
    assert (X == 0).all()


def test_encode_truncates_keeping_head():
    enc = SequenceEncoder.fit([pdoc(["a", "b"])], unit="word", max_len=2)
    X = encode([pdoc(["a", "b", "a", "a"])], enc)
    assert X.shape == (1, 2)
    assert X[0].tolist() == [enc.term_to_id["a"], enc.term_to_id["b"]]


def test_encoder_char_unit_uses_char_stream():
    enc = SequenceEncoder.fit([pdoc(["ab", "c"])], unit="char")
    assert " " in enc.term_to_id
    assert enc.max_len == len("ab c")


def _loop_encode(docs, encoder):
    """The per-position lookup encode replaced, kept as its oracle."""
    out = np.zeros((len(docs), encoder.max_len), dtype=np.int64)
    for r, doc in enumerate(docs):
        for c, term in enumerate(encoder.units_of(doc)[: encoder.max_len]):
            out[r, c] = encoder.term_to_id.get(term, 0)
    return out


@pytest.mark.parametrize("unit", ["word", "char"])
def test_encode_matches_per_position_lookup(unit):
    enc = SequenceEncoder.fit([pdoc(["aa", "b", "aa", "c"]), pdoc(["b", "dd"])], unit=unit,
                              max_len=5)
    # truncated, unknown terms ("zz", "q"), empty, and padded docs
    docs = [pdoc(["aa", "zz", "b", "c", "aa", "b", "dd"]), pdoc([]), pdoc(["q"]), pdoc(["b", "c"])]
    X = encode(docs, enc)
    assert X.shape == (4, 5) and X.dtype == np.int64
    np.testing.assert_array_equal(X, _loop_encode(docs, enc))
    assert X[2].tolist() == [0] * 5


def test_encoder_rejects_mixed_unit():
    with pytest.raises(CnnError):
        SequenceEncoder.fit([pdoc(["a"])], unit="wordchar")


def test_encoder_max_len_caps():
    docs = [pdoc(["t"] * 3000)]
    enc = SequenceEncoder.fit(docs, unit="word")
    assert enc.max_len == 2000


# --- init --------------------------------------------------------------------

def test_init_deterministic_for_seed():
    a = init_cnn(50, 20, (1, 2, 3), seed=9)
    b = init_cnn(50, 20, (1, 2, 3), seed=9)
    np.testing.assert_array_equal(a.embedding, b.embedding)
    for k in a.channels:
        np.testing.assert_array_equal(a.conv_w[k], b.conv_w[k])
    np.testing.assert_array_equal(a.dense_w, b.dense_w)


def test_init_seed_changes_parameters():
    a = init_cnn(50, 20, (1, 2), seed=1)
    b = init_cnn(50, 20, (1, 2), seed=2)
    assert not np.array_equal(a.embedding, b.embedding)


def test_init_four_and_six_channel_variants():
    four = init_cnn(100, 30, (1, 2, 3, 4), seed=0)
    six = init_cnn(100, 30, (1, 2, 3, 4, 5, 6), seed=0)
    assert four.channels == (1, 2, 3, 4)
    assert six.channels == (1, 2, 3, 4, 5, 6)
    assert set(four.conv_w) == {1, 2, 3, 4}
    assert set(six.conv_w) == {1, 2, 3, 4, 5, 6}


def test_init_embedding_range_and_zero_biases():
    m = init_cnn(40, 10, (1, 2), seed=3)
    assert (np.abs(m.embedding) <= 0.05).all()
    assert (m.conv_b[1] == 0).all() and (m.dense_b == 0).all() and (m.out_b == 0).all()


def test_init_rejects_max_len_below_largest_kernel():
    with pytest.raises(CnnError, match="kernel size"):
        init_cnn(50, 3, (1, 4), seed=0)


# --- forward -----------------------------------------------------------------

def test_forward_shape_arithmetic():
    for L in (7, 20, 33):
        for k in (1, 2, 3, 4, 5, 6):
            if L >= k:
                assert pooled_length(L, k) == (L - k + 1) // 2


def test_channel_intermediate_shapes():
    """A row per window of a real pooling pair, a pooling choice per real
    pair and filter; Z holds every pair."""
    m = init_cnn(30, 11, (2,), seed=0)
    ids = np.ones((3, 11), dtype=np.int64)
    ids[1, 3:] = 0                                  # real up to position 3: 2 pairs
    ids[2, :] = 0                                   # padding only: no real pair
    _, cache = _forward_cached(m, ids)
    ch = cache["channels"][2]
    assert ch["real"].sum(axis=1).tolist() == [5, 2, 0]   # of floor((11-2+1)/2) = 5 pairs
    assert ch["A"].shape == (2 * 7, 2 * 2)          # 2 distinct ids, 2 shifts each
    assert ch["arg"].shape == (7, 32)
    assert cache["Z"].shape == (3, 32 * 5)
    drop_mask = np.ones(ids.shape)
    _, cache = _forward_cached(m, ids, drop_mask)   # dropout weighs every window
    assert cache["channels"][2]["real"].all()


def test_all_zero_input_with_zero_row_gives_half():
    m = init_cnn(10, 8, (1, 2), seed=4)
    m.embedding[0, :] = 0.0
    p = forward(m, np.zeros((2, 8), dtype=np.int64))
    np.testing.assert_allclose(p, 0.5, atol=1e-15)


def test_forward_output_strictly_in_unit_interval():
    rng = np.random.default_rng(6)
    m = init_cnn(25, 12, (1, 2, 3), seed=6)
    p = forward(m, rng.integers(0, 25, size=(16, 12)))
    assert ((p > 0.0) & (p < 1.0)).all()


def test_forward_runs_in_blocks_equal_to_per_doc(monkeypatch):
    rng = np.random.default_rng(8)
    m = init_cnn(30, 12, (1, 2, 3), seed=8).astype(np.float64)
    ids = rng.integers(0, 30, size=(37, 12))
    per_doc = np.concatenate([forward(m, ids[i : i + 1]) for i in range(37)])
    seen = []
    inner = cnn._forward_cached

    def spy(model, block, drop_mask=None):
        seen.append(len(block))
        return inner(model, block, drop_mask)

    monkeypatch.setattr(cnn, "_forward_cached", spy)
    np.testing.assert_allclose(forward(m, ids), per_doc, rtol=0.0, atol=1e-15)
    assert sum(seen) == 37 and max(seen) <= cnn._FORWARD_BLOCK


def test_forward_rejects_wrong_width():
    m = init_cnn(10, 8, (1,), seed=0)
    with pytest.raises(CnnError, match="max_len"):
        forward(m, np.zeros((1, 9), dtype=np.int64))


def assert_forward_equals_padded(model, ids):
    p, cache = _forward_cached(model, ids)
    ref_p, ref_Z, ref_h_pre = padded_forward(model, ids)
    np.testing.assert_array_equal(cache["Z"], ref_Z)
    np.testing.assert_array_equal(cache["h_pre"], ref_h_pre)
    np.testing.assert_array_equal(p, ref_p)
    np.testing.assert_array_equal(forward(model, ids), ref_p)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("max_len", [11, 12])
def test_forward_skipping_padding_equals_the_padded_path(dtype, max_len):
    """Full-length docs, docs shorter than the largest kernel, a doc whose
    last terms are unknown, an all-padding row; channels 1-4 give each
    max_len both an odd and an even number of windows."""
    enc = SequenceEncoder.fit([pdoc(list("abcdefgh"))], unit="word", max_len=max_len)
    docs = [pdoc(list("abcdefghabcdefgh")), pdoc(["a", "b"]), pdoc(["c"]),
            pdoc(["a", "b", "c", "zz", "qq"]), pdoc([]), pdoc(list("hgfedcbahg"))]
    ids = encode(docs, enc)
    assert (ids[3, 3:] == 0).all() and (ids[4] == 0).all() and (ids[0] > 0).all()
    model = init_cnn(enc.vocab_size, max_len, (1, 2, 3, 4), seed=3).astype(dtype)
    for k in model.channels:                          # ReLUs of c_k on both sides
        model.conv_b[k] = np.linspace(-0.1, 0.1, cnn.N_FILTERS).astype(dtype)
    assert_forward_equals_padded(model, ids)
    _, cache = _forward_cached(model, ids)
    assert cache["channels"][4]["real"][[0, 1, 3, 4]].sum(axis=1).tolist() == [
        pooled_length(max_len, 4), 1, 2, 0]


@settings(max_examples=60, deadline=None)
@given(
    batch=st.integers(1, 6),
    channels=st.sets(st.integers(1, 6), min_size=1),
    vocab=st.integers(1, 300),
    float64=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_forward_equals_the_padded_path_bit_for_bit(batch, channels, vocab, float64, seed,
                                                     data):
    max_len = data.draw(st.integers(max(channels) + 1, 40), label="max_len")
    rng = np.random.default_rng(seed)
    model = init_cnn(vocab, max_len, channels, seed=seed)
    if float64:
        model = model.astype(np.float64)
    for k in model.channels:
        model.conv_b[k] = rng.uniform(-0.05, 0.05, size=cnn.N_FILTERS).astype(model.dtype)
    assert_forward_equals_padded(model, pad_tails(rng.integers(0, vocab, size=(batch, max_len)),
                                                  rng))


# --- gradient check ----------------------------------------------------------

@pytest.fixture(scope="module")
def tiny_setup():
    rng = np.random.default_rng(42)
    model = init_cnn(vocab_size=50, max_len=20, channels=(1, 2, 3), seed=3)
    ids = rng.integers(0, 50, size=(4, 20))
    y = rng.integers(0, 2, size=4).astype(float)
    return model, ids, y


def test_grad_check_tiny_model_under_1e4(tiny_setup):
    model, ids, y = tiny_setup
    report = grad_check(model, ids, y, n_samples=8, h=1e-5, seed=0)
    assert report.max_rel_error < 1e-4
    assert set(report.per_group) == {name for name, _ in model.param_groups()}


def test_grad_check_detects_corrupted_dense_gradient(tiny_setup):
    model, ids, y = tiny_setup
    model = model.astype(np.float64)
    _, cache = _forward_cached(model, ids)
    analytic = _backward(model, cache, y)

    # recompute the dense-weight errors against a doubled analytic gradient
    rng = np.random.default_rng(0)
    flat = model.dense_w.ravel()
    picks = rng.choice(flat.size, size=8, replace=False)
    h = 1e-5
    worst = 0.0
    for p in picks:
        orig = flat[p]
        flat[p] = orig + h
        lp = bce_loss(_forward_cached(model, ids)[1]["o"], y)
        flat[p] = orig - h
        lm = bce_loss(_forward_cached(model, ids)[1]["o"], y)
        flat[p] = orig
        numeric = (lp - lm) / (2 * h)
        corrupted = 2.0 * analytic["dense_w"].ravel()[p]
        worst = max(worst, abs(corrupted - numeric) / max(abs(numeric), 1e-6))
    assert worst == pytest.approx(1.0, abs=0.05)


def test_grad_check_on_padded_documents():
    """Documents that end in padding, one all padding, so gradients flow
    through the pad constant c_k of the skipped windows."""
    rng = np.random.default_rng(5)
    model = init_cnn(vocab_size=30, max_len=24, channels=(1, 2, 3, 4), seed=8)
    ids = rng.integers(1, 30, size=(4, 24))
    for b, n in enumerate((24, 13, 2, 0)):
        ids[b, n:] = 0
    y = np.array([1.0, 0.0, 1.0, 0.0])
    _, cache = _forward_cached(model, ids)
    assert not cache["channels"][1]["real"].all()
    report = grad_check(model, ids, y, n_samples=10, h=1e-5, seed=1)
    assert report.max_rel_error < 1e-4
    assert report.skipped < 10


def test_grad_check_zero_samples_empty_report(tiny_setup):
    model, ids, y = tiny_setup
    report = grad_check(model, ids, y, n_samples=0)
    assert report.per_group == {}
    assert report.max_rel_error == 0.0


def test_grad_check_report_max():
    r = GradCheckReport(per_group={"a": 1e-7, "b": 3e-6})
    assert r.max_rel_error == 3e-6


# --- the id-table passes against the einsum reference ----------------------------

def full_grads(model, cache, grads):
    """grads with the embedding gradient of the batch's rows placed in an
    embedding-sized array of zeros."""
    demb = np.zeros_like(model.embedding)
    demb[cache["uniq"]] = grads["embedding"]
    return {**grads, "embedding": demb}


def pad_tails(ids, rng):
    """ids with each row cut to a random length, from none to all of it,
    the rest set to the pad id."""
    lengths = rng.integers(0, ids.shape[1] + 1, size=len(ids))
    return np.where(np.arange(ids.shape[1]) < lengths[:, None], ids, 0)


def assert_matches_reference(p, grads, ref_p, ref_grads):
    # Sums run in another order, so entries that cancel to near zero differ
    # from the reference by more than 1e-12 of themselves; the bound is
    # 1e-12 of the group's largest entry.
    np.testing.assert_allclose(p, ref_p, rtol=1e-12, atol=0.0)
    assert grads.keys() == ref_grads.keys()
    for name, ref in ref_grads.items():
        np.testing.assert_allclose(grads[name], ref, rtol=1e-12,
                                   atol=1e-12 * np.abs(ref).max(), err_msg=name)


@settings(max_examples=60, deadline=None)
@given(
    batch=st.integers(1, 5),
    channels=st.sets(st.integers(1, 6), min_size=1),
    vocab=st.integers(1, 6),
    dropout=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_passes_match_einsum_reference(batch, channels, vocab, dropout, seed, data):
    # one more than the largest kernel leaves every channel a pooled map
    max_len = data.draw(st.integers(max(channels) + 1, 40), label="max_len")
    rng = np.random.default_rng(seed)
    model = init_cnn(vocab, max_len, channels, seed=seed).astype(np.float64)
    for k in model.channels:                          # move some ReLUs off zero
        model.conv_b[k] = rng.uniform(-0.05, 0.05, size=model.conv_b[k].shape)
    ids = pad_tails(rng.integers(0, vocab, size=(batch, max_len)), rng)
    y = rng.integers(0, 2, size=batch).astype(float)
    drop_mask = (rng.random(ids.shape) < 0.75) / 0.75 if dropout else None

    p, cache = _forward_cached(model, ids, drop_mask)
    ref_p, ref_cache = reference_forward_cached(model, ids, drop_mask)
    assert_matches_reference(p, full_grads(model, cache, _backward(model, cache, y)),
                             ref_p, reference_backward(model, ref_cache, y))


@settings(max_examples=40, deadline=None)
@given(
    batch=st.integers(1, 4),
    channels=st.sets(st.integers(1, 5), min_size=1),
    vocab=st.integers(50, 500),
    dropout=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_id_table_passes_match_reference_on_large_vocabularies(batch, channels, vocab, dropout,
                                                              seed, data):
    """Batches that use from one id to one id per position of a large
    vocabulary; rows of ids the batch does not hold get a gradient of 0."""
    max_len = data.draw(st.integers(max(channels) + 1, 30), label="max_len")
    n_pos = batch * max_len
    n_ids = data.draw(st.integers(1, min(vocab, n_pos)), label="distinct ids")
    rng = np.random.default_rng(seed)
    model = init_cnn(vocab, max_len, channels, seed=seed).astype(np.float64)
    for k in model.channels:                          # move some ReLUs off zero
        model.conv_b[k] = rng.uniform(-0.05, 0.05, size=model.conv_b[k].shape)
    present = rng.choice(vocab, size=n_ids, replace=False)
    ids = rng.permutation(np.concatenate([present, rng.choice(present, size=n_pos - n_ids)]))
    ids = ids.reshape(batch, max_len)
    y = rng.integers(0, 2, size=batch).astype(float)
    drop_mask = (rng.random(ids.shape) < 0.75) / 0.75 if dropout else None

    p, cache = _forward_cached(model, ids, drop_mask)
    grads = _backward(model, cache, y)
    assert grads["embedding"].shape == (n_ids, cnn.EMBED_DIM)   # the batch's rows only
    grads = full_grads(model, cache, grads)
    ref_p, ref_cache = reference_forward_cached(model, ids, drop_mask)
    assert_matches_reference(p, grads, ref_p, reference_backward(model, ref_cache, y))
    absent = np.setdiff1d(np.arange(vocab), present)
    assert (grads["embedding"][absent] == 0.0).all()


def same_kinks(cache, ref_cache) -> bool:
    """Whether two passes made the same ReLU and pooling choices: the element
    each real pair kept, which pooled values are above 0, and the hidden
    ReLUs."""
    return all(
        (ch["arg"] == (ref_cache["channels"][k]["arg"][ch["real"]] == 1)).all()
        for k, ch in cache["channels"].items()
    ) and ((cache["Z"] > 0.0) == (ref_cache["Z"] > 0.0)).all() \
        and ((cache["h_pre"] > 0.0) == (ref_cache["h_pre"] > 0.0)).all()


@settings(max_examples=60, deadline=None)
@given(
    batch=st.integers(1, 5),
    channels=st.sets(st.integers(1, 6), min_size=1),
    vocab=st.integers(1, 500),
    dropout=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_float32_passes_match_the_reference_on_a_float64_copy(batch, channels, vocab, dropout,
                                                             seed, data):
    """A float32 model's passes against the einsum reference run on the same
    parameters in float64. Over 3,000 random cases the probabilities were
    within 6.3e-8 absolute and every gradient within 0.18 of the bound below.

    do = (p - y) / B is rounded to float32 (2**-24 of each entry), and the
    groups whose entries are sums of do terms that cancel (out_b, dense_b,
    out_w) carry that rounding at the scale of |do|, not of their own largest
    entry; hence the bound's second term. A case where float32 rounding moves
    an activation across 0 or past its pooling partner takes the other side
    of a kink, where the gradients rightly differ: it is discarded (none was
    in those 3,000 cases)."""
    max_len = data.draw(st.integers(max(channels) + 1, 40), label="max_len")
    rng = np.random.default_rng(seed)
    model = init_cnn(vocab, max_len, channels, seed=seed)
    for k in model.channels:                          # move some ReLUs off zero
        model.conv_b[k] = rng.uniform(-0.05, 0.05, size=cnn.N_FILTERS).astype(np.float32)
    ids = pad_tails(rng.integers(0, vocab, size=(batch, max_len)), rng)
    y = rng.integers(0, 2, size=batch).astype(float)
    drop_mask = (rng.random(ids.shape) < 0.75) / 0.75 if dropout else None

    p, cache = _forward_cached(model, ids, drop_mask)
    grads = full_grads(model, cache, _backward(model, cache, y))
    copy = model.astype(np.float64)
    ref_p, ref_cache = reference_forward_cached(copy, ids, drop_mask)
    assume(same_kinks(cache, ref_cache))
    ref_grads = reference_backward(copy, ref_cache, y)
    np.testing.assert_allclose(p, ref_p, rtol=0.0, atol=5e-7)
    do_scale = np.abs((ref_p - y) / batch).max()
    assert grads.keys() == ref_grads.keys()
    for name, ref in ref_grads.items():
        assert grads[name].dtype == np.float32, name
        np.testing.assert_allclose(grads[name], ref, rtol=0.0, err_msg=name,
                                   atol=1e-5 * np.abs(ref).max() + 1e-6 * do_scale)


def test_a_float32_model_is_float32_end_to_end(monkeypatch):
    """Parameters, every cached array of a pass, the gradients, the Adam
    moments and scratch arrays, and the model after training are float32;
    only the logits and probabilities are float64."""
    X, y = sep_dataset(n=4, L=10, seed=8)
    model = init_cnn(20, 10, (1, 2), seed=4)
    assert {arr.dtype for _, arr in model.param_groups()} == {np.dtype(np.float32)}
    drop_mask = np.full(X[:4].shape, 1.25, dtype=np.float32)
    p, cache = _forward_cached(model, X[:4], drop_mask)
    for key in ("E_u", "Z", "h_pre", "h"):
        assert cache[key].dtype == np.float32, key
    for ch in cache["channels"].values():
        assert ch["A"].dtype == np.float32
    assert cache["o"].dtype == p.dtype == np.float64
    grads = _backward(model, cache, y[:4])
    assert {g.dtype for g in grads.values()} == {np.dtype(np.float32)}

    seen = set()
    inner = cnn._adam_step

    def spy(param, g, m, v, t, lr, scratch, rows=None):
        seen.update(a.dtype for a in (param, g, m, v, *scratch))
        inner(param, g, m, v, t, lr, scratch, rows)

    monkeypatch.setattr(cnn, "_adam_step", spy)
    model, _ = train_cnn(model, X, y, TrainConfig(epochs=1, seed=1, embedding_dropout=0.2))
    assert seen == {np.dtype(np.float32)}
    assert {arr.dtype for _, arr in model.param_groups()} == {np.dtype(np.float32)}


def test_float32_init_rounds_the_float64_draws():
    """A seed draws the values it drew when models were float64, in one
    call per group; dense_w spans several of init's chunks."""
    model = init_cnn(30, 220, (1, 3), seed=5)
    assert model.dense_w.size > 2 * cnn._ADAM_BLOCK
    rng = np.random.default_rng(5)
    want = {"embedding": rng.uniform(-0.05, 0.05, size=(30, cnn.EMBED_DIM))}
    for k in (1, 3):
        limit = np.sqrt(6.0 / (k * cnn.EMBED_DIM + cnn.N_FILTERS))
        want[f"conv_w[{k}]"] = rng.uniform(-limit, limit, size=(cnn.N_FILTERS, k, cnn.EMBED_DIM))
    limit = np.sqrt(6.0 / (model.dense_w.shape[0] + cnn.HIDDEN_UNITS))
    want["dense_w"] = rng.uniform(-limit, limit, size=model.dense_w.shape)
    limit = np.sqrt(6.0 / (cnn.HIDDEN_UNITS + 1))
    want["out_w"] = rng.uniform(-limit, limit, size=cnn.HIDDEN_UNITS)
    groups = dict(model.param_groups())
    for name, values in want.items():
        np.testing.assert_array_equal(groups[name], values.astype(np.float32), err_msg=name)


def test_a_model_with_mixed_or_non_float_parameters_is_refused():
    model = init_cnn(10, 8, (1, 2), seed=0)
    with pytest.raises(CnnError, match="all float32 or all float64, got float32, float64"):
        replace(model, dense_w=model.dense_w.astype(np.float64))
    for dtype in (np.float16, np.int64):
        with pytest.raises(CnnError, match="all float32 or all float64"):
            model.astype(dtype)
    assert model.astype(np.float64).dtype == np.float64


def test_pooling_tie_goes_to_first_element():
    """Identical embedding rows and a positive bias tie every pooling pair at
    a positive value; the pooled gradient must go where the reference sends
    it, to the first element of each pair."""
    model = init_cnn(7, 15, (1, 2, 3, 4), seed=2).astype(np.float64)
    model.embedding[:] = model.embedding[3]
    for k in model.channels:
        model.conv_b[k][:] = 1.0
    ids = np.arange(2 * 15).reshape(2, 15) % 7
    y = np.array([1.0, 0.0])
    p, cache = _forward_cached(model, ids)
    assert (cache["Z"] > 0.0).all()
    for k in model.channels:
        assert not cache["channels"][k]["arg"].any()
    ref_p, ref_cache = reference_forward_cached(model, ids)
    assert_matches_reference(p, full_grads(model, cache, _backward(model, cache, y)),
                             ref_p, reference_backward(model, ref_cache, y))


# --- training ----------------------------------------------------------------

def sep_dataset(n=10, L=12, seed=0):
    """Trivially separable: class decided by which id block appears."""
    rng = np.random.default_rng(seed)
    X = np.zeros((2 * n, L), dtype=np.int64)
    y = np.zeros(2 * n)
    for i in range(2 * n):
        cls = i % 2
        lo, hi = (1, 10) if cls else (10, 19)
        X[i, : L - 2] = rng.integers(lo, hi, size=L - 2)
        y[i] = cls
    return X, y


def test_training_reaches_full_accuracy_on_separable_set():
    X, y = sep_dataset(n=10, L=12, seed=1)
    model = init_cnn(20, 12, (1, 2, 3), seed=5)
    model, history = train_cnn(model, X, y, TrainConfig(epochs=50, batch_size=4, seed=5))
    assert any(h.accuracy == 1.0 for h in history)
    assert history[-1].accuracy == 1.0


def test_zero_learning_rate_leaves_parameters_unchanged():
    X, y = sep_dataset(n=4, L=10, seed=2)
    model = init_cnn(20, 10, (1, 2), seed=7)
    before = {name: arr.copy() for name, arr in model.param_groups()}
    model, history = train_cnn(model, X, y, TrainConfig(epochs=3, learning_rate=0.0, seed=1))
    for name, arr in model.param_groups():
        np.testing.assert_array_equal(before[name], arr)
    assert len(history) == 3


def test_same_seed_identical_loss_history():
    X, y = sep_dataset(n=6, L=10, seed=3)
    cfg = TrainConfig(epochs=5, batch_size=4, seed=11)
    _, h1 = train_cnn(init_cnn(20, 10, (1, 2), seed=9), X, y, cfg)
    _, h2 = train_cnn(init_cnn(20, 10, (1, 2), seed=9), X, y, cfg)
    assert [e.loss for e in h1] == [e.loss for e in h2]


def test_loss_history_monotone_within_band():
    X, y = sep_dataset(n=10, L=12, seed=4)
    model = init_cnn(20, 12, (1, 2, 3), seed=5)
    _, history = train_cnn(model, X, y, TrainConfig(epochs=30, batch_size=4, seed=5))
    losses = [h.loss for h in history]
    for prev, cur in zip(losses, losses[1:]):
        assert cur <= prev * 1.05


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nan_loss_aborts_with_diagnostic():
    X, y = sep_dataset(n=4, L=10, seed=5)
    model = init_cnn(20, 10, (1,), seed=0)
    model.out_b[0] = np.inf
    with pytest.raises(TrainingDiverged, match="epoch 1"):
        train_cnn(model, X, y, TrainConfig(epochs=1))


@pytest.mark.parametrize("rate", [np.nan, np.inf])
def test_train_config_refuses_a_non_finite_learning_rate(rate):
    with pytest.raises(CnnError, match=f"^learning_rate must be finite, got {rate}$"):
        TrainConfig(learning_rate=rate)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_an_update_past_float32_raises_though_no_later_loss_shows_it():
    """1e39 is a finite float but not a finite float32: the one batch's
    update sends the parameters to inf, and no batch comes after it."""
    X, y = sep_dataset(n=4, L=10, seed=5)
    model = init_cnn(20, 10, (1,), seed=0)
    with pytest.raises(TrainingDiverged, match="non-finite value after training"):
        train_cnn(model, X, y, TrainConfig(epochs=1, batch_size=8, learning_rate=1e39))


def test_labels_accepted_directly():
    X, _ = sep_dataset(n=4, L=10, seed=6)
    labels = [Label.FAKE, Label.REAL] * 4
    model = init_cnn(20, 10, (1, 2), seed=1)
    model, history = train_cnn(model, X, labels, TrainConfig(epochs=2, seed=2))
    assert len(history) == 2


def test_embedding_dropout_training_runs():
    X, y = sep_dataset(n=6, L=10, seed=7)
    model = init_cnn(20, 10, (1, 2), seed=2)
    cfg = TrainConfig(epochs=3, seed=3, embedding_dropout=0.2)
    model, history = train_cnn(model, X, y, cfg)
    assert len(history) == 3


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_adam_step_in_place_is_bit_identical_to_the_formula(dtype):
    """The blocked in-place update against the expression it replaced, on
    arrays of a dense_w's shape spanning several blocks and a partial last
    block, three steps in a row."""
    b1, b2, eps, lr = cnn.ADAM_BETA1, cnn.ADAM_BETA2, cnn.ADAM_EPS, 1e-3
    rng = np.random.default_rng(0)
    shape = (3 * cnn._ADAM_BLOCK // 10 + 7, 10)
    assert cnn._ADAM_BLOCK * 3 < shape[0] * shape[1] < cnn._ADAM_BLOCK * 4
    param = rng.standard_normal(shape).astype(dtype)
    m, v = np.zeros(shape, dtype), np.zeros(shape, dtype)
    ref_param, ref_m, ref_v = param.copy(), m.copy(), v.copy()
    scratch = (np.empty(cnn._ADAM_BLOCK, dtype), np.empty(cnn._ADAM_BLOCK, dtype))
    for t in (1, 2, 3):
        g = (rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 3, size=shape)).astype(dtype)
        cnn._adam_step(param, g, m, v, t, lr, scratch)
        ref_m = b1 * ref_m + (1.0 - b1) * g
        ref_v = b2 * ref_v + (1.0 - b2) * g * g
        ref_param -= lr * (ref_m / (1.0 - b1**t)) / (np.sqrt(ref_v / (1.0 - b2**t)) + eps)
        assert ref_param.dtype == ref_m.dtype == ref_v.dtype == dtype
        np.testing.assert_array_equal(param, ref_param)
        np.testing.assert_array_equal(m, ref_m)
        np.testing.assert_array_equal(v, ref_v)
    # a flat view of another layout would be a copy, and the update lost
    fortran = np.asfortranarray(param)
    with pytest.raises(CnnError, match="C-contiguous"):
        cnn._adam_step(fortran, g, np.zeros_like(fortran), np.zeros_like(fortran), 4, lr, scratch)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_adam_step_on_rows_equals_the_zero_filled_gradient(dtype):
    """The embedding's step from the batch's rows against the step from an
    embedding-sized gradient that is zero elsewhere, bit for bit, over steps
    whose row sets differ, so rows decay untouched for several steps; the
    row gradient holds -0.0 entries."""
    rng = np.random.default_rng(1)
    shape = (cnn._ADAM_BLOCK // 50 + 31, 100)
    param = rng.standard_normal(shape).astype(dtype)
    ref_param = param.copy()
    m, v, ref_m, ref_v = (np.zeros(shape, dtype) for _ in range(4))
    scratch = (np.empty(cnn._ADAM_BLOCK, dtype), np.empty(cnn._ADAM_BLOCK, dtype))
    for t in range(1, 6):
        rows = np.sort(rng.choice(shape[0], size=40, replace=False))
        g = (rng.standard_normal((40, 100)) * 10.0 ** rng.integers(-8, 1, size=(40, 100)))
        g[rng.random(g.shape) < 0.1] = -0.0
        g = g.astype(dtype)
        full = np.zeros(shape, dtype)
        full[rows] = g
        cnn._adam_step(param, g, m, v, t, 1e-3, scratch, rows)
        cnn._adam_step(ref_param, full, ref_m, ref_v, t, 1e-3, scratch)
        for got, want in ((param, ref_param), (m, ref_m), (v, ref_v)):
            assert got.tobytes() == want.tobytes()


def test_one_char_training_step_stays_under_a_memory_bound():
    """One training batch of the benchmark's shared-task char shape (8 docs
    of up to 2,608 chars, 40% padding, a 6.7 MB dense_w): the step makes m,
    v and the gradients (20 MB) and the passes' arrays. Keeping every
    channel's pre-activations and a full-width dZ took it to 52 MB; 34 MB
    once they were gone."""
    rng = np.random.default_rng(0)
    B, L, V = 8, 2608, 45
    lengths = rng.integers(1000, L + 1, size=B)
    lengths[0] = L
    ids = np.where(np.arange(L) < lengths[:, None], rng.integers(1, V, size=(B, L)), 0)
    y = (np.arange(B) % 2).astype(float)
    model = init_cnn(V, L, (1, 2, 3, 4), seed=0)
    tracemalloc.start()
    try:
        train_cnn(model, ids, y, TrainConfig(epochs=1, batch_size=B))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 42e6, peak


def test_train_config_validation():
    with pytest.raises(CnnError):
        TrainConfig(epochs=0)
    with pytest.raises(CnnError):
        TrainConfig(embedding_dropout=1.0)


# --- prediction --------------------------------------------------------------

def test_predict_threshold_rules():
    m = init_cnn(10, 8, (1,), seed=0)
    ids = np.zeros((1, 8), dtype=np.int64)
    # craft the output bias so probabilities straddle the threshold
    m.out_b[0] = 10.0
    assert probs_to_labels(forward(m, ids)) == [Label.FAKE]   # p ~ 1
    m.out_b[0] = -10.0
    assert probs_to_labels(forward(m, ids)) == [Label.REAL]   # p ~ 0
    m.embedding[0, :] = 0.0
    m.out_b[0] = 0.0
    assert probs_to_labels(forward(m, ids)) == [Label.FAKE]   # p = 0.5 exactly


def test_float32_probabilities_stay_strictly_inside_the_unit_interval():
    """float32 rounds sigmoid(17) to 1; the sigmoid is taken in float64."""
    m = init_cnn(10, 8, (1,), seed=0)
    m.embedding[0, :] = 0.0
    ids = np.zeros((1, 8), dtype=np.int64)
    for logit in (30.0, -30.0):
        m.out_b[0] = logit
        p = forward(m, ids)
        assert p.dtype == np.float64 and 0.0 < p[0] < 1.0
        assert p[0] == cnn._sigmoid(np.array([logit]))[0]


def test_probabilities_saturate_only_at_extreme_logits():
    """The float64 sigmoid reaches exactly 1.0 from a logit of about 36.7
    and exactly 0.0 below about -745, as forward's docstring says."""
    m = init_cnn(10, 8, (1,), seed=0).astype(np.float64)
    m.embedding[0, :] = 0.0
    ids = np.zeros((1, 8), dtype=np.int64)
    for logit, p in ((37.0, 1.0), (-746.0, 0.0)):
        m.out_b[0] = logit
        assert forward(m, ids)[0] == p
    for logit in (36.0, -700.0):
        m.out_b[0] = logit
        assert 0.0 < forward(m, ids)[0] < 1.0
