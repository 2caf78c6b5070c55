"""Multichannel 1-D convolutional text classifier with manual backprop.

One shared embedding table feeds several channels; channel k applies 32
valid convolution filters of width k (so the channel reads k-grams of the
input unit), ReLU, width-2/stride-2 max pooling, and flattening. Channel
outputs are concatenated into a dense ReLU layer (10 units) and a single
logistic output unit. Gradients are derived by hand and validated against
central finite differences on a float64 copy of the model.

The parameters' dtype is the model's: init_cnn makes float32 parameters, as
Keras trains this network, and every pass, gradient and Adam moment takes
the dtype of the parameters it serves, so a float64 model (a file written
in float64, or a copy made with CnnModel.astype) runs in float64 on the same
code. Only the output sigmoid is taken from float64 logits: in float32,
sigmoid(17) rounds to exactly 1.

A batch holds far fewer distinct ids U than positions B*L (a char batch:
about 40 of 42,000), so the convolution runs over the ids, not the
positions. Each width-k channel multiplies the batch's U embedding rows by
its filters once, a (U, D) @ (D, k*F) GEMM giving R, whose rows are the
filter responses of each id at each kernel shift. A sparse matrix A, a row
per convolved window with one nonzero per shift (the dropout weight, or 1),
gathers and adds those responses into the windows' pre-activations:
pre = A @ R. The backward pass scatters the pre-activation gradient back
onto the ids with the transpose, S = A.T @ d_pre, and takes the filter and
embedding gradients from S with two more (U, k*F) GEMMs. The embedding
gradient is returned as the batch's U rows only; Adam gives every other row
the zero-gradient step.

Only real windows are convolved. Sequences are post-padded with id 0, and
unknown terms are id 0 too, so a document whose last non-zero id is at
position n_b - 1 holds only id 0 after it. Its first min(P, ceil(n_b / 2))
pooling pairs are real, having a window that reads position n_b - 1 or an
earlier one; A holds the windows of those pairs only. Every later window
reads only id 0, so its pre-activation is one per-channel constant
c_k = conv_b[k] + the sum over dt of the pad id's R rows, summed from 0 in
the order A @ R sums, and each of those pairs pools to relu(c_k), written
into Z by one broadcast: forward gives the values of convolving every
window, bit for bit. Backward adds those pairs' pooled gradients to the pad
id's rows of S as one per-filter vector, which reaches conv_w[k] and the pad
id's embedding row; only the order of that sum differs from convolving
every window. With embedding dropout on, pad positions carry their own
mask values, so every pair of every document is real.

The cache keeps what backward reads: the batch's ids and embedding rows, Z,
the hidden layer and the output, and per channel A, the element each real
pair kept and which pairs are real.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from itertools import repeat
from typing import Sequence

import numpy as np
from scipy import sparse

from .corpus import Label
from .preprocess import PreprocessedDoc


class CnnError(ValueError):
    pass


class TrainingDiverged(RuntimeError):
    """Raised when the training loss becomes NaN or a parameter ends non-finite."""


WORD_MAX_LEN_CAP = 2000
CHAR_MAX_LEN_CAP = 8000

EMBED_DIM = 100
N_FILTERS = 32
HIDDEN_UNITS = 10

# forward() runs this many documents at a time, which bounds the memory of
# inference over a whole corpus
_FORWARD_BLOCK = 16

# Adam moment decay rates and denominator epsilon
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# _adam_step updates this many parameters at a time, so its operands and its
# two scratch arrays stay in cache between its passes; init_cnn draws this
# many values at a time
_ADAM_BLOCK = 32768


@dataclass(frozen=True)
class SequenceEncoder:
    """Maps documents to fixed-length id sequences.

    unit selects words or characters as the building block; the two are
    never mixed in one model. Ids start at 1 (0 is padding and unknown) and
    are assigned by descending training frequency, ties broken
    lexicographically. Sequences are post-padded with 0 and truncated at
    max_len keeping the head.
    """

    unit: str
    term_to_id: dict[str, int]
    max_len: int

    def __post_init__(self) -> None:
        if self.unit not in ("word", "char"):
            raise CnnError(f"unit must be 'word' or 'char', got {self.unit!r}")
        if self.max_len < 1:
            raise CnnError("max_len must be >= 1")

    @property
    def vocab_size(self) -> int:
        """Number of embedding rows: distinct terms plus the padding/unknown id."""
        return len(self.term_to_id) + 1

    def units_of(self, doc: PreprocessedDoc) -> Sequence[str]:
        return _units(doc, self.unit)

    @classmethod
    def fit(
        cls,
        docs: Sequence[PreprocessedDoc],
        unit: str = "word",
        max_len: int | None = None,
    ) -> "SequenceEncoder":
        """The encoder of the training docs; building it refuses a bad unit."""
        counts: Counter[str] = Counter()
        longest = 1
        for doc in docs:
            seq = _units(doc, unit)
            counts.update(seq)
            longest = max(longest, len(seq))
        order = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        term_to_id = {term: i + 1 for i, (term, _) in enumerate(order)}
        if max_len is None:
            cap = WORD_MAX_LEN_CAP if unit == "word" else CHAR_MAX_LEN_CAP
            max_len = min(longest, cap)
        return cls(unit=unit, term_to_id=term_to_id, max_len=max_len)


def _units(doc: PreprocessedDoc, unit: str) -> Sequence[str]:
    """The words of a document, or its characters."""
    return doc.tokens if unit == "word" else doc.char_stream


def encode(docs: Sequence[PreprocessedDoc], encoder: SequenceEncoder) -> np.ndarray:
    """(n_docs, max_len) int matrix; unknown terms map to 0."""
    out = np.zeros((len(docs), encoder.max_len), dtype=np.int64)
    lookup = encoder.term_to_id.get
    for r, doc in enumerate(docs):
        units = encoder.units_of(doc)[: encoder.max_len]
        out[r, : len(units)] = np.fromiter(map(lookup, units, repeat(0)), np.int64, len(units))
    return out


@dataclass
class CnnModel:
    embedding: np.ndarray                 # (vocab_size, embed_dim)
    conv_w: dict[int, np.ndarray]         # k -> (filters, k, embed_dim)
    conv_b: dict[int, np.ndarray]         # k -> (filters,)
    dense_w: np.ndarray                   # (concat_dim, hidden)
    dense_b: np.ndarray                   # (hidden,)
    out_w: np.ndarray                     # (hidden,)
    out_b: np.ndarray                     # (1,)
    channels: tuple[int, ...]
    max_len: int

    def __post_init__(self) -> None:
        """Refuses arrays of other shapes than init_cnn gives for the
        embedding's row count, max_len and channels, with non-finite values,
        or that are not all float32 or all float64."""
        shapes = _param_shapes(self.embedding.shape[0], self.max_len, self.channels)
        dtypes = {arr.dtype for _, arr in self.param_groups()}
        if len(dtypes) != 1 or self.dtype not in (np.float32, np.float64):
            raise CnnError("parameters must be all float32 or all float64, got "
                           + ", ".join(sorted(map(str, dtypes))))
        for name, arr in self.param_groups():
            if arr.shape != shapes[name]:
                raise CnnError(f"{name} has shape {arr.shape}, expected {shapes[name]}")
            if not np.isfinite(arr).all():
                raise CnnError(f"{name} holds a non-finite value")

    @property
    def dtype(self) -> np.dtype:
        """The dtype of every parameter group, and of the passes over them."""
        return self.embedding.dtype

    def astype(self, dtype) -> "CnnModel":
        """A copy of the model with every parameter group cast to dtype."""
        return replace(
            self, embedding=self.embedding.astype(dtype),
            conv_w={k: w.astype(dtype) for k, w in self.conv_w.items()},
            conv_b={k: b.astype(dtype) for k, b in self.conv_b.items()},
            dense_w=self.dense_w.astype(dtype), dense_b=self.dense_b.astype(dtype),
            out_w=self.out_w.astype(dtype), out_b=self.out_b.astype(dtype))

    def param_groups(self) -> list[tuple[str, np.ndarray]]:
        """Stable (name, array) ordering used by the optimizer and grad check."""
        groups: list[tuple[str, np.ndarray]] = [("embedding", self.embedding)]
        for k in self.channels:
            groups.append((f"conv_w[{k}]", self.conv_w[k]))
            groups.append((f"conv_b[{k}]", self.conv_b[k]))
        groups.extend(
            [("dense_w", self.dense_w), ("dense_b", self.dense_b),
             ("out_w", self.out_w), ("out_b", self.out_b)]
        )
        return groups


def pooled_length(seq_len: int, kernel: int) -> int:
    """Length after valid conv (seq_len-kernel+1) and width-2/stride-2 pooling."""
    return (seq_len - kernel + 1) // 2


def _param_shapes(vocab_size: int, max_len: int, channels: tuple[int, ...]
                  ) -> dict[str, tuple[int, ...]]:
    """The shape of each parameter group (named as in CnnModel.param_groups)
    of a model with these sizes. Refuses channels that are not distinct,
    ascending kernel sizes >= 1, each with a non-empty pooled map."""
    if not channels:
        raise CnnError("need at least one channel")
    if min(channels) < 1:
        raise CnnError("kernel sizes must be >= 1")
    if list(channels) != sorted(set(channels)):
        raise CnnError(f"channels must be distinct and ascending, got {channels}")
    if max_len < max(channels):
        raise CnnError(
            f"max_len={max_len} is shorter than the largest kernel size {max(channels)}"
        )
    if any(pooled_length(max_len, k) < 1 for k in channels):
        raise CnnError(f"max_len={max_len} leaves an empty pooled map for some channel")
    concat_dim = sum(N_FILTERS * pooled_length(max_len, k) for k in channels)
    shapes = {"embedding": (vocab_size, EMBED_DIM)}
    for k in channels:
        shapes[f"conv_w[{k}]"] = (N_FILTERS, k, EMBED_DIM)
        shapes[f"conv_b[{k}]"] = (N_FILTERS,)
    shapes.update(dense_w=(concat_dim, HIDDEN_UNITS), dense_b=(HIDDEN_UNITS,),
                  out_w=(HIDDEN_UNITS,), out_b=(1,))
    return shapes


def kernel_sizes(channels: Sequence[int]) -> tuple[int, ...]:
    """The channels of the model init_cnn builds for these: each kernel
    size once, ascending."""
    return tuple(sorted(set(int(k) for k in channels)))


def init_cnn(vocab_size: int, max_len: int, channels: Sequence[int], seed: int) -> CnnModel:
    """Seeded initialization: embedding U(-0.05, 0.05), weights Glorot uniform,
    biases zero, in float32. The values are drawn in float64 and rounded, so a
    seed draws the values it drew when models were float64. Identical seeds
    give bit-identical parameters."""
    channels = kernel_sizes(channels)
    shapes = _param_shapes(vocab_size, max_len, channels)
    rng = np.random.default_rng(seed)
    emb = _uniform32(rng, 0.05, shapes["embedding"])
    conv_w: dict[int, np.ndarray] = {}
    conv_b: dict[int, np.ndarray] = {}
    for k in channels:
        limit = np.sqrt(6.0 / (k * EMBED_DIM + N_FILTERS))
        conv_w[k] = _uniform32(rng, limit, shapes[f"conv_w[{k}]"])
        conv_b[k] = np.zeros(N_FILTERS, np.float32)
    limit = np.sqrt(6.0 / (shapes["dense_w"][0] + HIDDEN_UNITS))
    dense_w = _uniform32(rng, limit, shapes["dense_w"])
    limit = np.sqrt(6.0 / (HIDDEN_UNITS + 1))
    out_w = _uniform32(rng, limit, (HIDDEN_UNITS,))
    return CnnModel(
        embedding=emb,
        conv_w=conv_w,
        conv_b=conv_b,
        dense_w=dense_w,
        dense_b=np.zeros(HIDDEN_UNITS, np.float32),
        out_w=out_w,
        out_b=np.zeros(1, np.float32),
        channels=channels,
        max_len=max_len,
    )


def _uniform32(rng: np.random.Generator, limit: float, shape: tuple[int, ...]) -> np.ndarray:
    """rng.uniform(-limit, limit, size=shape) rounded to float32, drawn in
    chunks: the same float64 stream, without a float64 array of the whole
    shape."""
    out = np.empty(shape, np.float32)
    flat = out.reshape(-1)
    for start in range(0, flat.size, _ADAM_BLOCK):
        chunk = flat[start : start + _ADAM_BLOCK]
        chunk[:] = rng.uniform(-limit, limit, size=chunk.size)
    return out


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _forward_cached(model: CnnModel, ids: np.ndarray, drop_mask: np.ndarray | None = None):
    """Forward pass keeping what backprop reads, in the model's dtype up to
    the logits; "o" and "p" are float64."""
    if ids.shape[1] != model.max_len:
        raise CnnError(f"batch width {ids.shape[1]} != model max_len {model.max_len}")
    B, L = ids.shape
    uniq, inv = np.unique(ids, return_inverse=True)
    # A's indices in int32 when they fit, which spares scipy a scan and a
    # copy of them for A and for A.T
    index = np.int32 if B * L * max(model.channels) < 2**31 else np.int64
    inv = inv.reshape(B, L).astype(index)                 # position -> row of uniq
    E_u = model.embedding[uniq]                           # (U, D)
    U, D = E_u.shape
    # a doc's real positions run up to its last non-zero id, or to L when
    # dropout weighs the pad positions too; ceil of half of them are pairs
    n_real = (np.full(B, L) if drop_mask is not None
              else np.where(ids != 0, np.arange(1, L + 1), 0).max(axis=1))
    cache: dict = {"uniq": uniq, "E_u": E_u, "channels": {}}
    Z = np.empty((B, model.dense_w.shape[0]), model.dtype)  # (B, concat)
    offset = 0
    for k in model.channels:
        W = model.conv_w[k]                               # (F, k, D)
        F, P = W.shape[0], pooled_length(L, k)
        # real[b, p]: pair p of doc b has a window that reads a real id
        real = np.arange(P) < (n_real[:, None] + 1) // 2
        # R[u * k + dt] = the response of id u at shift dt, E_u[u] @ W[:, dt].T
        R = (E_u @ W.transpose(1, 0, 2).reshape(k * F, D).T).reshape(U * k, F)
        # A[i, u * k + dt] = the weight of position t + dt of doc b when it
        # holds id u, row i being the i-th window (b, t) of a real pair in
        # doc order, so pre[i] = bias + sum_dt weight * R row
        window = np.flatnonzero(np.repeat(real, 2, axis=1))     # b * 2P + t
        reads = (window + window // (2 * P) * (L - 2 * P))[:, None] + np.arange(k)  # b * L + t + dt
        cols = (inv.ravel()[reads] * k + np.arange(k, dtype=index)).ravel()
        weights = (np.ones(cols.size, model.dtype) if drop_mask is None
                   else drop_mask.astype(model.dtype, copy=False).ravel()[reads].ravel())
        A = sparse.csr_matrix((weights, cols, np.arange(0, cols.size + 1, k, dtype=index)),
                              shape=(len(window), U * k))
        pre = A @ R
        pre += model.conv_b[k]
        # ReLU and max pooling commute, so each pair pools to max(even, odd,
        # 0), written into Z; the odd element wins only if it beats both
        pooled = np.maximum(pre[0::2], 0.0)
        odd = pre[1::2]
        arg = odd > pooled                                # ties -> first element
        Z_k = Z[:, offset : offset + P * F].reshape(B, P, F)
        offset += P * F
        Z_k[real] = np.maximum(pooled, odd, out=pooled)
        if not real.all():
            # the later pairs read only the pad id, uniq[0]: relu(c_k)
            c = np.zeros(F, model.dtype)
            for dt in range(k):
                c += R[dt]
            c += model.conv_b[k]
            Z_k[~real] = np.maximum(c, 0.0)
        cache["channels"][k] = {"A": A, "arg": arg, "real": real}
    h_pre = Z @ model.dense_w + model.dense_b
    h = np.maximum(h_pre, 0.0)
    o = (h @ model.out_w + model.out_b[0]).astype(np.float64)  # (B,) logits
    p = _sigmoid(o)
    cache.update({"Z": Z, "h_pre": h_pre, "h": h, "o": o, "p": p})
    return p, cache


def forward(model: CnnModel, ids: np.ndarray) -> np.ndarray:
    """Probabilities of the Fake class, in [0, 1]: the sigmoid of float64
    logits is exactly 1.0 for a logit above about 36.7 and exactly 0.0 below
    about -745, and strictly inside (0, 1) between."""
    ids = np.asarray(ids, dtype=np.int64)
    blocks = [ids[s : s + _FORWARD_BLOCK] for s in range(0, len(ids), _FORWARD_BLOCK)]
    return np.concatenate([_forward_cached(model, b)[0] for b in blocks or [ids]])


def bce_loss(o: np.ndarray, targets: np.ndarray) -> float:
    """Mean binary cross-entropy computed stably from logits."""
    return float(np.mean(np.maximum(o, 0.0) - o * targets + np.log1p(np.exp(-np.abs(o)))))


def _backward(model: CnnModel, cache: dict, targets: np.ndarray) -> dict[str, np.ndarray]:
    """Gradients of mean BCE w.r.t. every parameter group; the embedding's
    is that of its rows cache["uniq"] (every other row's is zero)."""
    B = targets.shape[0]
    do = ((cache["p"] - targets) / B).astype(model.dtype)  # (B,)
    grads: dict[str, np.ndarray] = {}
    grads["out_w"] = cache["h"].T @ do
    grads["out_b"] = do.sum(keepdims=True)
    dh = np.outer(do, model.out_w)
    dh_pre = dh * (cache["h_pre"] > 0.0)
    grads["dense_w"] = cache["Z"].T @ dh_pre
    grads["dense_b"] = dh_pre.sum(axis=0)

    E_u = cache["E_u"]
    D = E_u.shape[1]
    dE_u = np.zeros_like(E_u)
    offset = 0
    for k in model.channels:
        ch = cache["channels"][k]
        W = model.conv_w[k]
        F, P = W.shape[0], pooled_length(model.max_len, k)
        cols = slice(offset, offset + P * F)
        offset += P * F
        d_kept = (dh_pre @ model.dense_w[cols].T).reshape(B, P, F)
        # the pooled gradient goes to the element each pair kept, when that
        # element, and so the pooled value, is above 0
        d_kept *= cache["Z"][:, cols].reshape(B, P, F) > 0.0
        grads[f"conv_b[{k}]"] = d_kept.sum(axis=(0, 1))
        real, arg = ch["real"], ch["arg"]
        d_real = np.take(d_kept.reshape(B * P, F), np.flatnonzero(real), axis=0)
        d_pre = np.empty((2 * len(d_real), F), model.dtype)
        np.multiply(d_real, ~arg, out=d_pre[0::2])
        np.multiply(d_real, arg, out=d_pre[1::2])
        # S[u, dt * F + f]: d_pre summed over the windows whose shift dt
        # reads id u, weighted as in the forward pass; a padding-only pair
        # passes its gradient to its even window, whose every shift reads
        # the pad id uniq[0]
        S = (ch["A"].T @ d_pre).reshape(-1, k * F)
        if not real.all():
            pad = (~real).ravel().astype(model.dtype)
            S.reshape(-1, k, F)[0] += pad @ d_kept.reshape(B * P, F)
        grads[f"conv_w[{k}]"] = np.ascontiguousarray(
            (S.T @ E_u).reshape(k, F, D).transpose(1, 0, 2))
        dE_u += S @ W.transpose(1, 0, 2).reshape(k * F, D)

    grads["embedding"] = dE_u
    return grads


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 7
    batch_size: int = 16
    learning_rate: float = 1e-3
    seed: int = 0
    embedding_dropout: float = 0.0

    def __post_init__(self) -> None:
        if self.epochs < 1 or self.batch_size < 1:
            raise CnnError("epochs and batch_size must be positive")
        if not np.isfinite(self.learning_rate):
            raise CnnError(f"learning_rate must be finite, got {self.learning_rate}")
        if self.learning_rate < 0:
            raise CnnError("learning_rate must be >= 0")
        if not 0.0 <= self.embedding_dropout < 1.0:
            raise CnnError("embedding_dropout must be in [0, 1)")


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    loss: float
    accuracy: float


def write_history_tsv(history: Sequence[EpochStats], path) -> None:
    """Per-epoch loss/accuracy as TSV, one row per epoch, for plotting.

    Both come from the epoch's own training batches, each scored before its
    update (with embedding dropout, if set), as Keras reports them: loss is
    the mean batch loss, accuracy the share of training documents scored on
    the right side of 0.5. No separate pass over the training set is made."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("epoch\tloss\taccuracy\n")
        for e in history:
            fh.write(f"{e.epoch}\t{e.loss!r}\t{e.accuracy!r}\n")


def train_cnn(
    model: CnnModel, X: np.ndarray, y, config: TrainConfig
) -> tuple[CnnModel, list[EpochStats]]:
    """Mini-batch Adam on mean BCE; deterministic given (model, X, y, config).

    y may be 0/1 floats or Labels (Fake -> 1). Updates the model in place and
    returns it with the per-epoch loss/accuracy history (see write_history_tsv).
    """
    X = np.asarray(X, dtype=np.int64)
    targets = _targets_01(y).astype(model.dtype)
    if X.shape[0] != targets.shape[0]:
        raise CnnError(f"got {X.shape[0]} rows but {targets.shape[0]} labels")
    rng = np.random.default_rng(config.seed)
    groups = model.param_groups()
    m = {name: np.zeros_like(arr) for name, arr in groups}
    v = {name: np.zeros_like(arr) for name, arr in groups}
    scratch = (np.empty(_ADAM_BLOCK, model.dtype), np.empty(_ADAM_BLOCK, model.dtype))
    t = 0
    history: list[EpochStats] = []
    n = X.shape[0]
    for epoch in range(1, config.epochs + 1):
        perm = rng.permutation(n)
        batch_losses = []
        correct = 0
        for start in range(0, n, config.batch_size):
            idx = perm[start : start + config.batch_size]
            ids, tgt = X[idx], targets[idx]
            drop_mask = None
            if config.embedding_dropout > 0.0:
                keep = 1.0 - config.embedding_dropout
                drop_mask = ((rng.random(ids.shape) < keep) / keep).astype(model.dtype)
            _, cache = _forward_cached(model, ids, drop_mask)
            loss = bce_loss(cache["o"], tgt)
            if np.isnan(loss):
                raise TrainingDiverged(
                    f"NaN loss at epoch {epoch}, batch starting at {start}"
                )
            batch_losses.append(loss)
            correct += int(np.sum((cache["p"] >= 0.5) == (tgt >= 0.5)))
            grads = _backward(model, cache, tgt)
            rows = cache["uniq"]
            del cache
            t += 1
            for name, arr in groups:
                _adam_step(arr, grads[name], m[name], v[name], t, config.learning_rate,
                           scratch, rows if name == "embedding" else None)
        history.append(EpochStats(epoch=epoch, loss=float(np.mean(batch_losses)),
                                  accuracy=correct / n))
    # a NaN loss shows a diverged update only at the next batch, and an
    # overflow past float32 none at all
    for name, arr in groups:
        if not np.isfinite(arr).all():
            raise TrainingDiverged(f"{name} holds a non-finite value after training")
    return model, history


def _adam_step(param: np.ndarray, g: np.ndarray, m: np.ndarray, v: np.ndarray, t: int,
               lr: float, scratch: tuple[np.ndarray, np.ndarray],
               rows: np.ndarray | None = None) -> None:
    """Adam step t (from 1) on the C-contiguous param, m and v in place, over
    blocks of _ADAM_BLOCK entries through two scratch arrays of that size.
    Each entry's operations and their order are those of

        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        param -= lr * (m / (1 - b1**t)) / (sqrt(v / (1 - b2**t)) + eps)

    so the results are bit-identical to it, without its temporaries.

    With rows (distinct), g is the gradient of param[rows], and every other
    row takes the zero-gradient step m = b1 * m, v = b2 * v without forming
    the g terms. That is bit-identical too: m starts at +0.0 and decay never
    makes it -0.0, and v >= +0, so adding a zero term changes no value."""
    if not param.flags.c_contiguous:  # m and v are laid out like param
        raise CnnError("Adam updates C-contiguous parameters in place")
    if rows is not None:
        m *= ADAM_BETA1
        m[rows] += g * (1.0 - ADAM_BETA1)
        v *= ADAM_BETA2
        v[rows] += g * (1.0 - ADAM_BETA2) * g
    flat = [a.reshape(-1) for a in (param, m, v)]
    for start in range(0, param.size, _ADAM_BLOCK):
        p_, m_, v_ = (a[start : start + _ADAM_BLOCK] for a in flat)
        s1, s2 = (s[: p_.size] for s in scratch)
        if rows is None:
            g_ = g.reshape(-1)[start : start + _ADAM_BLOCK]
            m_ *= ADAM_BETA1
            np.multiply(g_, 1.0 - ADAM_BETA1, out=s1)
            m_ += s1
            v_ *= ADAM_BETA2
            np.multiply(g_, 1.0 - ADAM_BETA2, out=s1)
            s1 *= g_
            v_ += s1
        np.divide(m_, 1.0 - ADAM_BETA1**t, out=s1)
        s1 *= lr
        np.divide(v_, 1.0 - ADAM_BETA2**t, out=s2)
        np.sqrt(s2, out=s2)
        s2 += ADAM_EPS
        s1 /= s2
        p_ -= s1


def _targets_01(y) -> np.ndarray:
    arr = np.asarray(y)
    if arr.dtype.kind in ("U", "S", "O"):
        return np.array(
            [1.0 if str(l) == Label.FAKE.value else 0.0 for l in arr], dtype=np.float64
        )
    return arr.astype(np.float64)


def probs_to_labels(probs) -> list[Label]:
    """Fake when the probability is >= 0.5."""
    return [Label.FAKE if p >= 0.5 else Label.REAL for p in np.asarray(probs)]


@dataclass(frozen=True)
class GradCheckReport:
    per_group: dict[str, float]
    skipped: int = 0  # sampled entries at ReLU/pooling kinks, excluded

    @property
    def max_rel_error(self) -> float:
        return max(self.per_group.values(), default=0.0)


def grad_check(
    model: CnnModel,
    ids: np.ndarray,
    y,
    n_samples: int = 6,
    h: float = 1e-5,
    seed: int = 0,
) -> GradCheckReport:
    """Analytic vs central-finite-difference gradients on sampled entries of
    a float64 copy of the model (differences at h = 1e-5 mean nothing in
    float32); the passes are the same code in either dtype.

    Relative error per entry is |analytic - numeric| / max(|numeric|, 1e-6),
    so a gradient scaled by a factor c reports an error of about |c - 1|.
    Entries where the loss is locally non-differentiable (a perturbation
    crosses a ReLU or max-pool boundary, detected by the +h and -h passes
    making different ReLU or pooling choices) are skipped; a systematically wrong
    gradient gives consistent numeric estimates and is still caught.
    n_samples = 0 yields an empty report.
    """
    model = model.astype(np.float64)
    ids = np.asarray(ids, dtype=np.int64)
    targets = _targets_01(y)
    _, cache = _forward_cached(model, ids)
    analytic = _backward(model, cache, targets)
    demb = np.zeros_like(model.embedding)
    demb[cache["uniq"]] = analytic["embedding"]
    analytic["embedding"] = demb
    rng = np.random.default_rng(seed)
    per_group: dict[str, float] = {}
    skipped = 0
    if n_samples <= 0:
        return GradCheckReport(per_group=per_group)

    def loss_and_signature(flat, p, value):
        orig = flat[p]
        flat[p] = value
        _, c = _forward_cached(model, ids)
        flat[p] = orig
        return bce_loss(c["o"], targets), _kink_signature(c)

    for name, arr in model.param_groups():
        flat = arr.ravel()
        k = min(n_samples, flat.size)
        picks = rng.choice(flat.size, size=k, replace=False)
        worst = 0.0
        for p in picks:
            lo_plus, sig_plus = loss_and_signature(flat, p, flat[p] + h)
            lo_minus, sig_minus = loss_and_signature(flat, p, flat[p] - h)
            if sig_plus != sig_minus:
                # the perturbation crossed a ReLU or pooling boundary; the
                # loss is not differentiable between the two evaluations
                skipped += 1
                continue
            numeric = (lo_plus - lo_minus) / (2.0 * h)
            a = analytic[name].ravel()[p]
            worst = max(worst, abs(a - numeric) / max(abs(numeric), 1e-6))
        per_group[name] = worst
    return GradCheckReport(per_group=per_group, skipped=skipped)


def _kink_signature(cache: dict) -> bytes:
    """Active-set fingerprint: the pooling choices, which pooled values are
    above 0 (the ReLU of the element each pair kept) and the hidden ReLUs."""
    parts = [cache["channels"][k]["arg"].tobytes() for k in sorted(cache["channels"])]
    parts.append((cache["Z"] > 0.0).tobytes())
    parts.append((cache["h_pre"] > 0.0).tobytes())
    return b"".join(parts)
