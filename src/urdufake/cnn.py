"""Multichannel 1-D convolutional text classifier with manual backprop.

One shared embedding table feeds several channels; channel k applies 32
valid convolution filters of width k (so the channel reads k-grams of the
input unit), ReLU, width-2/stride-2 max pooling, and flattening. Channel
outputs are concatenated into a dense ReLU layer (10 units) and a single
logistic output unit. Everything is float64 numpy; gradients are derived by
hand and validated against central finite differences.

A width-k convolution is computed as k matrix products, one per kernel
shift dt: the (B*L, D) embedded batch times the filters' dt-th slice gives a
(B, L, F) map, and that map shifted by dt is added into the (B, T, F)
pre-activations. The backward pass takes the same shifted products, so
neither pass builds the (B, T, k, D) windows of the batch.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .corpus import Label
from .preprocess import PreprocessedDoc


class CnnError(ValueError):
    pass


class TrainingDiverged(RuntimeError):
    """Raised when the training loss becomes NaN."""


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
        return doc.tokens if self.unit == "word" else doc.char_stream

    @classmethod
    def fit(
        cls,
        docs: Sequence[PreprocessedDoc],
        unit: str = "word",
        max_len: int | None = None,
    ) -> "SequenceEncoder":
        if unit not in ("word", "char"):
            raise CnnError(f"unit must be 'word' or 'char', got {unit!r}")
        counts: Counter[str] = Counter()
        longest = 1
        for doc in docs:
            seq = doc.tokens if unit == "word" else doc.char_stream
            counts.update(seq)
            longest = max(longest, len(seq))
        order = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        term_to_id = {term: i + 1 for i, (term, _) in enumerate(order)}
        if max_len is None:
            cap = WORD_MAX_LEN_CAP if unit == "word" else CHAR_MAX_LEN_CAP
            max_len = min(longest, cap)
        return cls(unit=unit, term_to_id=term_to_id, max_len=max_len)


def encode(docs: Sequence[PreprocessedDoc], encoder: SequenceEncoder) -> np.ndarray:
    """(n_docs, max_len) int matrix; unknown terms map to 0."""
    out = np.zeros((len(docs), encoder.max_len), dtype=np.int64)
    for r, doc in enumerate(docs):
        seq = encoder.units_of(doc)
        for c, term in enumerate(seq[: encoder.max_len]):
            out[r, c] = encoder.term_to_id.get(term, 0)
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


def init_cnn(vocab_size: int, max_len: int, channels: Sequence[int], seed: int) -> CnnModel:
    """Seeded initialization: embedding U(-0.05, 0.05), weights Glorot uniform,
    biases zero. Identical seeds give bit-identical parameters."""
    channels = tuple(sorted(set(int(k) for k in channels)))
    if not channels:
        raise CnnError("need at least one channel")
    if min(channels) < 1:
        raise CnnError("kernel sizes must be >= 1")
    if max_len < max(channels):
        raise CnnError(
            f"max_len={max_len} is shorter than the largest kernel size {max(channels)}"
        )
    if any(pooled_length(max_len, k) < 1 for k in channels):
        raise CnnError(f"max_len={max_len} leaves an empty pooled map for some channel")
    rng = np.random.default_rng(seed)
    emb = rng.uniform(-0.05, 0.05, size=(vocab_size, EMBED_DIM))
    conv_w: dict[int, np.ndarray] = {}
    conv_b: dict[int, np.ndarray] = {}
    for k in channels:
        limit = np.sqrt(6.0 / (k * EMBED_DIM + N_FILTERS))
        conv_w[k] = rng.uniform(-limit, limit, size=(N_FILTERS, k, EMBED_DIM))
        conv_b[k] = np.zeros(N_FILTERS)
    concat_dim = sum(N_FILTERS * pooled_length(max_len, k) for k in channels)
    limit = np.sqrt(6.0 / (concat_dim + HIDDEN_UNITS))
    dense_w = rng.uniform(-limit, limit, size=(concat_dim, HIDDEN_UNITS))
    limit = np.sqrt(6.0 / (HIDDEN_UNITS + 1))
    out_w = rng.uniform(-limit, limit, size=HIDDEN_UNITS)
    return CnnModel(
        embedding=emb,
        conv_w=conv_w,
        conv_b=conv_b,
        dense_w=dense_w,
        dense_b=np.zeros(HIDDEN_UNITS),
        out_w=out_w,
        out_b=np.zeros(1),
        channels=channels,
        max_len=max_len,
    )


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _forward_cached(model: CnnModel, ids: np.ndarray, drop_mask: np.ndarray | None = None):
    """Forward pass keeping every intermediate needed for backprop."""
    if ids.shape[1] != model.max_len:
        raise CnnError(f"batch width {ids.shape[1]} != model max_len {model.max_len}")
    E = model.embedding[ids]  # (B, L, D)
    if drop_mask is not None:
        E = E * drop_mask[:, :, None]
    B, L, D = E.shape
    E2 = E.reshape(B * L, D)
    cache: dict = {"ids": ids, "E": E, "drop_mask": drop_mask, "channels": {}}
    flats = []
    for k in model.channels:
        W = model.conv_w[k]                               # (F, k, D)
        F, T = W.shape[0], L - k + 1
        # pre[:, t] = b + sum_dt E[:, t + dt] @ W[:, dt].T, one GEMM per shift
        pre = np.empty((B, T, F))
        pre[:] = model.conv_b[k]
        for dt in range(k):
            pre += (E2 @ W[:, dt, :].T).reshape(B, L, F)[:, dt : dt + T]
        act = np.maximum(pre, 0.0)
        P = T // 2
        even, odd = act[:, 0 : 2 * P : 2], act[:, 1 : 2 * P : 2]
        arg = odd > even                                  # ties -> first element
        pooled = np.where(arg, odd, even)                 # (B, P, F)
        flats.append(pooled.reshape(B, P * F))
        cache["channels"][k] = {"pre": pre, "arg": arg, "T": T, "P": P, "F": F}
    Z = np.concatenate(flats, axis=1)                     # (B, concat)
    h_pre = Z @ model.dense_w + model.dense_b
    h = np.maximum(h_pre, 0.0)
    o = h @ model.out_w + model.out_b[0]                  # (B,) logits
    p = _sigmoid(o)
    cache.update({"Z": Z, "h_pre": h_pre, "h": h, "o": o, "p": p})
    return p, cache


def forward(model: CnnModel, ids: np.ndarray) -> np.ndarray:
    """Probabilities of the Fake class, strictly inside (0, 1)."""
    ids = np.asarray(ids, dtype=np.int64)
    blocks = [ids[s : s + _FORWARD_BLOCK] for s in range(0, len(ids), _FORWARD_BLOCK)]
    return np.concatenate([_forward_cached(model, b)[0] for b in blocks or [ids]])


def bce_loss(o: np.ndarray, targets: np.ndarray) -> float:
    """Mean binary cross-entropy computed stably from logits."""
    return float(np.mean(np.maximum(o, 0.0) - o * targets + np.log1p(np.exp(-np.abs(o)))))


def _backward(model: CnnModel, cache: dict, targets: np.ndarray) -> dict[str, np.ndarray]:
    """Gradients of mean BCE w.r.t. every parameter group."""
    B = targets.shape[0]
    do = (cache["p"] - targets) / B                       # (B,)
    grads: dict[str, np.ndarray] = {}
    grads["out_w"] = cache["h"].T @ do
    grads["out_b"] = np.array([do.sum()])
    dh = np.outer(do, model.out_w)
    dh_pre = dh * (cache["h_pre"] > 0.0)
    grads["dense_w"] = cache["Z"].T @ dh_pre
    grads["dense_b"] = dh_pre.sum(axis=0)
    dZ = dh_pre @ model.dense_w.T

    E = cache["E"]
    L, D = E.shape[1], E.shape[2]
    E2 = E.reshape(B * L, D)
    dE = np.zeros_like(E)
    offset = 0
    for k in model.channels:
        ch = cache["channels"][k]
        P, F, T = ch["P"], ch["F"], ch["T"]
        width = P * F
        d_flat = dZ[:, offset : offset + width].reshape(B, P, F)
        offset += width
        # the pooled gradient goes to the element each pair kept
        d_pre = np.zeros((B, T, F))
        d_pre[:, 0 : 2 * P : 2] = np.where(ch["arg"], 0.0, d_flat)
        d_pre[:, 1 : 2 * P : 2] = np.where(ch["arg"], d_flat, 0.0)
        d_pre *= ch["pre"] > 0.0
        grads[f"conv_b[{k}]"] = d_pre.sum(axis=(0, 1))
        # gw[:, dt] = sum_t d_pre[:, t].T @ E[:, t + dt]: shift d_pre by dt
        # inside a zeroed (B, L, F) buffer and take one GEMM with all of E
        W = model.conv_w[k]
        gw = np.empty_like(W)
        shifted = np.zeros((B, L, F))
        d_pre2 = d_pre.reshape(B * T, F)
        for dt in range(k):
            if dt:
                shifted[:, dt - 1] = 0.0                 # the previous shift's first row
            shifted[:, dt : dt + T] = d_pre
            gw[:, dt, :] = shifted.reshape(B * L, F).T @ E2
            dE[:, dt : dt + T] += (d_pre2 @ W[:, dt, :]).reshape(B, T, D)
        grads[f"conv_w[{k}]"] = gw

    if cache["drop_mask"] is not None:
        dE *= cache["drop_mask"][:, :, None]
    # sum dE rows per id: a stable sort groups equal ids in their original
    # order, and reduceat adds each group
    flat_ids = cache["ids"].ravel()
    order = np.argsort(flat_ids, kind="stable")
    sorted_ids = flat_ids[order]
    starts = np.flatnonzero(np.r_[True, sorted_ids[1:] != sorted_ids[:-1]])
    demb = np.zeros_like(model.embedding)
    demb[sorted_ids[starts]] = np.add.reduceat(dE.reshape(B * L, D)[order], starts, axis=0)
    grads["embedding"] = demb
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
    targets = _targets_01(y)
    if X.shape[0] != targets.shape[0]:
        raise CnnError(f"got {X.shape[0]} rows but {targets.shape[0]} labels")
    rng = np.random.default_rng(config.seed)
    groups = model.param_groups()
    m = {name: np.zeros_like(arr) for name, arr in groups}
    v = {name: np.zeros_like(arr) for name, arr in groups}
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
                drop_mask = (rng.random(ids.shape) < keep) / keep
            _, cache = _forward_cached(model, ids, drop_mask)
            loss = bce_loss(cache["o"], tgt)
            if np.isnan(loss):
                raise TrainingDiverged(
                    f"NaN loss at epoch {epoch}, batch starting at {start}"
                )
            batch_losses.append(loss)
            correct += int(np.sum((cache["p"] >= 0.5) == (tgt >= 0.5)))
            grads = _backward(model, cache, tgt)
            t += 1
            bc1 = 1.0 - ADAM_BETA1**t
            bc2 = 1.0 - ADAM_BETA2**t
            for name, arr in groups:
                g = grads[name]
                m[name] = ADAM_BETA1 * m[name] + (1.0 - ADAM_BETA1) * g
                v[name] = ADAM_BETA2 * v[name] + (1.0 - ADAM_BETA2) * g * g
                arr -= config.learning_rate * (m[name] / bc1) / (
                    np.sqrt(v[name] / bc2) + ADAM_EPS
                )
        history.append(EpochStats(epoch=epoch, loss=float(np.mean(batch_losses)),
                                  accuracy=correct / n))
    return model, history


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
    """Analytic vs central-finite-difference gradients on sampled entries.

    Relative error per entry is |analytic - numeric| / max(|numeric|, 1e-6),
    so a gradient scaled by a factor c reports an error of about |c - 1|.
    Entries where the loss is locally non-differentiable (a perturbation
    crosses a ReLU or max-pool boundary, detected by disagreement between the
    h and h/2 central differences) are skipped; a systematically wrong
    gradient gives consistent numeric estimates and is still caught.
    n_samples = 0 yields an empty report.
    """
    ids = np.asarray(ids, dtype=np.int64)
    targets = _targets_01(y)
    _, cache = _forward_cached(model, ids)
    analytic = _backward(model, cache, targets)
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
    """Active-set fingerprint: ReLU signs and pooling argmax choices."""
    parts = []
    for k in sorted(cache["channels"]):
        ch = cache["channels"][k]
        parts.append((ch["pre"] > 0.0).tobytes())
        parts.append(ch["arg"].tobytes())
    parts.append((cache["h_pre"] > 0.0).tobytes())
    return b"".join(parts)
