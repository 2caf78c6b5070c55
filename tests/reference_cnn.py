"""Reference CNN passes: the straight-line einsum forward and backward, and
the id-table forward over every window.

The einsum passes are the formulation urdufake.cnn used before the
convolution became one matrix product per kernel shift: sliding windows
contracted with einsum, argmax/take_along_axis max pooling, and np.add.at
for the embedding gradient. They are the oracle the fast passes are checked
against, to a tolerance.

padded_forward is the id-table forward as it ran before it skipped the
windows that read only padding: it convolves every window of every
document. It sums in the order the fast forward does, so the fast forward
must equal it bit for bit.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import sparse

from urdufake.cnn import CnnError, CnnModel, _sigmoid


def reference_forward_cached(model: CnnModel, ids: np.ndarray,
                             drop_mask: np.ndarray | None = None):
    if ids.shape[1] != model.max_len:
        raise CnnError(f"batch width {ids.shape[1]} != model max_len {model.max_len}")
    E = model.embedding[ids]  # (B, L, D)
    if drop_mask is not None:
        E = E * drop_mask[:, :, None]
    cache: dict = {"ids": ids, "E": E, "drop_mask": drop_mask, "channels": {}}
    flats = []
    for k in model.channels:
        windows = sliding_window_view(E, k, axis=1)      # (B, T, D, k)
        pre = np.einsum("btdk,fkd->btf", windows, model.conv_w[k]) + model.conv_b[k]
        act = np.maximum(pre, 0.0)                        # (B, T, F)
        B, T, F = act.shape
        P = T // 2
        trimmed = act[:, : 2 * P, :].reshape(B, P, 2, F)
        arg = trimmed.argmax(axis=2)                      # ties -> first element
        pooled = np.take_along_axis(trimmed, arg[:, :, None, :], axis=2)[:, :, 0, :]
        flats.append(pooled.reshape(B, P * F))
        cache["channels"][k] = {"windows": windows, "pre": pre, "arg": arg,
                                "T": T, "P": P, "F": F}
    Z = np.concatenate(flats, axis=1)                     # (B, concat)
    h_pre = Z @ model.dense_w + model.dense_b
    h = np.maximum(h_pre, 0.0)
    o = h @ model.out_w + model.out_b[0]                  # (B,) logits
    p = _sigmoid(o)
    cache.update({"Z": Z, "h_pre": h_pre, "h": h, "o": o, "p": p})
    return p, cache


def reference_backward(model: CnnModel, cache: dict, targets: np.ndarray
                       ) -> dict[str, np.ndarray]:
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

    dE = np.zeros_like(cache["E"])
    offset = 0
    for k in model.channels:
        ch = cache["channels"][k]
        P, F, T = ch["P"], ch["F"], ch["T"]
        width = P * F
        d_flat = dZ[:, offset : offset + width].reshape(B, P, F)
        offset += width
        d_trim = np.zeros((B, P, 2, F))
        np.put_along_axis(d_trim, ch["arg"][:, :, None, :], d_flat[:, :, None, :], axis=2)
        d_act = np.zeros((B, T, F))
        d_act[:, : 2 * P, :] = d_trim.reshape(B, 2 * P, F)
        d_pre = d_act * (ch["pre"] > 0.0)
        grads[f"conv_w[{k}]"] = np.einsum("btf,btdk->fkd", d_pre, ch["windows"])
        grads[f"conv_b[{k}]"] = d_pre.sum(axis=(0, 1))
        W = model.conv_w[k]
        for dt in range(k):
            dE[:, dt : dt + T, :] += np.einsum("btf,fd->btd", d_pre, W[:, dt, :])

    if cache["drop_mask"] is not None:
        dE *= cache["drop_mask"][:, :, None]
    demb = np.zeros_like(model.embedding)
    np.add.at(demb, cache["ids"], dE)
    grads["embedding"] = demb
    return grads


def padded_forward(model: CnnModel, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(p, Z, h_pre) of the id-table forward over every window."""
    B, L = ids.shape
    uniq, inv = np.unique(ids, return_inverse=True)
    inv = inv.reshape(B, L)
    E_u = model.embedding[uniq]
    U, D = E_u.shape
    flats = []
    for k in model.channels:
        W = model.conv_w[k]
        F, T = W.shape[0], L - k + 1
        R = (E_u @ W.transpose(1, 0, 2).reshape(k * F, D).T).reshape(U * k, F)
        cols = (sliding_window_view(inv, k, axis=1) * k + np.arange(k)).ravel()
        A = sparse.csr_matrix((np.ones(cols.size, model.dtype), cols,
                               np.arange(0, cols.size + 1, k)), shape=(B * T, U * k))
        pre = (A @ R).reshape(B, T, F)
        pre += model.conv_b[k]
        P = T // 2
        even_relu = np.maximum(pre[:, 0 : 2 * P : 2], 0.0)
        flats.append(np.maximum(even_relu, pre[:, 1 : 2 * P : 2]).reshape(B, P * F))
    Z = np.concatenate(flats, axis=1)
    h_pre = Z @ model.dense_w + model.dense_b
    o = (np.maximum(h_pre, 0.0) @ model.out_w + model.out_b[0]).astype(np.float64)
    return _sigmoid(o), Z, h_pre
