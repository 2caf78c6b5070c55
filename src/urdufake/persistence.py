"""Binary model container: magic bytes, versioned header, named blobs.

Layout (little-endian):
  4 bytes  magic "UFND"
  u32      major format version
  u32      minor format version
  u64      metadata JSON length, followed by that many UTF-8 bytes
  u32      blob count; per blob: u16 name length + name, u8 kind
           (0 = npy array, 1 = UTF-8 text), u64 payload length + payload

Loading refuses files whose major version is newer than this module and
reports truncation and bad magic explicitly. Major 2 stopped writing two
SVM blobs that other blobs imply, the idf and the requested K; major-1
files still load, because the reader ignores blobs it does not use. Major 3
stores an SVM vocabulary as its rank tables and integer term keys
(vocab.alphabet, vocab.words, vocab.keys.<namespace>) in place of the
vocab.terms text, and the fitted resources' digest in the metadata; the
terms of a major-1/2 file are coded into keys when it loads.
Writing is deterministic: identical pipelines serialize to identical bytes.
"""

from __future__ import annotations

import io
import json
import struct
from pathlib import Path

import numpy as np
from scipy import sparse

MAGIC = b"UFND"
MAJOR = 3
MINOR = 0


class ModelFormatError(ValueError):
    pass


def _write_blob(fh, name: str, kind: int, payload: bytes) -> None:
    encoded = name.encode("utf-8")
    fh.write(struct.pack("<H", len(encoded)))
    fh.write(encoded)
    fh.write(struct.pack("<B", kind))
    fh.write(struct.pack("<Q", len(payload)))
    fh.write(payload)


def _array_bytes(arr: np.ndarray) -> bytes:
    buf = io.BytesIO()
    np.save(buf, np.ascontiguousarray(arr), allow_pickle=False)
    return buf.getvalue()


def write_container(path: str | Path, meta: dict, arrays: dict[str, np.ndarray],
                    texts: dict[str, str] | None = None) -> None:
    texts = texts or {}
    meta_bytes = json.dumps(meta, sort_keys=True, separators=(",", ":"),
                            ensure_ascii=False).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", MAJOR, MINOR))
        fh.write(struct.pack("<Q", len(meta_bytes)))
        fh.write(meta_bytes)
        fh.write(struct.pack("<I", len(arrays) + len(texts)))
        for name in sorted(arrays):
            _write_blob(fh, name, 0, _array_bytes(arrays[name]))
        for name in sorted(texts):
            _write_blob(fh, name, 1, texts[name].encode("utf-8"))


def _read_exact(fh, n: int, what: str) -> bytes:
    data = fh.read(n)
    if len(data) != n:
        raise ModelFormatError(f"truncated model file while reading {what}")
    return data


def read_container(path: str | Path) -> tuple[dict, dict[str, np.ndarray], dict[str, str]]:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != MAGIC:
            raise ModelFormatError(
                f"magic-byte check failed: expected {MAGIC!r}, got {magic!r} "
                "(not a model file written by this package)"
            )
        major, minor = struct.unpack("<II", _read_exact(fh, 8, "version header"))
        if major > MAJOR:
            raise ModelFormatError(
                f"model format major version {major} is newer than supported {MAJOR}; "
                "upgrade the package to load this file"
            )
        (meta_len,) = struct.unpack("<Q", _read_exact(fh, 8, "metadata length"))
        meta = json.loads(_read_exact(fh, meta_len, "metadata").decode("utf-8"))
        (n_blobs,) = struct.unpack("<I", _read_exact(fh, 4, "blob count"))
        arrays: dict[str, np.ndarray] = {}
        texts: dict[str, str] = {}
        for _ in range(n_blobs):
            (name_len,) = struct.unpack("<H", _read_exact(fh, 2, "blob name length"))
            name = _read_exact(fh, name_len, "blob name").decode("utf-8")
            (kind,) = struct.unpack("<B", _read_exact(fh, 1, f"blob kind of {name}"))
            (size,) = struct.unpack("<Q", _read_exact(fh, 8, f"blob size of {name}"))
            payload = _read_exact(fh, size, f"blob {name}")
            if kind == 0:
                arrays[name] = np.load(io.BytesIO(payload), allow_pickle=False)
            elif kind == 1:
                texts[name] = payload.decode("utf-8")
            else:
                raise ModelFormatError(f"unknown blob kind {kind} for {name}")
    return meta, arrays, texts


def csr_to_blobs(name: str, X: sparse.csr_matrix) -> dict[str, np.ndarray]:
    return {
        f"{name}.data": X.data,
        f"{name}.indices": X.indices.astype(np.int64),
        f"{name}.indptr": X.indptr.astype(np.int64),
        f"{name}.shape": np.asarray(X.shape, dtype=np.int64),
    }


def csr_from_blobs(name: str, arrays: dict[str, np.ndarray]) -> sparse.csr_matrix:
    shape = tuple(int(v) for v in arrays[f"{name}.shape"])
    return sparse.csr_matrix(
        (arrays[f"{name}.data"], arrays[f"{name}.indices"], arrays[f"{name}.indptr"]),
        shape=shape,
    )
