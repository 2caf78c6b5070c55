"""Binary model container: magic bytes, versioned header, named blobs.

Layout (little-endian):
  4 bytes  magic "UFND"
  u32      major format version
  u32      minor format version
  u64      metadata JSON length, followed by that many UTF-8 bytes
  u32      blob count; per blob: u16 name length + name, u8 kind
           (0 = npy array, 1 = UTF-8 text), u64 payload length + payload

Loading reads major version 5 only and refuses any other, newer or older,
with one line naming its version. Major 5 stores an SVM's support vectors
as their raw term counts (svm.sv.counts, with svm.sv.indices and
svm.sv.indptr) and one float64 norm each (svm.sv.norms); the loader
rebuilds their values from these, the idf of the kept columns and
apply_tfidf's own float operations, bit for bit (see runner.save_model).
Major 4 stored the values themselves (svm.sv.data), the matrix shape
(svm.sv.shape) and a CNN's channels (cnn.channels); major 5 stores none of
them: the shape is one row per dual coefficient and one column per kept
column, and the channels are the config's.

It reports truncation, bad magic, undecodable metadata or blobs, a blob name
that occurs twice, bytes after the last blob, and a metadata key or blob a
reader asks for but the file lacks, each as a ModelFormatError.
Array blobs are npy format 1.0 as np.save writes a C-order bool, integer or
float array; the reader parses exactly that header, and refuses any other
(a pickled object array, Fortran order, another npy version) or a payload
whose size disagrees with its shape. A blob's dtype travels in its header,
so a float32 or float64 CNN loads as it was saved. An integer array with no
negative entry is written in the smallest unsigned dtype that holds its
maximum; its reader widens it back to the dtype it computes with, except
the support-vector counts, which are only multiplied into float64 values.
Writing is deterministic: identical pipelines serialize to identical bytes.
"""

from __future__ import annotations

import io
import json
import math
import os
import re
import struct
from pathlib import Path

import numpy as np
from scipy import sparse

MAGIC = b"UFND"
MAJOR = 5
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
    """The npy bytes of arr; of an integer arr with no negative entry, in the
    smallest unsigned dtype that holds its maximum."""
    if arr.dtype.kind in "iu" and arr.min(initial=0) >= 0:
        arr = arr.astype(np.min_scalar_type(arr.max(initial=0)))
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


class _Entries(dict):
    """Metadata keys or blobs of a model file; looking up one the file lacks
    raises ModelFormatError naming it."""

    def __init__(self, what: str, entries=()):
        super().__init__(entries)
        self.what = what

    def __missing__(self, name: str):
        raise ModelFormatError(f"model file has no {self.what} {name!r}")


def _decode(what: str, decode, payload: memoryview):
    try:
        return decode(payload)
    except (ValueError, EOFError) as exc:
        raise ModelFormatError(f"corrupt model file: cannot decode {what}") from exc


#: The header np.save writes for a C-order array of a bool, integer or float
#: dtype, after the magic, the version 1.0 and the u16 header length
_NPY_HEADER = re.compile(
    rb"\{'descr': '([<>|][biuf][0-9]+)', 'fortran_order': False, "
    rb"'shape': \(([0-9, ]*)\), \} *\n")


def _npy(payload: memoryview) -> np.ndarray:
    """The array of an npy payload as np.save writes it (format 1.0, C
    order, a bool, integer or float dtype), read without np.load's generic
    header parser into an array of its own. Any other payload, or one whose
    data is not the size its header gives, raises ValueError."""
    if payload[:8] != b"\x93NUMPY\x01\x00":
        raise ValueError("not an npy format 1.0 array")
    start = 10 + int.from_bytes(payload[8:10], "little")
    header = _NPY_HEADER.fullmatch(bytes(payload[:start]), 10)
    if header is None:
        raise ValueError("unsupported npy header")
    shape_text = header[2].decode()
    shape = tuple(int(n) for n in shape_text.split(",") if n.strip())
    try:
        dtype = np.dtype(header[1].decode())
    except TypeError as exc:
        raise ValueError(str(exc)) from exc
    if str(shape) != f"({shape_text})":
        raise ValueError(f"unsupported npy shape ({shape_text})")
    if len(payload) - start != dtype.itemsize * math.prod(shape):
        raise ValueError("npy data is not the size of its shape")
    return np.frombuffer(payload, dtype, offset=start).reshape(shape).copy()


def _utf8(payload: memoryview) -> str:
    return str(payload, "utf-8")


def read_container(path: str | Path) -> tuple[dict, dict[str, np.ndarray], dict[str, str]]:
    """The metadata, array blobs and text blobs of a model file, read with
    one read of the whole file; each array blob is copied out of it once
    (see _npy), so no array keeps the file's bytes alive."""
    with open(path, "rb") as fh:
        # the size the file system states, so a device or pipe is not read without end
        data = memoryview(fh.read(os.fstat(fh.fileno()).st_size))
    pos = 0

    def take(n: int, what: str) -> memoryview:
        nonlocal pos
        if n > len(data) - pos:
            raise ModelFormatError(f"truncated model file while reading {what}")
        pos += n
        return data[pos - n:pos]

    magic = bytes(data[:4])
    if magic != MAGIC:
        raise ModelFormatError(
            f"magic-byte check failed: expected {MAGIC!r}, got {magic!r} "
            "(not a model file written by this package)"
        )
    pos = 4
    major, minor = struct.unpack("<II", take(8, "version header"))
    if major != MAJOR:
        raise ModelFormatError(
            f"model format major version {major} is not the supported {MAJOR}; "
            "train the model again, or load it with the version that wrote it"
        )
    (meta_len,) = struct.unpack("<Q", take(8, "metadata length"))
    meta = _decode("the metadata", lambda b: json.loads(_utf8(b)), take(meta_len, "metadata"))
    if not isinstance(meta, dict):
        raise ModelFormatError("corrupt model file: the metadata is not a JSON object")
    (n_blobs,) = struct.unpack("<I", take(4, "blob count"))
    arrays = _Entries("array blob")
    texts = _Entries("text blob")
    for _ in range(n_blobs):
        (name_len,) = struct.unpack("<H", take(2, "blob name length"))
        name = _decode("a blob name", _utf8, take(name_len, "blob name"))
        (kind,) = struct.unpack("<B", take(1, f"blob kind of {name}"))
        (size,) = struct.unpack("<Q", take(8, f"blob size of {name}"))
        payload = take(size, f"blob {name}")
        if name in arrays or name in texts:
            raise ModelFormatError(f"corrupt model file: blob {name!r} occurs twice")
        if kind == 0:
            arrays[name] = _decode(f"blob {name!r}", _npy, payload)
        elif kind == 1:
            texts[name] = _decode(f"blob {name!r}", _utf8, payload)
        else:
            raise ModelFormatError(f"unknown blob kind {kind} for {name}")
    if pos != len(data):
        raise ModelFormatError("corrupt model file: bytes after the last blob")
    return _Entries("metadata key", meta), arrays, texts


def csr_to_blobs(name: str, X: sparse.csr_matrix, values: str) -> dict[str, np.ndarray]:
    """The blobs of X: its values as name.<values>, its column indices and
    its row pointers. Its shape is not stored: its reader knows it."""
    return {f"{name}.{values}": X.data, f"{name}.indices": X.indices,
            f"{name}.indptr": X.indptr}


def csr_from_blobs(name: str, values: str, arrays: dict[str, np.ndarray],
                   shape: tuple[int, int]) -> sparse.csr_matrix:
    """The matrix of csr_to_blobs, of the given shape, its index arrays in
    the integer dtype scipy picks for them. Blobs that are not a valid CSR
    matrix of that shape (integer index arrays that pass scipy's full format
    check: one row pointer per row and one more, every index in [0,
    columns), a non-decreasing indptr) raise a ValueError naming them,
    before native code reads them."""
    try:
        index_arrays = [arrays[f"{name}.{part}"] for part in ("indices", "indptr")]
        if any(a.dtype.kind not in "biu" for a in index_arrays):
            raise ValueError("indices and indptr must be integers")
        X = sparse.csr_matrix((arrays[f"{name}.{values}"], *index_arrays), shape=shape)
        X.check_format(full_check=True)
        if np.any(np.diff(X.indptr) < 0):  # scipy checks this only when nnz > 0
            raise ValueError("indptr must be a non-decreasing sequence")
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from exc
    return X
