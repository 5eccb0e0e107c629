"""Single-file persistent index for a fitted TDmatch pipeline.

:func:`save_pipeline` serialises everything :meth:`TDMatch.match` needs —
the CSR graph snapshot, the Word2Vec embedding matrices, the vocabulary,
the metadata id ↔ label maps, and a config snapshot — into one file, and
:func:`load_pipeline` restores a ready-to-serve pipeline from it at zero
fit cost.

File layout (format version 2)::

    bytes 0-7    magic  b"TDMIDX\\x00\\x00"
    bytes 8-11   format version (uint32, little endian)
    bytes 12-19  header length H (uint64, little endian)
    bytes 20-23  CRC32 of the JSON header (uint32, little endian)
    bytes 24-..  JSON header (utf-8): config snapshot, vocabulary,
                 metadata maps, graph node registry, array directory
                 (each directory entry carries the blob's CRC32)
    then         raw array blobs, each aligned to a 64-byte boundary

Version 1 files (no header CRC, no per-blob CRCs) remain readable; their
verification degrades to the structural checks.

Durability: :func:`write_index` routes through
:func:`repro.utils.io.atomic_write` — temp file in the index's directory,
fsync, ``os.replace`` — so a crash mid-save leaves the previous index
intact instead of a torn file.  :func:`read_index` validates the container
structurally (truncation, header length past EOF, blob extents, overlaps)
and, per the ``verify`` mode, against the stored checksums:

* ``"none"``   — structural checks only;
* ``"header"`` — also check the header CRC (default: cheap, catches
  truncation and header bit-rot without touching blob bytes);
* ``"full"``   — also CRC every array blob, raising
  :class:`IndexCorruptionError` that names the first bad blob.

The arrays are written as contiguous raw bytes with their offsets recorded
in the header, which is what makes the file *memory-mappable*: with
``mmap=True`` every array is opened as a read-only :class:`numpy.memmap`
over the file, so N query processes serving the same index share the
embedding pages through the OS page cache instead of each materialising a
private copy.

The graph is restored lazily (:class:`LazyBuiltGraph`): a pure ``match()``
workload over the dense backend never touches graph topology, so the
:class:`~repro.graph.graph.MatchGraph` is only materialised from the CSR
arrays on first access (blocked retrieval, incremental fit, report).
"""

from __future__ import annotations

import dataclasses
import json
import os
import struct
import zlib
from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.exceptions import PipelineError
from repro.embeddings.vocab import Vocabulary
from repro.embeddings.word2vec import Word2Vec
from repro.graph.builder import BuiltGraph
from repro.graph.csr import CSRAdjacency, csr_adjacency, prime_csr_cache
from repro.graph.filtering import FilterStatistics
from repro.graph.graph import MatchGraph, NodeKind
from repro.utils.io import atomic_write
from repro.utils.rng import derive_rng

INDEX_MAGIC = b"TDMIDX\x00\x00"
INDEX_FORMAT_VERSION = 2
#: Format versions read_index can restore (v1: no checksums).
SUPPORTED_VERSIONS = (1, 2)
#: read_index / load_pipeline verification modes.
VERIFY_MODES = ("none", "header", "full")

_PREAMBLE = struct.Struct("<8sIQ")  # magic, format version, header length
_HEADER_CRC = struct.Struct("<I")  # v2 only: CRC32 of the JSON header
_ALIGNMENT = 64
_CRC_CHUNK = 4 * 1024 * 1024  # full-verify reads blobs in bounded chunks


class IndexFormatError(PipelineError):
    """The file is not a TDmatch index, or its format version is unsupported."""


class IndexCorruptionError(IndexFormatError):
    """The index container is structurally valid-looking but damaged.

    Raised for truncated headers/blobs, directory extents outside the
    file, overlapping blobs, and checksum mismatches — naming the first
    bad blob so operators know whether the graph or an embedding matrix
    rotted.
    """


def _align(offset: int) -> int:
    return (offset + _ALIGNMENT - 1) // _ALIGNMENT * _ALIGNMENT


# ----------------------------------------------------------------------
# Raw container
def write_index(path: str, header: Dict[str, object], arrays: Dict[str, np.ndarray]) -> str:
    """Write a header + named-array container to ``path`` atomically.

    Array blobs land on 64-byte boundaries; their dtype/shape/offset/CRC32
    directory is embedded in the JSON header (offsets relative to the
    64-aligned start of the data section, so the directory does not depend
    on its own encoded size).  The bytes stream into a same-directory temp
    file that is fsynced and ``os.replace``d into ``path``, so a crash at
    any byte boundary leaves a previously existing index untouched.
    """
    directory: Dict[str, Dict[str, object]] = {}
    blobs = []
    rel = 0
    for name, arr in arrays.items():
        arr = np.ascontiguousarray(arr)
        data = arr.tobytes()
        rel = _align(rel)
        directory[name] = {
            "dtype": str(arr.dtype),
            "shape": list(arr.shape),
            "offset": rel,
            "crc32": zlib.crc32(data),
        }
        blobs.append((rel, data))
        rel += len(data)
    full_header = dict(header)
    full_header["arrays"] = directory
    payload = json.dumps(full_header, separators=(",", ":")).encode("utf-8")
    preamble = _PREAMBLE.pack(INDEX_MAGIC, INDEX_FORMAT_VERSION, len(payload))
    preamble += _HEADER_CRC.pack(zlib.crc32(payload))
    data_start = _align(len(preamble) + len(payload))
    with atomic_write(path) as handle:
        handle.write(preamble)
        handle.write(payload)
        handle.write(b"\x00" * (data_start - len(preamble) - len(payload)))
        position = 0
        for rel, data in blobs:
            if rel > position:
                handle.write(b"\x00" * (rel - position))
                position = rel
            handle.write(data)
            position += len(data)
    return path


def _entry_nbytes(dtype: np.dtype, shape: Tuple[int, ...]) -> int:
    count = 1
    for dim in shape:
        count *= dim
    return count * dtype.itemsize


def _parse_header(handle, path: str, file_size: int, verify: str):
    """Validate the preamble + JSON header; returns (version, header, data_start).

    Every malformed-container path raises :class:`IndexFormatError` /
    :class:`IndexCorruptionError` — never a raw ``struct``/``json``/numpy
    error — so hostile or rotten files fail with an actionable message.
    """
    preamble = handle.read(_PREAMBLE.size)
    if len(preamble) < _PREAMBLE.size:
        raise IndexFormatError(
            f"{path!r} is not a TDmatch index (file truncated inside the preamble)"
        )
    if preamble[:8] != INDEX_MAGIC:
        raise IndexFormatError(f"{path!r} is not a TDmatch index (bad magic)")
    _magic, version, header_len = _PREAMBLE.unpack(preamble)
    if version not in SUPPORTED_VERSIONS:
        raise IndexFormatError(
            f"index {path!r} has format version {version}, but this build "
            f"reads versions {list(SUPPORTED_VERSIONS)}; re-create the index "
            "with TDMatch.save() from a matching version"
        )
    header_start = _PREAMBLE.size
    header_crc = None
    if version >= 2:
        crc_bytes = handle.read(_HEADER_CRC.size)
        if len(crc_bytes) < _HEADER_CRC.size:
            raise IndexCorruptionError(
                f"index {path!r} is truncated inside the header checksum"
            )
        (header_crc,) = _HEADER_CRC.unpack(crc_bytes)
        header_start += _HEADER_CRC.size
    if header_start + header_len > file_size:
        raise IndexCorruptionError(
            f"index {path!r} declares a {header_len}-byte header but the file "
            f"holds only {file_size - header_start} bytes after the preamble "
            "(truncated or hostile header length)"
        )
    payload = handle.read(header_len)
    if len(payload) < header_len:
        raise IndexCorruptionError(f"index {path!r} is truncated inside the header")
    if header_crc is not None and verify != "none" and zlib.crc32(payload) != header_crc:
        raise IndexCorruptionError(
            f"index {path!r} header checksum mismatch (bit rot or torn write); "
            "re-create the index with TDMatch.save()"
        )
    try:
        header = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise IndexFormatError(f"index {path!r} header is not valid JSON: {exc}") from exc
    if not isinstance(header, dict) or not isinstance(header.get("arrays"), dict):
        raise IndexFormatError(f"index {path!r} header lacks an array directory")
    return version, header, _align(header_start + header_len)


def _validated_directory(
    header: Dict[str, object], path: str, data_start: int, file_size: int
) -> Dict[str, Tuple[np.dtype, Tuple[int, ...], int, int, Optional[int]]]:
    """Decode and bounds-check the array directory.

    Returns ``name -> (dtype, shape, absolute offset, nbytes, crc32)``;
    rejects unparsable dtypes/shapes, extents past EOF, and overlapping
    blobs before any array is materialised or memory-mapped.
    """
    entries: Dict[str, Tuple[np.dtype, Tuple[int, ...], int, int, Optional[int]]] = {}
    for name, meta in header["arrays"].items():
        if not isinstance(meta, dict):
            raise IndexFormatError(f"index {path!r}: array {name!r} directory entry is not a dict")
        try:
            dtype = np.dtype(meta["dtype"])
            shape = tuple(int(dim) for dim in meta["shape"])
            offset = int(meta["offset"])
        except (KeyError, TypeError, ValueError) as exc:
            raise IndexFormatError(
                f"index {path!r}: array {name!r} has a malformed directory entry: {exc}"
            ) from exc
        if offset < 0 or any(dim < 0 for dim in shape):
            raise IndexFormatError(
                f"index {path!r}: array {name!r} has a negative offset or dimension"
            )
        nbytes = _entry_nbytes(dtype, shape)
        if data_start + offset + nbytes > file_size:
            raise IndexCorruptionError(
                f"index {path!r}: array {name!r} extends past the end of the file "
                f"(needs bytes [{offset}, {offset + nbytes}) of the data section); "
                "the index is truncated or its directory is corrupt"
            )
        crc = meta.get("crc32")
        entries[name] = (dtype, shape, data_start + offset, nbytes, crc)
    ordered = sorted(entries.items(), key=lambda item: item[1][2])
    for (prev_name, prev), (next_name, nxt) in zip(ordered, ordered[1:]):
        if prev[2] + prev[3] > nxt[2]:
            raise IndexCorruptionError(
                f"index {path!r}: arrays {prev_name!r} and {next_name!r} overlap "
                "in the data section; the directory is corrupt"
            )
    return entries


def _verify_blob_checksums(handle, path: str, entries) -> None:
    """CRC every blob (bounded-memory chunked reads), first bad blob named."""
    for name, (_dtype, _shape, offset, nbytes, crc) in entries.items():
        if crc is None:  # v1 directory: nothing to verify against
            continue
        handle.seek(offset)
        actual = 0
        remaining = nbytes
        while remaining > 0:
            chunk = handle.read(min(_CRC_CHUNK, remaining))
            if not chunk:
                raise IndexCorruptionError(
                    f"index {path!r}: array {name!r} is truncated mid-blob"
                )
            actual = zlib.crc32(chunk, actual)
            remaining -= len(chunk)
        if actual != int(crc):
            raise IndexCorruptionError(
                f"index {path!r}: checksum mismatch in blob {name!r} "
                f"(stored {int(crc):#010x}, computed {actual:#010x}); the index "
                "is corrupt — re-create it with TDMatch.save()"
            )


def blob_ranges(path: str) -> Dict[str, Tuple[int, int]]:
    """Absolute ``name -> (offset, nbytes)`` extent of every array blob.

    Structural validation only (no checksum verification): this is the
    seam the fault-injection harness uses to flip bytes inside a chosen
    blob deterministically.
    """
    file_size = os.path.getsize(path)
    with open(path, "rb") as handle:
        _version, header, data_start = _parse_header(handle, path, file_size, "none")
        entries = _validated_directory(header, path, data_start, file_size)
    return {name: (offset, nbytes) for name, (_d, _s, offset, nbytes, _c) in entries.items()}


def read_index(
    path: str, mmap: bool = False, verify: str = "header"
) -> Tuple[Dict[str, object], Dict[str, np.ndarray]]:
    """Read a container written by :func:`write_index`.

    With ``mmap=True`` every array is a read-only :class:`numpy.memmap`
    into the file (shared pages across processes); otherwise the arrays
    are materialised as ordinary writable ndarrays.  ``verify`` selects
    how hard to look for corruption — see the module docstring.
    """
    if verify not in VERIFY_MODES:
        raise ValueError(f"unknown verify mode {verify!r}; valid: {list(VERIFY_MODES)}")
    file_size = os.path.getsize(path)
    with open(path, "rb") as handle:
        _version, header, data_start = _parse_header(handle, path, file_size, verify)
        entries = _validated_directory(header, path, data_start, file_size)
        if verify == "full":
            _verify_blob_checksums(handle, path, entries)
        arrays: Dict[str, np.ndarray] = {}
        for name, (dtype, shape, offset, nbytes, _crc) in entries.items():
            if nbytes == 0:
                arrays[name] = np.empty(shape, dtype=dtype)
            elif mmap:
                arrays[name] = np.memmap(
                    path, dtype=dtype, mode="r", offset=offset, shape=shape
                )
            else:
                handle.seek(offset)
                count = int(np.prod(shape)) if shape else 1
                arrays[name] = np.fromfile(handle, dtype=dtype, count=count).reshape(shape)
    return header, arrays


# ----------------------------------------------------------------------
# Lazy graph restoration
class LazyBuiltGraph(BuiltGraph):
    """A :class:`BuiltGraph` whose MatchGraph materialises on first access.

    ``match()`` over the dense backend only needs embedding rows, so a
    loaded index defers rebuilding the dict-of-sets adjacency until
    something (blocked retrieval, incremental fit, ``report()``) actually
    asks for ``.graph``.
    """

    def __init__(self, materialize, **kwargs):
        self._materialize_fn = materialize
        self._graph_obj = None
        super().__init__(graph=None, **kwargs)

    @property  # type: ignore[override]
    def graph(self):
        if self._graph_obj is None:
            self._graph_obj = self._materialize_fn()
        return self._graph_obj

    @graph.setter
    def graph(self, value):
        self._graph_obj = value

    @property
    def materialized(self) -> bool:
        return self._graph_obj is not None


def _materialize_graph(labels, kinds, corpora, roles, indptr, indices) -> MatchGraph:
    """Rebuild a MatchGraph (and prime its CSR cache) from saved arrays."""
    graph = MatchGraph()
    graph.add_nodes_bulk(
        labels, kind=[NodeKind(k) for k in kinds], corpus=corpora, role=roles
    )
    indptr = np.asarray(indptr, dtype=np.int64)
    indices = np.asarray(indices, dtype=np.int32)
    src = np.repeat(
        np.arange(len(labels), dtype=np.int64), np.diff(indptr)
    )
    dst = indices.astype(np.int64)
    keep = src < dst  # each undirected edge appears in both directions
    label_arr = np.array(labels, dtype=object)
    graph.add_edges_bulk(label_arr[src[keep]], label_arr[dst[keep]], assume_unique=True)
    prime_csr_cache(
        graph,
        CSRAdjacency(
            indptr=indptr,
            indices=indices,
            labels=list(labels),
            ids={label: i for i, label in enumerate(labels)},
            graph_version=graph.version,
        ),
    )
    return graph


# ----------------------------------------------------------------------
# Config snapshot ↔ restore
def _jsonable(value):
    """Best-effort JSON projection of a config value.

    Nested dataclasses recurse; attached runtime objects (pre-trained
    embedding resources, knowledge bases) are not serialisable and are
    stored as null — a loaded pipeline serves matches, it does not re-run
    merging or expansion.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: _jsonable(getattr(value, f.name)) for f in dataclasses.fields(value)
        }
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    return None


def _restore_config_fields(instance, data: Dict[str, object]) -> None:
    """Apply a saved field dict onto a config dataclass instance, recursively."""
    for f in dataclasses.fields(instance):
        if f.name not in data:
            continue  # field added after the index was written: keep the default
        value = data[f.name]
        current = getattr(instance, f.name)
        if dataclasses.is_dataclass(current) and isinstance(value, dict):
            _restore_config_fields(current, value)
        else:
            setattr(instance, f.name, value)
    post_init = getattr(instance, "__post_init__", None)
    if post_init is not None:
        post_init()


def config_to_dict(config) -> Dict[str, object]:
    """JSON-able snapshot of a :class:`TDMatchConfig`."""
    return _jsonable(config)


def config_from_dict(data: Dict[str, object]):
    """Rebuild a :class:`TDMatchConfig` from :func:`config_to_dict` output."""
    from repro.core.config import TDMatchConfig

    config = TDMatchConfig()
    _restore_config_fields(config, data)
    return config


# ----------------------------------------------------------------------
# Pipeline save / load
def save_pipeline(pipeline, path: str) -> str:
    """Serialise a fitted pipeline into a single index file at ``path``."""
    state = pipeline.state  # raises NotFittedError when unfitted
    built = state.built
    model = state.model
    if model.vocab is None or model._input_vectors is None:
        raise PipelineError("cannot save a pipeline whose model is untrained")
    graph = built.graph
    csr = csr_adjacency(graph)
    kinds = []
    corpora = []
    roles = []
    for label in csr.labels:
        info = graph.node_info(label)
        kinds.append(info.kind.value)
        corpora.append(info.corpus)
        roles.append(info.role)
    filter_stats = built.filter_stats
    seed = pipeline.seed if isinstance(pipeline.seed, (int, str)) else None
    header: Dict[str, object] = {
        "seed": seed,
        "config": config_to_dict(pipeline.config),
        "corpus_kinds": list(getattr(pipeline, "_corpus_kinds", None) or ()),
        "intersect_anchor": built.intersect_anchor,
        "filter_stats": (
            {
                "first_total": filter_stats.first_total,
                "first_kept": filter_stats.first_kept,
                "second_total": filter_stats.second_total,
                "second_kept": filter_stats.second_kept,
            }
            if filter_stats is not None
            else None
        ),
        "first_metadata": dict(built.first_metadata),
        "second_metadata": dict(built.second_metadata),
        "vocab": {
            "tokens": model.vocab.tokens,
            "counts": [int(c) for c in model.vocab.counts_array()],
            "min_count": model.vocab.min_count,
        },
        "graph": {
            "labels": csr.labels,
            "kinds": kinds,
            "corpora": corpora,
            "roles": roles,
            "num_edges": graph.num_edges(),
        },
    }
    arrays: Dict[str, np.ndarray] = {
        "csr_indptr": csr.indptr,
        "csr_indices": csr.indices,
        "w2v_input": model._input_vectors,
    }
    if pipeline.config.serving.include_output_vectors and model._output_vectors is not None:
        arrays["w2v_output"] = model._output_vectors
    return write_index(path, header, arrays)


def _restore_vocab(path: str, vocab_data: Dict[str, object], arrays) -> Vocabulary:
    """The saved vocabulary; :class:`IndexFormatError` unless token ``i``
    names row ``i`` of each embedding matrix (unique tokens, one per row)."""
    tokens = vocab_data["tokens"]
    for name in ("w2v_input", "w2v_output"):
        if name in arrays and arrays[name].shape[0] != len(tokens):
            raise IndexFormatError(
                f"index {path!r}: vocabulary has {len(tokens)} tokens but "
                f"{name!r} has {arrays[name].shape[0]} rows"
            )
    try:
        return Vocabulary.from_tokens_and_counts(
            tokens, vocab_data["counts"], min_count=vocab_data["min_count"]
        )
    except ValueError as exc:
        raise IndexFormatError(f"index {path!r}: malformed vocabulary: {exc}") from exc


def load_pipeline(path: str, mmap: Optional[bool] = None, verify: str = "header"):
    """Restore a ready-to-serve :class:`TDMatch` from an index file.

    ``mmap=None`` defers to the ``serving.mmap`` flag saved in the index
    config; ``True`` opens the arrays as shared read-only memory maps,
    ``False`` materialises private writable copies.  ``verify`` is the
    corruption check applied before serving anything (see
    :func:`read_index`): ``"header"`` by default, ``"full"`` CRCs every
    blob and raises :class:`IndexCorruptionError` naming the first bad
    one, ``"none"`` keeps only the structural checks.
    """
    # Imported here, not at module top: repro.core.pipeline lazily imports
    # this module for TDMatch.save/load.
    from repro.core.pipeline import PipelineState, TDMatch

    # A memmap open reads no array data, so probe with it and only fall back
    # to materialised copies when the final decision is mmap=False.  The
    # requested verification already ran on the first read, so the re-read
    # skips it.
    header, arrays = read_index(path, mmap=True, verify=verify)
    if mmap is None:
        serving = (header.get("config") or {}).get("serving") or {}
        mmap = bool(serving.get("mmap", False))
    if not mmap:
        header, arrays = read_index(path, mmap=False, verify="none")

    config = config_from_dict(header["config"])
    seed = header.get("seed")
    pipeline = TDMatch(config, seed=seed)

    model = Word2Vec(config.word2vec, seed=derive_rng(seed, "word2vec", "serving"))
    model.vocab = _restore_vocab(path, header["vocab"], arrays)
    model._input_vectors = arrays["w2v_input"]
    model._output_vectors = arrays.get("w2v_output")

    graph_data = header["graph"]
    stats_data = header.get("filter_stats")
    built = LazyBuiltGraph(
        materialize=lambda: _materialize_graph(
            graph_data["labels"],
            graph_data["kinds"],
            graph_data["corpora"],
            graph_data["roles"],
            arrays["csr_indptr"],
            arrays["csr_indices"],
        ),
        first_metadata=dict(header["first_metadata"]),
        second_metadata=dict(header["second_metadata"]),
        filter_stats=FilterStatistics(**stats_data) if stats_data else None,
        intersect_anchor=header.get("intersect_anchor"),
    )
    pipeline._state = PipelineState(built=built, model=model)
    kinds = header.get("corpus_kinds") or None
    pipeline._corpus_kinds = tuple(kinds) if kinds else None
    return pipeline
