"""Persistent serving index and incremental fit for TDmatch pipelines.

- :func:`save_pipeline` / :func:`load_pipeline` — single-file,
  memory-mappable index so query processes serve matches at zero fit cost.
- :func:`add_documents` / :func:`add_records` / :func:`remove` — corpus
  deltas routed through warm pipeline paths instead of a full refit.

Most callers use these through the :class:`~repro.core.pipeline.TDMatch`
methods of the same names (``save``, ``load``, ``add_documents``, ...).
"""

from repro.serving.incremental import add_documents, add_records, remove
from repro.serving.index import (
    INDEX_FORMAT_VERSION,
    INDEX_MAGIC,
    SUPPORTED_VERSIONS,
    VERIFY_MODES,
    IndexCorruptionError,
    IndexFormatError,
    blob_ranges,
    load_pipeline,
    read_index,
    save_pipeline,
    write_index,
)

__all__ = [
    "INDEX_FORMAT_VERSION",
    "INDEX_MAGIC",
    "SUPPORTED_VERSIONS",
    "VERIFY_MODES",
    "IndexCorruptionError",
    "IndexFormatError",
    "add_documents",
    "add_records",
    "blob_ranges",
    "load_pipeline",
    "read_index",
    "remove",
    "save_pipeline",
    "write_index",
]
