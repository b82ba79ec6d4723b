"""Paged binary artifact storage: format, writer, mmap reader.

The format every :class:`~repro.service.store.IndexStore` writes its
``tsd``/``gct`` artifacts in — see :mod:`repro.storage.format` for the
on-disk layout and the README's "On-disk format" section for the
operator view.
"""

from repro.storage.format import (
    FORMAT_VERSION,
    HEADER_SIZE,
    KIND_GCT,
    KIND_TSD,
    Header,
)
from repro.storage.writer import (
    compact_artifact,
    encode_artifact,
    write_artifact,
    write_delta,
)
from repro.storage.reader import ArtifactReader, read_payload
from repro.storage.lazy import (
    LazyForestMap,
    LazySupernodeMap,
    LazySuperedgeMap,
    open_gct_artifact,
    open_tsd_artifact,
)

__all__ = [
    "FORMAT_VERSION",
    "HEADER_SIZE",
    "KIND_GCT",
    "KIND_TSD",
    "Header",
    "ArtifactReader",
    "read_payload",
    "encode_artifact",
    "write_artifact",
    "write_delta",
    "compact_artifact",
    "LazyForestMap",
    "LazySupernodeMap",
    "LazySuperedgeMap",
    "open_tsd_artifact",
    "open_gct_artifact",
]
