"""Artifact codecs: how the :class:`IndexStore` writes and reads bytes.

The store used to hard-code ``<name>.json`` + ``json.loads``; codecs
make the byte format pluggable per artifact while the manifest, the
versioning, and the durability idiom (tmp + :func:`os.replace`) stay
exactly as they were.  Two codecs exist:

* ``json`` — the original whole-payload JSON files.  Every artifact
  kind supports it; it stays the default for backwards compatibility
  (an existing store keeps working byte-for-byte).
* ``bin``  — the paged binary format of :mod:`repro.storage.format`,
  for ``tsd`` and ``gct`` artifacts only (``hybrid`` and ``scores``
  payloads are small, graph-attached dicts with no per-vertex record
  structure to page).  Reads open lazily through the mmap reader.

The manifest records the codec *per artifact* (a ``codecs`` sub-dict in
each version record, omitted for pure-JSON versions), so one store can
hold mixed-codec lineages and ``repro convert-index`` can migrate in
either direction in place.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, Optional

from repro.errors import StoreError
from repro.storage.lazy import open_gct_artifact, open_tsd_artifact
from repro.storage.reader import read_payload
from repro.storage.writer import write_artifact, write_delta
from repro.util.jsonio import dumps_payload

#: Artifact names the binary codec can encode.
BINARY_NAMES = ("tsd", "gct")


class JsonCodec:
    """Whole-payload JSON files — the store's original format."""

    name = "json"
    extension = "json"

    def write(self, path: Path, payload: Dict,
              fingerprint: Optional[str] = None) -> None:
        """Atomic JSON write (tmp + :func:`os.replace`)."""
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_text(dumps_payload(payload), encoding="utf-8")
        os.replace(tmp, path)

    def write_incremental(self, base_path: Path, path: Path,
                          index, changed,
                          fingerprint: Optional[str] = None) -> bool:
        """JSON has no record structure to patch — always full write."""
        return False

    def load_payload(self, path: Path) -> Dict:
        try:
            return json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise StoreError(f"{path}: unreadable artifact ({exc})") from exc

    def open_index(self, name: str, path: Path):
        """JSON materialises through ``from_payload`` — no lazy path."""
        return None


class BinaryCodec:
    """The paged binary format (``tsd``/``gct`` artifacts only)."""

    name = "bin"
    extension = "bin"

    def write(self, path: Path, payload: Dict,
              fingerprint: Optional[str] = None) -> None:
        write_artifact(path, payload, fingerprint=fingerprint)

    def write_incremental(self, base_path: Path, path: Path,
                          index, changed,
                          fingerprint: Optional[str] = None) -> bool:
        """Delta re-version: append changed records, patch offsets.

        A delta reads only the ``changed`` vertices' records, so only
        they are taken from ``index`` (``to_payload(only=changed)``).
        ``False`` means nothing was written and the caller owes a full
        :meth:`write`.
        """
        return write_delta(base_path, path,
                           index.to_payload(only=changed), changed,
                           fingerprint=fingerprint)

    def load_payload(self, path: Path) -> Dict:
        return read_payload(path)

    def open_index(self, name: str, path: Path):
        """An mmap-backed lazy index (the warm-start fast path)."""
        if name == "tsd":
            return open_tsd_artifact(path)
        if name == "gct":
            return open_gct_artifact(path)
        return None


_CODECS = {codec.name: codec for codec in (JsonCodec(), BinaryCodec())}


def codec_names() -> tuple:
    """Registered codec names (CLI ``choices=``)."""
    return tuple(sorted(_CODECS))


def get_codec(name: str):
    """The codec registered under ``name``; typed error on unknown."""
    codec = _CODECS.get(name)
    if codec is None:
        raise StoreError(
            f"unknown artifact codec {name!r} (have: "
            f"{', '.join(codec_names())})")
    return codec


def codec_for_artifact(artifact_name: str, store_codec: str) -> str:
    """The effective codec for one artifact under a store-level choice.

    The binary codec applies only to the per-vertex-record artifacts;
    everything else stays JSON whatever the store was opened with.
    """
    if store_codec == "bin" and artifact_name in BINARY_NAMES:
        return "bin"
    return "json"
