"""Atomic file writes shared by every artifact producer, and the reader of
the binary artifacts.

Artifacts are written to a temporary sibling and renamed into place, so a
crash mid-write never leaves a partial file under the final name.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path

import numpy as np

from .errors import ArtifactFormatError


def atomic_write_text(path: str | Path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def atomic_write_bytes(path: str | Path, blob: bytes) -> None:
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(blob)
    os.replace(tmp, path)


class ByteReader:
    """Cursor over a binary blob that fails loudly on truncation, on text
    that does not decode and on trailing bytes."""

    def __init__(self, blob: bytes, source: str):
        self.blob = blob
        self.source = source
        self.offset = 0

    def take(self, n: int) -> bytes:
        if self.offset + n > len(self.blob):
            raise ArtifactFormatError(f"{self.source}: truncated at byte {self.offset}")
        piece = self.blob[self.offset : self.offset + n]
        self.offset += n
        return piece

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def array(self, dtype: str, count: int) -> np.ndarray:
        """The next ``count`` items of ``dtype`` (read-only, over the blob)."""
        return np.frombuffer(self.take(count * np.dtype(dtype).itemsize), dtype=dtype)

    def text(self, n: int, encoding: str) -> str:
        """The next ``n`` bytes decoded as ``encoding``."""
        start = self.offset
        try:
            return self.take(n).decode(encoding)
        except UnicodeDecodeError:
            raise ArtifactFormatError(
                f"{self.source}: bytes {start}..{self.offset} are not {encoding} text"
            ) from None

    def finish(self) -> None:
        """Refuse bytes past the last one read."""
        if self.offset != len(self.blob):
            raise ArtifactFormatError(
                f"{self.source}: {len(self.blob) - self.offset} trailing bytes"
            )
