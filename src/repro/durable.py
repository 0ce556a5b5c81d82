"""The durable-record layer: one frame codec and one publish discipline.

The only module that knows the frame layout of the append logs (columnar
traces, magic ``RCOL``; the job journal, magic ``RJNL``) or renames a
staged file into place.  The frame, the salvage rule and the publish
discipline are described once, in docs/OBSERVABILITY.md, "Durable
formats"::

    frame := magic:4 | body_len:u32 | body | crc32(body):u32 | frame_len:u32

>>> log = frame(b"DEMO", b"hello") + frame(b"DEMO", b"world")
>>> scan = scan_frames(log[:-3], b"DEMO")
>>> [(body, start, end) for body, start, end in scan]
[(b'hello', 0, 21)]
>>> scan.stop, scan.problem
(21, 'torn frame body (truncated file?)')
"""

from __future__ import annotations

import os
import struct
import zlib
from pathlib import Path
from typing import IO, Iterator, Optional, Tuple, Union

from repro.execution import faults

__all__ = [
    "BAD_MAGIC",
    "CORRUPT_FRAME",
    "TORN_BODY",
    "TORN_HEADER",
    "FrameScan",
    "atomic_write_bytes",
    "frame",
    "open_stream",
    "publish",
    "scan_frames",
    "sync",
    "tear",
    "tmp_path",
]

_U32 = struct.Struct("<I")
_FOOT = struct.Struct("<II")                     # crc32(body) + frame_len

# Why a scan stopped short of the end of its buffer (FrameScan.problem).
TORN_HEADER = "torn frame header (truncated file?)"
BAD_MAGIC = "bad magic (not a frame boundary)"
TORN_BODY = "torn frame body (truncated file?)"
CORRUPT_FRAME = "CRC or length mismatch (corrupt frame)"


def frame(magic: bytes, body: bytes) -> bytes:
    """Frame one record: magic, body length, body, CRC-32, frame length."""
    size = len(magic) + _U32.size + len(body) + _FOOT.size
    return b"".join(
        (magic, _U32.pack(len(body)), body, _FOOT.pack(zlib.crc32(body), size))
    )


class FrameScan:
    """One walk over the valid frame prefix of a buffer (bytes or mmap).

    Iterating yields ``(body, start, end)`` for each valid frame in file
    order.  When the walk is over, :attr:`stop` is the offset it reached —
    the end of the longest valid prefix — and :attr:`problem` says why it
    stopped there (one of :data:`TORN_HEADER`, :data:`BAD_MAGIC`,
    :data:`TORN_BODY`, :data:`CORRUPT_FRAME`), or is ``None`` when every
    byte was consumed.
    """

    def __init__(self, data, magic: bytes) -> None:
        self._data = data
        self._magic = magic
        self.stop = 0
        self.problem: Optional[str] = None

    def __iter__(self) -> Iterator[Tuple[bytes, int, int]]:
        data, magic = self._data, self._magic
        size = len(data)
        head = len(magic) + _U32.size
        pos = 0
        while pos < size:
            self.stop = pos
            if size - pos < head:
                self.problem = TORN_HEADER
                return
            if data[pos:pos + len(magic)] != magic:
                self.problem = BAD_MAGIC
                return
            (body_len,) = _U32.unpack_from(data, pos + len(magic))
            end = pos + head + body_len + _FOOT.size
            if end > size:
                self.problem = TORN_BODY
                return
            body = bytes(data[pos + head:end - _FOOT.size])
            crc, frame_len = _FOOT.unpack_from(data, end - _FOOT.size)
            if frame_len != end - pos or zlib.crc32(body) != crc:
                self.problem = CORRUPT_FRAME
                return
            yield body, pos, end
            pos = end
        self.stop = pos


def scan_frames(data, magic: bytes) -> FrameScan:
    """Walk the frames of ``data`` up to the first torn or corrupt one."""
    return FrameScan(data, magic)


def tmp_path(path: Union[str, Path]) -> Path:
    """The staging file ``<name>.tmp`` next to ``path``."""
    path = Path(path)
    return path.with_name(path.name + ".tmp")


def sync(handle: IO, *, best_effort: bool = False) -> None:
    """Flush ``handle`` and fsync its file descriptor.

    ``best_effort`` ignores targets without a real descriptor (``StringIO``,
    pipes) — the caller-owned streams a trace writer may be given.
    """
    handle.flush()
    try:
        os.fsync(handle.fileno())
    except (OSError, ValueError):
        if not best_effort:
            raise


def publish(path: Union[str, Path]) -> None:
    """Rename the finished ``<name>.tmp`` over ``path`` (atomic on POSIX)."""
    os.replace(tmp_path(path), path)


def atomic_write_bytes(
    path: Union[str, Path], data: bytes, *, crashpoint: Optional[str] = None
) -> Path:
    """Publish ``data`` at ``path``: write ``<name>.tmp``, fsync, rename.

    ``crashpoint`` names a fault site visited between the fsync and the
    rename — the window in which a kill must leave the old file readable.
    """
    path = Path(path)
    with tmp_path(path).open("wb") as handle:
        handle.write(data)
        sync(handle)
    if crashpoint is not None:
        faults.crashpoint(crashpoint)
    publish(path)
    return path


def open_stream(path: Union[str, Path]) -> IO[bytes]:
    """Open ``<name>.tmp`` for an unbuffered append stream.

    Every ``write`` is one ``write(2)``, so a killed process leaves every
    completed record on disk; :func:`publish` renames the stream into place
    once the writer closes it.
    """
    return tmp_path(path).open("wb", buffering=0)


def tear(handle: IO, data, site: str) -> None:
    """The torn-write crashpoint of an append stream.

    When ``REPRO_FAULT`` selects this visit to ``site``: write the first
    half of ``data`` (at least one byte), make it durable, and die.
    Otherwise do nothing, and the caller writes ``data`` whole.
    """
    if faults.should_trip(site):
        handle.write(data[: max(1, len(data) // 2)])
        sync(handle, best_effort=True)
        faults.trip(site)
