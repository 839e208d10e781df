"""Append-only, crash-tolerant record journals — the store's disk primitive.

Every record is one JSON object framed as a single line::

    <crc32 of payload, 8 lowercase hex digits> <compact JSON payload>\\n

Appends are buffered and flushed in batches of ``flush_every`` records;
each flush is a single ``write()`` on an ``O_APPEND`` descriptor, so
concurrent readers never observe an interleaved batch and a crash can tear
at most the *final* line (payloads contain no newlines, so a partial write
is always a strict prefix of the batch).  :meth:`Journal.load` exploits
that: a damaged final record is dropped with a warning and the file is
truncated back to its last intact frame, while damage anywhere *before*
the tail — which no append-only crash can produce — raises
:class:`StoreCorruption` instead of being silently repaired away.
"""

from __future__ import annotations

import json
import os
import threading
import warnings
import zlib
from pathlib import Path

from ..errors import ReproError


class StoreError(ReproError):
    """Misuse of the campaign store (wrong directory, identity mismatch...)."""


class StoreCorruption(StoreError):
    """A journal is damaged somewhere other than its final record."""


class TornTailWarning(UserWarning):
    """A journal's final record was torn by a crash and has been dropped."""


def frame(record: dict) -> bytes:
    """One record as a crc-framed journal line."""
    # allow_nan=False: floats that need bit-exactness travel as hex bit
    # patterns (see records.py); a bare NaN/Infinity here is a bug upstream.
    payload = json.dumps(
        record, sort_keys=True, separators=(",", ":"), allow_nan=False
    ).encode()
    return b"%08x %s\n" % (zlib.crc32(payload), payload)


def parse_frame(line: bytes) -> dict:
    """Decode one journal line; raises ``ValueError`` on any damage."""
    if len(line) < 10 or line[8:9] != b" ":
        raise ValueError("unframed or truncated journal line")
    crc = int(line[:8], 16)
    payload = line[9:]
    if zlib.crc32(payload) != crc:
        raise ValueError("crc mismatch")
    record = json.loads(payload)
    if not isinstance(record, dict):
        raise ValueError("journal payload is not an object")
    return record


def scan_frames(path: str | Path) -> list[dict]:
    """All records of a journal, refusing *any* damage — tail included.

    The strict, read-only counterpart of :meth:`Journal.load`: ``merge``
    and ``verify`` must never mutate the stores they inspect, and a torn
    tail there means a shard crashed mid-run — the right response is
    "resume that shard", not a silent repair that would merge a journal
    missing its last record.
    """
    return [record for record, _line in scan_framed_lines(path)]


def scan_framed_lines(path: str | Path) -> list[tuple[dict, bytes]]:
    """:func:`scan_frames` with each record's verbatim frame line (newline
    included), for callers that copy records without re-encoding them."""
    path = Path(path)
    if not path.exists():
        return []
    data = path.read_bytes()
    out: list[tuple[dict, bytes]] = []
    offset = 0
    while offset < len(data):
        newline = data.find(b"\n", offset)
        if newline == -1:
            raise StoreError(
                f"{path}: unterminated final record at byte {offset} "
                f"(crash mid-append) — resume the owning run to repair it"
            )
        try:
            record = parse_frame(data[offset:newline])
        except ValueError as exc:
            raise StoreError(
                f"{path}: damaged record at byte {offset} ({exc})"
            ) from exc
        out.append((record, data[offset : newline + 1]))
        offset = newline + 1
    return out


class Journal:
    """One crc-framed JSONL file with batched, append-only writes.

    Appends are safe from concurrent threads: the buffer swap and the
    ``write()`` happen under one lock, so two recorders sharing a store
    (the campaign service runs many tenants' campaigns over one journal)
    can never interleave *within* a frame batch or emit a torn frame.
    Concurrent *processes* are likewise safe at frame granularity — every
    flush is a single ``write()`` on an ``O_APPEND`` descriptor.

    ``durable=True`` adds an ``fsync`` after every flush: the record is on
    stable storage before :meth:`flush` returns.  The campaign service
    journals manifests this way, so an accepted-submission acknowledgement
    implies the manifest survives a machine crash, not just a process one.
    """

    def __init__(
        self, path: str | Path, flush_every: int = 16, durable: bool = False
    ):
        self.path = Path(path)
        self.flush_every = max(1, flush_every)
        self.durable = durable
        self._buffer: list[bytes] = []
        self._fh = None
        self._lock = threading.Lock()

    # -- reading ---------------------------------------------------------------

    def load(self) -> list[dict]:
        """All intact records; repairs (warns + truncates) a torn tail.

        Call before the first :meth:`append` — repair truncates the file in
        place so later appends continue from the last intact frame.
        """
        if not self.path.exists():
            return []
        data = self.path.read_bytes()
        records: list[dict] = []
        offset = 0
        damage = None
        while offset < len(data):
            newline = data.find(b"\n", offset)
            if newline == -1:
                damage = "unterminated final record (crash mid-append)"
                break
            try:
                records.append(parse_frame(data[offset:newline]))
            except ValueError as exc:
                if newline + 1 >= len(data):
                    damage = f"damaged final record ({exc})"
                    break
                raise StoreCorruption(
                    f"{self.path}: damaged record at byte {offset}, not at "
                    f"the journal tail — this is real corruption, not a "
                    f"torn append; refusing to repair"
                ) from exc
            offset = newline + 1
        if damage is not None:
            warnings.warn(
                f"{self.path}: dropping {damage} at byte {offset}; "
                f"{len(records)} records intact, journal truncated",
                TornTailWarning,
                stacklevel=2,
            )
            with open(self.path, "r+b") as fh:
                fh.truncate(offset)
        return records

    # -- writing ---------------------------------------------------------------

    def append(self, record: dict) -> None:
        # frame() outside the lock: serialization is the expensive half.
        line = frame(record)
        with self._lock:
            self._buffer.append(line)
            full = len(self._buffer) >= self.flush_every
        if full:
            self.flush()

    def flush(self) -> None:
        """Write the buffered batch as one append; no-op when empty."""
        with self._lock:
            if not self._buffer:
                return
            data = b"".join(self._buffer)
            self._buffer.clear()
            if self._fh is None:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                # Unbuffered: every flush is exactly one OS-level append.
                self._fh = open(self.path, "ab", buffering=0)
            self._fh.write(data)
            if self.durable:
                os.fsync(self._fh.fileno())

    @property
    def pending(self) -> int:
        """Records buffered but not yet flushed to disk."""
        return len(self._buffer)

    def close(self) -> None:
        self.flush()
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None
