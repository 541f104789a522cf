"""Crash-safe append-only JSON-lines files.

Both persistent stores in :mod:`repro.io` — the witness database and the
run ledger — are JSON-lines files that only ever grow by whole-line
appends.  This module owns the crash-safety properties they share and
the incremental read that the append-only shape allows:

* **Durable appends.**  :meth:`JsonlStore.append` writes the record as a
  single line, then ``flush()`` + ``os.fsync()`` before returning, so a
  record that a caller saw committed survives a subsequent ``kill -9``
  (modulo the filesystem's own ordering guarantees).
* **Torn-tail recovery.**  A crash *during* an append can leave a
  partial final line.  :meth:`JsonlStore.scan` classifies that case
  separately from interior corruption: the torn tail is remembered (byte
  offset of the last good line end) and silently healed — truncated away
  — immediately before the next append.  Interior lines that fail to
  parse are reported to the caller, never dropped from disk.
* **Catch-up reads.**  The store keeps a BLAKE2b digest of the bytes
  before the last good line end, the number of lines there and the
  file's inode.  :meth:`JsonlStore.scan_appended` re-hashes that prefix
  and, while it still matches, classifies only the bytes after it —
  same torn-tail and corruption rules, continued line numbers — so a
  reader pays for what was appended, not for the whole file.  Any other
  change (a new inode, a shorter or rewritten prefix, bytes glued onto
  a final line that had no newline) makes it return ``None``, and the
  caller re-reads the file with :meth:`JsonlStore.scan`.

The store never rewrites committed bytes: healing only truncates a
*partial trailing* line that no reader ever accepted as a record.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, List, Optional, Tuple, Union

from .. import obs

__all__ = ["JsonlStore", "ScannedLine", "canonical_json"]

PathLike = Union[str, Path]


def canonical_json(payload: object) -> str:
    """The canonical single-line JSON text for ``payload``.

    Sorted keys and fixed separators so equal payloads always produce
    equal bytes — the property record digests and run ids rely on.
    """
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class ScannedLine:
    """One physical line of the file, classified by :meth:`JsonlStore.scan`."""

    #: 1-based line number in the file
    lineno: int
    #: the decoded JSON payload, or ``None`` when the line failed to parse
    payload: Optional[object]
    #: parse failure message, or ``None`` when the line parsed
    error: Optional[str]


class JsonlStore:
    """Byte-offset-aware reader/appender for one JSON-lines file.

    The store is stateless about record *meaning* — callers interpret
    payloads.  It tracks exactly enough byte geometry to (a) distinguish
    a torn final line from interior corruption, (b) heal the tail
    before the next append and (c) tell an append from any other change.
    """

    def __init__(self, path: PathLike):
        self.path = Path(path)
        #: byte offset just past the last complete line (a torn tail
        #: starts here; interior corrupt lines are complete and kept)
        self._good_end = 0
        #: (lineno, message) of a partial final line, or ``None``
        self.torn_tail: Optional[Tuple[int, str]] = None
        #: the final line parsed but the file lacks a trailing newline
        self._needs_newline = False
        #: newlines in bytes ``[0, _good_end)``
        self._newlines = 0
        #: the last line before ``_good_end`` failed to parse
        self._last_corrupt = False
        #: running BLAKE2b of bytes ``[0, _good_end)``; ``None`` until a
        #: scan, or after an append the store cannot vouch for
        self._prefix: Optional[hashlib.blake2b] = None
        #: inode of the file the geometry above describes
        self._inode: Optional[int] = None

    # -- reading -------------------------------------------------------
    def _read(self) -> Optional[Tuple[int, bytes]]:
        """``(inode, contents)`` through one open, or ``None`` if absent."""
        try:
            with self.path.open("rb") as fh:
                return os.fstat(fh.fileno()).st_ino, fh.read()
        except FileNotFoundError:
            return None

    def _classify(self, raw: bytes, base: int) -> List[ScannedLine]:
        """Classify the lines of ``raw[base:]``, advancing the geometry.

        ``base`` is a line start with :attr:`_newlines` newlines before
        it.  A parse failure on the last line holding content is the
        torn tail; a failure anywhere earlier is interior corruption.
        """
        self.torn_tail = None
        before = self._newlines
        lines = raw[base:].split(b"\n")
        # index of the last line holding any content: a parse failure
        # there is a torn tail, anywhere earlier it is corruption
        last_content = max(
            (i for i, bline in enumerate(lines) if bline.strip()), default=-1
        )
        offset = base
        out: List[ScannedLine] = []
        for idx, bline in enumerate(lines):
            start = offset
            has_newline = idx < len(lines) - 1
            offset = start + len(bline) + (1 if has_newline else 0)
            if not bline.strip():
                continue
            lineno = before + idx + 1
            try:
                payload = json.loads(bline.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                if idx == last_content:
                    self.torn_tail = (lineno, f"torn final line: {exc}")
                    # the tail is healed at the next append; never
                    # advance _good_end past the last whole record
                    break
                out.append(ScannedLine(lineno, None, f"not valid JSON: {exc}"))
                self._last_corrupt = True
            else:
                out.append(ScannedLine(lineno, payload, None))
                self._last_corrupt = False
            self._good_end = offset
            self._newlines = before + idx + (1 if has_newline else 0)
            self._needs_newline = not has_newline
        return out

    def scan(self) -> Iterator[ScannedLine]:
        """Yield every non-blank line, classifying parse failures.

        A parse failure on the *final* non-blank line (with nothing but
        whitespace after it) is a torn tail: it is recorded in
        :attr:`torn_tail` for healing and **not** yielded as an error —
        a crash mid-append is an expected artifact, not corruption.
        Interior failures are yielded with :attr:`ScannedLine.error` set
        and their bytes are preserved.
        """
        self.torn_tail = None
        self._good_end = self._newlines = 0
        self._needs_newline = self._last_corrupt = False
        self._prefix = self._inode = None
        read = self._read()
        if read is None:
            return
        self._inode, raw = read
        lines = self._classify(raw, 0)
        self._prefix = hashlib.blake2b(memoryview(raw)[: self._good_end])
        yield from lines

    def read_all(self) -> List[ScannedLine]:
        """Eager :meth:`scan` (convenience for small files)."""
        return list(self.scan())

    def scan_appended(self) -> Optional[List[ScannedLine]]:
        """The lines appended since the last scan, classified as :meth:`scan` would.

        Reads the file once.  Returns ``None`` — the caller must re-read
        the whole file with :meth:`scan` — when nothing was scanned yet
        or the file changed other than by appending: it is gone or has a
        new inode, it is shorter than the last good line end, the bytes
        before that offset differ, or bytes were glued onto a final line
        that had no newline.  It also returns ``None`` when the torn
        tail that made the last scanned line *interior* corruption has
        gone without a replacement, since a full scan would now call
        that line the torn tail.
        """
        if self._prefix is None:
            return None
        read = self._read()
        if read is None:
            return None
        inode, raw = read
        start = scanned_end = self._good_end
        if inode != self._inode or len(raw) < start:
            return None
        view = memoryview(raw)
        prefix = hashlib.blake2b(view[:start])
        if prefix.digest() != self._prefix.digest():
            return None
        if self._needs_newline and len(raw) > start:
            if raw[start : start + 1] != b"\n":
                return None
            # the final line is complete now; its newline joins the prefix
            start += 1
        if self._last_corrupt and not raw[start:].strip():
            return None
        if start > self._good_end:
            self._good_end, self._newlines = start, self._newlines + 1
            self._needs_newline = False
        lines = self._classify(raw, start)
        prefix.update(view[scanned_end : self._good_end])
        self._prefix = prefix
        return lines

    # -- writing -------------------------------------------------------
    def append(
        self,
        payload: object,
        *,
        dumps: Callable[[object], str] = canonical_json,
    ) -> None:
        """Durably append one record, healing any torn tail first.

        The record is written as one line of ``dumps(payload)`` followed
        by ``flush()`` + ``os.fsync()``; when this method returns the
        record is on disk.  If the previous process died mid-append the
        partial trailing line is truncated away first, and a final line
        that parsed but lost its newline is completed before the new
        record starts.  ``dumps`` lets each store keep its established
        on-disk formatting (the witness db predates this module).
        """
        self.path.parent.mkdir(parents=True, exist_ok=True)
        line = (dumps(payload) + "\n").encode("utf-8")
        healing = self.torn_tail is not None
        if self.torn_tail is not None:
            obs.emit(
                "torn-tail-heal",
                key=self.path.name,
                lineno=self.torn_tail[0],
            )
        with self.path.open("r+b" if healing else "ab") as fh:
            if healing:
                fh.truncate(self._good_end)
            written = b"\n" + line if self._needs_newline else line
            at = fh.seek(0, os.SEEK_END)
            fh.write(written)
            fh.flush()
            os.fsync(fh.fileno())
            st = os.fstat(fh.fileno())
        self.torn_tail = None
        if (
            self._prefix is not None
            and st.st_ino == self._inode
            and at == self._good_end
            and st.st_size == at + len(written)
        ):
            # the file is exactly the scanned prefix plus these bytes
            self._prefix.update(written)
            self._newlines += written.count(b"\n")
            self._last_corrupt = False
        else:
            self._prefix = None
        self._needs_newline = False
        self._good_end = st.st_size
