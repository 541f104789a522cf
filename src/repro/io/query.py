"""Read-side query layer over a witness store file.

:class:`WitnessQueryIndex` is what the HTTP service (``repro.service``)
and other read-only consumers sit on: it wraps a :class:`WitnessDB`
opened from a path, serves filtered + paginated *plain-dict* views of
its records (JSON-ready, byte-for-byte the on-disk payloads), and keeps
up with the file as it changes.  A changed ``(mtime, size)`` stamp
tells it the file moved; the witnessdb is append-only, so the index
first catches up in place on the appended lines
(:meth:`WitnessDB.catch_up`) and opens a fresh ``WitnessDB`` only when
the file changed otherwise (replaced, truncated, rewritten).  One lock
spans the freshness check and the whole read, so a catch-up never
mutates the records a concurrent request is iterating.

The layer is deliberately framework-free and read-only: writes keep
going through :class:`WitnessDB` (one writer semantics stay with the
drivers), and nothing here imports an HTTP stack, so the query surface
is testable and usable in-process.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, TypeVar, Union

from .serialize import witness_to_dict
from .witnessdb import WitnessDB, _cell_to_dict

__all__ = [
    "DEFAULT_PAGE_LIMIT",
    "MAX_PAGE_LIMIT",
    "Page",
    "QueryError",
    "WitnessQueryIndex",
]

PathLike = Union[str, Path]
_Row = TypeVar("_Row")

#: page size when the caller does not pass ``limit``
DEFAULT_PAGE_LIMIT = 50
#: hard ceiling on ``limit`` — larger requests are a client error
MAX_PAGE_LIMIT = 500


class QueryError(ValueError):
    """Invalid filter or pagination parameters (a client error)."""


@dataclass(frozen=True)
class Page:
    """One page of query results, with the total match count."""

    items: List[Dict[str, Any]]
    total: int
    limit: int
    offset: int

    def as_dict(self) -> Dict[str, Any]:
        return {
            "items": self.items,
            "total": self.total,
            "limit": self.limit,
            "offset": self.offset,
        }


def paginate(
    rows: Sequence[_Row],
    limit: Optional[int],
    offset: Optional[int],
    convert: Callable[[_Row], Dict[str, Any]],
) -> Page:
    """Slice ``rows`` into a :class:`Page`, converting only the window."""
    if limit is None:
        limit = DEFAULT_PAGE_LIMIT
    if offset is None:
        offset = 0
    if limit < 1 or limit > MAX_PAGE_LIMIT:
        raise QueryError(
            f"limit must be between 1 and {MAX_PAGE_LIMIT}, got {limit}"
        )
    if offset < 0:
        raise QueryError(f"offset must be non-negative, got {offset}")
    return Page(
        items=[convert(row) for row in rows[offset : offset + limit]],
        total=len(rows),
        limit=limit,
        offset=offset,
    )


class WitnessQueryIndex:
    """Filtered, paginated, self-updating reads over one witnessdb file.

    Safe to share between threads: every query holds one lock across
    the freshness check and its read.

    Parameters
    ----------
    path:
        The JSON-lines witness store.  A missing file is an empty
        corpus, not an error — the index picks the records up as soon
        as a writer creates the file.
    """

    def __init__(self, path: PathLike) -> None:
        self.path = Path(path)
        self._db: Optional[WitnessDB] = None
        self._stamp: Optional[Tuple[int, int]] = None
        self._lock = threading.Lock()

    # -- freshness -----------------------------------------------------

    def _file_stamp(self) -> Optional[Tuple[int, int]]:
        try:
            st = os.stat(self.path)
        except OSError:
            return None
        return (st.st_mtime_ns, st.st_size)

    def _fresh(self) -> WitnessDB:
        """The store as the file stands now; the caller holds the lock."""
        stamp = self._file_stamp()
        if self._db is None or stamp != self._stamp:
            if self._db is None or not self._db.catch_up():
                self._db = WitnessDB(self.path)
            self._stamp = stamp
        return self._db

    # -- queries -------------------------------------------------------

    def counts(self) -> Dict[str, int]:
        """Witness, cell, summary and search counts of the current store."""
        with self._lock:
            db = self._fresh()
            return {
                "witnesses": len(db),
                "census_cells": len(db.cells),
                "scale_free_cells": len(db.scale_free_cells),
                "async_summaries": len(db.async_summaries),
                "searches": len(db.searches),
            }

    def witnesses(
        self,
        *,
        rule: Optional[str] = None,
        kind: Optional[str] = None,
        m: Optional[int] = None,
        n: Optional[int] = None,
        colors: Optional[int] = None,
        method: Optional[str] = None,
        verified: Optional[bool] = None,
        limit: Optional[int] = None,
        offset: Optional[int] = None,
    ) -> Page:
        """Witness records matching every given filter, newest last.

        Items are the exact on-disk payloads (``witness_to_dict``), so a
        service response and a ``grep`` of the JSONL file agree
        byte-for-byte on every field.  Only the page is converted.
        """
        with self._lock:
            records = self._fresh().witnesses(
                rule=rule,
                kind=kind,
                m=m,
                n=n,
                colors=colors,
                method=method,
                verified=verified,
            )
            return paginate(records, limit, offset, witness_to_dict)

    def census_cells(
        self,
        *,
        kind: Optional[str] = None,
        n: Optional[int] = None,
        limit: Optional[int] = None,
        offset: Optional[int] = None,
    ) -> Page:
        """Census-cell records matching the given filters."""
        with self._lock:
            cells = [
                cell
                for cell in self._fresh().cells
                if (kind is None or cell.kind == kind)
                and (n is None or cell.n == n)
            ]
            return paginate(cells, limit, offset, _cell_to_dict)

    def witness(self, witness_id: str) -> Optional[Dict[str, Any]]:
        """One witness payload by exact id, or ``None``."""
        with self._lock:
            record = self._fresh().get(witness_id)
            return None if record is None else witness_to_dict(record)
