"""Read-side query layer over a witness store file.

:class:`WitnessQueryIndex` is what the HTTP service (``repro.service``)
and other read-only consumers sit on: it wraps a :class:`WitnessDB`
opened from a path, serves filtered + paginated *plain-dict* views of
its records (JSON-ready, byte-for-byte the on-disk payloads), and
transparently reopens the store when the underlying file changes — the
witnessdb itself is append-only, so a changed ``(mtime, size)`` stamp is
the complete invalidation signal.

The layer is deliberately framework-free and read-only: writes keep
going through :class:`WitnessDB` (one writer semantics stay with the
drivers), and nothing here imports an HTTP stack, so the query surface
is testable and usable in-process.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

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
    rows: Sequence[Dict[str, Any]],
    limit: Optional[int],
    offset: Optional[int],
) -> Page:
    """Slice ``rows`` into a :class:`Page`, validating the window."""
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
        items=list(rows[offset : offset + limit]),
        total=len(rows),
        limit=limit,
        offset=offset,
    )


class WitnessQueryIndex:
    """Filtered, paginated, auto-reloading reads over one witnessdb file.

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

    # -- freshness -----------------------------------------------------

    def _file_stamp(self) -> Optional[Tuple[int, int]]:
        try:
            st = os.stat(self.path)
        except OSError:
            return None
        return (st.st_mtime_ns, st.st_size)

    @property
    def db(self) -> WitnessDB:
        """The current store, reopened whenever the file changed."""
        stamp = self._file_stamp()
        if self._db is None or stamp != self._stamp:
            self._db = WitnessDB(self.path)
            self._stamp = stamp
        return self._db

    def refresh(self) -> WitnessDB:
        """Force a reopen (after a known write, e.g. a finished job)."""
        self._db = None
        return self.db

    # -- queries -------------------------------------------------------

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
        byte-for-byte on every field.
        """
        records = self.db.witnesses(
            rule=rule,
            kind=kind,
            m=m,
            n=n,
            colors=colors,
            method=method,
            verified=verified,
        )
        return paginate(
            [witness_to_dict(rec) for rec in records], limit, offset
        )

    def census_cells(
        self,
        *,
        kind: Optional[str] = None,
        n: Optional[int] = None,
        limit: Optional[int] = None,
        offset: Optional[int] = None,
    ) -> Page:
        """Census-cell records matching the given filters."""
        rows = [
            _cell_to_dict(cell)
            for cell in self.db.cells
            if (kind is None or cell.kind == kind)
            and (n is None or cell.n == n)
        ]
        return paginate(rows, limit, offset)

    def witness(self, witness_id: str) -> Optional[Dict[str, Any]]:
        """One witness payload by exact id, or ``None``."""
        record = self.db.get(witness_id)
        return None if record is None else witness_to_dict(record)
