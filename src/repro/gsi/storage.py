"""Index storage backends.

The paper's "Indexer (Local Indexer) ... manages the on-disk index tree
data structure" (section 4.3.4); version 4.5 adds fully memory-resident
indexes with disk backups for recoverability (section 6.1.1).  Both
backends expose the same interface:

* ``update_doc(doc_id, entries)`` -- replace all entries of a document
  (the back-index lives inside the storage so updates are one call);
* ``scan(low, high, ...)``        -- ordered range scan over composite
  keys, yielding ``(key_tuple, doc_id)``;
* ``count()`` / stats.

Both store rows ``[encoded_components, doc_id]``, each component encoded
with :func:`~repro.n1ql.collation.collate_key`, so rows compare with
plain ``<`` in N1QL collation order with the doc_id as the final
tiebreaker.  A bound is ``[encoded_prefix]``: it sorts before every row
whose components extend the prefix, and ``[encoded_prefix + [TOP]]``
after every such row.  Scans decode fresh values, so nothing a scan
hands out is shared with the index.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from typing import Iterator

from ..common.disk import SimulatedDisk
from ..common.errors import InvalidArgumentError
from ..n1ql.collation import TOP, collate_key, from_collate_key
from ..storage.appendlog import AppendLog
from ..storage.btree import BTree


def encode(components: list) -> list:
    return [collate_key(c) for c in components]


def decode(encoded: list) -> list:
    return [from_collate_key(k) for k in encoded]


def row_key(row: tuple[list, str]) -> list:
    """Sort key of a decoded ``(key_components, doc_id)`` scan row."""
    return [encode(row[0]), row[1]]


def _bound(components: list, past_prefix: bool) -> list:
    """The row-order bound just before (or, with ``past_prefix``, just
    after) every row whose components extend ``components``."""
    encoded = encode(components)
    return [encoded + [TOP]] if past_prefix else [encoded]


def _bounds(low: list | None, high: list | None, inclusive_low: bool,
            inclusive_high: bool) -> tuple[list | None, list | None]:
    start = None if low is None else _bound(low, not inclusive_low)
    end = None if high is None else _bound(high, inclusive_high)
    return start, end


class BTreeIndexStorage:
    """Standard (disk-resident) index: copy-on-write B-tree in an
    append-only file on the index node's disk."""

    kind = "standard"

    def __init__(self, disk: SimulatedDisk, filename: str):
        self.log = AppendLog(disk.open(filename))
        self.tree = BTree(self.log)
        #: doc_id -> the rows it stored.
        self.back_index: dict[str, list] = {}

    def update_doc(self, doc_id: str, entries: list[list]) -> None:
        deletes = self.back_index.pop(doc_id, [])
        rows = [[encode(components), doc_id] for components in entries]
        if not deletes and not rows:
            return
        self.tree = self.tree.batch_update(
            inserts=[(row, None) for row in rows], deletes=deletes,
        )
        if rows:
            self.back_index[doc_id] = rows

    def scan(self, low: list | None, high: list | None,
             inclusive_low: bool = True, inclusive_high: bool = True,
             descending: bool = False) -> Iterator[tuple[list, str]]:
        start, end = _bounds(low, high, inclusive_low, inclusive_high)
        for (encoded, doc_id), _value in self.tree.range(
            start=start, end=end, descending=descending,
        ):
            yield decode(encoded), doc_id

    def count(self) -> int:
        return self.tree.count()

    def memory_bytes(self) -> int:
        return 0  # resident data lives on "disk"

    def disk_bytes(self) -> int:
        return self.log.size


class SortedListIndexStorage:
    """Memory-optimized index (section 6.1.1): a sorted list of rows
    kept entirely in memory with :mod:`bisect`, with
    :meth:`snapshot_to_disk` providing the paper's "recoverability via
    disk-backups"."""

    kind = "memopt"

    def __init__(self, disk: SimulatedDisk | None = None,
                 filename: str | None = None):
        self._rows: list[list] = []
        #: doc_id -> the rows it stored.
        self.back_index: dict[str, list] = {}
        self._disk = disk
        self._filename = filename

    def _insert(self, row: list) -> None:
        """Insert ``row``; like the B-tree, it replaces an equal row."""
        index = bisect_left(self._rows, row)
        if index < len(self._rows) and self._rows[index] == row:
            self._rows[index] = row
        else:
            self._rows.insert(index, row)

    def _delete(self, row: list) -> None:
        index = bisect_left(self._rows, row)
        if index < len(self._rows) and self._rows[index] == row:
            del self._rows[index]

    # -- storage interface ---------------------------------------------------------

    def update_doc(self, doc_id: str, entries: list[list]) -> None:
        for row in self.back_index.pop(doc_id, []):
            self._delete(row)
        rows = [[encode(components), doc_id] for components in entries]
        for row in rows:
            self._insert(row)
        if rows:
            self.back_index[doc_id] = rows

    def scan(self, low: list | None, high: list | None,
             inclusive_low: bool = True, inclusive_high: bool = True,
             descending: bool = False) -> Iterator[tuple[list, str]]:
        start, end = _bounds(low, high, inclusive_low, inclusive_high)
        first = 0 if start is None else bisect_left(self._rows, start)
        stop = len(self._rows) if end is None else bisect_left(self._rows, end)
        positions = range(first, stop)
        for position in reversed(positions) if descending else positions:
            encoded, doc_id = self._rows[position]
            yield decode(encoded), doc_id

    def count(self) -> int:
        return len(self._rows)

    def memory_bytes(self) -> int:
        # Rough accounting: row overhead plus key contents.
        return len(self._rows) * 96

    def disk_bytes(self) -> int:
        return 0

    # -- recoverability (disk backup) ---------------------------------------------------

    def snapshot_to_disk(self) -> int:
        """Write a full backup of the in-memory index; returns bytes
        written.  Recovery is :meth:`load_snapshot` on a fresh instance."""
        if self._disk is None or self._filename is None:
            raise InvalidArgumentError("no backing disk configured for snapshots")
        payload = json.dumps(self._rows, separators=(",", ":")).encode("utf-8")
        file = self._disk.open(self._filename + ".snapshot")
        file.truncate(0)
        file.append(payload)
        file.sync()
        return len(payload)

    def load_snapshot(self) -> int:
        file = self._disk.open(self._filename + ".snapshot")
        if file.size == 0:
            return 0
        rows = json.loads(file.read(0, file.size).decode("utf-8"))
        for row in rows:
            self._insert(row)
            self.back_index.setdefault(row[1], []).append(row)
        return len(rows)


def make_storage(kind: str, disk: SimulatedDisk, filename: str):
    """Factory for the two index storage backends ("standard" disk
    B-tree or "memopt" in-memory sorted list, section 6.1.1)."""
    if kind == "standard":
        return BTreeIndexStorage(disk, filename)
    if kind == "memopt":
        return SortedListIndexStorage(disk, filename)
    raise InvalidArgumentError(f"unknown index storage kind {kind!r}")
