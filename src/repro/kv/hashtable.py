"""Per-vBucket hash table.

Section 4.3.3: *"Hash tables for each virtual bucket reside in this cache
and offer a quick way of detecting whether a given document currently
exists in memory or not.  Each entry stores the document's ID, some
document metadata, and the document's value."*

Python's dict provides the hashing; what this class adds is the cache
bookkeeping the paper describes: per-entry dirty state (not yet
persisted), resident/ejected state (value eviction keeps key+meta in
memory while the body lives only on disk), NRU reference bits for the
item pager, and byte-accurate-enough memory accounting against the
bucket quota.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Iterator

from ..common.document import Document


class CacheEntry:
    """One resident document: the doc plus its cache state (dirty,
    NRU reference bit, lock)."""

    __slots__ = ("doc", "dirty", "referenced", "locked_until", "lock_cas")

    def __init__(self, doc: Document, dirty: bool):
        self.doc = doc
        self.dirty = dirty
        #: NRU bit: set on access, cleared by the pager's clock sweep.
        self.referenced = True
        #: Virtual-time deadline of a get-and-lock hard lock, 0 if unlocked.
        self.locked_until = 0.0
        #: CAS that identifies the lock holder.
        self.lock_cas = 0

    def is_locked(self, now: float) -> bool:
        return self.locked_until > now


class HashTable:
    """In-memory entries for one vBucket."""

    def __init__(self, vbucket_id: int):
        self.vbucket_id = vbucket_id
        self._entries: dict[str, CacheEntry] = {}
        #: Bytes charged for resident entries (keys, metadata, values).
        self.memory_used = 0
        #: Optional ``callable(delta_bytes)`` notified of every memory
        #: charge; the engine hooks this to keep a bucket-wide usage
        #: counter without re-summing per-vBucket tallies on each check.
        self.memory_listener = None

    def charge(self, delta: int) -> None:
        """Single funnel for all memory accounting mutations."""
        self.memory_used += delta
        if self.memory_listener is not None:
            self.memory_listener(delta)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def get(self, key: str) -> CacheEntry | None:
        entry = self._entries.get(key)
        if entry is not None:
            entry.referenced = True
        return entry

    def peek(self, key: str) -> CacheEntry | None:
        """Read an entry without touching its NRU bit (used by the pager
        and by replication, which must not look like application access)."""
        return self._entries.get(key)

    def set(self, doc: Document, dirty: bool) -> CacheEntry:
        """Insert or replace an entry; preserves an existing lock."""
        old = self._entries.get(doc.key)
        if old is not None:
            self.charge(-old.doc.memory_footprint)
        entry = CacheEntry(doc, dirty)
        if old is not None:
            entry.locked_until = old.locked_until
            entry.lock_cas = old.lock_cas
        self._entries[doc.key] = entry
        self.charge(doc.memory_footprint)
        return entry

    def replace_doc(self, entry: CacheEntry, **changes) -> None:
        """Swap ``entry``'s document for a copy with ``changes`` applied
        (documents are frozen and shared with DCP, replicas and the
        flusher) and re-charge the footprint delta."""
        old = entry.doc
        entry.doc = replace(old, **changes)
        self.charge(entry.doc.memory_footprint - old.memory_footprint)

    def remove(self, key: str) -> None:
        entry = self._entries.pop(key, None)
        if entry is not None:
            self.charge(-entry.doc.memory_footprint)

    def eject_value(self, key: str) -> bool:
        """Value eviction: drop the body, keep key + metadata resident.
        Only clean (persisted) entries may be ejected.  Returns True if
        the value was ejected."""
        entry = self._entries.get(key)
        if entry is None or entry.dirty or entry.doc.ejected or entry.doc.meta.deleted:
            return False
        self.replace_doc(entry, value=None, ejected=True)
        return True

    def eject_entry(self, key: str) -> bool:
        """Full eviction: drop the whole entry (key and metadata too).
        Only clean entries may be dropped."""
        entry = self._entries.get(key)
        if entry is None or entry.dirty:
            return False
        self.remove(key)
        return True

    def mark_clean(self, key: str, seqno: int) -> None:
        """Called by the flusher once the mutation with ``seqno`` is on
        disk.  A newer in-memory mutation keeps the entry dirty."""
        entry = self._entries.get(key)
        if entry is not None and entry.doc.meta.seqno <= seqno:
            entry.dirty = False

    def items(self) -> Iterator[tuple[str, CacheEntry]]:
        return iter(list(self._entries.items()))

    def keys(self) -> list[str]:
        return list(self._entries)

    def resident_ratio(self) -> float:
        """Fraction of entries whose value is in memory."""
        if not self._entries:
            return 1.0
        resident = sum(
            1 for e in self._entries.values() if not e.doc.ejected
        )
        return resident / len(self._entries)

    def clear(self) -> None:
        self.charge(-self.memory_used)
        self._entries.clear()
