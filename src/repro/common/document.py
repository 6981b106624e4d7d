"""Documents and their metadata.

A document (section 3) is a JSON value addressed by a user-supplied
string key inside a bucket.  The server attaches metadata:

* **cas** -- the compare-and-swap token, changed on every mutation
  (section 3.1.1).  Modeled as a strictly increasing 64-bit integer.
* **seqno** -- the per-vBucket mutation sequence number (section 4.2:
  "When a document is written, a sequence number is generated and
  associated with the mutation").  DCP, durability observation, and
  scan-consistency waits are all expressed in seqnos.
* **rev** -- the revision (update) counter used by XDCR conflict
  resolution: "the document with the most updates is considered the
  winner" (section 4.6.1).
* **expiry** -- absolute virtual-time expiration, 0 meaning none.
* **flags** -- opaque client flags, carried verbatim like memcached's.
* **deleted** -- tombstone marker; deletes are mutations too and must
  flow through DCP to replicas and indexes.

Ownership: both classes are frozen, so a stored document is never
changed in place.  The active hash table, the DCP change buffer, DCP
streams, replicas, the flusher and the indexers all share one object;
a change (ejection, background fetch, a lock's CAS, an XDCR seqno) is a
new object made with :func:`dataclasses.replace`.  JSON bodies are
plain dicts and lists, so a value is copied only where it crosses into
code the server does not own:

* ingest -- ``KVEngine._build_doc`` and ``KVEngine.mutate_in`` copy the
  caller's value before it is stored;
* the KV read API -- ``KVEngine.get`` and ``KVEngine.get_and_lock``
  return a :meth:`Document.copy` (``multi_get`` and ``lookup_in`` go
  through ``get``);
* N1QL -- the fetch operator copies a document bound to a second row,
  and DML copies the current value before applying ``SET``/``UNSET``;
* indexes -- GSI and view indexes store an encoding of each key value
  (:func:`repro.n1ql.collation.collate_key`), never the value itself,
  and decode fresh values on every scan, so covered rows, group values
  and pushed MIN/MAX results share nothing with a stored document;
* views -- ``ViewDefinition.run_map`` hands the user's map function a
  copy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .jsonval import JsonValue, deep_copy, sizeof


@dataclass(frozen=True)
class DocumentMeta:
    key: str
    cas: int = 0
    seqno: int = 0
    rev: int = 0
    expiry: float = 0.0
    flags: int = 0
    deleted: bool = False
    vbucket_id: int = 0

    def is_expired(self, now: float) -> bool:
        return self.expiry != 0.0 and not self.deleted and now >= self.expiry


@dataclass(frozen=True)
class Document:
    """A stored document: metadata plus JSON body.

    ``value`` is None when ``meta.deleted`` is set (tombstone) or when the
    value has been ejected from the cache and only key+metadata remain
    resident (section 4.3.3, "value eviction").
    """

    meta: DocumentMeta
    value: JsonValue | None = None
    #: True when the value is not resident in memory (ejected); the body
    #: must be fetched from the storage engine.  Distinct from tombstones.
    ejected: bool = field(default=False, compare=False)
    #: Cache for :attr:`memory_footprint`; -1 until first asked.  A field
    #: rather than ``functools.cached_property``: on CPython 3.11 that
    #: writes through a per-instance ``__dict__`` it first materialises,
    #: and perfbench's insert latency measured worse with it.
    _footprint: int = field(default=-1, init=False, compare=False, repr=False)

    @property
    def key(self) -> str:
        return self.meta.key

    def copy(self) -> "Document":
        """A document whose value the caller may mutate freely."""
        return Document(self.meta, deep_copy(self.value), self.ejected)

    @property
    def memory_footprint(self) -> int:
        """Bytes charged against the bucket quota for this cache entry,
        sized once per (frozen) document."""
        if self._footprint < 0:
            base = 64 + len(self.meta.key.encode("utf-8"))
            if self.value is not None and not self.ejected:
                base += sizeof(self.value)
            object.__setattr__(self, "_footprint", base)
        return self._footprint
