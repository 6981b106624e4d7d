"""Global secondary index definitions.

Section 3.3.2: a GSI indexes documents of one bucket on one or more
attributes (or expressions), lives on index-service nodes separate from
the data, may be **partial** (a WHERE clause filters what gets indexed,
section 3.3.4), may be an **array index** over the elements of an
array-valued field (section 6.1.2), and may be **memory-optimized**
(section 6.1.1).

Key extraction is expressed as callables so the N1QL layer can compile
arbitrary index expressions down to them; the helpers here build the
common attribute-path extractors directly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Callable

from ..n1ql.collation import MISSING

#: Extracts one index key component from (doc, doc_id).
KeyExtractor = Callable[[dict, str], Any]
#: Partial-index predicate over (doc, doc_id).
Condition = Callable[[dict, str], bool]


def path_extractor(path: str) -> KeyExtractor:
    """Extractor for a dotted attribute path; absent -> MISSING."""
    parts = path.split(".")

    def extract(doc: dict, doc_id: str) -> Any:
        current: Any = doc
        for part in parts:
            if not isinstance(current, dict) or part not in current:
                return MISSING
            current = current[part]
        return current

    return extract


def meta_id_extractor() -> KeyExtractor:
    """Extractor for meta().id -- what a PRIMARY INDEX indexes."""

    def extract(doc: dict, doc_id: str) -> Any:
        return doc_id

    return extract


@dataclass
class IndexDefinition:
    """Metadata + extraction logic for one GSI index."""

    name: str
    bucket: str
    #: Textual key expressions, for EXPLAIN and the planner.
    key_sources: list[str]
    #: One extractor per key component.
    extractors: list[KeyExtractor]
    #: Partial-index predicate (section 3.3.4), None = index everything.
    condition: Condition | None = None
    condition_source: str | None = None
    #: Which key component (if any) is an ARRAY index: its extractor
    #: yields a list and every distinct element becomes an entry.
    array_component: int | None = None
    #: "standard" (disk B-tree) or "memopt" (in-memory sorted list, §6.1.1).
    storage: str = "standard"
    #: True for CREATE PRIMARY INDEX (indexes meta().id).
    is_primary: bool = False
    #: Created WITH {"defer_build": true}: no rows until built.
    deferred: bool = False
    #: Number of hash partitions over index nodes (1 = unpartitioned).
    num_partitions: int = 1

    def __post_init__(self):
        if len(self.key_sources) != len(self.extractors):
            raise ValueError("key_sources and extractors must align")
        if not self.key_sources:
            raise ValueError("an index needs at least one key")
        if self.storage not in ("standard", "memopt"):
            raise ValueError(f"unknown index storage {self.storage!r}")
        if self.num_partitions < 1:
            raise ValueError("num_partitions must be >= 1")

    def entries_for(self, doc: dict | None, doc_id: str) -> list[list]:
        """Index entries (key tuples as lists) for a document.

        Empty when the doc is deleted, fails the partial-index condition,
        or its leading key is MISSING (GSI semantics: documents without
        the leading key are not indexed)."""
        if doc is None:
            return []
        if self.condition is not None:
            try:
                if not self.condition(doc, doc_id):
                    return []
            except Exception:
                return []
        components: list[Any] = []
        for extractor in self.extractors:
            try:
                components.append(extractor(doc, doc_id))
            except Exception:
                components.append(MISSING)
        if self.array_component is None:
            if components[0] is MISSING:
                return []
            return [components]
        array_value = components[self.array_component]
        if not isinstance(array_value, list):
            return []
        entries = []
        seen: set[str] = set()
        for element in array_value:
            expanded = list(components)
            expanded[self.array_component] = element
            if expanded[0] is MISSING:
                continue
            token = json.dumps(_tokenable(expanded), sort_keys=True)
            if token in seen:
                continue  # DISTINCT ARRAY semantics
            seen.add(token)
            entries.append(expanded)
        return entries

    def describe(self) -> dict:
        return {
            "name": self.name,
            "bucket": self.bucket,
            "keys": list(self.key_sources),
            "condition": self.condition_source,
            "storage": self.storage,
            "is_primary": self.is_primary,
            "partitions": self.num_partitions,
        }


def _tokenable(components: list) -> list:
    return [None if c is MISSING else c for c in components]


def attribute_index(name: str, bucket: str, *paths: str,
                    storage: str = "standard",
                    condition: Condition | None = None,
                    condition_source: str | None = None) -> IndexDefinition:
    """CREATE INDEX name ON bucket(path1, path2, ...) USING GSI."""
    return IndexDefinition(
        name=name,
        bucket=bucket,
        key_sources=list(paths),
        extractors=[path_extractor(p) for p in paths],
        condition=condition,
        condition_source=condition_source,
        storage=storage,
    )


def primary_index(name: str, bucket: str,
                  storage: str = "standard",
                  deferred: bool = False) -> IndexDefinition:
    """CREATE PRIMARY INDEX ON bucket USING GSI (section 3.3.3)."""
    return IndexDefinition(
        name=name,
        bucket=bucket,
        key_sources=["meta().id"],
        extractors=[meta_id_extractor()],
        is_primary=True,
        storage=storage,
        deferred=deferred,
    )


def array_index(name: str, bucket: str, array_path: str,
                storage: str = "standard") -> IndexDefinition:
    """CREATE INDEX name ON bucket(DISTINCT ARRAY v FOR v IN <path> END)
    (section 6.1.2)."""
    return IndexDefinition(
        name=name,
        bucket=bucket,
        key_sources=[f"distinct array {array_path}"],
        extractors=[path_extractor(array_path)],
        array_component=0,
        storage=storage,
    )
