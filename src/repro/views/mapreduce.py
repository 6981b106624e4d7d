"""View definitions: map and reduce functions.

Section 3.1.2: a view is defined by a Map function that calls ``emit(key,
value)`` for data it wants indexed, plus an optional Reduce that
aggregates emitted values.  The paper's views are JavaScript; here they
are Python callables with the same shape::

    def map_fn(doc, meta, emit):
        if "name" in doc:
            emit(doc["name"], doc.get("email"))

Reduces may be one of the built-in names the real server ships
("_count", "_sum", "_stats") or a custom callable with the CouchDB
signature ``reduce(values, rereduce)``.

Views can also be generated from ``CREATE INDEX ... USING VIEW`` DDL
(section 3.3.1): :func:`attribute_view` builds the map function that
emits the named attribute, mirroring what the server generates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from ..common.jsonval import deep_copy

MapFn = Callable[[dict, "DocMetaView", Callable[[Any, Any], None]], None]
ReduceFn = Callable[[list, bool], Any]


@dataclass
class DocMetaView:
    """The subset of document metadata exposed to map functions."""

    id: str
    rev: int
    expiry: float
    flags: int


def _count(values: list, rereduce: bool) -> int:
    if rereduce:
        return sum(values)
    return len(values)


def _sum(values: list, rereduce: bool) -> float:
    total = 0
    for value in values:
        total += value if isinstance(value, (int, float)) else 0
    return total


def _stats(values: list, rereduce: bool) -> dict:
    if rereduce:
        merged = {
            "sum": 0, "count": 0, "min": None, "max": None, "sumsqr": 0,
        }
        for stats in values:
            merged["sum"] += stats["sum"]
            merged["count"] += stats["count"]
            merged["sumsqr"] += stats["sumsqr"]
            for bound, pick in (("min", min), ("max", max)):
                if merged[bound] is None:
                    merged[bound] = stats[bound]
                elif stats[bound] is not None:
                    merged[bound] = pick(merged[bound], stats[bound])
        return merged
    numbers = [v for v in values if isinstance(v, (int, float))]
    return {
        "sum": sum(numbers),
        "count": len(values),
        "min": min(numbers) if numbers else None,
        "max": max(numbers) if numbers else None,
        "sumsqr": sum(n * n for n in numbers),
    }


BUILTIN_REDUCES: dict[str, ReduceFn] = {
    "_count": _count,
    "_sum": _sum,
    "_stats": _stats,
}


@dataclass
class ViewDefinition:
    """One view inside a design document."""

    design: str
    name: str
    map_fn: MapFn
    reduce_fn: ReduceFn | None = None

    def __post_init__(self):
        if isinstance(self.reduce_fn, str):
            try:
                self.reduce_fn = BUILTIN_REDUCES[self.reduce_fn]
            except KeyError:
                raise ValueError(
                    f"unknown builtin reduce {self.reduce_fn!r}; "
                    f"choose from {sorted(BUILTIN_REDUCES)}"
                ) from None

    @property
    def full_name(self) -> str:
        return f"{self.design}/{self.name}"

    def run_map(self, doc: dict, meta: DocMetaView) -> list[tuple[Any, Any]]:
        """Apply the map function; returns the emitted (key, value) rows.
        A throwing map function indexes nothing for that document (the
        server logs and skips, it does not fail the build).  The map
        function is user code: it gets its own copy of the document, so
        it can never change the stored one."""
        rows: list[tuple[Any, Any]] = []

        def emit(key, value=None):
            rows.append((key, value))

        try:
            self.map_fn(deep_copy(doc), meta, emit)
        except Exception:
            return []
        return rows


def attribute_view(design: str, name: str, attribute: str,
                   reduce_fn: ReduceFn | str | None = None) -> ViewDefinition:
    """The view that ``CREATE INDEX <name> ON bucket(<attribute>) USING
    VIEW`` generates: emit the attribute (dotted paths allowed) keyed for
    range scans, skipping documents where it is missing."""
    parts = attribute.split(".")

    def map_fn(doc, meta, emit):
        current = doc
        for part in parts:
            if not isinstance(current, dict) or part not in current:
                return
            current = current[part]
        emit(current, None)

    return ViewDefinition(design, name, map_fn, reduce_fn)


def primary_view(design: str = "_primary", name: str = "primary") -> ViewDefinition:
    """The PRIMARY INDEX as a view (section 3.3.3): emit every document
    ID so range scans over the whole keyspace are possible."""

    def map_fn(doc, meta, emit):
        emit(meta.id, None)

    return ViewDefinition(design, name, map_fn)
