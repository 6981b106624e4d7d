"""JSON value ordering (collation).

N1QL and the view engine both need a total order over heterogeneous
JSON values -- for ORDER BY, for index key ordering, and for range
predicates.  Both use the same type-bracketed collation (the SQL++ /
CouchDB order the paper's systems implement):

    MISSING < NULL < FALSE < TRUE < numbers < strings < arrays < objects

* Numbers compare numerically (ints and floats interchangeably).
* Strings compare by unicode code points.
* Arrays compare element-wise, shorter-is-smaller on ties.
* Objects compare by sorted (key, value) pairs.

``MISSING`` is a sentinel distinct from JSON ``null``: the absence of a
field in a document.  It is what makes N1QL's semantics "non-first
normal form": expressions over absent fields yield MISSING, which sorts
before everything and is excluded from index entries for leading keys.

The order is defined once, by :func:`collate_key`: a lossless JSON
encoding whose native Python ``<`` is the collation order (in the
spirit of Couchbase's collatejson).  Indexes store these keys and
compare them with plain operators; :func:`from_collate_key` decodes.
"""

from __future__ import annotations

from typing import Any


class _Missing:
    """Singleton sentinel for an absent field."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "MISSING"

    def __bool__(self):
        return False

    def __deepcopy__(self, memo):
        return self

    def __copy__(self):
        return self


MISSING = _Missing()


def type_rank(value: Any) -> int:
    """The collation bracket of a value.  Lower ranks sort first."""
    if value is MISSING:
        return 0
    if value is None:
        return 1
    if isinstance(value, bool):
        return 2 if not value else 3
    if isinstance(value, (int, float)):
        return 4
    if isinstance(value, str):
        return 5
    if isinstance(value, (list, tuple)):
        return 6
    if isinstance(value, dict):
        return 7
    raise TypeError(f"not a collatable value: {value!r}")


def collate_key(value: Any) -> list:
    """The collation key of ``value``: ``[rank]`` for MISSING, null,
    false and true, ``[rank, value]`` for numbers and strings, and
    nested keys for arrays (``[6, [keys]]``) and objects (``[7, [[name,
    key], ...]]`` by sorted name).  Keys compare with ``<`` exactly as
    :func:`compare` orders the values, survive a JSON round trip, and
    share no mutable object with ``value``."""
    rank = type_rank(value)
    if rank < 4:
        return [rank]
    if rank < 6:
        return [rank, value]
    if rank == 6:
        return [6, [collate_key(item) for item in value]]
    return [7, [[name, collate_key(value[name])] for name in sorted(value)]]


_SINGLETONS = (MISSING, None, False, True)


def from_collate_key(key: list) -> Any:
    """Inverse of :func:`collate_key`: a fresh value the caller owns."""
    rank = key[0]
    if rank < 4:
        return _SINGLETONS[rank]
    if rank < 6:
        return key[1]
    if rank == 6:
        return [from_collate_key(item) for item in key[1]]
    return {name: from_collate_key(item) for name, item in key[1]}


#: Sorts after every collation key: appended to an encoded prefix it
#: bounds every key that extends the prefix.
TOP = [8]


def compare(a: Any, b: Any) -> int:
    """Three-way comparison under JSON collation: -1, 0, or +1."""
    # Fast path for like-typed scalars, the bulk of index-key
    # comparisons.  type() is exact, so bools (rank 2/3, not
    # numerically compared) fall through to the keyed path.
    kind = type(a)
    if kind is type(b) and (kind is str or kind is int or kind is float):
        if a == b:
            return 0
        return -1 if a < b else 1
    key_a, key_b = collate_key(a), collate_key(b)
    return (key_a > key_b) - (key_a < key_b)


def equal(a: Any, b: Any) -> bool:
    return compare(a, b) == 0


def less(a: Any, b: Any) -> bool:
    return compare(a, b) < 0


def max_value(values) -> Any:
    """Collation max of an iterable (raises on empty)."""
    iterator = iter(values)
    best = next(iterator)
    for value in iterator:
        if compare(value, best) > 0:
            best = value
    return best


def min_value(values) -> Any:
    iterator = iter(values)
    best = next(iterator)
    for value in iterator:
        if compare(value, best) < 0:
            best = value
    return best
