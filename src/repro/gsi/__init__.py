"""Global secondary indexes: definitions (partial/array/primary/
memory-optimized), projector and router on the data service, indexers on
the index service, and the cluster-level coordinator with request_plus
consistency (sections 3.3, 4.3.4, 6.1)."""

from .indexdef import (
    IndexDefinition,
    array_index,
    attribute_index,
    meta_id_extractor,
    path_extractor,
    primary_index,
)
from .indexer import Indexer, IndexInstance
from .manager import GsiCoordinator, IndexMeta, IndexRegistry, IndexService
from .projector import KeyVersion, Projector, Router
from .storage import BTreeIndexStorage, SortedListIndexStorage, make_storage

__all__ = [
    "BTreeIndexStorage",
    "GsiCoordinator",
    "IndexDefinition",
    "IndexInstance",
    "IndexMeta",
    "IndexRegistry",
    "IndexService",
    "Indexer",
    "KeyVersion",
    "Projector",
    "Router",
    "SortedListIndexStorage",
    "array_index",
    "attribute_index",
    "make_storage",
    "meta_id_extractor",
    "path_extractor",
    "primary_index",
]
