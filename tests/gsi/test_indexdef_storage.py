"""Tests for index definitions and the two storage backends."""

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.disk import SimulatedDisk
from repro.gsi.indexdef import (
    IndexDefinition,
    array_index,
    attribute_index,
    path_extractor,
    primary_index,
)
from repro.gsi.storage import (
    BTreeIndexStorage,
    SortedListIndexStorage,
    make_storage,
)
from repro.n1ql.collation import MISSING, compare

#: Index key components: JSON values plus MISSING, with the cases an
#: ad-hoc encoding gets wrong -- an object that looks like an encoded
#: MISSING, non-BMP object names, 1 vs 1.0 and booleans vs numbers.
index_values = st.recursive(
    st.none() | st.booleans() | st.just(MISSING)
    | st.sampled_from([0, 1, 1.0, -2, 2.5, True, False])
    | st.text(alphabet="ab\U0001F600\uffff", max_size=3)
    | st.just({"__missing__": True}),
    lambda children: st.lists(children, max_size=2)
    | st.dictionaries(st.text(alphabet="a\U0001F600\uffff", max_size=2),
                      children, max_size=2),
    max_leaves=4,
)


def typed(value):
    """``value`` with every scalar tagged by its type, so ``1``, ``1.0``
    and ``True`` stay distinct under ``==``."""
    if isinstance(value, dict):
        return ("object", sorted((k, typed(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return ("array", [typed(v) for v in value])
    return (type(value).__name__, value)


class TestExtraction:
    def test_single_attribute(self):
        index = attribute_index("i", "b", "age")
        assert index.entries_for({"age": 30}, "d1") == [[30]]

    def test_missing_leading_key_not_indexed(self):
        index = attribute_index("i", "b", "age")
        assert index.entries_for({"name": "x"}, "d1") == []

    def test_composite_keys(self):
        index = attribute_index("i", "b", "country", "city")
        assert index.entries_for({"country": "US", "city": "SF"}, "d1") == [
            ["US", "SF"]
        ]

    def test_composite_trailing_missing_still_indexed(self):
        index = attribute_index("i", "b", "country", "city")
        entries = index.entries_for({"country": "US"}, "d1")
        assert entries == [["US", MISSING]]

    def test_dotted_path(self):
        index = attribute_index("i", "b", "address.zip")
        assert index.entries_for({"address": {"zip": "94040"}}, "d1") == [["94040"]]

    def test_deleted_doc(self):
        index = attribute_index("i", "b", "age")
        assert index.entries_for(None, "d1") == []

    def test_partial_index_condition(self):
        """The paper's over-21 selective index (section 3.3.4)."""
        index = attribute_index(
            "over21", "b", "age",
            condition=lambda doc, doc_id: doc.get("age", 0) > 21,
            condition_source="age > 21",
        )
        assert index.entries_for({"age": 30}, "d1") == [[30]]
        assert index.entries_for({"age": 18}, "d2") == []

    def test_condition_exception_means_skip(self):
        index = attribute_index(
            "i", "b", "age",
            condition=lambda doc, doc_id: doc["zzz"] > 0,
        )
        assert index.entries_for({"age": 30}, "d1") == []

    def test_primary_index_extracts_id(self):
        index = primary_index("pk", "b")
        assert index.entries_for({"any": 1}, "doc-42") == [["doc-42"]]
        assert index.is_primary

    def test_array_index_expands(self):
        index = array_index("tags", "b", "tags")
        entries = index.entries_for({"tags": ["a", "b"]}, "d1")
        assert entries == [["a"], ["b"]]

    def test_array_index_distinct(self):
        index = array_index("tags", "b", "tags")
        entries = index.entries_for({"tags": ["a", "a", "b"]}, "d1")
        assert entries == [["a"], ["b"]]

    def test_array_index_non_array_skipped(self):
        index = array_index("tags", "b", "tags")
        assert index.entries_for({"tags": "scalar"}, "d1") == []

    def test_validation(self):
        with pytest.raises(ValueError):
            IndexDefinition("i", "b", [], [])
        with pytest.raises(ValueError):
            IndexDefinition("i", "b", ["a"], [path_extractor("a")],
                            storage="papier")


@pytest.fixture(params=["standard", "memopt"])
def storage(request):
    return make_storage(request.param, SimulatedDisk(), "test.index")


class TestStorageBackends:
    def test_kind_dispatch(self):
        disk = SimulatedDisk()
        assert isinstance(make_storage("standard", disk, "f"), BTreeIndexStorage)
        assert isinstance(make_storage("memopt", disk, "f"), SortedListIndexStorage)
        with pytest.raises(ValueError):
            make_storage("other", disk, "f")

    def test_update_and_scan(self, storage):
        storage.update_doc("d1", [[5]])
        storage.update_doc("d2", [[3]])
        storage.update_doc("d3", [[7]])
        rows = list(storage.scan(None, None))
        assert [key[0] for key, _ in rows] == [3, 5, 7]

    def test_update_replaces(self, storage):
        storage.update_doc("d1", [[5]])
        storage.update_doc("d1", [[9]])
        rows = list(storage.scan(None, None))
        assert rows == [([9], "d1")]
        assert storage.count() == 1

    def test_remove_via_empty_entries(self, storage):
        storage.update_doc("d1", [[5]])
        storage.update_doc("d1", [])
        assert storage.count() == 0

    def test_range_bounds(self, storage):
        for i in range(10):
            storage.update_doc(f"d{i}", [[i]])
        rows = list(storage.scan([3], [6]))
        assert [key[0] for key, _ in rows] == [3, 4, 5, 6]

    def test_exclusive_bounds(self, storage):
        for i in range(10):
            storage.update_doc(f"d{i}", [[i]])
        rows = list(storage.scan([3], [6], inclusive_low=False,
                                 inclusive_high=False))
        assert [key[0] for key, _ in rows] == [4, 5]

    def test_descending(self, storage):
        for i in range(5):
            storage.update_doc(f"d{i}", [[i]])
        rows = list(storage.scan([1], [3], descending=True))
        assert [key[0] for key, _ in rows] == [3, 2, 1]

    def test_duplicate_keys_different_docs(self, storage):
        storage.update_doc("d1", [[5]])
        storage.update_doc("d2", [[5]])
        rows = list(storage.scan([5], [5]))
        assert [(key[0], doc) for key, doc in rows] == [(5, "d1"), (5, "d2")]

    def test_missing_component_roundtrips(self, storage):
        storage.update_doc("d1", [["US", MISSING]])
        rows = list(storage.scan(None, None))
        assert rows[0][0] == ["US", MISSING]

    def test_multi_entry_docs(self, storage):
        storage.update_doc("d1", [["a"], ["b"]])
        assert storage.count() == 2
        storage.update_doc("d1", [["c"]])
        rows = list(storage.scan(None, None))
        assert [key[0] for key, _ in rows] == ["c"]

    def test_mixed_type_keys_collate(self, storage):
        storage.update_doc("d1", [["str"]])
        storage.update_doc("d2", [[10]])
        storage.update_doc("d3", [[None]])
        storage.update_doc("d4", [[True]])
        rows = [key[0] for key, _ in storage.scan(None, None)]
        assert rows == [None, True, 10, "str"]

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), arity=st.integers(1, 2))
    def test_backends_agree(self, data, arity):
        """Both storage backends return exactly the rows a brute-force
        filter over ``compare`` selects, in collation order, for any
        operation sequence and any bounds (prefix, exclusive,
        descending)."""
        components = st.lists(index_values, min_size=arity, max_size=arity)
        operations = data.draw(st.lists(
            st.tuples(st.sampled_from(["d1", "d2", "d3", "d4"]),
                      st.lists(components, max_size=3)),
            max_size=12,
        ))
        bound = st.none() | st.lists(index_values, min_size=1,
                                     max_size=arity)
        low, high = data.draw(bound), data.draw(bound)
        inclusive_low, inclusive_high, descending = data.draw(
            st.tuples(st.booleans(), st.booleans(), st.booleans()))

        disk = SimulatedDisk()
        btree = make_storage("standard", disk, "a.index")
        sorted_list = make_storage("memopt", disk, "b.index")
        model: dict[str, list] = {}
        for doc_id, entries in operations:
            btree.update_doc(doc_id, entries)
            sorted_list.update_doc(doc_id, entries)
            kept: list = []
            for entry in entries:  # of collation-equal entries, the last wins
                kept = [k for k in kept if compare(k, entry) != 0] + [entry]
            model[doc_id] = kept

        def in_range(key):
            if low is not None:
                order = compare(key[:len(low)], low)
                if order < 0 or (order == 0 and not inclusive_low):
                    return False
            if high is not None:
                order = compare(key[:len(high)], high)
                if order > 0 or (order == 0 and not inclusive_high):
                    return False
            return True

        def row_order(a, b):
            return compare(a[0], b[0]) or compare(a[1], b[1])

        expected = sorted(
            ((key, doc_id) for doc_id, keys in model.items() for key in keys
             if in_range(key)),
            key=functools.cmp_to_key(row_order), reverse=descending,
        )
        for storage in (btree, sorted_list):
            rows = storage.scan(low, high, inclusive_low, inclusive_high,
                                descending)
            assert [typed(row) for row in rows] == \
                [typed(row) for row in expected]
            assert storage.count() == sum(map(len, model.values()))


class TestMemoptSnapshot:
    def test_snapshot_and_recover(self):
        disk = SimulatedDisk()
        storage = SortedListIndexStorage(disk, "idx")
        for i in range(20):
            storage.update_doc(f"d{i}", [[i]])
        written = storage.snapshot_to_disk()
        assert written > 0

        recovered = SortedListIndexStorage(disk, "idx")
        assert recovered.load_snapshot() == 20
        assert list(recovered.scan(None, None)) == list(storage.scan(None, None))

    def test_snapshot_without_disk_raises(self):
        storage = SortedListIndexStorage()
        with pytest.raises(ValueError):
            storage.snapshot_to_disk()

    def test_memopt_reports_memory_not_disk(self):
        storage = SortedListIndexStorage(SimulatedDisk(), "idx")
        storage.update_doc("d1", [[1]])
        assert storage.memory_bytes() > 0
        assert storage.disk_bytes() == 0

    def test_standard_reports_disk(self):
        storage = BTreeIndexStorage(SimulatedDisk(), "idx")
        storage.update_doc("d1", [[1]])
        assert storage.disk_bytes() > 0
