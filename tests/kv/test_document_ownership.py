"""Document ownership: one frozen object shared by every server layer.

A stored ``Document`` is never changed in place, so the active hash
table, the DCP change buffer, the replica and the flusher all hold the
same object.  Values are copied only where they cross into code the
server does not own (see ``repro.common.document``): mutating a value a
client passed in, or one the KV or query API handed out, must never
reach what a later read returns on the active or on the replica."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Cluster
from repro.common.jsonval import deep_copy

json_scalars = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**31), max_value=2**31)
    | st.text(max_size=8)
)
json_values = st.recursive(
    json_scalars,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=12,
)
documents = st.dictionaries(st.text(max_size=6), json_values, max_size=4)

SOURCES = ("upsert", "multi_upsert", "get", "multi_get", "get_and_lock",
           "lookup_in", "n1ql")


def vandalize(value) -> None:
    """Change every container inside ``value`` in place."""
    if isinstance(value, dict):
        for item in value.values():
            vandalize(item)
        value["__vandal__"] = True
    elif isinstance(value, list):
        for item in value:
            vandalize(item)
        value.append("__vandal__")


def vbuckets_for(cluster, key):
    """The active and the replica vBucket holding ``key``."""
    cluster_map = cluster.manager.cluster_maps["b"]
    vb = cluster_map.vbucket_for_key(key)
    active = cluster.node(cluster_map.active_node(vb)).engines["b"]
    replica = cluster.node(cluster_map.replica_nodes(vb)[0]).engines["b"]
    return active.vbuckets[vb], replica.vbuckets[vb]


@pytest.fixture
def cluster():
    cluster = Cluster(nodes=4, vbuckets=16)
    cluster.create_bucket("b", replicas=1)
    return cluster


class TestSharedDocument:
    def test_active_buffer_and_replica_share_one_object(self, cluster):
        client = cluster.connect()
        client.upsert("b", "k", {"tags": ["a"], "n": 1})
        cluster.run_until_idle()
        active, replica = vbuckets_for(cluster, "k")
        stored = active.hashtable.peek("k").doc
        assert active.change_buffer[-1] is stored
        assert replica.hashtable.peek("k").doc is stored
        assert replica.change_buffer[-1] is stored
        # The flusher persisted it without replacing the entry's object.
        assert active.persisted_seqno >= stored.meta.seqno
        assert not active.hashtable.peek("k").dirty

    def test_lock_cas_is_a_new_object(self, cluster):
        client = cluster.connect()
        client.upsert("b", "k", {"n": 1})
        cluster.run_until_idle()
        active, replica = vbuckets_for(cluster, "k")
        before = active.hashtable.peek("k").doc
        locked = client.get_and_lock("b", "k")
        after = active.hashtable.peek("k").doc
        assert after is not before
        assert after.meta.cas == locked.meta.cas != before.meta.cas
        # The buffered mutation and the replica keep the written CAS.
        assert active.change_buffer[-1] is before
        assert replica.hashtable.peek("k").doc is before


SCANS = {
    "covered": ('SELECT addr FROM b WHERE addr > ""', "IndexScan"),
    "min": ('SELECT MIN(addr) AS addr FROM b WHERE addr > ""',
            "IndexAggregateScan"),
    "max": ('SELECT MAX(addr) AS addr FROM b WHERE addr > ""',
            "IndexAggregateScan"),
}


@pytest.mark.parametrize("scan", sorted(SCANS))
@pytest.mark.parametrize("with_clause", ["", ' WITH {"memory_optimized": true}'],
                         ids=["standard", "memopt"])
def test_covering_scan_rows_are_copies(cluster, with_clause, scan):
    """An index stores encoded keys and decodes fresh values on every
    scan, so a covered row or a pushed-down MIN/MAX shares nothing with
    the stored document or with the index, on either index storage."""
    client = cluster.connect()
    cluster.query("CREATE INDEX by_addr ON b(addr) USING GSI" + with_clause)
    original = {"addr": {"zip": "1", "lines": ["a"]}}
    client.upsert("b", "k", original)
    query, operator = SCANS[scan]
    plan = cluster.query("EXPLAIN " + query).rows[0]
    assert plan["~children"][0]["#operator"] == operator
    rows = cluster.query(query, scan_consistency="request_plus").rows
    assert rows == [original]
    vandalize(rows[0])
    again = cluster.query(query, scan_consistency="request_plus").rows
    assert again == [original]
    cluster.run_until_idle()
    active, replica = vbuckets_for(cluster, "k")
    assert active.hashtable.peek("k").doc.value == original
    assert replica.hashtable.peek("k").doc.value == original
    assert client.get("b", "k").value == original


@pytest.fixture(scope="module")
def shared_cluster():
    """One cluster serves every example; each example writes its own key."""
    cluster = Cluster(nodes=4, vbuckets=16)
    cluster.create_bucket("b", replicas=1)
    return cluster, itertools.count()


class TestCopyBoundaries:
    @settings(max_examples=70, deadline=None)
    @given(value=documents, source=st.sampled_from(SOURCES))
    def test_outside_mutation_never_reaches_stored_state(self, shared_cluster,
                                                         value, source):
        cluster, keys = shared_cluster
        client = cluster.connect()
        key = f"k{next(keys)}"
        expected = deep_copy(value)
        if source == "upsert":
            client.upsert("b", key, value)
            vandalize(value)
        elif source == "multi_upsert":
            client.multi_upsert("b", {key: value}).require_ok()
            vandalize(value)
        else:
            client.upsert("b", key, value)
            cluster.run_until_idle()
            if source == "get":
                handed_out = client.get("b", key).value
            elif source == "multi_get":
                handed_out = client.multi_get("b", [key])[key].value
            elif source == "get_and_lock":
                locked = client.get_and_lock("b", key)
                client.unlock("b", key, locked.meta.cas)
                handed_out = locked.value
            elif source == "lookup_in":
                handed_out = client.lookup_in("b", key, [""])[0]["value"]
            else:
                rows = client.query("SELECT b FROM b USE KEYS $key",
                                    {"key": key}).rows
                handed_out = rows[0]["b"]
            assert handed_out == expected
            vandalize(handed_out)
        cluster.run_until_idle()
        assert client.get("b", key).value == expected
        active, replica = vbuckets_for(cluster, key)
        assert active.hashtable.peek(key).doc.value == expected
        assert replica.hashtable.peek(key).doc.value == expected
