"""The flusher is a cursor on the change buffer: ``persisted_seqno``
means every mutation at or below it is on disk and nothing above it is.

Random upsert/delete/flush sequences run on an active vBucket, and the
same documents reach a replica through ``apply_replicated_batch``.  After
every step both copies must agree with a model of what was applied:
a crash keeps exactly the mutations up to ``persisted_seqno``, the
flusher backlog counts the rest, and an entry is dirty exactly when its
mutation is past ``persisted_seqno``."""

import copy

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kv.engine import KVEngine, VBucketState

VB = 0

keys = st.sampled_from([f"k{i}" for i in range(5)])
steps = st.lists(
    st.one_of(
        st.tuples(st.just("upsert"), keys, st.integers(0, 99)),
        st.tuples(st.just("delete"), keys),
        st.tuples(st.just("flush"), st.sampled_from(["active", "replica"]),
                  st.integers(1, 8)),
        st.tuples(st.just("replicate")),
    ),
    max_size=40,
)


def check(engine, applied):
    """``applied`` lists the mutation documents ``engine`` took, in order."""
    vb = engine.vbuckets[VB]
    persisted = vb.persisted_seqno
    durable = {doc.key: doc for doc in applied if doc.meta.seqno <= persisted}

    disk = copy.deepcopy(engine.disk)
    disk.crash()
    recovered = KVEngine(engine.node_name, engine.bucket_name, disk=disk)
    recovered.create_vbucket(VB, vb.state)
    on_disk = {
        doc.key: (doc.meta.seqno, doc.meta.deleted, doc.value)
        for doc in recovered.vbuckets[VB].store.all_docs(include_deleted=True)
    }
    assert on_disk == {
        key: (doc.meta.seqno, doc.meta.deleted, doc.value)
        for key, doc in durable.items()
    }
    assert engine.pending_writes() == sum(
        doc.meta.seqno > persisted for doc in applied)
    for _key, entry in vb.hashtable.items():
        assert entry.dirty == (entry.doc.meta.seqno > persisted)


@settings(max_examples=200, deadline=None)
@given(steps)
def test_persisted_seqno_is_exact_on_active_and_replica(script):
    active = KVEngine("n1", "b")
    active.create_vbucket(VB)
    replica = KVEngine("n2", "b")
    replica.create_vbucket(VB, VBucketState.REPLICA)
    mutations = []  # every mutation the active applied, in order
    active.mutation_listeners.append(mutations.append)
    shipped = 0  # the replica has taken mutations[:shipped]
    live = set()
    for step in script:
        kind = step[0]
        if kind == "upsert":
            active.upsert(VB, step[1], {"v": step[2]})
            live.add(step[1])
        elif kind == "delete" and step[1] in live:
            active.delete(VB, step[1])
            live.discard(step[1])
        elif kind == "flush":
            engine = active if step[1] == "active" else replica
            engine.flush(max_batch=step[2])
        elif kind == "replicate" and shipped < len(mutations):
            replica.apply_replicated_batch(VB, mutations[shipped:])
            shipped = len(mutations)
        check(active, mutations)
        check(replica, mutations[:shipped])
