"""Query pipeline properties across its batching and scatter-gather.

The pipeline batches work in two places: bulk document fetches of up
to FETCH_BATCH rows and GSI scan pages of up to SCAN_PAGE_SIZE rows.
Both must be observationally identical to a row-at-a-time pipeline,
and the parallel scatter-gather scan over a partitioned index must be
identical to the serial fan-out it replaced -- same rows, same order,
same ``n1ql.*`` operator metrics -- across the whole operator
vocabulary.  Also pinned here: fetch de-duplication within and across
FETCH_BATCH chunks, failure propagation from a down index node, and
the LIMIT short circuit at the merge frontier.
"""

import pytest

from repro import Cluster
from repro.common.errors import NodeDownError
from repro.gsi import manager as gsi_manager
from repro.n1ql import operators

#: Per-row operator counters that must match between pipeline modes.  Compile
#: and plan-cache counters are excluded on purpose: the second execution
#: of a query text reuses the cached, already-compiled plan.
FLOW_METRICS = [
    "n1ql.keyscan",
    "n1ql.indexscan",
    "n1ql.primaryscan",
    "n1ql.viewscan",
    "n1ql.aggscan",
    "n1ql.fetch",
    "n1ql.sorted_rows",
    "n1ql.result_rows",
]


def flow_counters(cluster) -> dict[str, int]:
    totals = dict.fromkeys(FLOW_METRICS, 0)
    for node in cluster.manager.nodes.values():
        for name in FLOW_METRICS:
            totals[name] += node.metrics.counter_value(name)
    return totals


def run_mode(cluster, monkeypatch, parallel: bool, text: str, params=None,
             batched: bool = True):
    monkeypatch.setattr(gsi_manager, "PARALLEL_SCAN_ENABLED", parallel)
    if not batched:
        monkeypatch.setattr(operators, "FETCH_BATCH", 1)
        monkeypatch.setattr(gsi_manager, "SCAN_PAGE_SIZE", 1)
    before = flow_counters(cluster)
    rows = cluster.query(text, params,
                         scan_consistency="request_plus").rows
    after = flow_counters(cluster)
    return rows, {name: after[name] - before[name] for name in FLOW_METRICS}


@pytest.fixture(scope="module")
def cluster():
    cluster = Cluster(nodes=4, vbuckets=16)
    cluster.create_bucket("profiles")
    cluster.create_bucket("orders")
    client = cluster.connect()
    for i in range(150):
        client.upsert("profiles", f"u{i:03d}", {
            "name": f"user{i:03d}",
            "age": 20 + i % 13,
            "city": ["SF", "NY", "LA"][i % 3],
            "order_ids": [f"o{i:03d}a", f"o{i:03d}b"],
            "categories": [f"c{i % 4}", "all"],
        })
        client.upsert("orders", f"o{i:03d}a", {"total": 10 * i})
        client.upsert("orders", f"o{i:03d}b", {"total": 5 * i})
    cluster.run_until_idle()
    cluster.query('CREATE INDEX by_age ON profiles(age, name) USING GSI '
                  'WITH {"num_partitions": 3}')
    cluster.query("CREATE PRIMARY INDEX ON profiles USING GSI")
    cluster.query("CREATE PRIMARY INDEX ON orders USING GSI")
    return cluster


CORPUS = [
    'SELECT p.name FROM profiles p USE KEYS ["u001", "u002", "u001"]',
    "SELECT name, age FROM profiles p WHERE p.age >= 22 AND p.age < 26",
    "SELECT p.city FROM profiles p WHERE p.age = 24",
    "SELECT name FROM profiles p WHERE p.city = 'SF'",
    # ORDER BY + LIMIT + OFFSET over the partitioned index.
    "SELECT name, age FROM profiles p WHERE p.age >= 20 "
    "ORDER BY p.name DESC LIMIT 7 OFFSET 3",
    # Sort elimination + LIMIT pushdown: index order, parallel merge.
    "SELECT age, name FROM profiles p WHERE p.age > 21 "
    "ORDER BY p.age LIMIT 10",
    "SELECT RAW p.age FROM profiles p WHERE p.age BETWEEN 21 AND 23",
    "SELECT DISTINCT city FROM profiles p WHERE p.age >= 20",
    "SELECT city, COUNT(*) AS n, AVG(p.age) AS mean FROM profiles p "
    "WHERE p.city != '' GROUP BY city",
    # Partial-aggregate pushdown shape (IndexAggregateScan both modes).
    "SELECT age, COUNT(*) AS n, MIN(p.name) AS lo FROM profiles p "
    "WHERE p.age >= 21 GROUP BY age",
    "SELECT COUNT(*) AS n FROM profiles p WHERE p.age > 999",
    "SELECT p.name, o.total FROM profiles p "
    "JOIN orders o ON KEYS p.order_ids WHERE p.age = 23",
    "SELECT p.name, os FROM profiles p "
    "NEST orders os ON KEYS p.order_ids WHERE p.age = 21",
    "SELECT p.name, c FROM profiles p UNNEST p.categories AS c "
    "WHERE p.age = 22",
    "SELECT 1+1 AS two",
    "SELECT s.name FROM system:indexes s",
    "SELECT meta(p).id AS id FROM profiles p WHERE meta(p).id >= 'u140'",
]


@pytest.mark.parametrize("text", CORPUS)
def test_batch_matches_row_pipeline(cluster, monkeypatch, text):
    """Bulk fetch chunks and multi-row scan pages yield the same stream
    as fetching one row and paging one index entry at a time: same
    rows, same order, same operator metrics."""
    rows_batch, delta_batch = run_mode(cluster, monkeypatch, True, text)
    rows_row, delta_row = run_mode(cluster, monkeypatch, True, text,
                                   batched=False)
    assert rows_batch == rows_row
    assert delta_batch == delta_row


@pytest.mark.parametrize("text", CORPUS)
def test_serial_scan_ablation_matches(cluster, monkeypatch, text):
    """PARALLEL_SCAN_ENABLED=False (concat-free serial merge) yields the
    identical stream: same rows, same order, same operator metrics."""
    rows_parallel, delta_parallel = run_mode(cluster, monkeypatch, True, text)
    rows_serial, delta_serial = run_mode(cluster, monkeypatch, False, text)
    assert rows_parallel == rows_serial
    assert delta_parallel == delta_serial


@pytest.mark.parametrize("chunked", [True, False])
def test_duplicate_keys_across_fetch_chunks(monkeypatch, chunked):
    """A key repeated in the same FETCH_BATCH chunk or past a chunk
    boundary is fetched once, and the duplicate row gets its own copy
    of the document."""
    cluster = Cluster(nodes=2, vbuckets=8)
    cluster.create_bucket("b")
    client = cluster.connect()
    for i in range(8):
        client.upsert("b", f"k{i}", {"v": i, "tags": ["a", "b"]})
    cluster.run_until_idle()

    if chunked:
        monkeypatch.setattr(operators, "FETCH_BATCH", 4)
    fetched: list[list[str]] = []
    original = operators.ExecutionContext.fetch_docs

    def spying_fetch_docs(self, bucket, keys):
        fetched.append(list(keys))
        return original(self, bucket, keys)

    monkeypatch.setattr(operators.ExecutionContext, "fetch_docs",
                        spying_fetch_docs)

    keys = ["k0", "k1", "k2", "k3", "k4", "k5", "k0", "k2"]
    rows = cluster.query(
        "SELECT x FROM b x USE KEYS ["
        + ", ".join(f'"{k}"' for k in keys) + "]").rows
    assert [r["x"]["v"] for r in rows] == [0, 1, 2, 3, 4, 5, 0, 2]
    # Duplicates are equal but independent objects: mutating one row
    # must not reach through to the other.
    assert rows[0]["x"] == rows[6]["x"] and rows[0]["x"] is not rows[6]["x"]
    assert rows[2]["x"] == rows[7]["x"] and rows[2]["x"] is not rows[7]["x"]
    # One fetch per unique key, even across chunk boundaries.
    requested = [key for chunk in fetched for key in chunk]
    assert sorted(requested) == sorted(set(keys))
    # The chunked case really spans a boundary; the other fits one chunk.
    assert len(fetched) == (2 if chunked else 1)


def _partitioned_cluster():
    cluster = Cluster(
        nodes=[("d1", {"data"}), ("q1", {"query"}),
               ("i1", {"index"}), ("i2", {"index"}), ("i3", {"index"})],
        vbuckets=8,
    )
    cluster.create_bucket("b", replicas=0)
    client = cluster.connect()
    for i in range(90):
        client.upsert("b", f"k{i:03d}", {"v": i % 9, "w": i})
    cluster.run_until_idle()
    cluster.query('CREATE INDEX by_v ON b(v, w) USING GSI '
                  'WITH {"num_partitions": 3}')
    return cluster


@pytest.mark.parametrize("parallel", [True, False])
def test_index_node_down_propagates(monkeypatch, parallel):
    """A down partition must fail the scan -- and the pushed aggregate
    scan -- in both scan modes, never silently drop its rows."""
    cluster = _partitioned_cluster()
    cluster.network.set_down("i2")
    monkeypatch.setattr(gsi_manager, "PARALLEL_SCAN_ENABLED", parallel)
    with pytest.raises(NodeDownError):
        cluster.query("SELECT v, w FROM b x WHERE x.v >= 0")
    with pytest.raises(NodeDownError):
        cluster.query("SELECT v, COUNT(*) AS n FROM b x WHERE x.v >= 0 "
                      "GROUP BY v")


def test_limit_short_circuit_bounds_partition_drain(monkeypatch):
    """With LIMIT k pushed into a parallel scatter-gather scan, each
    partition drains at most k + one page of rows: the merge frontier
    stops pulling once k rows are out."""
    monkeypatch.setattr(gsi_manager, "SCAN_PAGE_SIZE", 8)
    cluster = _partitioned_cluster()
    limit = 5
    index_nodes = ["i1", "i2", "i3"]
    before = {n: cluster.node(n).metrics.counter_value("gsi.scan_page_rows")
              for n in index_nodes}
    rows = cluster.query(
        f"SELECT v, w FROM b x WHERE x.v >= 0 ORDER BY x.v LIMIT {limit}",
        scan_consistency="request_plus").rows
    assert len(rows) == limit
    for name in index_nodes:
        drained = (cluster.node(name).metrics.counter_value(
            "gsi.scan_page_rows") - before[name])
        assert drained <= limit + gsi_manager.SCAN_PAGE_SIZE
