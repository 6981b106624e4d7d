"""Ablation -- node-grouped batching of bulk KV reads (section 4.1).

The smart client hashes every key and routes it straight to its
vBucket's active node; a naive bulk read therefore pays one network
round trip per key.  Grouping the keys by destination node and issuing
one ``kv_multi_get`` RPC per node turns N round trips into (at most)
one per data node -- the pipelining every production SDK does.  This
bench quantifies the gap on a 4-node cluster, both in round trips
(``Network.calls``) and in charged virtual network latency
(``Network.latency_charged``), and in wall-clock service time.
"""

import pytest
from conftest import print_series

from repro import Cluster

N_KEYS = 200
LATENCY = 0.0005  # 0.5 ms virtual LAN latency per RPC


@pytest.fixture(scope="module")
def cluster():
    cluster = Cluster(nodes=4, vbuckets=64, network_latency=LATENCY)
    cluster.create_bucket("b")
    client = cluster.connect()
    client.multi_upsert(
        "b", {f"user{i:05d}": {"name": f"name{i:05d}", "i": i}
              for i in range(N_KEYS)}
    )
    cluster.run_until_idle()
    return cluster


results = {}


@pytest.mark.benchmark(group="bulk-read")
def test_per_key_bulk_read(cluster, benchmark):
    client = cluster.connect()
    keys = [f"user{i:05d}" for i in range(N_KEYS)]

    def op():
        # The unbatched baseline: one routed ``get`` round trip per key.
        return {key: client.get("b", key) for key in keys}

    found = benchmark(op)
    assert len(found) == N_KEYS
    cluster.network.reset_counters()
    op()
    results["per_key"] = {
        "mean_s": benchmark.stats.stats.mean,
        "round_trips": sum(
            n for (_dst, m), n in cluster.network.calls.items()
            if m == "kv_get"
        ),
        "latency_charged": cluster.network.latency_charged,
    }


@pytest.mark.benchmark(group="bulk-read")
def test_batched_bulk_read(cluster, benchmark):
    client = cluster.connect()
    keys = [f"user{i:05d}" for i in range(N_KEYS)]

    def op():
        return client.multi_get("b", keys)

    found = benchmark(op)
    assert len(found) == N_KEYS
    cluster.network.reset_counters()
    client.multi_get("b", keys)
    results["batched"] = {
        "mean_s": benchmark.stats.stats.mean,
        "round_trips": sum(
            n for (_dst, m), n in cluster.network.calls.items()
            if m == "kv_multi_get"
        ),
        "latency_charged": cluster.network.latency_charged,
    }
    _report_and_assert()


def _report_and_assert():
    per_key, batched = results["per_key"], results["batched"]
    print_series(
        f"Batching ablation -- bulk read of {N_KEYS} keys, 4-node cluster",
        ("path", "round trips", "latency charged (s)", "mean service (s)"),
        [
            ("per-key", per_key["round_trips"],
             f"{per_key['latency_charged']:.4f}",
             f"{per_key['mean_s']:.6f}"),
            ("batched", batched["round_trips"],
             f"{batched['latency_charged']:.4f}",
             f"{batched['mean_s']:.6f}"),
        ],
    )
    # One routed round trip per key vs one batch RPC per involved node.
    assert per_key["round_trips"] == N_KEYS
    assert batched["round_trips"] <= 4
    # The acceptance bar: batching charges strictly less virtual network
    # latency for the same key set.
    assert batched["latency_charged"] < per_key["latency_charged"]
