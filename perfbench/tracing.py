"""Spans around the calls into each layer, recorded from outside the
library.

The tracer wraps public entry points of the objects a set-up cluster
exposes: the network's ``call``/``call_fanout``, every node's ``kv_*``
and ``gsi_*`` endpoints, each engine's ``get``/``upsert``/``flush``, the
admission controller's ``acquire``, each ``QueryService.query``, the
benchmark client's calls, and every scheduler pump (re-registered in its
original order).  A span is ``(name, start, end, parent, request)``;
spans stay in memory and are written out when the run ends.  A span's
self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import json
import time
from collections import Counter

PUMP_KINDS = ("flusher", "replicator", "views", "projector", "compactor",
              "cluster-manager")

#: Spans whose layer is not the text before their first dot.
_LAYER_EXCEPTIONS = {
    "bench.check": "bench",
    "drain": "scheduler",
    "durability.wait": "replication",
    "node.kv_replica_apply_batch": "replication",
    "kv.flush": "storage",
    "pump.flusher": "scheduler",
    "pump.replicator": "replication",
    "pump.projector": "gsi",
    "pump.compactor": "storage",
    "pump.views": "views",
    "pump.cluster-manager": "cluster-manager",
}


def layer_of(name: str) -> str:
    if name.startswith("op."):
        return "bench"
    return _LAYER_EXCEPTIONS.get(name) or name.split(".", 1)[0]


class Tracer:
    def __init__(self):
        self.spans: list[tuple | None] = []
        self._stack: list[int] = []
        self._request = 0
        self._end: int | None = None
        self.pump_rounds: Counter = Counter()
        self.pump_useful: Counter = Counter()

    def wrap(self, name: str, fn):
        spans, stack, perf = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            if stack:
                parent = stack[-1]
            else:
                parent = -1
                self._request += 1
            spans.append(None)
            stack.append(index)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                spans[index] = (name, start, end, parent, self._request)

        return traced

    def wrap_pump(self, kind: str, pump):
        traced = self.wrap(f"pump.{kind}", pump)
        rounds, useful = self.pump_rounds, self.pump_useful

        def counted():
            progressed = traced()
            rounds[kind] += 1
            if progressed:
                useful[kind] += 1
            return progressed

        return counted

    def install(self, cluster, client) -> None:
        wrap = self.wrap
        network = cluster.network
        network.call = wrap("transport.call", network.call)
        network.call_fanout = wrap("transport.call_fanout", network.call_fanout)
        if cluster.admission is not None:
            cluster.admission.acquire = wrap("admission.acquire",
                                             cluster.admission.acquire)
        cluster.query = wrap("client.query", cluster.query)
        for method in ("get", "upsert", "insert"):
            setattr(client, method, wrap(f"client.{method}", getattr(client, method)))
        # The observe loop of a durable write has no public handle.
        client._durability.wait = wrap("durability.wait", client._durability.wait)
        for node in cluster.nodes():
            for attr in dir(node):
                if attr.startswith("kv_"):
                    setattr(node, attr, wrap(f"node.{attr}", getattr(node, attr)))
                elif attr.startswith("gsi_"):
                    setattr(node, attr, wrap(f"gsi.{attr[4:]}", getattr(node, attr)))
            if node.query_service is not None:
                node.query_service.query = wrap("n1ql.query",
                                                node.query_service.query)
            for engine in node.engines.values():
                for method in ("get", "upsert", "flush"):
                    setattr(engine, method,
                            wrap(f"kv.{method}", getattr(engine, method)))
        # The scheduler exposes register/unregister but not the callables,
        # so the pumps are read from its registration list.
        scheduler = cluster.scheduler
        pumps = list(scheduler._pumps)
        for name, _pump in pumps:
            scheduler.unregister(name)
        for name, pump in pumps:
            scheduler.register(name, self.wrap_pump(name.split("/", 1)[0], pump))

    def stop(self) -> None:
        """Spans recorded after this point are not analysed."""
        self._end = len(self.spans)

    def analyse(self) -> "Profile":
        spans = self.spans[:self._end]
        children = [0.0] * len(spans)
        for _name, start, end, parent, _request in spans:
            if parent >= 0:
                children[parent] += end - start
        profile = Profile()
        for index, (name, start, end, parent, _request) in enumerate(spans):
            duration = end - start
            self_time = duration - children[index]
            profile.total[name] += duration
            profile.self_time[name] += self_time
            profile.calls[name] += 1
            profile.layer_self[layer_of(name)] += self_time
            if parent < 0:
                profile.root_time += duration
            elif name.startswith("transport."):
                parent_name = spans[parent][0]
                profile.rpcs_by_caller[parent_name] += 1
                profile.rpc_time_by_caller[parent_name] += duration
        return profile

    def dump(self, path) -> None:
        with open(path, "w") as out:
            json.dump({"fields": ["name", "start", "end", "parent", "request"],
                       "spans": self.spans[:self._end]}, out)


class Profile:
    """Per-span-name and per-layer sums over a traced phase (seconds)."""

    def __init__(self):
        self.total: Counter = Counter()
        self.self_time: Counter = Counter()
        self.calls: Counter = Counter()
        self.layer_self: Counter = Counter()
        #: Transport spans (and their time) by the span that issued them.
        self.rpcs_by_caller: Counter = Counter()
        self.rpc_time_by_caller: Counter = Counter()
        self.root_time = 0.0

    def self_of(self, prefix: str, exclude: tuple = ()) -> float:
        """Self time of every span named ``prefix...``."""
        return sum(t for name, t in self.self_time.items()
                   if name.startswith(prefix) and name not in exclude)
