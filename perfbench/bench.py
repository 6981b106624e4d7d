"""Set-up, the closed-loop measured phase, and the correctness checks.

One client issues one operation at a time and waits for its reply (a
closed loop with a single client, no threads).  Flush policy, the same
on every run: after every ``DRAIN_EVERY`` operations, and once at the
end, the benchmark calls ``cluster.run_until_idle()``.  Drain time counts
toward throughput but not toward any operation's latency; waits inside
an operation (a durable write's observe loop, a background fetch of an
evicted value) are part of that operation's latency.
"""

from __future__ import annotations

import bisect
import json
import random
import time
from collections import Counter
from dataclasses import dataclass, field

from calibrate import Reference
from workloads import OperationStream, Workload, key_for, make_record

BUCKET = "ycsb"
#: Drain interval.  The operation right after a drain runs on cold
#: caches and takes several times longer.  At one drain per 100 those
#: operations are exactly 1% of every kind, so p99 sits on the edge
#: between them and the rest and jumps between the two from run to run.
#: At one per 25 they are 4%, and p99 falls well inside their group.
DRAIN_EVERY = 25
#: Latency samples every operation kind must reach in a timed phase;
#: 1000 leaves ten beyond p99.
MIN_SAMPLES = 1000
#: A timed phase stops at this multiple of ``seconds`` even if some kind
#: is short of ``MIN_SAMPLES``.
MAX_STRETCH = 2
#: Operations generated per timer pause.
BLOCK = 2000
LOAD_BATCH = 128
SCAN_STATEMENT = (
    f"SELECT meta().id AS id FROM `{BUCKET}` WHERE meta().id >= $1 LIMIT $2"
)
#: Encoded size of every record and every read-merge-update result (all
#: fields have the same width), the "byte of document data" of
#: write_amp and space_amp.
RECORD_BYTES = len(json.dumps(make_record(random.Random(0)),
                              separators=(",", ":")))
#: Keep at most this many correctness-failure messages.
MAX_ERRORS = 10


class Bench:
    """One set-up cluster plus the ledger of acknowledged values."""

    def __init__(self, repro, workload: Workload, records: list[dict]):
        self.repro = repro
        self.workload = workload
        keys = [key_for(i) for i in range(len(records))]
        start = time.perf_counter()
        cluster = repro.Cluster(nodes=4, vbuckets=64)
        cluster.create_bucket(BUCKET, replicas=1,
                              quota_bytes=workload.quota_bytes)
        client = cluster.connect()
        for lo in range(0, len(keys), LOAD_BATCH):
            hi = lo + LOAD_BATCH
            client.multi_upsert(BUCKET, zip(keys[lo:hi], records[lo:hi])).require_ok()
        cluster.run_until_idle()
        index_start = time.perf_counter()
        if workload.index:
            cluster.query(f"CREATE PRIMARY INDEX ON `{BUCKET}` USING GSI")
            cluster.run_until_idle()
        end = time.perf_counter()
        self.setup_s = end - start
        self.index_build_s = end - index_start
        self.cluster = cluster
        self.client = client
        self.execute_scan = None
        if workload.index:
            prepared = cluster.query(f"PREPARE ycsb_scan FROM {SCAN_STATEMENT}")
            self.execute_scan = f"EXECUTE {prepared.rows[0]['name']}"
        #: key -> last acknowledged value; None once a failed write left
        #: the stored value unknown.
        self.ledger: dict[str, dict | None] = dict(zip(keys, records))
        self.loaded_keys = keys  # sorted: key_for zero-pads
        self.durable_keys: set[str] = set()
        self.errors: list[str] = []
        self.error_count = 0

    # -- correctness -----------------------------------------------------

    def fail(self, message: str) -> None:
        self.error_count += 1
        if len(self.errors) < MAX_ERRORS:
            self.errors.append(message)

    def check(self, kind: str, key: str, arg, result) -> None:
        """Check one acknowledged operation against the ledger."""
        ledger = self.ledger
        if kind == "read":
            expected = ledger[key]
            if expected is not None and result != expected:
                self.fail(f"read {key}: not the last acknowledged value")
        elif kind == "update":
            expected = ledger[key]
            if expected is not None and result != {**expected, **arg}:
                self.fail(f"update {key}: read-merge saw a stale value")
            ledger[key] = result
            if self.workload.durable:
                self.durable_keys.add(key)
        elif kind == "insert":
            ledger[key] = result
        else:
            self._check_scan(key, arg, result)

    def _check_scan(self, start: str, limit: int, rows: list) -> None:
        ids = [row["id"] for row in rows]
        if len(ids) > limit:
            self.fail(f"scan {start}: {len(ids)} rows past LIMIT {limit}")
        if ids and ids[0] < start:
            self.fail(f"scan {start}: returned {ids[0]} below the start key")
        if any(a >= b for a, b in zip(ids, ids[1:])):
            self.fail(f"scan {start}: ids not strictly ascending")
        unknown = [i for i in ids if i not in self.ledger]
        if unknown:
            self.fail(f"scan {start}: unknown id {unknown[0]}")
        # Inserts acknowledged since the last drain may not be indexed
        # yet (not_bounded), but every loaded key was indexed in set-up.
        loaded = self.loaded_keys
        lo = bisect.bisect_left(loaded, start)
        hi = (len(loaded) if len(ids) < limit
              else bisect.bisect_right(loaded, ids[-1]))
        missing = set(loaded[lo:hi]).difference(ids)
        if missing:
            self.fail(f"scan {start}: loaded key {min(missing)} missing")

    def note_failure(self, kind: str, key: str) -> None:
        """A failed write may or may not have been applied."""
        if kind in ("update", "insert"):
            self.ledger[key] = None

    def crash_check(self, seed: int) -> None:
        """Drop one data node's unsynced bytes, restart it from its
        files, and read back every ``persist_to``-acknowledged update."""
        cluster = self.cluster
        nodes = cluster.nodes()
        victim = nodes[seed % len(nodes)]
        try:
            cluster.crash_node(victim.name)
            victim.disk.crash()
            cluster.restart_node(victim.name)
            for key in sorted(self.durable_keys):
                expected = self.ledger[key]
                if expected is None:
                    continue
                if self.client.get(BUCKET, key).value != expected:
                    self.fail(f"after restart of {victim.name}: durable "
                              f"update of {key} lost")
        except self.repro.ReproError as error:
            self.fail(f"crash check on {victim.name}: {error!r}")

    # -- metrics sources ----------------------------------------------------

    def snapshot(self) -> "Snapshot":
        """Cumulative counters the per-layer metrics are deltas of."""
        cluster = self.cluster
        snap = Snapshot()
        for node in cluster.nodes():
            for name, counter in node.metrics.counters.items():
                snap.counters[name] += counter.value
            for name, histogram in node.metrics.histograms.items():
                snap.hist_count[name] += histogram.count
                snap.hist_total[name] += histogram.total
            snap.disk.update(node.disk.stats.snapshot())
            snap.used_bytes += node.disk.used_bytes()
        if cluster.admission is not None:
            for name, counter in cluster.admission.metrics.counters.items():
                snap.counters[name] += counter.value
        for (_dst, method), calls in cluster.network.calls.items():
            snap.rpcs[method] += calls
        return snap


@dataclass
class Snapshot:
    counters: Counter = field(default_factory=Counter)
    hist_count: Counter = field(default_factory=Counter)
    hist_total: Counter = field(default_factory=Counter)
    disk: Counter = field(default_factory=Counter)
    rpcs: Counter = field(default_factory=Counter)
    #: A level, not a running total: a difference keeps the later value.
    used_bytes: int = 0

    def __sub__(self, other: "Snapshot") -> "Snapshot":
        return Snapshot(self.counters - other.counters,
                        self.hist_count - other.hist_count,
                        self.hist_total - other.hist_total,
                        self.disk - other.disk, self.rpcs - other.rpcs,
                        self.used_bytes)


@dataclass
class Phase:
    """What one measured phase did."""

    latencies: dict[str, list[float]]
    attempted: int
    failed: int
    #: Wall seconds of the phase, drains included, generation excluded.
    elapsed: float
    #: Max over drain points of the deepest per-node write queue; only
    #: sampled when traced.
    queue_depth_max: int
    delta: Snapshot
    #: Seconds the machine-speed reference took at the start and after
    #: each drain, and the measured time at which each was taken.
    reference: list[float]
    marks: list[float]
    #: Per kind, the index of the reference sample that preceded each
    #: latency sample.
    windows: dict[str, list[int]]

    @property
    def completed(self) -> int:
        return self.attempted - self.failed

    @property
    def throughput(self) -> float:
        return self.completed / self.elapsed


def run_phase(bench: Bench, stream: OperationStream, reference: Reference,
              *, seconds: float | None, ops: int | None, tracer=None) -> Phase:
    """Run exactly ``ops`` operations, or run until ``seconds`` of
    measured time have passed and every operation kind has
    ``MIN_SAMPLES`` latency samples (at most ``MAX_STRETCH`` times
    ``seconds``).  Drains every ``DRAIN_EVERY`` operations and samples
    the machine-speed reference at the start and after each drain."""
    cluster, client = bench.cluster, bench.client
    durability = ({"replicate_to": 1, "persist_to": 1}
                  if bench.workload.durable else {})

    def read(key, _):
        return client.get(BUCKET, key).value

    def update(key, fields):
        value = client.get(BUCKET, key).value
        value.update(fields)
        client.upsert(BUCKET, key, value, **durability)
        return value

    def insert(key, record):
        client.insert(BUCKET, key, record)
        return record

    def scan(key, limit):
        return cluster.query(bench.execute_scan, {"1": key, "2": limit}).rows

    run = {"read": read, "update": update, "insert": insert, "scan": scan}
    drain = cluster.run_until_idle
    check = bench.check
    probe = None
    if tracer is not None:
        tracer.install(cluster, client)
        run = {kind: tracer.wrap(f"op.{kind}", fn) for kind, fn in run.items()}
        drain = tracer.wrap("drain", drain)
        check = tracer.wrap("bench.check", check)
        engines = [engine for node in cluster.nodes()
                   for engine in node.engines.values()]
        probe = lambda: max(engine.pending_writes() for engine in engines)
    failure = bench.repro.ReproError
    latencies = {kind: [] for kind, _ in bench.workload.mix}
    windows = {kind: [] for kind in latencies}
    samples = list(latencies.values())
    queue_depth_max = 0
    limit = ops if ops is not None else float("inf")
    perf = time.perf_counter
    before = bench.snapshot()
    done = failed = 0
    reference_times, marks = [reference.sample()], [0.0]
    paused = 0.0
    start = perf()

    def finished() -> bool:
        measured = perf() - start - paused
        return measured >= seconds and (
            min(map(len, samples)) >= MIN_SAMPLES
            or measured >= seconds * MAX_STRETCH)

    while done < limit:
        pause_start = perf()
        block = stream.take(int(min(BLOCK, limit - done)))
        paused += perf() - pause_start
        for kind, key, arg in block:
            began = perf()
            try:
                result = run[kind](key, arg)
            except failure:
                failed += 1
                bench.note_failure(kind, key)
            else:
                latencies[kind].append(perf() - began)
                windows[kind].append(len(marks) - 1)
                check(kind, key, arg, result)
            done += 1
            if done % DRAIN_EVERY == 0:
                if probe is not None:
                    queue_depth_max = max(queue_depth_max, probe())
                drain()
                pause_start = perf()
                marks.append(pause_start - start - paused)
                reference_times.append(reference.sample())
                paused += perf() - pause_start
                if seconds is not None and finished():
                    limit = done
                    break
    if probe is not None:
        queue_depth_max = max(queue_depth_max, probe())
    drain()
    elapsed = perf() - start - paused
    if tracer is not None:
        tracer.stop()
    return Phase(latencies, done, failed, elapsed, queue_depth_max,
                 bench.snapshot() - before, reference_times, marks, windows)
