"""The repository benchmark: one workload, one seed, one JSON result.

    python3 perfbench/run.py --workload kv-mixed --seed 1 --seconds 20 --trace 0

Builds the cluster from ``src/`` of the checkout this file sits in, sets
it up ``SETUPS`` times (``setup_s`` is the median), runs the closed-loop
measured phase, checks every acknowledged result, and prints a report
whose last line is ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` reports the
per-layer metrics of a traced phase and writes its spans under
``.bench_out/``.  The exit code is 0 only when every check passed.
See README.md in this directory for the workloads and every metric.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import sys
from pathlib import Path

from calibrate import REFERENCE_S, Reference, local_slowdowns, slowdown
from bench import RECORD_BYTES, Bench, run_phase
from tracing import PUMP_KINDS, Tracer
from workloads import WORKLOADS, OperationStream

ROOT = Path(__file__).resolve().parent.parent
#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3
#: RPC methods reported one by one under ``transport.rpcs.<method>``.
RPC_METHODS = ("kv_get", "kv_upsert", "kv_insert", "kv_observe",
               "kv_replica_apply_batch", "gsi_scan", "gsi_apply")
#: A traced phase must attribute at least this share of its wall time to
#: spans; the rest is the benchmark's own loop.
MIN_TRACE_COVERAGE = 0.9
#: End-to-end latency metrics: the workload's read operation (a KV get,
#: or the N1QL range scan on n1ql-scan) and its write operation (a
#: read-merge-update, or the insert on n1ql-scan).
LATENCY_ROLES = (("read", ("read", "scan")), ("update", ("update", "insert")))


def load_repro():
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no repro source tree at {src}")
    sys.path.insert(0, str(src))
    import repro
    return repro


def percentile(ordered: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return ordered[max(0, math.ceil(len(ordered) * q / 100) - 1)]


def scaled_throughput(phase) -> float:
    """Completed operations per second, each stretch of the phase
    between two reference samples divided by the slowdown around it."""
    local = local_slowdowns(phase.reference)
    bounds = phase.marks + [phase.elapsed]
    return phase.completed / sum((bounds[i + 1] - bounds[i]) / local[i]
                                 for i in range(len(local)))


def end_to_end(phase, bench, setup_times, slow) -> dict:
    """Times are divided, and rates multiplied, by the machine slowdown
    (see calibrate.py): in the phase by the slowdown around each
    operation's window, in set-up by the phase's median ``slow``."""
    local = local_slowdowns(phase.reference)
    metrics = {"setup_s": (statistics.median(setup_times) / slow, "s"),
               "throughput_ops_s": (scaled_throughput(phase), "ops/s")}
    for role, kinds in LATENCY_ROLES:
        samples = sorted(latency / local[window] for kind in kinds
                         for latency, window in zip(phase.latencies.get(kind, ()),
                                                    phase.windows.get(kind, ())))
        metrics[f"{role}_p50_us"] = (percentile(samples, 50) * 1e6, "us")
        metrics[f"{role}_p99_us"] = (percentile(samples, 99) * 1e6, "us")
    writes = sum(len(phase.latencies.get(kind, ())) for kind in ("update", "insert"))
    metrics["write_amp"] = (phase.delta.disk["bytes_written"]
                            / (writes * RECORD_BYTES), "ratio")
    metrics["space_amp"] = (phase.delta.used_bytes
                            / (len(bench.ledger) * RECORD_BYTES), "ratio")
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    return metrics


def per_layer(phase, profile, tracer, untraced, index_times, slow) -> dict:
    """Times and rates are scaled by ``slow`` as in :func:`end_to_end`."""
    ops = phase.completed
    d, rpcs, disk = phase.delta.counters, phase.delta.rpcs, phase.delta.disk
    hist_total, hist_count = phase.delta.hist_total, phase.delta.hist_count
    total, self_time, calls = profile.total, profile.self_time, profile.calls

    def us(seconds: float):
        return (seconds * 1e6 / ops / slow, "us/op")

    def count(value):
        return (value, "count")

    def ratio(num, den):
        return (num / den if den else 0.0, "ratio")

    m = {}
    m["client.self_us"] = us(profile.self_of("client."))
    client_rpcs = sum(n for caller, n in profile.rpcs_by_caller.items()
                      if caller.startswith("client.") or caller == "durability.wait")
    m["client.rpcs_per_op"] = (client_rpcs / ops, "1/op")
    m["admission.acquire_us"] = us(self_time["admission.acquire"])
    m["admission.requests"] = count(d["admission.requests"])
    m["admission.shed"] = count(sum(d[f"admission.{kind}.shed"] for kind in
                                    ("tenant", "kv", "n1ql", "fabric")))
    m["admission.backoffs"] = count(d["admission.backoffs"])
    m["transport.self_us"] = us(profile.self_of("transport."))
    m["transport.rpcs"] = count(sum(rpcs.values()))
    for method in RPC_METHODS:
        m[f"transport.rpcs.{method}"] = count(rpcs[method])
    m["transport.latency_waves"] = count(calls["transport.call"]
                                         + calls["transport.call_fanout"])
    m["node.dispatch_us"] = us(profile.self_of(
        "node.", exclude=("node.kv_replica_apply_batch",)))
    m["kv.get_us"] = us(self_time["kv.get"])
    m["kv.upsert_us"] = us(self_time["kv.upsert"])
    gets = d["kv.gets"]
    m["kv.resident_ratio"] = (1 - d["kv.bg_fetches"] / gets if gets else 1.0, "ratio")
    for name in ("bg_fetches", "evictions", "tmpfails"):
        m[f"kv.{name}"] = count(d[f"kv.{name}"])
    m["kv.queue_depth_max"] = count(phase.queue_depth_max)
    m["scheduler.drain_us"] = us(total["drain"])
    m["scheduler.rounds"] = count(tracer.pump_rounds["cluster-manager"])
    for kind in PUMP_KINDS:
        m[f"pump.{kind}.busy_us"] = us(total[f"pump.{kind}"])
        m[f"pump.{kind}.useful_ratio"] = ratio(tracer.pump_useful[kind],
                                               tracer.pump_rounds[kind])
    m["storage.flush_us"] = us(total["kv.flush"])
    m["storage.docs_flushed"] = count(d["kv.flushed"])
    m["storage.bytes_written"] = count(disk["bytes_written"])
    m["storage.writes"] = count(disk["writes"])
    m["storage.fsyncs"] = count(disk["syncs"])
    m["storage.bytes_read"] = count(disk["bytes_read"])
    m["storage.reads"] = count(disk["reads"])
    m["storage.compact_us"] = us(total["pump.compactor"])
    m["storage.compactions"] = count(d["kv.compactions"])
    m["replication.apply_us"] = us(total["node.kv_replica_apply_batch"])
    m["replication.docs"] = count(d["kv.replica_mutations"])
    m["replication.batches"] = count(rpcs["kv_replica_apply_batch"])
    m["durability.wait_us"] = us(total["durability.wait"])
    m["durability.observe_rpcs"] = count(rpcs["kv_observe"])
    m["dcp.in_memory"] = count(d["dcp.stream_in_memory"])
    m["dcp.backfills"] = count(d["dcp.stream_backfill"])
    m["dcp.items_streamed"] = count(d["kv.replica_mutations"] + d["gsi.projected"]
                                    + d["views.mutations_indexed"])
    scan_rows = d["gsi.scan_rows"] + d["gsi.scan_page_rows"]
    m["gsi.scan_us"] = us(total["gsi.scan"] + total["gsi.scan_page"])
    m["gsi.scans"] = count(d["gsi.scans"] + d["gsi.scan_pages"])
    m["gsi.scan_rows"] = count(scan_rows)
    m["gsi.rows_examined_per_returned"] = ratio(scan_rows, d["n1ql.result_rows"])
    m["gsi.project_us"] = us(total["pump.projector"])
    m["gsi.projected"] = count(d["gsi.projected"])
    m["gsi.build_s"] = (statistics.median(index_times) / slow, "s")
    exec_s = hist_total["n1ql.exec_seconds"]
    m["n1ql.parse_us"] = us(hist_total["n1ql.parse_seconds"])
    m["n1ql.plan_us"] = us(hist_total["n1ql.plan_seconds"])
    m["n1ql.exec_us"] = us(exec_s)
    m["n1ql.exec_self_us"] = us(exec_s - profile.rpc_time_by_caller["n1ql.query"])
    selects = d["n1ql.selects"]
    m["n1ql.plan_cache_hit_ratio"] = (
        1 - hist_count["n1ql.plan_seconds"] / selects if selects else 0.0, "ratio")
    m["n1ql.compiles"] = count(d["n1ql.compile.count"])
    m["n1ql.result_rows"] = count(d["n1ql.result_rows"])
    m["trace.coverage"] = ratio(profile.root_time, phase.elapsed)
    m["trace.bench_us"] = us(profile.layer_self["bench"])
    traced_ops_s, untraced_ops_s = scaled_throughput(phase), scaled_throughput(untraced)
    m["trace.traced_ops_s"] = (traced_ops_s, "ops/s")
    m["trace.untraced_ops_s"] = (untraced_ops_s, "ops/s")
    m["trace.overhead"] = ratio(untraced_ops_s - traced_ops_s, traced_ops_s)
    return m


def print_report(title: str, metrics: dict) -> None:
    print(f"== {title}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:14.4f} {unit}")


def print_layers(profile, phase) -> None:
    print("== self time by layer (traced phase)")
    for layer, seconds in profile.layer_self.most_common():
        print(f"  {layer:20s} {seconds * 1e6 / phase.completed:12.1f} us/op"
              f"  {seconds / phase.elapsed:7.1%} of wall")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measured seconds per phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ops", type=int, default=None,
                        help="run exactly this many operations instead of "
                             "--seconds (deterministic counts)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    repro = load_repro()
    workload = WORKLOADS[args.workload]
    records = OperationStream(workload, args.seed).records
    budget = {"seconds": None if args.ops else args.seconds, "ops": args.ops}
    setup_times, index_times, checked = [], [], []
    reference = Reference()
    untraced = None
    for index in range(SETUPS):
        gc.collect()
        bench = Bench(repro, workload, records)
        setup_times.append(bench.setup_s)
        index_times.append(bench.index_build_s)
        if args.trace and index == SETUPS - 2:
            # The untraced twin of the traced phase, for its overhead.
            gc.collect()
            untraced = run_phase(bench, OperationStream(workload, args.seed),
                                 reference, **budget)
            checked.append(bench)
    gc.collect()
    tracer = Tracer() if args.trace else None
    phase = run_phase(bench, OperationStream(workload, args.seed), reference,
                      tracer=tracer, **budget)
    checked.append(bench)
    slow = slowdown(phase.reference)
    if args.trace:
        profile = tracer.analyse()
        metrics = per_layer(phase, profile, tracer, untraced, index_times, slow)
    else:
        metrics = end_to_end(phase, bench, setup_times, slow)
    if workload.durable:
        bench.crash_check(args.seed)
    errors = [message for b in checked for message in b.errors]
    error_count = sum(b.error_count for b in checked)
    if args.trace:
        coverage = metrics["trace.coverage"][0]
        if coverage < MIN_TRACE_COVERAGE:
            error_count += 1
            errors.append(f"spans cover only {coverage:.1%} of traced wall time")
        out = ROOT / ".bench_out"
        out.mkdir(exist_ok=True)
        tracer.dump(out / f"trace-{workload.name}-seed{args.seed}.json")
        print_layers(profile, phase)

    print(f"== set-up seconds {[round(t, 3) for t in setup_times]}")
    print(f"== machine slowdown {slow:.4f} (reference work "
          f"{statistics.median(phase.reference) * 1e3:.3f} ms, nominal "
          f"{REFERENCE_S * 1e3:.3f} ms); raw throughput "
          f"{phase.throughput:.2f} ops/s over {phase.elapsed:.2f} s")
    samples = {kind: len(v) for kind, v in phase.latencies.items()}
    print_report(f"{workload.name} seed={args.seed} trace={args.trace} "
                 f"ops={phase.attempted} failed={phase.failed} "
                 f"error_rate={phase.failed / phase.attempted:.6f} "
                 f"samples={samples}", metrics)
    for message in errors:
        print(f"CHECK FAILED: {message}")
    if error_count > len(errors):
        print(f"CHECK FAILED: ... {error_count - len(errors)} more")
    result = {
        "correct": error_count == 0,
        "attempted": phase.attempted,
        "failed": phase.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if error_count == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
