"""Ablation -- memory-optimized vs standard GSI storage (section 6.1.1).

Version 4.5's memory-optimized indexes "reside completely in memory,
dramatically reducing dependence on disk ... allow very fast index scans
... and can keep up with higher mutation rates".  This bench compares
the two storage backends directly on mutation-drain and scan cost, plus
the disk-bytes profile.  The scans read their own fixtures, which no
mutation benchmark touches, so both backends scan equal indexes.
"""

import itertools

import pytest
from conftest import print_series

from repro.common.disk import SimulatedDisk
from repro.gsi.storage import make_storage

results = {}
N_PRELOAD = 2000


def _preloaded(kind):
    storage = make_storage(kind, SimulatedDisk(), "bench.index")
    for i in range(N_PRELOAD):
        storage.update_doc(f"d{i:06d}", [[i % 500, f"d{i:06d}"]])
    return storage


@pytest.fixture(scope="module")
def standard():
    return _preloaded("standard")


@pytest.fixture(scope="module")
def memopt():
    return _preloaded("memopt")


@pytest.fixture(scope="module")
def standard_writes():
    return _preloaded("standard")


@pytest.fixture(scope="module")
def memopt_writes():
    return _preloaded("memopt")


_mutation_keys = itertools.count(N_PRELOAD)


@pytest.mark.benchmark(group="memopt-mutations")
def test_standard_mutation_drain(standard_writes, benchmark):
    def op():
        i = next(_mutation_keys)
        standard_writes.update_doc(f"d{i:06d}", [[i % 500, f"d{i:06d}"]])

    benchmark(op)
    results["standard mutation"] = benchmark.stats.stats.mean


@pytest.mark.benchmark(group="memopt-mutations")
def test_memopt_mutation_drain(memopt_writes, benchmark):
    def op():
        i = next(_mutation_keys)
        memopt_writes.update_doc(f"d{i:06d}", [[i % 500, f"d{i:06d}"]])

    benchmark(op)
    results["memopt mutation"] = benchmark.stats.stats.mean


@pytest.mark.benchmark(group="memopt-scans")
def test_standard_scan(standard, benchmark):
    def op():
        return list(standard.scan([100], [120]))

    rows = benchmark(op)
    assert rows
    results["standard scan"] = benchmark.stats.stats.mean


@pytest.mark.benchmark(group="memopt-scans")
def test_memopt_scan(standard, memopt, benchmark):
    def op():
        return list(memopt.scan([100], [120]))

    rows = benchmark(op)
    assert rows
    results["memopt scan"] = benchmark.stats.stats.mean
    _report_and_assert(standard, memopt)


def _report_and_assert(standard, memopt):
    rows = [(name, f"{value * 1e6:.1f} us") for name, value in results.items()]
    rows.append(("standard disk bytes", f"{standard.disk_bytes():,}"))
    rows.append(("memopt disk bytes", f"{memopt.disk_bytes():,}"))
    rows.append(("memopt memory bytes", f"{memopt.memory_bytes():,}"))
    print_series(
        "Ablation: standard (disk B-tree) vs memory-optimized (sorted list) GSI",
        ("metric", "value"),
        rows,
    )
    # The paper's claim is about disk dependence: standard indexes write
    # to disk on every mutation, memopt ones never do.
    assert standard.disk_bytes() > 0
    assert memopt.disk_bytes() == 0
    # Memopt mutations must not be slower than the copy-on-write B-tree
    # (which rewrites a root-to-leaf path per batch).
    assert results["memopt mutation"] < results["standard mutation"]
    # "Very fast index scans": over equal indexes, memopt scans beat the
    # disk B-tree's node reads.
    assert standard.count() == memopt.count() == N_PRELOAD
    assert results["memopt scan"] < results["standard scan"]
