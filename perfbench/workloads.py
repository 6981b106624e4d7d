"""The benchmark's workloads and their seeded operation streams.

Everything a run feeds the system is generated here from ``--seed``
before any timer starts: the loaded records and every operation with its
key and value.  The generators live in the benchmark rather than in
``repro.ycsb`` on purpose: the inputs must stay identical between the
two commits a performance claim compares, whatever a change does to the
library's own YCSB code.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

#: YCSB's default record: 10 fields of 100 characters.  Every field has
#: the same width, so every record and every read-merge-update result
#: encodes to the same number of bytes.
FIELD_COUNT = 10
FIELD_LENGTH = 100
#: Upper bound on a YCSB-E scan's LIMIT.
MAX_SCAN_LENGTH = 100


@dataclass(frozen=True)
class Workload:
    name: str
    #: Records loaded before the measured phase.
    records: int
    #: ``(kind, share)`` pairs; kinds are read, update, scan and insert.
    mix: tuple
    #: Key popularity of reads and updates: "zipfian" or "uniform".
    distribution: str
    #: Bucket memory quota per node; None keeps every value resident.
    quota_bytes: int | None = None
    #: Updates wait for ``replicate_to=1, persist_to=1``.
    durable: bool = False
    #: Build the primary GSI index and prepare the scan statement.
    index: bool = False


WORKLOADS = {
    # YCSB-A, the paper's Fig. 15: the KV front path plus the whole
    # background write path (DCP, replication, flusher, compaction).
    "kv-mixed": Workload(
        "kv-mixed", records=2000,
        mix=(("read", 0.5), ("update", 0.5)), distribution="zipfian"),
    # YCSB-E, the paper's Fig. 16: N1QL and the GSI scan; KV and storage
    # do little, so it is the bypass workload for KV/storage changes.
    "n1ql-scan": Workload(
        "n1ql-scan", records=1000,
        mix=(("scan", 0.95), ("insert", 0.05)), distribution="uniform",
        index=True),
    # Disk greater than memory with durable updates: cache misses fetch
    # from couchstore and updates wait on the flusher and replicator,
    # both in the foreground.
    "kv-dgm-durable": Workload(
        "kv-dgm-durable", records=2000,
        mix=(("read", 0.95), ("update", 0.05)), distribution="zipfian",
        quota_bytes=1_000_000, durable=True),
}


def key_for(index: int) -> str:
    """Zero-padded keys sort in index order, which YCSB-E's range scans
    need (YCSB's ``insertorder=ordered``)."""
    return f"user{index:019d}"


def make_field(rng: random.Random) -> str:
    return rng.randbytes(FIELD_LENGTH // 2).hex()


def make_record(rng: random.Random) -> dict:
    return {f"field{i}": make_field(rng) for i in range(FIELD_COUNT)}


def _fnv_hash_64(value: int) -> int:
    hashed = 0xCBF29CE484222325
    for _ in range(8):
        hashed = (hashed ^ (value & 0xFF)) * 0x100000001B3 & 0xFFFFFFFFFFFFFFFF
        value >>= 8
    return hashed


class ScrambledZipfian:
    """YCSB's scrambled zipfian over ``[0, items)`` (theta 0.99, Gray et
    al.'s method), with popularity spread over the key space by FNV."""

    THETA = 0.99

    def __init__(self, items: int, rng: random.Random):
        theta = self.THETA
        self.items = items
        self.rng = rng
        self.zeta_n = sum(1.0 / i ** theta for i in range(1, items + 1))
        self.alpha = 1.0 / (1.0 - theta)
        self.eta = ((1 - (2.0 / items) ** (1 - theta))
                    / (1 - (1 + 0.5 ** theta) / self.zeta_n))
        self.second = 1.0 + 0.5 ** theta

    def next(self) -> int:
        u = self.rng.random()
        uz = u * self.zeta_n
        if uz < 1.0:
            rank = 0
        elif uz < self.second:
            rank = 1
        else:
            rank = int(self.items * (self.eta * u - self.eta + 1) ** self.alpha)
        return _fnv_hash_64(rank) % self.items


class OperationStream:
    """The seeded record set and the endless operation stream of one run.

    Operations are ``(kind, key, argument)`` tuples: a read carries
    nothing, an update the one field it overwrites, an insert its whole
    record, a scan its LIMIT.  :meth:`take` hands them out in blocks, so
    the benchmark can generate the next block with its timer stopped."""

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        rng = random.Random(seed)
        self.records = [make_record(rng) for _ in range(workload.records)]
        self._rng = rng
        self._kinds = [kind for kind, _ in workload.mix]
        self._weights = [share for _, share in workload.mix]
        self._zipfian = (ScrambledZipfian(workload.records, rng)
                         if workload.distribution == "zipfian" else None)
        self._inserted = 0

    def _existing_key(self) -> str:
        if self._zipfian is not None:
            return key_for(self._zipfian.next())
        return key_for(self._rng.randrange(self.workload.records + self._inserted))

    def take(self, count: int) -> list[tuple]:
        rng = self._rng
        ops = []
        for kind in rng.choices(self._kinds, self._weights, k=count):
            if kind == "read":
                ops.append(("read", self._existing_key(), None))
            elif kind == "update":
                field = f"field{rng.randrange(FIELD_COUNT)}"
                ops.append(("update", self._existing_key(),
                            {field: make_field(rng)}))
            elif kind == "scan":
                ops.append(("scan", self._existing_key(),
                            rng.randint(1, MAX_SCAN_LENGTH)))
            else:
                index = self.workload.records + self._inserted
                self._inserted += 1
                ops.append(("insert", key_for(index), make_record(rng)))
        return ops
