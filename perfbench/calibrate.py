"""Machine-speed reference.

The benchmark shares its machine with other work, and the speed of one
core drifts by tens of per cent, within seconds and over minutes.  Every
time a run reports is therefore scaled to a reference speed.  The benchmark
times a fixed piece of pure-Python work at the start of the measured
phase and right after every drain: copying record-like dicts picked from
a few-megabyte table, and a bitwise CRC-32 of 256 bytes, the kind of
work the library's hot paths do.  A slowdown is a median reference time
over ``REFERENCE_S``.  Each operation's latency, and each stretch of the
phase between two samples, is divided by the slowdown around it (the
median of nearby samples); set-up times by the phase's median slowdown.
The work touches no library code, so a change to the library cannot
move it.  Its table does not fit in cache, so its time depends on what
ran just before; it is only sampled where the phase leaves the cache in
the same state every time.
"""

from __future__ import annotations

import random
import statistics
import time

#: The reference work's time on the machine the benchmark's numbers are
#: expressed for (about its median on a 2-vCPU shared x86-64 container).
REFERENCE_S = 0.002


class Reference:
    def __init__(self):
        rng = random.Random(5)
        self._table = [{f"field{j}": rng.randbytes(50).hex() for j in range(10)}
                       for _ in range(4000)]
        self._order = [rng.randrange(len(self._table)) for _ in range(400)]
        self._blob = rng.randbytes(256)

    def _work(self) -> int:
        total = 0
        for index in self._order:
            record = self._table[index]
            total += len({key: value for key, value in record.items()})
        crc = 0xFFFFFFFF
        for byte in self._blob:
            crc ^= byte
            for _ in range(8):
                crc = (crc >> 1) ^ (0xEDB88320 & -(crc & 1))
        return total + crc

    def sample(self) -> float:
        """Time the reference work once; returns the seconds it took."""
        start = time.perf_counter()
        self._work()
        return time.perf_counter() - start


def slowdown(samples: list[float]) -> float:
    """How much slower than the reference speed the machine ran while
    ``samples`` were taken: divide times by it, multiply rates by it."""
    return statistics.median(samples) / REFERENCE_S


#: Reference samples on each side of a window that its local slowdown
#: is the median of.
LOCAL_RADIUS = 2


def local_slowdowns(samples: list[float]) -> list[float]:
    """The slowdown around each sample: the median of it and its
    ``LOCAL_RADIUS`` neighbours on each side."""
    return [slowdown(samples[max(0, i - LOCAL_RADIUS):i + LOCAL_RADIUS + 1])
            for i in range(len(samples))]
