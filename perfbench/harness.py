"""Measurement plumbing shared by the three workloads.

Every workload is a closed loop: a generator admits a new item only while
fewer than a fixed window of items are in flight, so a slower system is
offered less load and throughput and latency are read at that window.  A
run is a sequence of *rounds*; each round replays the same seeded items,
which is what lets the deterministic metrics be checked for exact
repetition inside every run.

Wall-clock metrics are reported at a reference host speed.  On a shared
VM the speed of the interpreter swings by up to 1.7x, for seconds or for
minutes, with the neighbours' load; a whole run can fall into a slow phase,
so no statistic over one run's rounds removes it.  Between rounds, with
nothing in flight, :class:`RoundTimer` times a fixed slice of pure-Python
work (:func:`probe_seconds`), and each round's times are scaled by
``PROBE_REFERENCE_S`` over the probe's time around that round.  The run is
pinned to one CPU (:func:`pin_to_one_cpu`) so that the probe and the
workload's threads share the CPU whose speed the probe reads.  A program
change moves the scaled times as it moves the wall times; the host's phase
no longer does.
"""

from __future__ import annotations

import os
import resource
import threading
import time
import zlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Application megabyte used by every throughput and per-MB metric.
MB = float(1 << 20)

#: Seconds a closed loop waits for an in-flight item before declaring it lost.
WAIT_TIMEOUT = 30.0

#: Seconds :func:`probe_seconds` takes with the host at full speed (a 2-vCPU
#: Intel Xeon VM under CPython 3.11); wall-clock metrics are scaled to it.
PROBE_REFERENCE_S = 0.0025

#: A correctness probe: tests pass one that flips a byte of what a sink sees.
Tamper = Optional[Callable[[bytes], bytes]]


def now() -> float:
    """The benchmark's wall clock."""
    return time.perf_counter()


def cpu_seconds() -> float:
    """User + system CPU seconds consumed by this process so far."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def pin_to_one_cpu() -> None:
    """Run this process, and every thread it starts, on one CPU.

    The highest-numbered CPU the process may use, as CPU 0 takes most
    device interrupts.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


_PROBE_BYTES = bytes(range(256)) * 64


def probe_seconds() -> float:
    """Wall seconds of a fixed slice of pure-Python work, best of three."""
    best = float("inf")
    for _ in range(3):
        started = now()
        table: Dict[int, int] = {}
        acc = 0
        for i in range(20000):
            table[i & 255] = acc
            acc = (acc * 31 + i) & 0xFFFFFFFF
        for i in range(20):
            acc = zlib.crc32(_PROBE_BYTES[i:], acc)
        best = min(best, now() - started)
    return best


class RoundTimer:
    """Times rounds, and probes the host's speed between them."""

    def __init__(self) -> None:
        self._probe = probe_seconds()
        self._wall = self._cpu = 0.0

    def start(self) -> None:
        self._wall, self._cpu = now(), cpu_seconds()

    def stop(self) -> Tuple[float, float, float]:
        """Wall and CPU seconds since :meth:`start`, and their scale.

        The scale turns them into seconds at the reference speed: it is
        ``PROBE_REFERENCE_S`` over the mean of the probes taken just before
        and just after the round.
        """
        wall, cpu = now() - self._wall, cpu_seconds() - self._cpu
        after = probe_seconds()
        scale = 2 * PROBE_REFERENCE_S / (self._probe + after)
        self._probe = after
        return wall, cpu, scale


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` (0-100) of ``values``."""
    if not values:
        return 0.0
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def shard_skew(shard_events: Sequence[int]) -> float:
    """The busiest fabric shard's event count over the mean."""
    mean = sum(shard_events) / len(shard_events)
    return max(shard_events) / mean if mean else 0.0


@dataclass
class Round:
    """One round of a timed phase whose items were all verified."""

    app_bytes: int
    deliveries: int
    #: Wall seconds and process CPU seconds the round took.
    seconds: float
    cpu: float
    #: Reference-speed seconds per measured second (:meth:`RoundTimer.stop`).
    scale: float
    #: Per-item latency in seconds.
    latencies: List[float]


@dataclass
class Measurement:
    """What one timed phase of a workload observed."""

    #: Wall seconds and process CPU seconds of the timed region.
    elapsed: float = 0.0
    cpu: float = 0.0
    attempted: int = 0
    failed: int = 0
    #: Application bytes delivered and verified byte-exact.
    app_bytes: int = 0
    #: Verified subscriber/consumer deliveries (an item may have several).
    deliveries: int = 0
    #: Every round whose items were all delivered and verified.
    timed: List[Round] = field(default_factory=list)
    #: Deterministic values of each completed round, keyed by metric name.
    rounds: List[Dict[str, float]] = field(default_factory=list)
    #: Per-layer values the workload measured itself (no spans needed).
    layer: Dict[str, float] = field(default_factory=dict)
    #: Human-readable descriptions of the first failures.
    errors: List[str] = field(default_factory=list)

    def fail(self, count: int, reason: str) -> None:
        self.failed += count
        if len(self.errors) < 10:
            self.errors.append(reason)


class Window:
    """Closed-loop admission: at most ``size`` items in flight."""

    def __init__(self, size: int) -> None:
        self.size = size
        self._slots = threading.Semaphore(size)

    def acquire(self) -> bool:
        return self._slots.acquire(timeout=WAIT_TIMEOUT)

    def release(self) -> None:
        self._slots.release()

    def drain(self) -> bool:
        """Wait until nothing is in flight; False if an item never finished."""
        deadline = now() + WAIT_TIMEOUT
        taken = 0
        for _ in range(self.size):
            if not self._slots.acquire(timeout=max(0.0, deadline - now())):
                break
            taken += 1
        for _ in range(taken):
            self._slots.release()
        return taken == self.size


def check_rounds(measurement: Measurement) -> None:
    """Count every round whose deterministic values differ from round one."""
    if not measurement.rounds:
        return
    reference = measurement.rounds[0]
    for index, values in enumerate(measurement.rounds[1:], start=1):
        if values != reference:
            differing = sorted(k for k in values if values[k] != reference.get(k))
            measurement.fail(1, f"round {index} deterministic values changed: {differing}")


class NoTrace:
    """Stand-in for :class:`perfbench.tracing.Tracer` in untraced runs."""

    def set_trace(self, trace_id: int) -> None:
        pass

    def mark(self) -> int:
        return 0

    def codec_ratios(self, since: int = 0, until: Optional[int] = None) -> Dict[str, float]:
        return {}


NO_TRACE = NoTrace()
