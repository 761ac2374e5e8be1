"""``fanout-small``: broker, cache and framing under ~1000 subscribers.

An in-process ``EventFabric(mode="threads", shards=2)`` serves 1000
subscribers spread Zipf-skewed over 64 channels, each with a Zipf-skewed
choice of cheap codec specs.  Every 1-4 KB event is published to all
channels of one replicated topic, so the shared ``BlockCache`` serves every
channel after the first.  One load thread keeps ``WINDOW`` events in
flight.  Sinks take the shared wire memoryview and chain a
CRC32 over it; after each round every subscriber's chain must equal the
reference built in set-up through the serial ``CompressionHandler`` +
``WireFormat.encode`` path.  Codecs are a small share of the work here, so
codec changes should not move this workload; fabric changes should.

A topic's channels all live on one shard, so every cache lookup for one
payload happens on one thread and the hit counts repeat exactly.  The cache
is cleared at each round start and is large enough never to evict within a
round.  Payload bytes are real; the compression seconds carried in each
frame's attributes come from a calibrated cost table, so frames, and hence
the CRC chains, are deterministic.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.engine import CodecExecutor
from repro.data.commercial import CommercialDataGenerator
from repro.fabric.broker import EventFabric
from repro.fabric.cache import BlockCache
from repro.fabric.sharding import shard_index
from repro.middleware.events import Event
from repro.middleware.handlers import CompressionHandler
from repro.middleware.transport import WireFormat
from repro.netsim.cpu import DEFAULT_COSTS, SUN_FIRE, CodecCost, CodecCostModel
from repro.netsim.link import make_link

from .harness import (
    NO_TRACE, Measurement, Round, RoundTimer, Tamper, Window, cpu_seconds, now, percentile,
    shard_skew,
)

SUBSCRIBERS = 1000
CHANNELS = 64
SHARDS = 2
TOPIC_WIDTH = 4
ZIPF = 1.1
EVENTS_PER_TOPIC = 16
EVENT_SIZES = (1024, 4096)
WINDOW = 4
LINK = "1mbit"
SPECS = ("none", "huffman", "lempel-ziv-native", "burrows-wheeler-native")

_MB = float(1 << 20)
#: ``DEFAULT_COSTS`` plus entries for the native codecs it does not
#: calibrate, so every spec's frame attributes are modeled, never measured.
COSTS = CodecCostModel(
    {
        **{name: DEFAULT_COSTS.cost(name) for name in DEFAULT_COSTS.codecs()},
        "lempel-ziv-native": CodecCost(60.0 * _MB, 250.0 * _MB, 0.40),
        "burrows-wheeler-native": CodecCost(12.0 * _MB, 30.0 * _MB, 0.34),
    }
)


class _ChargingExecutor(CodecExecutor):
    """Remembers the modeled seconds of every codec run the cache let through."""

    def __init__(self) -> None:
        super().__init__(cost_model=COSTS, cpu=SUN_FIRE, expansion_fallback=True)
        self.charged: List[float] = []

    def compress(self, method, block, codec=None):
        execution = super().compress(method, block, codec=codec)
        self.charged.append(execution.seconds)
        return execution


def make_topics() -> List[List[str]]:
    """Channels grouped into topics of up to ``TOPIC_WIDTH`` on one shard."""
    names = [f"feed/{index:02d}" for index in range(CHANNELS)]
    topics = []
    for shard in range(SHARDS):
        owned = [name for name in names if shard_index(name, SHARDS) == shard]
        topics.extend(owned[i : i + TOPIC_WIDTH] for i in range(0, len(owned), TOPIC_WIDTH))
    return topics


@dataclass
class State:
    fabric: EventFabric
    executor: "_ChargingExecutor"
    cache: BlockCache
    #: Per event: its payload and the Event object published on each channel.
    payloads: List[bytes]
    events: List[List[Tuple[str, Event]]]
    #: Deliveries each event owes, and each subscriber's reference chain.
    expected: List[int]
    reference: List[int]
    subscriber_channel: List[str]
    crcs: List[int]
    #: Codec payload bytes each subscriber received this round.
    received: List[int]
    remaining: List[int]
    first: List[float]
    last: List[float]
    window: Window = field(default_factory=lambda: Window(WINDOW))
    tamper: Tamper = None
    #: Per-event publish to first delivery, in seconds.
    queue_waits: List[float] = field(default_factory=list)

    def close(self) -> None:
        self.fabric.close()


def _make_sink(state: State, subscriber: int):
    crcs, received = state.crcs, state.received
    remaining, first, last = state.remaining, state.first, state.last
    window = state.window

    def sink(event: Optional[Event], wire: Optional[memoryview]) -> None:
        if state.tamper is not None:
            wire = state.tamper(bytes(wire))
        crcs[subscriber] = zlib.crc32(wire, crcs[subscriber])
        received[subscriber] += len(event.payload)
        # One shard delivers every copy of an event (its topic's channels
        # share the shard), so these per-event updates need no lock.
        index = event.sequence - 1
        if not first[index]:
            first[index] = now()
        remaining[index] -= 1
        if remaining[index] == 0:
            last[index] = now()
            window.release()

    return sink


def _reference_chains(
    events: List[List[Tuple[str, Event]]],
    specs_by_channel: Dict[str, List[str]],
) -> Dict[Tuple[str, str], int]:
    """CRC chain per (channel, spec) over one round, built serially."""
    handlers = {
        spec: CompressionHandler(spec, cost_model=COSTS, cpu=SUN_FIRE)
        for spec in SPECS
        if spec != "none"
    }
    chains: Dict[Tuple[str, str], int] = {}
    for published in events:
        for channel, event in published:
            for spec in specs_by_channel.get(channel, ()):
                if spec == "none":
                    # Passthrough subscribers get the published event as is.
                    frame = WireFormat.encode(event)
                else:
                    frame = WireFormat.encode(handlers[spec](event))
                key = (channel, spec)
                chains[key] = zlib.crc32(frame, chains.get(key, 0))
    return chains


def zipf_quota(items, total: int) -> List:
    """``total`` picks from ``items``, Zipf(``ZIPF``)-weighted by rank.

    Counts come from the weights by largest remainder, so every seed sees
    the same skew; only the order of the returned picks is left to shuffle.
    """
    weights = [1.0 / rank**ZIPF for rank in range(1, len(items) + 1)]
    shares = [total * w / sum(weights) for w in weights]
    counts = [int(share) for share in shares]
    by_remainder = sorted(range(len(items)), key=lambda i: counts[i] - shares[i])
    for i in by_remainder[: total - sum(counts)]:
        counts[i] += 1
    return [item for item, count in zip(items, counts) for _ in range(count)]


def setup(seed: int) -> State:
    rng = random.Random(seed)
    topics = make_topics()
    # Channel rank (so the hot channels and their shards) and each channel's
    # spec mix are fixed; the seed only decides which subscriber gets which.
    subscriber_channel = zipf_quota([f"feed/{i:02d}" for i in range(CHANNELS)], SUBSCRIBERS)
    audience: Dict[str, int] = {}
    for channel in subscriber_channel:
        audience[channel] = audience.get(channel, 0) + 1
    specs_by_channel: Dict[str, List[str]] = {}
    subscriber_spec: List[str] = []
    for channel, members in audience.items():
        specs = zipf_quota(SPECS, members)
        rng.shuffle(specs)
        subscriber_spec.extend(specs)
        specs_by_channel[channel] = sorted(set(specs), key=SPECS.index)

    # Every topic gets the same events-per-topic sizes, on a fixed 1-4 KiB
    # ladder.  The round publishes in passes, each topic once per pass in a
    # fixed order, and the seed orders each topic's sizes: the seed changes
    # bytes and sizes, not work or the order of topics.  (A seeded topic
    # order moved latency by a tenth between seeds, as it decides how often
    # the window holds events of one shard.)
    low, high = EVENT_SIZES
    ladder = [
        low + (high - low) * i // (EVENTS_PER_TOPIC - 1) for i in range(EVENTS_PER_TOPIC)
    ]
    topic_sizes = [rng.sample(ladder, len(ladder)) for _ in topics]
    order = [topic for _ in ladder for topic in topics]
    sizes = [size for pass_ in zip(*topic_sizes) for size in pass_]
    stream = next(CommercialDataGenerator(seed=seed).stream(sum(sizes), 1))
    payloads, offset = [], 0
    for size in sizes:
        payloads.append(stream[offset : offset + size])
        offset += size
    if len(set(payloads)) != len(payloads):
        raise RuntimeError("fanout-small corpus has duplicate payloads")
    events: List[List[Tuple[str, Event]]] = []
    expected: List[int] = []
    for index, (payload, topic) in enumerate(zip(payloads, order)):
        events.append(
            [
                (channel, Event(payload=payload, channel_id=channel,
                                sequence=index + 1, timestamp=float(index)))
                for channel in topic
            ]
        )
        expected.append(sum(audience.get(channel, 0) for channel in topic))

    chains = _reference_chains(events, specs_by_channel)
    reference = [
        chains.get((channel, spec), 0)
        for channel, spec in zip(subscriber_channel, subscriber_spec)
    ]
    # Large enough that nothing is evicted within a round.
    cache = BlockCache(max_entries=len(SPECS) * len(events), max_bytes=256 << 20)
    executor = _ChargingExecutor()
    fabric = EventFabric(shards=SHARDS, executor=executor, cache=cache, mode="threads")
    state = State(
        fabric=fabric, executor=executor, cache=cache, payloads=payloads, events=events,
        expected=expected, reference=reference, subscriber_channel=subscriber_channel,
        crcs=[0] * SUBSCRIBERS, received=[0] * SUBSCRIBERS, remaining=[0] * len(events),
        first=[0.0] * len(events), last=[0.0] * len(events),
    )
    for subscriber, (channel, spec) in enumerate(zip(subscriber_channel, subscriber_spec)):
        fabric.subscribe(channel, _make_sink(state, subscriber), method=spec, wire=True)
    # Warm up: one full round through the fabric, checked like a timed one.
    warm = Measurement()
    _round(state, warm, NO_TRACE, RoundTimer())
    if warm.failed:
        state.close()
        raise RuntimeError(f"fanout-small warm-up failed: {warm.errors}")
    return state


def _round(state: State, m: Measurement, tracer, timer: RoundTimer) -> bool:
    """Publish one round; returns False if an event never completed."""
    fabric, cache = state.fabric, state.cache
    mark = tracer.mark()
    cache.clear()
    hits, misses = cache.hits, cache.misses
    compressions, frames = fabric.compressions_total, fabric.wire_frames_encoded
    count = len(state.events)
    state.crcs[:] = [0] * len(state.crcs)
    state.received[:] = [0] * len(state.received)
    state.executor.charged.clear()
    state.remaining[:] = state.expected
    state.first[:] = [0.0] * count
    state.last[:] = [0.0] * count
    published = [0.0] * count
    lost = False
    timer.start()
    for index, channel_events in enumerate(state.events):
        if not state.window.acquire():
            lost = True
            break
        tracer.set_trace(index + 1)
        published[index] = now()
        for channel, event in channel_events:
            fabric.publish(channel, event)
    if not state.window.drain():
        lost = True
    took, cpu, scale = timer.stop()
    m.attempted += count
    failed = set()
    for index in range(count):
        if state.remaining[index]:
            failed.add(index)
    bad_channels = {
        channel
        for channel, crc, ref in zip(state.subscriber_channel, state.crcs, state.reference)
        if crc != ref
    }
    for index, channel_events in enumerate(state.events):
        if any(channel in bad_channels for channel, _ in channel_events):
            failed.add(index)
    if failed:
        m.fail(len(failed), f"fanout-small: {len(failed)} events missing or mismatched")
    verified = [index for index in range(count) if index not in failed]
    app = sum(state.expected[i] * len(state.payloads[i]) for i in verified)
    deliveries = sum(state.expected[i] for i in verified)
    m.app_bytes += app
    m.deliveries += deliveries
    if not failed:
        latencies = [state.last[i] - published[i] for i in range(count)]
        m.timed.append(Round(app, deliveries, took, cpu, scale, latencies))
    for index in verified:
        state.queue_waits.append(state.first[index] - published[index])
        m.layer["fabric.fanout_s"] = (
            m.layer.get("fabric.fanout_s", 0.0) + state.last[index] - state.first[index]
        )
    lookups = cache.hits - hits + cache.misses - misses
    wire = sum(state.received)
    delivered = sum(state.expected)
    app = sum(n * len(p) for n, p in zip(state.expected, state.payloads))
    link = make_link(LINK).spec
    # The paper's model of the round, as run_fanout costs it: the codec
    # runs the cache let through plus every delivery's expected transfer.
    modeled = sum(sorted(state.executor.charged))
    modeled += delivered * link.latency + wire / link.throughput
    m.rounds.append(
        {
            "fabric.cache_hit_ratio": (cache.hits - hits) / lookups if lookups else 0.0,
            "fabric.codec_runs_per_event": (fabric.compressions_total - compressions) / count,
            "fabric.frames_per_event": (fabric.wire_frames_encoded - frames) / count,
            "wire_ratio": wire / app,
            "modeled_delivery_s": modeled,
            **tracer.codec_ratios(since=mark),
        }
    )
    return not lost


def measure(state: State, seconds: float, tamper: Tamper = None, tracer=NO_TRACE) -> Measurement:
    m = Measurement()
    state.tamper = tamper
    state.queue_waits.clear()
    errors_before = state.fabric.subscriber_errors
    start, cpu_start = now(), cpu_seconds()
    timer = RoundTimer()
    while now() - start < seconds:
        if not _round(state, m, tracer, timer):
            break
    m.elapsed = now() - start
    m.cpu = cpu_seconds() - cpu_start
    state.tamper = None
    m.layer["fabric.queue_wait_p50_ms"] = percentile(state.queue_waits, 50) * 1e3
    m.layer["fabric.queue_wait_p90_ms"] = percentile(state.queue_waits, 90) * 1e3
    m.layer["fabric.subscriber_errors"] = state.fabric.subscriber_errors - errors_before
    m.layer["fabric.shard_skew"] = shard_skew(state.fabric.shard_events)
    return m
