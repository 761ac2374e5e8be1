"""``replay-mixed``: the §2.5 adaptive loop over mixed block streams.

A stream is 16 interleaved 128 KB blocks of commercial, molecular, log and
time-series data (4 of each), sent at once over the ``1mbit`` link under the
MBone trace scaled by 4, with ``AdaptivePolicy(policy="bicriteria",
structured=True)``.  A round replays ``STREAMS`` streams, each generated
from its own seed derived from the run's seed, through a fresh pipeline:
a stream's latency percentiles rest on its few heaviest blocks, and pooling
several streams' data keeps them from following one seed's bytes.  Costs
are modeled (``DEFAULT_COSTS`` on ``SUN_FIRE``), so every decision and the
modeled delivery time are deterministic, while every block is still really
compressed and, with ``verify=True``, round-tripped.  The candidate grid is
pinned to the pure-Python codecs (``native=False``) so the decisions do not
depend on which optional bindings a host has.

This is the only workload that exercises the selector, sampler, monitor,
structured codecs and netsim, and it uses no fabric, TCP or framing.  A
stream stops at 16 blocks because from the 19th block on the selector's
choices split by seed (some seeds keep picking burrows-wheeler, others
columnar), which made wall time differ 2.6-fold between seeds.  The
loop is closed with one block in flight; a block's latency runs from
``choose`` until it is compressed and verified.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, List

from repro.compression.base import CodecError
from repro.compression.registry import get_codec
from repro.core.pipeline import AdaptivePipeline, StreamResult
from repro.core.policy import AdaptivePolicy
from repro.data.commercial import CommercialDataGenerator
from repro.data.logs import LogDataGenerator
from repro.data.molecular import MolecularDataGenerator
from repro.data.timeseries import TimeSeriesGenerator
from repro.netsim.cpu import DEFAULT_COSTS, SUN_FIRE
from repro.netsim.link import make_link
from repro.netsim.loadtrace import mbone_trace

from .harness import NO_TRACE, Measurement, Round, RoundTimer, Tamper, cpu_seconds, now

BLOCK_SIZE = 128 * 1024
BLOCKS_PER_SOURCE = 4
STREAMS = 4
LINK = "1mbit"
MBONE_SCALE = 4.0
METHODS = ("none", "huffman", "lempel-ziv", "burrows-wheeler", "template", "columnar")


def stream_seed(seed: int, stream: int) -> int:
    """The data and link seed of one of a run's streams."""
    return seed * STREAMS + stream


def make_blocks(seed: int) -> List[bytes]:
    """Commercial, molecular, log and time-series blocks, interleaved."""
    sources = [
        CommercialDataGenerator(seed=seed).stream(BLOCK_SIZE, BLOCKS_PER_SOURCE),
        MolecularDataGenerator(atom_count=4096, seed=seed).stream(BLOCK_SIZE, BLOCKS_PER_SOURCE),
        LogDataGenerator(seed=seed).stream(BLOCK_SIZE, BLOCKS_PER_SOURCE),
        TimeSeriesGenerator(seed=seed).stream(BLOCK_SIZE, BLOCKS_PER_SOURCE),
    ]
    columns = [list(source) for source in sources]
    return [block for row in zip(*columns) for block in row]


class _TimedPolicy:
    """Delegates to the bicriteria policy and stamps when each choice starts."""

    def __init__(self, tracer, trace_base: int) -> None:
        self.policy = AdaptivePolicy(
            policy="bicriteria", structured=True, native=False,
            cost_model=DEFAULT_COSTS, cpu=SUN_FIRE,
        )
        self.tracer = tracer
        self.trace_base = trace_base
        self.blocks = 0
        self.chosen_at = 0.0

    def choose(self, block_size, sending_time, monitor, sample):
        self.blocks += 1
        self.tracer.set_trace(self.trace_base + self.blocks)
        self.chosen_at = now()
        return self.policy.choose(block_size, sending_time, monitor, sample)


@dataclass
class State:
    seed: int
    streams: List[List[bytes]]
    #: Per stream: the per-block ``payload_crc32`` series and the modeled
    #: time of set-up's replay.
    reference_crcs: List[List[int]] = field(default_factory=list)
    reference_times: List[float] = field(default_factory=list)
    latencies: List[float] = field(default_factory=list)

    def close(self) -> None:
        pass


def run_once(state: State, stream: int, tracer=NO_TRACE, round_: int = 0) -> StreamResult:
    """One replay of stream ``stream`` through a fresh pipeline and policy."""
    policy = _TimedPolicy(tracer, (round_ * STREAMS + stream) * 1000)

    def observe(stats) -> None:
        state.latencies.append(now() - policy.chosen_at)

    pipeline = AdaptivePipeline(
        policy=policy, cost_model=DEFAULT_COSTS, cpu=SUN_FIRE,
        verify=True, observers=[observe],
    )
    try:
        return pipeline.run(
            state.streams[stream],
            make_link(LINK, seed=stream_seed(state.seed, stream)),
            load=mbone_trace().scaled(MBONE_SCALE),
        )
    finally:
        pipeline.close()


def setup(seed: int) -> State:
    streams = [make_blocks(stream_seed(seed, stream)) for stream in range(STREAMS)]
    state = State(seed=seed, streams=streams)
    # Warm up with one full replay of every stream; their CRC series are the
    # references every timed round must reproduce.
    for stream in range(STREAMS):
        result = run_once(state, stream)
        state.reference_crcs.append([record.payload_crc32 for record in result.records])
        state.reference_times.append(result.total_time)
    state.latencies.clear()
    return state


def round_values(result: StreamResult) -> dict:
    """The deterministic per-round values of one replay."""
    counts = result.method_counts()
    attempts = [r for r in result.records if r.method != "none"]
    raw = [r for r in attempts if r.compressed_size >= r.original_size]
    values = {
        "wire_ratio": result.overall_ratio,
        "modeled_delivery_s": result.total_time,
        "core.fallback_ratio": len(raw) / len(attempts) if attempts else 0.0,
        "core.modeled_compress_s": result.total_compression_time,
        "netsim.modeled_send_s": result.total_send_time,
    }
    for method in METHODS:
        values[f"core.method_count.{method}"] = counts.get(method, 0)
    return values


def measure(state: State, seconds: float, tamper: Tamper = None, tracer=NO_TRACE) -> Measurement:
    m = Measurement()
    with _tampered_decompress(tamper):
        _replay_rounds(state, seconds, tracer, m)
    return m


@contextmanager
def _tampered_decompress(tamper: Tamper) -> Iterator[None]:
    """Pass each candidate codec's decompressed output through ``tamper``.

    This is what ``verify=True`` compares with the block, so a tamper that
    flips a byte makes the engine raise :class:`CodecError`.
    """
    codecs = [get_codec(method) for method in METHODS] if tamper is not None else []
    for codec in codecs:
        codec.decompress = lambda data, raw=codec.decompress: tamper(raw(data))
    try:
        yield
    finally:
        for codec in codecs:
            del codec.decompress


def _replay_rounds(state: State, seconds: float, tracer, m: Measurement) -> None:
    mark = tracer.mark()
    blocks = sum(len(stream) for stream in state.streams)
    start, cpu_start = now(), cpu_seconds()
    timer = RoundTimer()
    round_ = 0
    while now() - start < seconds:
        state.latencies.clear()
        round_ += 1
        m.attempted += blocks
        results: List[StreamResult] = []
        timer.start()
        for stream in range(STREAMS):
            try:
                results.append(run_once(state, stream, tracer, round_))
            except CodecError as exc:
                # verify=True failed a round trip: the replay stops, so no
                # block of this stream is verified.
                m.fail(len(state.streams[stream]), f"replay-mixed: {exc}")
        took, cpu, scale = timer.stop()
        if len(results) != STREAMS:
            continue
        app = deliveries = 0
        for stream, result in enumerate(results):
            crcs = [record.payload_crc32 for record in result.records]
            for index, (crc, expected) in enumerate(zip(crcs, state.reference_crcs[stream])):
                if crc != expected:
                    m.fail(1, f"replay-mixed: stream {stream} block {index} payload CRC "
                              f"{crc:#x} != {expected:#x}")
                else:
                    app += len(state.streams[stream][index])
                    deliveries += 1
        m.app_bytes += app
        m.deliveries += deliveries
        if deliveries == blocks:
            m.timed.append(Round(app, deliveries, took, cpu, scale, list(state.latencies)))
        if [result.total_time for result in results] != state.reference_times:
            m.fail(1, "replay-mixed: modeled delivery time differs from set-up's run")
        # The round's deterministic values are those of its streams pooled.
        pooled = StreamResult(
            [record for result in results for record in result.records],
            sum(result.total_time for result in results),
        )
        values = round_values(pooled)
        values.update(tracer.codec_ratios(since=mark))
        mark = tracer.mark()
        m.rounds.append(values)
    m.elapsed = now() - start
    m.cpu = cpu_seconds() - cpu_start
