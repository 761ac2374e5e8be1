"""``exchange-tcp``: the §3 deployment path over real loopback sockets.

One source :class:`EventChannel` carries a seeded mix of commercial (OIS
XML), molecular and log events of 8-32 KB.  Two channels derived from it
compress with ``lempel-ziv`` (slow to encode) and ``huffman`` (slow to
decode); a ``ChannelServer(shards=2)`` serves both over two TCP connections
to two ``RemoteChannel`` consumers, each of which runs a
``DecompressionHandler`` and compares the result byte-exact.  The pure-Python
codecs do most of the work on both sides, so a codec gain shows here, and
so does an encoder gain that makes decoding slower.

One load thread submits with one event in flight (``WINDOW``); an event
is complete when both consumers have decoded it.  A wider window lets the
producer's encode and the consumers' decodes contend for the interpreter
lock, which made throughput and latency swing by a quarter from run to run
on a 2-CPU host; with one event in flight they repeat within a few percent.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass, field
from typing import Dict, List

from repro.compression.base import CodecError
from repro.data.commercial import CommercialDataGenerator
from repro.data.logs import LogDataGenerator
from repro.data.molecular import MolecularDataGenerator
from repro.middleware.attributes import ATTR_COMPRESSION_METHOD
from repro.middleware.channels import EventChannel
from repro.middleware.events import Event
from repro.middleware.handlers import CompressionHandler, DecompressionHandler
from repro.middleware.tcp import ChannelServer, RemoteChannel
from repro.netsim.cpu import DEFAULT_COSTS, SUN_FIRE
from repro.netsim.link import make_link

from .harness import (
    NO_TRACE, Measurement, Round, RoundTimer, Tamper, Window, cpu_seconds, now, shard_skew,
)

WINDOW = 1
#: Event sizes; a round is every data kind at every size (12 events).
EVENT_SIZES = (8 * 1024, 16 * 1024, 24 * 1024, 32 * 1024)
LINK = "1mbit"
#: Channel ids chosen so the two channels live on different fabric shards.
CHANNELS = {"lempel-ziv": "loopback/lempel-ziv", "huffman": "loopback/huffman"}


def make_corpus(seed: int) -> List[bytes]:
    """Each data kind at each of ``EVENT_SIZES``, in a seeded order.

    The seed changes the bytes and their order, never the size mix, so
    every seed offers the same amount of work per round.
    """
    commercial = CommercialDataGenerator(seed=seed)
    molecular = MolecularDataGenerator(atom_count=1024, seed=seed)
    logs = LogDataGenerator(seed=seed)
    makers = (
        lambda size: commercial.xml_block(size)[:size],
        lambda size: next(molecular.stream(size, 1)),
        lambda size: logs.log_block(size)[:size],
    )
    corpus = [make(size) for size in EVENT_SIZES for make in makers]
    random.Random(seed).shuffle(corpus)
    return corpus


@dataclass
class _Pending:
    index: int
    round: int
    submitted: float
    remaining: int = 2
    ok: bool = True
    wire: int = 0
    modeled: float = 0.0
    done: float = 0.0


@dataclass
class State:
    corpus: List[bytes]
    source: EventChannel
    server: ChannelServer
    remotes: List[RemoteChannel]
    pending: Dict[int, _Pending] = field(default_factory=dict)
    lock: threading.Lock = field(default_factory=threading.Lock)
    window: Window = field(default_factory=lambda: Window(WINDOW))
    tamper: Tamper = None
    completed: List[_Pending] = field(default_factory=list)

    def close(self) -> None:
        for remote in self.remotes:
            remote.close()
        self.server.close()


def _consumer(state: State, method: str):
    decompress = DecompressionHandler()
    link = make_link(LINK)

    def decode(event: Event):
        wire = len(event.payload)
        actual = str(event.attributes.get(ATTR_COMPRESSION_METHOD, "none"))
        try:
            restored = bytes(decompress(event).payload)
        except CodecError:
            restored = None
        item = state.pending[event.sequence]
        original = state.corpus[item.index]
        if restored is not None and state.tamper is not None:
            restored = state.tamper(restored)
        # The paper's model of the same delivery: encode and decode on the
        # calibrated reference machine plus the link's expected transfer.
        modeled = DEFAULT_COSTS.compression_time(method, len(original), SUN_FIRE)
        modeled += link.mean_transfer_time(wire)
        if actual != "none":
            modeled += DEFAULT_COSTS.decompression_time(actual, len(original), SUN_FIRE)
        with state.lock:
            item.ok = item.ok and restored == original
            item.wire += wire
            item.modeled += modeled
            item.remaining -= 1
            done = item.remaining == 0
            if done:
                item.done = now()
                state.completed.append(item)
        if done:
            state.window.release()

    return decode


def setup(seed: int) -> State:
    corpus = make_corpus(seed)
    source = EventChannel("loopback/source")
    server = ChannelServer(shards=2)
    state = State(corpus=corpus, source=source, server=server, remotes=[])
    host, port = server.address
    for method, channel_id in CHANNELS.items():
        derived = source.derive(CompressionHandler(method, channel=channel_id), channel_id)
        server.offer(derived)
    for method, channel_id in CHANNELS.items():
        remote = RemoteChannel(host, port, channel_id, timeout=60.0)
        state.remotes.append(remote)
        remote.mirror.subscribe(_consumer(state, method))
    # Warm up: one full round end to end before anything is timed.
    for index in range(len(corpus)):
        if not _submit(state, index):
            break
    if not state.window.drain() or len(state.completed) != len(corpus):
        state.close()
        raise RuntimeError("exchange-tcp warm-up round never completed")
    state.completed.clear()
    return state


def _submit(state: State, index: int, round_: int = 0, tracer=NO_TRACE) -> bool:
    if not state.window.acquire():
        return False
    sequence = state.source.submitted + 1
    state.pending[sequence] = _Pending(index=index, round=round_, submitted=now())
    tracer.set_trace(sequence)
    state.source.submit(Event(payload=state.corpus[index]))
    return True


def measure(state: State, seconds: float, tamper: Tamper = None, tracer=NO_TRACE) -> Measurement:
    m = Measurement()
    state.tamper = tamper
    state.completed.clear()
    remotes, fabric = state.remotes, state.server.fabric
    wire_before = sum(r.wire_bytes for r in remotes)
    received_before = sum(r.events_received for r in remotes)
    frames_before = fabric.wire_frames_encoded
    start, cpu_start = now(), cpu_seconds()
    lost = False
    # Compression runs inside submit on this thread, so each round's codec
    # spans lie between consecutive marks.  A round runs from its first
    # submit until its last event has been decoded.
    marks = [tracer.mark()]
    timer = RoundTimer()
    timings = []
    while not lost and now() - start < seconds:
        timer.start()
        for index in range(len(state.corpus)):
            if not _submit(state, index, len(marks) - 1, tracer):
                lost = True
                break
            m.attempted += 1
        marks.append(tracer.mark())
        if not state.window.drain():
            lost = True
        timings.append(timer.stop())
    m.elapsed = now() - start
    m.cpu = cpu_seconds() - cpu_start
    with state.lock:
        completed = list(state.completed)
    if lost or len(completed) != m.attempted:
        m.fail(m.attempted - len(completed), "exchange-tcp: events never decoded")
    by_round: Dict[int, List[_Pending]] = {}
    for item in completed:
        if item.ok:
            m.app_bytes += 2 * len(state.corpus[item.index])
            m.deliveries += 2
        else:
            m.fail(1, f"exchange-tcp: event {item.index} decoded wrong")
        by_round.setdefault(item.round, []).append(item)
    for round_ in sorted(by_round):
        items = sorted(by_round[round_], key=lambda item: item.index)
        if len(items) != len(state.corpus):
            continue  # a lost event is already counted as failed
        app = 2 * sum(len(state.corpus[item.index]) for item in items)
        if all(item.ok for item in items):
            took, cpu, scale = timings[round_]
            latencies = [item.done - item.submitted for item in items]
            m.timed.append(Round(app, 2 * len(items), took, cpu, scale, latencies))
        m.rounds.append(
            {
                "wire_ratio": sum(item.wire for item in items) / app,
                "modeled_delivery_s": sum(item.modeled for item in items),
                **tracer.codec_ratios(marks[round_], marks[round_ + 1]),
            }
        )
    m.layer["middleware.wire_bytes"] = sum(r.wire_bytes for r in remotes) - wire_before
    m.layer["middleware.events_received"] = (
        sum(r.events_received for r in remotes) - received_before
    )
    m.layer["fabric.subscriber_errors"] = fabric.subscriber_errors
    m.layer["fabric.shard_skew"] = shard_skew(fabric.shard_events)
    if m.attempted:
        m.layer["fabric.frames_per_event"] = (
            fabric.wire_frames_encoded - frames_before
        ) / m.attempted
    state.tamper = None
    return m
