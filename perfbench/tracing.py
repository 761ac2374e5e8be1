"""In-memory spans around the public entry points of each layer.

Only the traced run installs these wrappers.  :meth:`Tracer.install`
replaces selected methods on the library's classes with timing wrappers and
:meth:`Tracer.uninstall` puts the originals back, so nothing under ``src/``
changes and the untraced run executes the library unmodified.

Each span records its name, start, end, trace id (one per event or block),
its own id, its parent's id (the enclosing span on the same thread) and the
thread.  A layer's self time is its span's duration minus the time its
child spans cover.
"""

from __future__ import annotations

import itertools
import threading
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from .harness import now, percentile

#: Codec spans nest only at the outermost codec call, so a codec that
#: delegates to another codec is charged once, under its own name.
_CODEC = "codec"
_SUBMIT = "submit"


class Span:
    __slots__ = (
        "name", "start", "end", "trace_id", "span_id", "parent_id", "thread",
        "group", "size_in", "size_out",
    )

    def __init__(self, name, trace_id, span_id, parent_id, thread, group) -> None:
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.thread = thread
        self.group = group
        self.start = 0.0
        self.end = 0.0
        self.size_in = 0
        self.size_out = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


def _event_sequence(args) -> Optional[int]:
    event = args[-1]
    return getattr(event, "sequence", None) or None


class Tracer:
    """Collects spans in memory from wrapped library entry points."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._patches: List[Tuple[type, str, object]] = []

    # -- span bookkeeping ------------------------------------------------------------

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_trace(self, trace_id: int) -> None:
        """Name the event or block the calling thread is working on."""
        self._local.trace = trace_id

    def mark(self) -> int:
        """A position in the span list (for per-round deltas)."""
        return len(self.spans)

    def _wrap(
        self,
        owner: type,
        attr: str,
        name: Callable[[tuple], str],
        trace_of: Optional[Callable[[tuple], Optional[int]]] = None,
        group: Optional[str] = None,
    ) -> None:
        raw = owner.__dict__[attr]
        static = isinstance(raw, staticmethod)
        function = raw.__func__ if static else raw
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if group is not None and any(s.group == group for s in stack):
                return function(*args, **kwargs)
            parent = stack[-1] if stack else None
            span_id = next(tracer._ids)
            trace_id = trace_of(args) if trace_of is not None else None
            if trace_id is None:
                if parent is not None:
                    trace_id = parent.trace_id
                else:
                    trace_id = getattr(tracer._local, "trace", None) or -span_id
            span = Span(
                name(args), trace_id, span_id,
                parent.span_id if parent is not None else 0,
                threading.get_ident(), group,
            )
            stack.append(span)
            span.start = now()
            try:
                result = function(*args, **kwargs)
            finally:
                span.end = now()
                stack.pop()
                tracer.spans.append(span)
            if group == _CODEC:
                span.size_in = len(args[1])
                span.size_out = len(result)
            return result

        wrapper.__wrapped__ = function
        setattr(owner, attr, staticmethod(wrapper) if static else wrapper)
        self._patches.append((owner, attr, raw))

    def install(self) -> None:
        """Wrap every layer's public entry points."""
        from repro.compression.framing import FrameDecoder
        from repro.compression.registry import available_codecs, get_codec
        from repro.core.engine import BlockEngine
        from repro.core.policy import AdaptivePolicy
        from repro.core.sampler import LzSampler
        from repro.fabric.broker import EventFabric
        from repro.middleware.channels import EventChannel
        from repro.middleware.handlers import CompressionHandler, DecompressionHandler
        from repro.middleware.transport import WireFormat

        wrapped = set()
        for codec_name in available_codecs():
            for attr in ("compress", "decompress"):
                owner = next(
                    c for c in type(get_codec(codec_name)).__mro__ if attr in c.__dict__
                )
                if (owner, attr) in wrapped:
                    continue
                wrapped.add((owner, attr))
                self._wrap(
                    owner, attr,
                    lambda a, attr=attr: f"compression.{attr}.{a[0].name}",
                    group=_CODEC,
                )
        self._wrap(WireFormat, "encode", lambda a: "compression.frame_encode", _event_sequence)
        self._wrap(WireFormat, "from_frame", lambda a: "compression.frame_parse")
        self._wrap(FrameDecoder, "feed", lambda a: "compression.frame_parse")
        self._wrap(AdaptivePolicy, "choose", lambda a: "core.choose")
        self._wrap(LzSampler, "sample", lambda a: "core.sample")
        self._wrap(BlockEngine, "execute", lambda a: "core.execute")
        self._wrap(EventFabric, "publish", lambda a: "fabric.publish", _event_sequence)
        self._wrap(EventChannel, "submit", lambda a: "middleware.submit", group=_SUBMIT)
        self._wrap(CompressionHandler, "__call__", lambda a: "middleware.handler_compress")
        self._wrap(
            DecompressionHandler, "__call__",
            lambda a: "middleware.handler_decompress", _event_sequence,
        )

    def uninstall(self) -> None:
        """Restore every wrapped entry point (idempotent)."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # -- analysis ----------------------------------------------------------------------

    def codec_ratios(self, since: int = 0, until: Optional[int] = None) -> Dict[str, float]:
        """``compression.ratio.<codec>`` over the spans recorded in ``[since, until)``."""
        sizes: Dict[str, List[int]] = {}
        for span in self.spans[since:until]:
            if span.group == _CODEC and span.name.startswith("compression.compress."):
                codec = span.name[len("compression.compress."):]
                total = sizes.setdefault(codec, [0, 0])
                total[0] += span.size_in
                total[1] += span.size_out
        return {
            f"compression.ratio.{codec}": out / size_in if size_in else 0.0
            for codec, (size_in, out) in sizes.items()
        }

    def write_jsonl(self, path: str, origin: float) -> None:
        """Write the spans in the ``repro.obs.trace`` record shape."""
        from repro.obs.trace import TraceWriter

        with open(path, "w", encoding="utf-8") as handle:
            writer = TraceWriter(handle)
            for span in self.spans:
                writer.span(
                    span.name, span.duration, ts=span.start - origin,
                    trace_id=span.trace_id, span_id=span.span_id,
                    parent_id=span.parent_id, thread=span.thread,
                )
            writer.flush()


def self_times(spans: Iterable[Span]) -> Tuple[Dict[int, float], List[str]]:
    """Self seconds per span id, plus every nesting violation found."""
    spans = list(spans)
    by_id = {span.span_id: span for span in spans}
    covered: Dict[int, float] = {}
    violations: List[str] = []
    for span in spans:
        if not span.parent_id:
            continue
        parent = by_id.get(span.parent_id)
        if parent is None:
            violations.append(f"{span.name} #{span.span_id}: parent never closed")
            continue
        if span.thread != parent.thread or span.start < parent.start or span.end > parent.end:
            violations.append(f"{span.name} #{span.span_id} escapes {parent.name}")
        covered[parent.span_id] = covered.get(parent.span_id, 0.0) + span.duration
    selfs = {}
    for span in spans:
        value = span.duration - covered.get(span.span_id, 0.0)
        if value < 0:
            violations.append(f"{span.name} #{span.span_id}: negative self time {value}")
        selfs[span.span_id] = value
    return selfs, violations


def layer_metrics(tracer: Tracer, wall: float) -> Tuple[Dict[str, float], List[str]]:
    """Per-layer metrics derived from the spans, plus nesting violations."""
    spans = tracer.spans
    selfs, violations = self_times(spans)
    metrics: Dict[str, float] = {}

    def add(key: str, value: float) -> None:
        metrics[key] = metrics.get(key, 0.0) + value

    per_thread: Dict[int, float] = {}
    for span in spans:
        self_s = selfs[span.span_id]
        per_thread[span.thread] = per_thread.get(span.thread, 0.0) + self_s
        name = span.name
        if name.startswith("compression.compress.") or name.startswith("compression.decompress."):
            _, direction, codec = name.split(".", 2)
            add(f"compression.{direction}_s.{codec}", span.duration)
            if direction == "compress":
                add(f"compression.calls.{codec}", 1)
        elif name == "core.execute":
            add("core.execute_self_s", self_s)
        else:
            add(f"{name}_s", span.duration)
    metrics.update(tracer.codec_ratios())

    submitted = {s.trace_id: s.end for s in spans if s.name == "middleware.submit"}
    transport = [
        s.start - submitted[s.trace_id]
        for s in spans
        if s.name == "middleware.handler_decompress" and s.trace_id in submitted
    ]
    metrics["middleware.transport_p50_ms"] = percentile(transport, 50) * 1e3
    metrics["middleware.transport_p90_ms"] = percentile(transport, 90) * 1e3
    share = max(per_thread.values(), default=0.0) / wall if wall > 0 else 0.0
    if share > 1.0:
        violations.append(f"one thread's self time adds up to {share:.3f} x the wall time")
    metrics["trace.self_time_share"] = share
    metrics["trace.spans"] = len(spans)
    return metrics, violations
