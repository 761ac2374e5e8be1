"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload exchange-tcp --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics named in ``BENCHMARK.json``
with tracing off.  ``--trace 1`` is the separate traced run: it measures
half of ``--seconds`` untraced and half with spans recorded around each
layer's public entry points, prints the per-layer metrics, and writes the
spans as JSON lines under ``.perfbench/``.

Run as a script, the benchmark pins itself to one CPU and reports every
end-to-end time at a reference host speed (see ``perfbench/harness.py``).

Every line but the last is a human-readable table of every metric with its
unit and sample count; the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
only when every item was delivered and verified and every deterministic
metric repeated exactly; any failure exits 1, and a checkout that cannot
import the library exits 2 without printing a result.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("exchange-tcp", "fanout-small", "replay-mixed")
#: Set-up repeats per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 5


def _load(name: str):
    """The workload module (imported lazily: it imports the library)."""
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    if str(ROOT) not in sys.path:
        sys.path.insert(0, str(ROOT))
    from perfbench import exchange, fanout, replay

    return {"exchange-tcp": exchange, "fanout-small": fanout, "replay-mixed": replay}[name]


def _metric_units(section: str) -> Dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {entry["name"]: entry["unit"] for entry in spec[section]}


def end_to_end(workload: str, seed: int, seconds: float, tamper=None):
    """Untraced run: repeated set-up, one timed phase, end-to-end metrics."""
    from perfbench.harness import MB, Round, RoundTimer, check_rounds, peak_rss_mb, percentile

    module = _load(workload)
    setups: List[float] = []
    state = None
    timer = RoundTimer()
    for repeat in range(SETUP_REPEATS):
        timer.start()
        state = module.setup(seed)
        took, _, scale = timer.stop()
        setups.append(took * scale)
        if repeat < SETUP_REPEATS - 1:
            state.close()
    try:
        m = module.measure(state, seconds, tamper)
    finally:
        state.close()
    check_rounds(m)
    first = m.rounds[0] if m.rounds else {}
    # Every time below is at the reference host speed (see perfbench.harness).
    timed = m.timed or [Round(0, 0, m.elapsed, m.cpu, 1.0, [])]
    latencies = [latency * r.scale for r in timed for latency in r.latencies]
    timed_mb = sum(r.app_bytes for r in timed) / MB
    cpu = sum(r.cpu * r.scale for r in timed)
    metrics = {
        "setup_s": (statistics.median(setups), len(setups)),
        "delivered_mb_s": (
            statistics.median(r.app_bytes / MB / (r.seconds * r.scale) for r in timed),
            len(timed),
        ),
        "deliveries_per_s": (
            statistics.median(r.deliveries / (r.seconds * r.scale) for r in timed), len(timed)
        ),
        "latency_p50_ms": (percentile(latencies, 50) * 1e3, len(latencies)),
        "latency_p90_ms": (percentile(latencies, 90) * 1e3, len(latencies)),
        "wire_ratio": (first.get("wire_ratio", 0.0), len(m.rounds)),
        "modeled_delivery_s": (first.get("modeled_delivery_s", 0.0), len(m.rounds)),
        "cpu_s_per_mb": (cpu / timed_mb if timed_mb else 0.0, len(timed)),
        "peak_rss_mb": (peak_rss_mb(), 1),
    }
    return m, metrics, []


def per_layer(workload: str, seed: int, seconds: float, tamper=None):
    """Traced run: per-layer metrics from spans and the workload's counters."""
    from perfbench.harness import check_rounds, now
    from perfbench.tracing import Tracer, layer_metrics

    module = _load(workload)
    state = module.setup(seed)
    tracer = Tracer()
    try:
        plain = module.measure(state, seconds / 2)
        origin = now()
        tracer.install()
        try:
            m = module.measure(state, seconds / 2, tamper, tracer)
        finally:
            tracer.uninstall()
    finally:
        state.close()
    check_rounds(m)
    m.attempted += plain.attempted
    m.failed += plain.failed
    m.errors.extend(plain.errors)
    traced, violations = layer_metrics(tracer, m.elapsed)
    values: Dict[str, float] = {}
    if m.rounds:
        values.update(m.rounds[-1])
    values.update(m.layer)
    values.update(traced)
    plain_rate = plain.app_bytes / plain.elapsed if plain.elapsed else 0.0
    traced_rate = m.app_bytes / m.elapsed if m.elapsed else 0.0
    values["trace.overhead_ratio"] = traced_rate / plain_rate if plain_rate else 0.0
    out = ROOT / ".perfbench"
    out.mkdir(exist_ok=True)
    tracer.write_jsonl(str(out / f"trace-{workload}-{seed}.jsonl"), origin)
    metrics = {name: (values.get(name, 0.0), 1) for name in _metric_units("per_layer")}
    return m, metrics, violations


def run(
    workload: str, seed: int, seconds: float, trace: bool, tamper=None
) -> Tuple[dict, List[str]]:
    """One run; returns the result object and the table lines to print."""
    measure = per_layer if trace else end_to_end
    m, metrics, violations = measure(workload, seed, seconds, tamper)
    units = _metric_units("per_layer" if trace else "end_to_end")
    error_rate = m.failed / m.attempted if m.attempted else 1.0
    lines = [f"workload {workload} seed {seed} trace {int(trace)}: "
             f"{m.attempted} items in {m.elapsed:.3f} s"]
    for name, (value, samples) in metrics.items():
        lines.append(f"  {name:<40} {value:>16.6g} {units[name]:<8} n={samples}")
    # error_rate is 0 on every correct run, so it travels as failed/attempted
    # in the result rather than as a BENCHMARK.json metric.
    lines.append(f"  {'error_rate':<40} {error_rate:>16.6g} {'ratio':<8} n={m.attempted}")
    lines.extend(f"  FAILURE {reason}" for reason in m.errors)
    lines.extend(f"  TRACE {reason}" for reason in violations[:10])
    result = {
        "correct": m.failed == 0 and m.attempted > 0 and not violations,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, (value, _) in metrics.items()
        },
    }
    return result, lines


def main(argv: Optional[List[str]] = None, tamper=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        _load(args.workload)
    except ImportError as exc:
        print(f"perfbench: cannot import the library from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    result, lines = run(args.workload, args.seed, args.seconds, bool(args.trace), tamper)
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT))
    from perfbench.harness import pin_to_one_cpu

    pin_to_one_cpu()
    sys.exit(main())
