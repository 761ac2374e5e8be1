"""The benchmark's own tests: metrics, failure detection and span nesting.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import json
from pathlib import Path

import pytest

from perfbench import harness, replay, run
from perfbench.harness import Measurement, check_rounds
from perfbench.tracing import Span, Tracer, layer_metrics, self_times

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SPEC = json.loads((ROOT / "perfbench" / "spec.json").read_text())


def _result(capsys):
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def _flip_first_byte(data: bytes) -> bytes:
    return bytes([data[0] ^ 0x01]) + data[1:]


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace, capsys):
    code = run.main(
        ["--workload", workload, "--seed", "3", "--seconds", "0.5", "--trace", str(trace)]
    )
    result = _result(capsys)
    assert code == 0, result
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    section = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in section
    }
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_flipped_byte_counts_as_failure_and_fails_the_command(workload, capsys):
    code = run.main(
        ["--workload", workload, "--seed", "3", "--seconds", "0.2", "--trace", "0"],
        tamper=_flip_first_byte,
    )
    result = _result(capsys)
    assert code == 1
    assert result["correct"] is False
    assert 0 < result["failed"] <= result["attempted"]


def test_wrong_round_trip_fails_the_replay_round(capsys):
    code = run.main(
        ["--workload", "replay-mixed", "--seed", "3", "--seconds", "0.2", "--trace", "0"],
        tamper=_flip_first_byte,
    )
    out = capsys.readouterr().out
    result = json.loads(out.strip().splitlines()[-1])
    assert code == 1
    assert "failed to round-trip" in out
    # The failed round trip stops the replay, so every block of each round fails.
    assert result["failed"] == result["attempted"]
    assert result["attempted"] % (4 * replay.BLOCKS_PER_SOURCE) == 0


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_deterministic_metrics_repeat_across_runs_and_match_the_spec(workload):
    runs = []
    for _ in range(2):
        module = run._load(workload)
        state = module.setup(5)
        tracer = Tracer()
        tracer.install()
        try:
            m = module.measure(state, 0.2, tracer=tracer)
        finally:
            tracer.uninstall()
            state.close()
        check_rounds(m)
        assert m.failed == 0, m.errors
        runs.append(m.rounds[0])
    first, second = runs
    assert first == second
    patterns = SPEC["exact"]
    for key in first:
        assert any(
            key == p or (p.endswith("*") and key.startswith(p[:-1])) for p in patterns
        ), key


def test_round_timer_scales_to_the_reference_speed(monkeypatch):
    # Probes of 1x and then 3x the reference: the round ran at half speed,
    # so its seconds count half at the reference speed.
    probes = iter([harness.PROBE_REFERENCE_S, 3 * harness.PROBE_REFERENCE_S])
    monkeypatch.setattr(harness, "probe_seconds", lambda: next(probes))
    timer = harness.RoundTimer()
    timer.start()
    wall, cpu, scale = timer.stop()
    assert wall >= 0.0 and cpu >= 0.0
    assert scale == pytest.approx(0.5)


def test_changed_round_is_a_failure():
    m = Measurement(rounds=[{"wire_ratio": 0.5}, {"wire_ratio": 0.5}, {"wire_ratio": 0.6}])
    check_rounds(m)
    assert m.failed == 1


@pytest.mark.parametrize("workload", ["exchange-tcp", "fanout-small", "replay-mixed"])
def test_traced_spans_nest_and_self_times_are_non_negative(workload):
    module = run._load(workload)
    state = module.setup(7)
    tracer = Tracer()
    tracer.install()
    try:
        m = module.measure(state, 0.3, tracer=tracer)
    finally:
        tracer.uninstall()
        state.close()
    assert tracer.spans
    by_id = {span.span_id: span for span in tracer.spans}
    for span in tracer.spans:
        assert span.end >= span.start
        if span.parent_id:
            parent = by_id[span.parent_id]
            assert parent.thread == span.thread
            assert parent.start <= span.start and span.end <= parent.end
    selfs, violations = self_times(tracer.spans)
    assert violations == []
    assert min(selfs.values()) >= 0.0
    metrics, violations = layer_metrics(tracer, m.elapsed)
    assert violations == []
    assert 0.0 < metrics["trace.self_time_share"] <= 1.0


def test_self_time_subtracts_children_and_flags_escapes():
    def span(span_id, parent_id, start, end, name="s"):
        s = Span(name, 1, span_id, parent_id, thread=1, group=None)
        s.start, s.end = start, end
        return s

    parent = span(1, 0, 0.0, 10.0)
    children = [span(2, 1, 1.0, 3.0), span(3, 1, 4.0, 8.0)]
    selfs, violations = self_times([parent, *children])
    assert selfs == {1: 4.0, 2: 2.0, 3: 4.0}
    assert violations == []
    _, violations = self_times([parent, span(4, 1, 9.0, 11.0)])
    assert violations and "escapes" in violations[0]


def test_install_and_uninstall_restore_the_library():
    from repro.core.policy import AdaptivePolicy
    from repro.middleware.transport import WireFormat

    raw_choose = AdaptivePolicy.__dict__["choose"]
    raw_encode = WireFormat.__dict__["encode"]
    tracer = Tracer()
    tracer.install()
    assert AdaptivePolicy.__dict__["choose"] is not raw_choose
    tracer.uninstall()
    assert AdaptivePolicy.__dict__["choose"] is raw_choose
    assert WireFormat.__dict__["encode"] is raw_encode
