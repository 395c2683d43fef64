"""Tests of the benchmark harness itself: python3 -m pytest -q perfbench"""

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import hostspeed  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402
from pdvol import cumulants, distribution  # noqa: E402
from pdvol import exactlaw as ex  # noqa: E402
from pdvol.errors import ConvergenceError  # noqa: E402
from tracing import Span  # noqa: E402


def test_self_time_subtracts_nested_children():
    spans = [
        Span("a.root", 0, 100, -1),
        Span("a.left", 10, 40, 0),
        Span("a.inner", 15, 25, 1),
        Span("a.right", 50, 70, 0),
    ]
    assert tracing.self_times(spans) == [50, 20, 10, 20]


def test_function_self_time_keeps_same_layer_helpers():
    spans = [
        Span("cli.main", 0, 100, -1),
        Span("cli.cmd_report", 5, 95, 0),
        Span("report.run_claims", 10, 90, 1),
        Span("exactlaw.cgf", 20, 30, 2),
    ]
    assert tracing.in_layer_times(spans, tracing.self_times(spans)) == [20, 10, 70, 10]
    metrics, _ = tracing.layer_metrics(spans)
    # main minus run_claims: argparse and emission, inside cmd_report too
    assert metrics["cli.main.self_s"] == pytest.approx(20e-9)
    assert metrics["cli.self_s"] == pytest.approx(20e-9)
    assert metrics["report.run_claims.self_s"] == pytest.approx(70e-9)
    assert metrics["cli.cmd_report.calls"] == 1


def test_row_terms_and_call_bytes_of_a_tiny_call():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        # through distribution's own binding: traced as exactlaw.cgf
        distribution.cgf(ex.ModelParams(5, 0.0, 1.0), np.array([0.1j, 0.2j, 0.3j]))
        ex.volume_moment(ex.ModelParams(7, 0.0, 1.0), 1.0)
    finally:
        tracer.uninstall()
    names = [s.name for s in tracer.spans]
    assert names == ["exactlaw.cgf", "exactlaw.volume_moment", "exactlaw.log_volume_moment"]
    assert tracer.spans[2].parent == 1
    assert tracing.row_terms(tracer.spans) == (3 * 5 + 7, 3 * 5 * 16)
    metrics, problems = tracing.layer_metrics(tracer.spans)
    assert problems == []
    assert metrics["exactlaw.cgf.points"] == 3
    assert metrics["exactlaw.row_terms"] == 22


def test_uninstall_restores_every_binding():
    before = (ex.cgf, cumulants.cgf, distribution.cgf, wl.sm._uniform_circle)
    tracer = tracing.Tracer()
    tracer.install()
    assert distribution.cgf is not before[2] and distribution.cgf.__wrapped__ is before[2]
    tracer.uninstall()
    assert (ex.cgf, cumulants.cgf, distribution.cgf, wl.sm._uniform_circle) == before


def test_tracing_changes_no_output():
    ops = wl.smalln_ops(3)[:5]
    plain = wl.outputs("smalln", ops, wl.run_pass(ops))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = wl.outputs("smalln", ops, wl.run_pass(ops))
    finally:
        tracer.uninstall()
    assert plain == traced
    assert len(tracer.spans) > 0


def _raise(exc):
    raise exc


def test_failed_frac_accounting_counts_each_failure_once():
    ops = [
        wl.Op("ok", lambda: 1.0, lambda v: []),
        wl.Op("raises", lambda: _raise(ValueError("boom"))),
        wl.Op("wrong", lambda: 2.0, lambda v: ["wrong answer"]),
        wl.Op("claims", lambda: 0, lambda v: ["a", "b"], units=5),
        wl.Op("refused", lambda: _raise(ConvergenceError("budget")), refusal=True),
        wl.Op("not_refused", lambda: 3.0, refusal=True),
    ]
    attempted, failed, refused, messages = wl.account(ops, wl.run_pass(ops))
    assert (attempted, failed, refused) == (10, 5, 1)
    assert failed / attempted == 0.5
    assert len(messages) == 5 and any("boom" in m for m in messages)


def test_acceptance_cross_check_brackets_the_exact_rate():
    # 4e5 proposals at rate 0.368 accept about 147k: enough for 1e5 draws
    assert tracing.acceptance_consistent([400_000], 100_000, 0.368, delivered=True)
    # the same proposals at rate 0.1 could not have delivered 1e5 draws
    assert not tracing.acceptance_consistent([400_000], 100_000, 0.1, delivered=True)
    # a refused run: 1.2e7 proposals at rate 0.074 cannot reach 1.5e6 draws
    assert tracing.acceptance_consistent([2_000_000] * 6, 1_500_000, 0.074, delivered=False)
    assert not tracing.acceptance_consistent([2_000_000] * 6, 1_500_000, 0.3, delivered=False)


@pytest.mark.parametrize("value", [np.arange(3.0), {"a": [1, (2.0, "x")]}, ValueError("e")])
def test_digest_is_stable_and_discriminating(value):
    assert wl.digest(value) == wl.digest(value)
    assert wl.digest(value) != wl.digest([value])


def test_median_pass_takes_each_op_at_its_median():
    ops = [wl.Op("a", lambda: None), wl.Op("b", lambda: None)]
    # a slow spell hits op a in pass 1 and op b in pass 3
    passes = [{"a": 9.0, "b": 2.0}, {"a": 1.0, "b": 2.0}, {"a": 1.0, "b": 8.0}]
    assert wl.median_pass_s(ops, passes) == 3.0


def test_samples_taken_during_an_op_scale_it_and_leave_its_time():
    speed = hostspeed.HostSpeed("calls")
    speed.samples = [(0.0, 1.0)] * hostspeed.WINDOW

    def long_op():  # the SIGALRM handler fires four times during it
        for _ in range(4):
            speed.samples.append((time.perf_counter(), 0.5))

    ops = [wl.Op("long", long_op), wl.Op("short", lambda: None)]
    result = wl.run_pass(ops, speed)
    assert result.levels == {"long": 0.5, "short": 0.5}
    assert result.times["long"] == pytest.approx(-2.0, abs=0.05)
    assert result.wall_s == sum(result.times.values())
    assert speed.scaled({"a": 3.0}, {"a": 2.0 * speed.reference_s}) == {"a": 1.5}
