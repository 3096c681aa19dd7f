"""Tests of the benchmark's own arithmetic and tracing.

    python3 -m pytest perfbench/tests -q
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

from stats import latency_summary, quartile_spread, rank, tail_percentile  # noqa: E402
from tracing import BOUNDARIES, Tracer, metric_names, metric_unit, self_times  # noqa: E402
from run import end_to_end  # noqa: E402


# -- the tail-percentile rule ------------------------------------------------

@pytest.mark.parametrize("n, p, beyond", [
    (74, 86, 10),     # verify-suite: one check per operation
    (2000, 99, 20),   # about 2,000 operations
    (1136, 99, 11),   # trace-loops
    (202, 95, 10),    # cumulant-tuples
    (100, 90, 10),    # matrix-moments
    (20, 50, 10),     # the fewest samples the rule accepts
])
def test_tail_percentile_leaves_ten_beyond(n, p, beyond):
    assert tail_percentile(n) == p
    assert n - rank(p, n) == beyond
    # the next percentile up would leave fewer than ten
    if p < 99:
        assert n - rank(p + 1, n) < 10


def test_tail_percentile_refuses_too_few_samples():
    with pytest.raises(ValueError):
        tail_percentile(19)


def test_latency_summary_on_74_operations():
    summary = latency_summary([i / 1000 for i in range(74, 0, -1)])  # 1..74 ms
    assert summary["samples"] == 74
    assert summary["tail_percentile"] == 86
    assert summary["tail_ms"] == pytest.approx(64.0)  # rank ceil(0.86 * 74) = 64
    assert summary["beyond_tail"] == 10
    assert summary["p50_ms"] == pytest.approx(37.5)


def test_quartile_spread_matches_statistics_quantiles():
    xs = [10, 11, 12, 13, 14, 15, 16, 17, 18, 19]
    # quantiles(n=4), exclusive method: Q1 = 11.75, median 14.5, Q3 = 17.25
    assert quartile_spread(xs) == pytest.approx((17.25 - 11.75) / 14.5)


def test_end_to_end_takes_each_operation_at_its_best_pass():
    ops = [0.001 * k for k in range(1, 21)]
    fast = {"setup_s": 0.2, "wall_s": sum(ops) + 0.05, "latencies_s": ops,
            "peak_rss_mb": 40.0}
    # a slow episode covers the first half of one pass and the second of another
    slow_a = dict(fast, latencies_s=[x * 2 for x in ops[:10]] + ops[10:],
                  setup_s=0.3, peak_rss_mb=41.0)
    slow_b = dict(fast, latencies_s=ops[:10] + [x * 2 for x in ops[10:]],
                  setup_s=0.4, peak_rss_mb=42.0)
    for p in (slow_a, slow_b):
        p["wall_s"] = sum(p["latencies_s"]) + 0.03
    metrics, tail = end_to_end([slow_a, slow_b, dict(fast, setup_s=0.5)])
    assert metrics["wall_s"] == pytest.approx(sum(ops) + 0.03)
    assert metrics["op_p50_ms"] == pytest.approx(10.5)
    assert metrics["op_tail_ms"] == pytest.approx(10.0)  # p50 is all 20 samples allow
    assert (tail["tail_percentile"], tail["samples"]) == (50, 20)
    assert metrics["setup_s"] == pytest.approx(0.4)
    assert metrics["peak_rss_mb"] == pytest.approx(41.0)


# -- self time ---------------------------------------------------------------

class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def work(self, dt):
        self.now += dt


def test_self_time_subtracts_nested_children():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def inner():
        clock.work(2.0)
    inner_t = tracer.wrap("m.inner", inner)

    def outer():
        clock.work(1.0)
        inner_t()
        clock.work(3.0)
        inner_t()
    outer_t = tracer.wrap("m.outer", outer)

    outer_t()
    m = tracer.metrics()
    assert (m["m.outer.calls"], m["m.inner.calls"]) == (1, 2)
    assert m["m.outer.self_s"] == pytest.approx(4.0)
    assert m["m.inner.self_s"] == pytest.approx(4.0)


def test_self_time_of_recursion_counts_each_level_once():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def rec(n):
        clock.work(1.0)
        if n:
            rec_t(n - 1)
        clock.work(0.5)
    rec_t = tracer.wrap("m.rec", rec)

    rec_t(3)
    m = tracer.metrics()
    assert m["m.rec.calls"] == 4
    assert m["m.rec.self_s"] == pytest.approx(6.0)  # the whole interval, once
    assert list(self_times(tracer.start, tracer.end, tracer.parent)) == \
        pytest.approx([1.5, 1.5, 1.5, 1.5])


def test_self_times_on_explicit_spans():
    # 0 [0, 10] has children 1 [1, 4] and 3 [5, 9]; 2 [2, 3] is inside 1.
    start = [0, 1, 2, 5]
    end = [10, 4, 3, 9]
    parent = [-1, 0, 1, 0]
    assert list(self_times(start, end, parent)) == pytest.approx([3, 2, 1, 4])


def test_errors_count_once_where_they_leave_the_layer():
    tracer = Tracer(clock=FakeClock())

    def low():
        raise KeyError("x")
    low_t = tracer.wrap("a.low", low)
    high_t = tracer.wrap("a.high", lambda: low_t())

    def caller():
        try:
            high_t()
        except KeyError:
            pass
    tracer.wrap("b.caller", caller)()
    m = tracer.metrics()
    assert m["a.errors"] == 1
    assert m["b.errors"] == 0


# -- wrapping the library ----------------------------------------------------

def test_install_wraps_names_imported_into_other_modules():
    import graphfree
    from graphfree import cumulants, falg, gralg, graphs
    original = gralg.tau
    tracer = Tracer()
    tracer.install()
    try:
        assert cumulants.tau is gralg.tau is not original
        assert falg.enumerate_paths is graphs.enumerate_paths
        assert graphfree.tau is gralg.tau
        g = graphs.named_graph("a3")
        loop = graphs.enumerate_paths(g, 0, 4, 0)[0]
        gralg.tau(gralg.GradedElement.basis(g, loop))
    finally:
        tracer.uninstall()
    assert gralg.tau is original and cumulants.tau is original
    m = tracer.metrics()
    assert m["gralg.tau.calls"] == 1
    assert m["gralg.tau_path.calls"] == 1
    assert m["gralg.tau_pairing.calls"] == 2  # Catalan(2) pairings of length 4
    assert m["graphs.enumerate_paths.paths"] >= 1


def test_benchmark_json_lists_every_reported_metric():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    layer_names = [m["name"] for m in bench["per_layer"]]
    assert layer_names == metric_names() + ["trace_overhead_s"]
    assert all(f"{module}.errors" in layer_names for module in BOUNDARIES)
    assert all(m["unit"] == metric_unit(m["name"]) for m in bench["per_layer"])
    e2e = [m["name"] for m in bench["end_to_end"]]
    assert e2e == ["setup_s", "wall_s", "op_p50_ms", "op_tail_ms", "peak_rss_mb"]
