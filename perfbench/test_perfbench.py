"""Tests of the benchmark's own helpers: statistics, self-time arithmetic, transparency."""
from __future__ import annotations

import json
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import layers
import run
import spread
import tracer
import workloads
import worker
from fockbell import cli, exact, optimizer

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json")
                       .read_text(encoding="utf-8"))


def span(span_id, start, end, parent=None, child_time=0.0, cross=False, thread=1):
    return tracer.Span(span_id, f"s{span_id}", "", start, end, parent, thread,
                       cross_thread=cross, child_time=child_time)


class TestStatistics:
    def test_quartile_spread_matches_statistics_module(self):
        values = [1.0, 1.2, 0.9, 1.1, 1.05, 0.95, 1.3, 1.0, 1.02, 0.98]
        q1, median, q3 = statistics.quantiles(values, n=4)
        assert spread.quartile_spread(values) == (q1, median, q3, (q3 - q1) / median)

    def test_constant_values_have_no_spread(self):
        assert spread.quartile_spread([2.0] * 10)[3] == 0.0


class TestSelfTime:
    def test_union_merges_overlaps_and_clips(self):
        assert tracer.union_length([(1, 3), (2, 5), (7, 8)], 0, 10) == pytest.approx(5.0)
        assert tracer.union_length([(-1, 2), (9, 12)], 0, 10) == pytest.approx(3.0)
        assert tracer.union_length([], 0, 10) == 0.0

    def test_same_thread_children_are_subtracted(self):
        spans = [span(0, 0.0, 10.0, child_time=6.0), span(1, 1.0, 4.0, parent=0),
                 span(2, 5.0, 8.0, parent=0)]
        assert tracer.self_times(spans) == pytest.approx({0: 4.0, 1: 3.0, 2: 3.0})

    def test_parallel_children_are_subtracted_once(self):
        # two pool threads both busy from 2 to 6: the parent loses 4 s, not 8 s
        spans = [span(0, 0.0, 10.0), span(1, 2.0, 6.0, parent=0, cross=True, thread=2),
                 span(2, 2.0, 6.0, parent=0, cross=True, thread=3)]
        assert tracer.self_times(spans)[0] == pytest.approx(6.0)

    def test_summary_folds_counted_calls(self):
        parent = span(0, 0.0, 2.0, child_time=1.5)
        parent.counted[("exact.f", "")] = [3, 1.5, 1.0, 0.0]
        summary = tracer.summarize([parent])
        assert summary[("s0", "")] == [1, 2.0, pytest.approx(0.5), 0.0]
        assert summary[("exact.f", "")] == [3, 1.5, 1.0, 0.0]


class TestTracer:
    def test_nested_and_counted_frames(self):
        t = tracer.Tracer()

        def leaf():
            time.sleep(0.002)

        def middle():
            for _ in range(3):
                counted_leaf()
            return 7

        counted_leaf = tracer.wrap(t, leaf, "exact.correlation_e", counted=True)
        middle_w = tracer.wrap(t, middle, tracer.EXPECTATION, counted=True)
        top = tracer.wrap(t, lambda: middle_w(), "top")
        assert top() == 7
        (root,) = t.spans
        assert root.counted[("exact.correlation_e", "")][0] == 3
        calls, total, self_s, _ = root.counted[(tracer.EXPECTATION, "")]
        assert calls == 1 and 0.0 <= self_s < total
        # expectation called the product entry, so its route is product
        assert root.counted[("functional.route", "product")][0] == 1
        assert tracer.self_times(t.spans)[0] == pytest.approx(root.end - root.start - total)

    def test_pool_thread_spans_attach_to_main_thread_parent(self):
        t = tracer.Tracer()
        child = tracer.wrap(t, lambda: time.sleep(0.001), "child")

        def parent():
            threads = [threading.Thread(target=child) for _ in range(2)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=10)
            assert not any(th.is_alive() for th in threads)

        tracer.wrap(t, parent, "parent")()
        by_name = {}
        for s in t.spans:
            by_name.setdefault(s.name, []).append(s)
        (p,) = by_name["parent"]
        assert all(c.parent == p.span_id and c.cross_thread for c in by_name["child"])
        assert 0.0 <= tracer.self_times(t.spans)[p.span_id] <= p.end - p.start

    def test_exception_closes_frame(self):
        t = tracer.Tracer()

        def boom():
            raise ValueError("x")

        with pytest.raises(ValueError):
            tracer.wrap(t, boom, "boom")()
        assert [s.name for s in t.spans] == ["boom"]
        assert t._stack() == []


class TestTransparency:
    def test_install_patches_and_uninstall_restores(self):
        before = (cli.main, optimizer.bell_value, exact.correlation_e)
        undo = tracer.install(tracer.Tracer(), layers.targets())
        try:
            assert cli.main is not before[0]
            # one function reachable by two names shares one wrapper
            from fockbell import functional
            assert optimizer.bell_value is functional.bell_value
        finally:
            tracer.uninstall(undo)
        assert (cli.main, optimizer.bell_value, exact.correlation_e) == before

    def test_traced_outputs_are_byte_identical(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"form": "bchsh", "n": 4, "p": 2,
                                    "alice_functional": "binned_sign"}), encoding="utf-8")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"n_plus": 3, "n_minus": 3,
                                      "angles": [0.1 * i for i in range(6)]}), encoding="utf-8")
        commands = [["qmax", str(spec), "--mode", "free", "--restarts", "2"],
                    ["correlate", str(config)], ["sample", str(config), "--count", "5"],
                    ["oracle-check", "--n-max", "3", "--angle-sets", "1"]]
        plain = [workloads.call_cli(c) for c in commands]
        t = tracer.Tracer()
        undo = tracer.install(t, layers.targets())
        try:
            traced = [workloads.call_cli(c) for c in commands]
        finally:
            tracer.uninstall(undo)
        assert traced == plain
        metrics = layers.layer_metrics(tracer.summarize(t.spans), t.spans, 1)
        assert metrics["optimizer.restarts"] == 2
        assert metrics["optimizer.bell_evals"] > 0
        assert metrics["functional.route.grouped"] > 0
        assert metrics["exact.correlation_e.calls"] == 1
        assert metrics["oracle.amplitude_updates"] == sum(
            (n_plus + n_minus) * 2 ** (n_plus + n_minus)
            for n in (2, 3) for n_plus, n_minus in ((k, n - k) for k in range(n + 1)))


class TestDigestAndContract:
    def test_digest_tells_outputs_apart(self):
        a = np.arange(4.0)
        assert worker.digest(a) == worker.digest(a.copy())
        assert worker.digest(a) != worker.digest(a + 1e-15 * a)
        assert worker.digest([1.0, "x"]) != worker.digest([1.0, "y"])

    def test_benchmark_lists_every_per_layer_metric(self):
        produced = set(layers.layer_metrics({}, [], 1))
        produced |= {f"{g}_s" for g in run.COMMAND_GROUPS} | {"trace_overhead_frac"}
        listed = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
        assert set(listed) == produced
        assert all(run.unit_of(name) == unit for name, unit in listed.items())

    def test_address_space_limit_turns_runaway_allocation_into_memory_error(self):
        # an untouched uint8 array of the limit's size needs no memory, only address space
        code = ("import numpy\n"
                "try:\n"
                f"    numpy.empty({run.ADDRESS_SPACE_BYTES}, dtype=numpy.uint8)\n"
                "except MemoryError:\n"
                "    raise SystemExit(7)\n")
        proc = subprocess.run([sys.executable, "-c", code], timeout=60,
                              preexec_fn=run._limit_address_space)
        assert proc.returncode == 7

    def test_benchmark_lists_workloads(self):
        assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
        assert set(run.WORKLOADS) == set(workloads.WORKLOADS)
