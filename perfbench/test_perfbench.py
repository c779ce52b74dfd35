"""Tests for the benchmark's own helpers, at tiny sizes.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import inputs  # noqa: E402
from checks import check_artifact, round_half_up  # noqa: E402
from harness import END_TO_END, PER_LAYER, timing  # noqa: E402
from run import WORKLOADS  # noqa: E402
from spans import Tracer  # noqa: E402
from stats import MIN_BEYOND, Tally, describe, percentile  # noqa: E402


class TestPercentile:
    def test_never_above_the_observed_max(self):
        rng = np.random.default_rng(0)
        for n in (1, 2, 11, 20, 99, 1000):
            samples = rng.exponential(size=n).tolist()
            for q in (1, 25, 50, 90, 99, 99.9, 100):
                value = percentile(samples, q)
                assert value is None or value <= max(samples)

    def test_value_is_an_observed_sample(self):
        samples = [5.0, 1.0, 3.0, 2.0, 4.0]
        assert percentile(samples, 50) == 3.0
        assert percentile(samples, 20) == 1.0

    def test_tail_needs_ten_samples_beyond(self):
        # p90 of n samples sits at rank ceil(0.9 n): 100 samples leave 10 beyond.
        assert percentile(list(range(100)), 90) == 89
        assert percentile(list(range(99)), 90) is None
        assert percentile(list(range(1000)), 99) == 989
        assert percentile(list(range(999)), 99) is None

    def test_median_needs_one_sample(self):
        assert percentile([7.0], 50) == 7.0
        assert percentile([], 50) is None

    def test_rejects_out_of_range_q(self):
        with pytest.raises(ValueError):
            percentile([1.0], 0)
        with pytest.raises(ValueError):
            percentile([1.0], 101)

    def test_describe_counts_and_scales(self):
        summary = describe([0.001] * 30, 1e3)
        assert summary["n"] == 30
        assert summary["p50"] == pytest.approx(1.0)
        assert summary["p90"] is None  # 27th of 30 leaves only 3 beyond
        assert MIN_BEYOND == 10


class TestTally:
    def test_error_rate_counts_failed_units(self):
        tally = Tally()
        for ok in (True, False, True, True):
            tally.record(ok, "bad unit")
        assert (tally.attempted, tally.failed) == (4, 1)
        assert tally.error_rate == 0.25
        assert tally.reasons == {"bad unit": 1}

    def test_round_failures_never_exceed_attempts(self):
        tally = Tally()
        tally.record(True)
        tally.fail("round check")
        tally.fail("another round check")
        assert (tally.attempted, tally.failed) == (1, 1)
        assert tally.error_rate == 1.0
        assert set(tally.reasons) == {"round check", "another round check"}

    def test_empty_tally_has_zero_rate(self):
        assert Tally().error_rate == 0.0


def test_timing_takes_the_stolen_share_out_of_the_wall_clock():
    started = (0.0, 0.0, (0, 0))
    done = (10.0, 8.0, (750, 250))  # 10 s wall, 8 CPU s, a quarter of busy ticks stolen
    fields = timing(started, started, done, 100.0)
    assert fields["rate"] == 10.0 and fields["cpu_rate"] == 12.5
    assert fields["steal_share"] == 0.25
    assert fields["net_rate"] == pytest.approx(100.0 / 7.5)


class TestGenerators:
    @pytest.mark.parametrize(
        "make",
        [
            lambda rng: inputs.hub_skewed_edges(300, 1200, rng),
            lambda rng: inputs.planted_community_edges(400, 1500, rng),
            lambda rng: inputs.erdos_renyi_edges(200, 600, rng),
            lambda rng: inputs.powerlaw_cluster_edges(150, 4, 0.3, rng),
        ],
    )
    def test_seeded_simple_and_distinct(self, make):
        u1, v1 = make(np.random.default_rng([7, 1]))
        u2, v2 = make(np.random.default_rng([7, 1]))
        u3, v3 = make(np.random.default_rng([8, 1]))
        assert np.array_equal(u1, u2) and np.array_equal(v1, v2)
        assert not (np.array_equal(u1, u3) and np.array_equal(v1, v3))
        assert (u1 != v1).all()
        keys = np.minimum(u1, v1) * 10**6 + np.maximum(u1, v1)
        assert np.unique(keys).shape[0] == keys.shape[0]

    def test_requested_edge_counts(self):
        rng = np.random.default_rng(3)
        assert inputs.hub_skewed_edges(300, 1200, rng)[0].shape[0] == 1200
        assert inputs.planted_community_edges(400, 1500, rng)[0].shape[0] == 1500
        assert inputs.erdos_renyi_edges(200, 600, rng)[0].shape[0] == 600

    def test_churn_stream_is_valid(self):
        rng = np.random.default_rng(11)
        u, v = inputs.powerlaw_cluster_edges(60, 3, 0.3, rng)
        ops = inputs.mixed_churn_ops(u, v, 500, rng)
        assert len(ops) == 500
        live = {(min(a, b), max(a, b)) for a, b in zip(u.tolist(), v.tolist())}
        for kind, a, b in ops:
            edge = (min(a, b), max(a, b))
            assert a != b
            if kind == "insert":
                assert edge not in live
                live.add(edge)
            else:
                assert edge in live
                live.remove(edge)

    def test_churn_stream_repeats_for_a_seed(self):
        u, v = inputs.powerlaw_cluster_edges(60, 3, 0.3, np.random.default_rng(2))
        first = inputs.mixed_churn_ops(u, v, 300, np.random.default_rng(4))
        assert first == inputs.mixed_churn_ops(u, v, 300, np.random.default_rng(4))
        assert first != inputs.mixed_churn_ops(u, v, 300, np.random.default_rng(5))


class TestChecks:
    def _write(self, path, u, v, nodes):
        body = "".join(f"{a}\t{b}\n" for a, b in zip(u, v))
        path.write_text(f"# nodes: {nodes} edges: {len(u)}\n{body}")

    def test_accepts_a_subset_with_matching_delta(self, tmp_path):
        in_u, in_v = np.array([0, 1, 2, 0]), np.array([1, 2, 3, 2])
        out = tmp_path / "out.txt"
        self._write(out, [0, 2], [1, 3], 4)
        # degrees 2,2,3,1 -> kept 1,1,1,1 at p = 0.5: |1-1|+|1-1|+|1-1.5|+|1-0.5|
        problems, facts = check_artifact(out, in_u, in_v, 0.5, 1.0, expect_edges=round_half_up(2.0))
        assert problems == []
        assert facts["kept_edges"] == 2 and facts["avg_delta"] == 0.25

    def test_flags_foreign_edges_wrong_delta_and_count(self, tmp_path):
        in_u, in_v = np.array([0, 1, 2]), np.array([1, 2, 3])
        out = tmp_path / "out.txt"
        self._write(out, [0, 0], [1, 3], 4)
        problems, _ = check_artifact(out, in_u, in_v, 0.5, 99.0, expect_edges=1)
        text = " ".join(problems)
        assert "subset" in text and "delta" in text and "method rule" in text

    def test_round_half_up(self):
        assert [round_half_up(x) for x in (0.5, 1.5, 2.4, 2.5)] == [1, 2, 2, 3]


class TestTracer:
    def test_coverage_unions_overlapping_spans(self):
        tracer = Tracer()
        tracer.add("a", 0.0, 2.0)
        tracer.add("b", 1.0, 3.0)
        tracer.add("c", 5.0, 6.0)
        assert tracer.covered(0.0, 10.0) == pytest.approx(4.0)
        assert tracer.total("a") == pytest.approx(2.0)

    def test_chrome_trace_is_loadable(self, tmp_path):
        tracer = Tracer()
        with tracer.span("graph.io.read", rows=3):
            pass
        tracer.write_chrome(tmp_path / "t.json")
        events = json.loads((tmp_path / "t.json").read_text())["traceEvents"]
        assert events[0]["name"] == "graph.io.read" and events[0]["ph"] == "X"
        assert events[0]["cat"] == "graph"


@pytest.mark.parametrize("workload", ["file-bm2", "sharded-crr", "service-mix", "stream-churn"])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_workload_end_to_end_at_tiny_scale(workload, trace):
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", trace, "--scale", "0.02"],
        capture_output=True, text=True, timeout=300, check=False,
    )
    assert completed.returncode == 0, completed.stderr[-3000:]
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(PER_LAYER if trace == "1" else END_TO_END)
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])
    assert all(m["bound"] <= 0.25 for m in spec["end_to_end"])
