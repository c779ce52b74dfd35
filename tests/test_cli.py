"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


def _json_out(capsys):
    return json.loads(capsys.readouterr().out)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_reduce_defaults(self):
        args = build_parser().parse_args(["reduce"])
        assert args.dataset == "ca-grqc"
        assert args.method == "bm2"
        assert args.p == 0.5

    def test_bench_requires_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench"])

    def test_unknown_dataset_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["reduce", "--dataset", "bogus"])


class TestCommands:
    def test_datasets_listing(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "ca-grqc" in out
        assert "com-livejournal" in out

    def test_reduce_prints_summary(self, capsys):
        code = main(
            ["reduce", "--dataset", "ca-grqc", "--scale", "0.02", "--method", "bm2", "--p", "0.5"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "BM2" in out
        assert "p=0.5" in out

    def test_reduce_json(self, capsys):
        code = main(
            [
                "reduce",
                "--dataset", "ca-grqc",
                "--scale", "0.02",
                "--method", "bm2",
                "--p", "0.5",
                "--json",
            ]
        )
        assert code == 0
        payload = _json_out(capsys)
        assert payload["method"] == "BM2"
        assert payload["p"] == 0.5
        assert payload["reduced_edges"] <= payload["original_edges"]
        assert payload["delta"] >= 0

    def test_reduce_writes_output(self, tmp_path, capsys):
        output = tmp_path / "reduced.txt"
        main(
            [
                "reduce",
                "--dataset", "ca-grqc",
                "--scale", "0.02",
                "--p", "0.5",
                "--output", str(output),
            ]
        )
        assert output.exists()
        assert "wrote reduced edge list" in capsys.readouterr().out

    def test_reduce_from_input_file(self, tmp_path, capsys, figure1):
        from repro.graph import write_edge_list

        path = tmp_path / "in.txt"
        write_edge_list(figure1, path)
        code = main(["reduce", "--input", str(path), "--method", "crr", "--p", "0.4"])
        assert code == 0
        assert "CRR" in capsys.readouterr().out

    def test_reduce_unknown_method(self):
        with pytest.raises(SystemExit):
            main(["reduce", "--scale", "0.02", "--method", "bogus"])

    def test_reduce_sharded_json(self, capsys):
        code = main(
            [
                "reduce",
                "--dataset", "ca-grqc",
                "--scale", "0.02",
                "--method", "crr",
                "--p", "0.5",
                "--sources", "16",
                "--seed", "3",
                "--shards", "2",
                "--json",
            ]
        )
        assert code == 0
        payload = _json_out(capsys)
        assert payload["method"] == "ShardedCRR"
        sharding = payload["sharding"]
        assert sharding["num_shards"] == 2
        assert sharding["num_workers"] == 1
        assert sharding["boundary_edges"] >= 0
        assert len(sharding["per_shard"]) == 2
        for entry in sharding["per_shard"]:
            assert entry["seconds"] >= 0.0
        for phase in ("partition_seconds", "shard_seconds", "reconcile_seconds"):
            assert sharding[phase] >= 0.0
        assert sharding["partition"]["converged"] is True
        assert sharding["partition"]["sweeps"] >= 1

    def test_reduce_sharded_text_summary(self, capsys):
        code = main(
            [
                "reduce",
                "--dataset", "ca-grqc",
                "--scale", "0.02",
                "--method", "bm2",
                "--p", "0.5",
                "--seed", "3",
                "--shards", "2",
                "--workers", "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "sharding: 2 shards" in out
        assert "label-propagation sweeps)" in out
        assert "2 workers" in out
        assert "shard 0:" in out

    def test_reduce_sharded_rejects_unsupported_method(self):
        with pytest.raises(SystemExit):
            main(["reduce", "--scale", "0.02", "--method", "uds", "--shards", "2"])

    def test_reduce_sharded_rejects_bad_count(self):
        with pytest.raises(SystemExit):
            main(["reduce", "--scale", "0.02", "--method", "crr", "--shards", "0"])

    def test_reduce_shards_one_matches_whole_graph(self, capsys):
        args = [
            "reduce",
            "--dataset", "ca-grqc",
            "--scale", "0.02",
            "--method", "bm2",
            "--p", "0.5",
            "--seed", "3",
            "--json",
        ]
        assert main(args) == 0
        whole = _json_out(capsys)
        assert main(args + ["--shards", "1"]) == 0
        sharded = _json_out(capsys)
        assert sharded["delta"] == whole["delta"]
        assert sharded["reduced_edges"] == whole["reduced_edges"]

    def test_evaluate(self, capsys):
        code = main(
            [
                "evaluate",
                "--dataset", "ca-grqc",
                "--scale", "0.02",
                "--method", "crr",
                "--p", "0.5",
                "--sources", "16",
                "--tasks", "degree,topk",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Vertex degree" in out
        assert "Top-k" in out
        assert "Link prediction" not in out

    def test_evaluate_json(self, capsys):
        code = main(
            [
                "evaluate",
                "--dataset", "ca-grqc",
                "--scale", "0.02",
                "--method", "bm2",
                "--p", "0.5",
                "--tasks", "degree",
                "--json",
            ]
        )
        assert code == 0
        payload = _json_out(capsys)
        assert payload["reduction"]["method"] == "BM2"
        names = [task["name"] for task in payload["tasks"]]
        assert names == ["Vertex degree"]
        assert 0.0 <= payload["tasks"][0]["utility"] <= 1.0

    def test_evaluate_unknown_task(self):
        with pytest.raises(SystemExit):
            main(["evaluate", "--scale", "0.02", "--tasks", "nonsense"])

    def test_reduce_with_validation(self, capsys):
        code = main(
            [
                "reduce",
                "--dataset", "ca-grqc",
                "--scale", "0.02",
                "--method", "bm2",
                "--p", "0.5",
                "--validate",
            ]
        )
        assert code == 0
        assert "OK" in capsys.readouterr().out

    def test_evaluate_extension_tasks(self, capsys):
        code = main(
            [
                "evaluate",
                "--dataset", "ca-grqc",
                "--scale", "0.02",
                "--method", "bm2",
                "--p", "0.6",
                "--tasks", "connectivity,community",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Connectivity" in out
        assert "Community" in out

    def test_estimate(self, capsys):
        code = main(
            ["estimate", "--dataset", "ca-grqc", "--scale", "0.02", "--p", "0.5"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "edges: true=" in out
        assert "relative error" in out

    def test_stats(self, capsys):
        code = main(["stats", "--dataset", "ca-grqc", "--scale", "0.02"])
        assert code == 0
        out = capsys.readouterr().out
        assert "nodes:" in out
        assert "assortativity" in out

    def test_stats_from_input_file(self, tmp_path, capsys, figure1):
        from repro.graph import write_edge_list

        path = tmp_path / "in.txt"
        write_edge_list(figure1, path)
        assert main(["stats", "--input", str(path)]) == 0
        out = capsys.readouterr().out
        assert "edges: 11" in out
        # parsing summary is reported for user-supplied files
        assert "parsed" in out
        assert "self-loops skipped" in out

    def test_stats_input_reports_skipped_lines(self, tmp_path, capsys):
        path = tmp_path / "messy.txt"
        path.write_text("# header\n1 2\n2 1\n3 3\n2 3\n")
        assert main(["stats", "--input", str(path), "--json"]) == 0
        payload = _json_out(capsys)
        assert payload["num_edges"] == 2
        assert payload["parse"]["self_loops_skipped"] == 1
        assert payload["parse"]["duplicates_skipped"] == 1
        assert payload["parse"]["skipped"] == 2

    @pytest.mark.parametrize("command", ["reduce", "evaluate", "stats", "dynamic"])
    @pytest.mark.parametrize(
        "content, problem",
        [
            (b"1 2\n3\n", "2: expected two node tokens, got '3'"),
            (b"1 2\n\xe9 3\n", "2: byte 0xe9 is not UTF-8"),
        ],
        ids=["short-line", "not-utf8"],
    )
    def test_bad_input_file_exits_in_one_line(self, tmp_path, command, content, problem):
        path = tmp_path / "in.txt"
        path.write_bytes(content)
        with pytest.raises(SystemExit) as raised:
            main([command, "--input", str(path)])
        assert raised.value.code == f"{path}:{problem}"

    @pytest.mark.parametrize("command", ["reduce", "stats"])
    def test_missing_input_file_exits_in_one_line(self, tmp_path, command):
        path = tmp_path / "absent.txt"
        with pytest.raises(SystemExit) as raised:
            main([command, "--input", str(path)])
        assert raised.value.code == f"{path}: No such file or directory"

    def test_stats_json_dataset_has_no_parse_block(self, capsys):
        assert main(["stats", "--dataset", "ca-grqc", "--scale", "0.02", "--json"]) == 0
        payload = _json_out(capsys)
        assert "parse" not in payload
        assert payload["num_nodes"] > 0

    def test_progressive(self, capsys):
        code = main(
            [
                "progressive",
                "--dataset", "ca-grqc",
                "--scale", "0.02",
                "--method", "bm2",
                "--ratios", "0.8,0.4",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("BM2 (progressive)") == 2

    def test_progressive_bad_ratios(self):
        with pytest.raises(SystemExit):
            main(["progressive", "--scale", "0.02", "--ratios", "abc"])

    def test_bench_ablation(self, capsys, monkeypatch):
        import repro.bench.harness as harness

        monkeypatch.setattr(
            harness,
            "_QUICK_SCALES",
            {"ca-grqc": 0.02, "ca-hepph": 0.008, "email-enron": 0.003, "com-livejournal": 0.00005},
        )
        code = main(["bench", "--experiment", "ablation-rounding"])
        assert code == 0
        assert "Ablation" in capsys.readouterr().out


class TestOneLineExits:
    """Values the program refuses end the command in one line, never a
    traceback, and are never replaced by a default."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["reduce", "--method", "crr", "--shards", "2", "--workers", "-3"],
                "num_workers must be positive, got -3",
            ),
            (["submit", "--edge-budget", "0"], "budget capacity must be positive, got 0"),
            (
                ["session", "--edge-budget", "0", "--ops", "10"],
                "budget capacity must be positive, got 0",
            ),
            (["submit", "--workers", "0"], "num_workers must be >= 1, got 0"),
            (
                ["session", "--method", "uds", "--ops", "10"],
                "method 'uds' does not shed to a subgraph of G",
            ),
            (["reduce", "--method", "bm2", "--workers", "-3"], "--workers requires --shards"),
            (
                ["dynamic", "--p", "1.5", "--ops", "10"],
                "edge preservation ratio must be in (0, 1), got 1.5",
            ),
        ],
    )
    def test_refused_value(self, argv, message):
        with pytest.raises(SystemExit) as raised:
            main(argv + ["--scale", "0.02"])
        assert raised.value.code == message

    @pytest.mark.parametrize(
        "argv", [["progressive"], ["dynamic", "--ops", "10"]], ids=["progressive", "dynamic"]
    )
    def test_uds_refused_before_it_runs(self, argv, monkeypatch):
        from repro.baselines.uds import UDSSummarizer

        def never(self, graph, p):
            raise AssertionError("UDS ran before the refusal")

        monkeypatch.setattr(UDSSummarizer, "_reduce", never)
        with pytest.raises(SystemExit) as raised:
            main(argv + ["--scale", "0.02", "--method", "uds"])
        assert raised.value.code == "method 'uds' does not shed to a subgraph of G"


class TestDynamicCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["dynamic"])
        assert args.churn == "mixed"
        assert args.ops == 5000
        assert args.drift_ratio == 1.0
        assert "reservoir" not in vars(args)

    def test_unknown_churn_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["dynamic", "--churn", "bogus"])

    def test_dynamic_reports_latency_and_delta(self, capsys):
        code = main(
            [
                "dynamic",
                "--dataset",
                "ca-grqc",
                "--scale",
                "0.02",
                "--churn",
                "mixed",
                "--ops",
                "300",
                "--seed",
                "3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "per-op latency" in out
        assert "p99=" in out
        assert "final delta: live=" in out
        assert "rebuilds=" in out and "swapped=" not in out

    def test_dynamic_from_input_file(self, tmp_path, capsys, figure1):
        from repro.graph.io import write_edge_list

        path = tmp_path / "g.txt"
        write_edge_list(figure1, str(path))
        code = main(
            ["dynamic", "--input", str(path), "--churn", "sliding", "--ops", "40"]
        )
        assert code == 0
        assert "replayed 40 ops" in capsys.readouterr().out

    def test_dynamic_json(self, capsys):
        code = main(
            [
                "dynamic",
                "--dataset", "ca-grqc",
                "--scale", "0.02",
                "--churn", "mixed",
                "--ops", "200",
                "--seed", "3",
                "--json",
            ]
        )
        assert code == 0
        payload = _json_out(capsys)
        assert payload["churn"]["ops"] == 200
        assert payload["final"]["live_delta"] >= 0
        assert payload["final"]["envelope"] > 0
        assert payload["latency_us"]["p50"] <= payload["latency_us"]["p99"]


class TestSessionCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["session"])
        assert args.churn == "mixed"
        assert args.ops == 5000
        assert args.sessions == 1
        assert args.inbox == 4096
        assert args.shed_watermark == 0.75
        assert "reservoir" not in vars(args)

    def test_session_human_summary(self, capsys):
        code = main(
            [
                "session",
                "--dataset", "ca-grqc",
                "--scale", "0.02",
                "--ops", "300",
                "--sessions", "2",
                "--seed", "3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "2 session(s)" in out
        assert "applied=300" in out
        assert "latency p50=" in out
        assert "resident edges in use after close" in out

    def test_session_json(self, capsys):
        code = main(
            [
                "session",
                "--dataset", "ca-grqc",
                "--scale", "0.02",
                "--ops", "200",
                "--seed", "3",
                "--json",
            ]
        )
        assert code == 0
        payload = _json_out(capsys)
        assert payload["failed"] == 0
        assert len(payload["sessions"]) == 1
        telemetry = payload["sessions"][0]
        assert telemetry["ops"]["applied"] == 200
        assert telemetry["backpressure"]["state"] == "apply"
        assert payload["budget"]["in_use_edges"] == 0

    def test_serve_stream_mode(self, tmp_path, capsys):
        jobs = tmp_path / "jobs.json"
        jobs.write_text(
            json.dumps(
                [
                    {
                        "dataset": "ca-grqc",
                        "scale": 0.02,
                        "p": 0.5,
                        "churn": "mixed",
                        "ops": 150,
                        "label": "alpha",
                    },
                    {
                        "dataset": "ca-grqc",
                        "scale": 0.02,
                        "p": 0.4,
                        "churn": "sliding",
                        "ops": 100,
                        "label": "beta",
                    },
                ]
            )
        )
        code = main(["serve", "--jobs", str(jobs), "--mode", "stream", "--json"])
        assert code == 0
        payload = _json_out(capsys)
        assert payload["mode"] == "stream"
        assert payload["failed"] == 0
        assert [job["label"] for job in payload["jobs"]] == ["alpha", "beta"]
        assert payload["jobs"][0]["ops"]["applied"] == 150

    @staticmethod
    def _jobs_with_bad_second(tmp_path, **bad):
        good = {"dataset": "ca-grqc", "scale": 0.02, "p": 0.5, "ops": 100}
        jobs = tmp_path / "jobs.json"
        jobs.write_text(
            json.dumps([dict(good, label="good"), dict(good, label="bad", **bad)])
        )
        return ["serve", "--jobs", str(jobs), "--mode", "stream"]

    def test_serve_stream_bad_method_fails_only_its_job(self, tmp_path, capsys):
        argv = self._jobs_with_bad_second(tmp_path, method="nope")
        assert main(argv) == 1
        out = capsys.readouterr().out
        assert "[good] ok: applied=100" in out
        assert "[bad] open failed: unknown method 'nope'" in out
        assert "served 2 streaming jobs (1 failed)" in out

    def test_serve_stream_bad_churn_exits_before_any_job(self, tmp_path, capsys):
        argv = self._jobs_with_bad_second(tmp_path, churn="bogus")
        with pytest.raises(SystemExit, match="job #1: unknown churn shape 'bogus'"):
            main(argv)
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "bad",
        [{"p": "half"}, {"seed": "x"}, {"scale": "big"}, {"ops": 2.5}, {"batch": "k"}],
    )
    def test_serve_stream_non_numeric_knob_exits(self, tmp_path, capsys, bad):
        argv = self._jobs_with_bad_second(tmp_path, **bad)
        (key,) = bad
        with pytest.raises(SystemExit, match=f"job #1: '{key}' must be"):
            main(argv)
        assert capsys.readouterr().out == ""

    def test_submit_rejects_stream_mode(self):
        with pytest.raises(SystemExit, match="serve"):
            main(
                [
                    "submit",
                    "--dataset", "ca-grqc",
                    "--scale", "0.02",
                    "--p", "0.5",
                    "--mode", "stream",
                ]
            )


class TestServiceCommands:
    def test_submit_json_reports_cache_tier(self, tmp_path, capsys):
        argv = [
            "submit",
            "--dataset", "ca-grqc",
            "--scale", "0.02",
            "--method", "bm2",
            "--p", "0.5",
            "--cache-dir", str(tmp_path / "cache"),
            "--json",
        ]
        assert main(argv) == 0
        cold = _json_out(capsys)
        assert cold["status"] == "completed"
        assert cold["cache_hit"] is None
        assert cold["reduction"]["reduced_edges"] > 0
        # second process: served from the persisted artifact
        assert main(argv) == 0
        warm = _json_out(capsys)
        assert warm["cache_hit"] == "disk"
        assert warm["metrics"]["store"]["computes"] == 0
        assert warm["reduction"]["delta"] == cold["reduction"]["delta"]

    def test_submit_deadline_degrades(self, capsys):
        code = main(
            [
                "submit",
                "--dataset", "ca-grqc",
                "--scale", "0.02",
                "--method", "crr",
                "--p", "0.5",
                "--deadline", "1e-9",
                "--json",
            ]
        )
        assert code == 0
        payload = _json_out(capsys)
        assert payload["status"] == "completed"
        assert payload["degraded"] is True
        assert payload["method_used"] == "random"
        assert payload["degradation"]

    def test_serve_drains_jobs_file(self, tmp_path, capsys):
        jobs = tmp_path / "jobs.json"
        jobs.write_text(
            json.dumps(
                [
                    {"dataset": "ca-grqc", "scale": 0.02, "method": "bm2", "p": 0.5},
                    {"dataset": "ca-grqc", "scale": 0.02, "method": "bm2", "p": 0.5},
                    {"dataset": "ca-grqc", "scale": 0.02, "method": "random", "p": 0.4},
                ]
            )
        )
        code = main(["serve", "--jobs", str(jobs), "--json"])
        assert code == 0
        payload = _json_out(capsys)
        assert [job["status"] for job in payload["jobs"]] == ["completed"] * 3
        # inline mode: the duplicate request is a memory hit
        assert payload["jobs"][1]["cache_hit"] == "memory"
        assert payload["failed"] == 0
        assert payload["metrics"]["counters"]["jobs_executed"] == 2

    def test_serve_human_readable_summary(self, tmp_path, capsys):
        jobs = tmp_path / "jobs.json"
        jobs.write_text(
            json.dumps([{"dataset": "ca-grqc", "scale": 0.02, "method": "random", "p": 0.5}])
        )
        assert main(["serve", "--jobs", str(jobs)]) == 0
        out = capsys.readouterr().out
        assert "served 1 jobs" in out
        assert "[completed]" in out

    def test_serve_missing_jobs_file(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["serve", "--jobs", str(tmp_path / "nope.json")])

    def test_serve_non_numeric_p_exits_before_any_job(self, tmp_path, capsys):
        jobs = tmp_path / "jobs.json"
        good = {"dataset": "ca-grqc", "scale": 0.02, "method": "random"}
        jobs.write_text(json.dumps([dict(good, p=0.5), dict(good, p="half")]))
        with pytest.raises(SystemExit, match="job #1: 'p' must be a number"):
            main(["serve", "--jobs", str(jobs)])
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "bad",
        [{"priority": "high"}, {"deadline_seconds": "soon"}, {"sources": "many"}],
    )
    def test_serve_bad_request_knob_exits_before_any_job(self, tmp_path, capsys, bad):
        jobs = tmp_path / "jobs.json"
        good = {"dataset": "ca-grqc", "scale": 0.02, "method": "random", "p": 0.5}
        jobs.write_text(json.dumps([good, dict(good, **bad)]))
        (key,) = bad
        with pytest.raises(SystemExit, match=f"job #1: '{key}' must be"):
            main(["serve", "--jobs", str(jobs)])
        assert capsys.readouterr().out == ""

    def test_serve_rejects_non_list(self, tmp_path):
        jobs = tmp_path / "jobs.json"
        jobs.write_text('{"p": 0.5}')
        with pytest.raises(SystemExit):
            main(["serve", "--jobs", str(jobs)])
