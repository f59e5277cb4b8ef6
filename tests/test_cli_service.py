"""Tests for CLI exit codes and the serve/replay subcommands."""

from __future__ import annotations

import json

import pytest

import repro.cli as cli
from repro.errors import ConfigurationError
from repro.ratings.io import write_csv, write_jsonl
from repro.ratings.stream import RatingStream
from tests.test_service_engine import make_stream


class TestExitCodes:
    def test_success_returns_zero(self, capsys):
        assert cli.main(["list"]) == 0
        assert "available experiments" in capsys.readouterr().out

    # Exit-code convention (docs/SERVICE.md): 0 success, 1 domain
    # failure (ReproError, lint findings), 2 usage/internal error.

    def test_unexpected_experiment_error_returns_two(self, monkeypatch, capsys):
        def boom(**kwargs):
            raise RuntimeError("simulated experiment crash")

        name = sorted(cli.REGISTRY)[0]
        monkeypatch.setitem(
            cli.REGISTRY, name, (boom, lambda result: "", "broken entry")
        )
        code = cli.main(["run", name])
        assert code == 2
        err = capsys.readouterr().err
        assert "simulated experiment crash" in err
        assert "RuntimeError" in err

    def test_library_error_returns_one(self, monkeypatch, capsys):
        def boom(**kwargs):
            raise ConfigurationError("bad knob")

        name = sorted(cli.REGISTRY)[0]
        monkeypatch.setitem(
            cli.REGISTRY, name, (boom, lambda result: "", "broken entry")
        )
        assert cli.main(["run", name]) == 1
        assert "bad knob" in capsys.readouterr().err

    def test_missing_trace_is_internal_error(self, capsys):
        assert cli.main(["replay", "/nonexistent/trace.csv"]) == 2
        assert "error" in capsys.readouterr().err.lower()


class TestParser:
    def test_serve_arguments(self):
        parser = cli.build_parser()
        args = parser.parse_args(
            ["serve", "--port", "9999", "--workers", "2", "--wal-dir", "/tmp/w"]
        )
        assert args.command == "serve"
        assert args.port == 9999
        assert args.workers == 2
        assert args.wal_dir == "/tmp/w"
        with pytest.raises(SystemExit):  # processes are the only shards
            parser.parse_args(["serve", "--shards", "4"])

    def test_replay_arguments(self):
        parser = cli.build_parser()
        args = parser.parse_args(["replay", "trace.csv", "--batch", "16"])
        assert args.command == "replay"
        assert args.trace == "trace.csv"
        assert args.batch == 16


class TestReplay:
    @pytest.fixture()
    def trace_csv(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_csv(RatingStream.from_ratings(make_stream(120)), path)
        return path

    def test_replay_reports_throughput(self, trace_csv, capsys):
        code = cli.main(
            ["replay", str(trace_csv), "--batch", "16",
             "--window", "12", "--stride", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "ratings/sec" in out
        assert "120/120 ratings accepted" in out
        assert "AR evaluations" in out

    def test_replay_jsonl_with_json_dump(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        write_jsonl(RatingStream.from_ratings(make_stream(60)), trace)
        out_json = tmp_path / "stats.json"
        code = cli.main(
            ["replay", str(trace), "--window", "12", "--json", str(out_json)]
        )
        assert code == 0
        stats = json.loads(out_json.read_text())
        assert stats["n_accepted"] == 60
        assert stats["replay_ratings_per_second"] > 0

    def test_replay_with_wal_dir_is_durable(self, trace_csv, tmp_path, capsys):
        wal_dir = tmp_path / "wal"
        code = cli.main(
            ["replay", str(trace_csv), "--window", "12", "--wal-dir", str(wal_dir)]
        )
        assert code == 0
        from repro.service.wal import wal_exists

        assert wal_exists(wal_dir)
        assert (wal_dir / "wal-000000000000.jsonl").exists()

    def test_reopening_a_replayed_wal_dir_recovers_its_flushes(
        self, trace_csv, tmp_path, capsys
    ):
        """`repro replay --wal-dir D` ends with an explicit flush and a
        close, no snapshot; reopening D (as `repro serve --wal-dir D`
        does) must recover that last flush too."""
        wal_dir, stats_json = tmp_path / "wal", tmp_path / "stats.json"
        knobs = ["--batch", "16", "--window", "12", "--stride", "3",
                 "--threshold", "0.2"]  # 120 ratings: 8 pending at the end
        code = cli.main(
            ["replay", str(trace_csv), *knobs, "--wal-dir", str(wal_dir),
             "--json", str(stats_json)]
        )
        assert code == 0
        stats = json.loads(stats_json.read_text())
        assert stats["pending"] == 0

        parser = cli.build_parser()
        reopened = cli._build_engine(
            parser.parse_args(["serve", *knobs, "--wal-dir", str(wal_dir)])
        )
        reference = cli._build_engine(parser.parse_args(["serve", *knobs]))
        reference.submit_many(make_stream(120))
        reference.flush()
        assert reopened.snapshot_stats()["trust_updates"] == stats["trust_updates"]
        assert reopened.snapshot_stats()["pending"] == 0
        assert reopened.trust_table() == reference.trust_table()
        assert reopened.detected_malicious() == reference.detected_malicious()
        reopened.close()
