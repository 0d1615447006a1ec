"""The darkcrowd command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main
from repro.errors import DatasetError


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_fig_number(self):
        args = build_parser().parse_args(["fig", "3"])
        assert args.command == "fig"
        assert args.number == 3

    def test_defaults(self):
        args = build_parser().parse_args(["table1"])
        assert args.scale == 0.04
        assert args.forum_scale == 1.0

    def test_fast_flag(self):
        args = build_parser().parse_args(["--fast", "table1"])
        assert args.fast


class TestCommands:
    def test_table1(self, capsys):
        assert main(["--scale", "0.02", "table1"]) == 0
        out = capsys.readouterr().out
        assert "Brazil" in out
        assert "3763" in out

    def test_fig1(self, capsys):
        assert main(["--scale", "0.02", "fig", "1"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 1" in out

    def test_fig2(self, capsys):
        assert main(["--scale", "0.02", "fig", "2"]) == 0
        out = capsys.readouterr().out
        assert "Pearson" in out

    def test_fig7(self, capsys):
        assert main(["--scale", "0.02", "fig", "7"]) == 0
        out = capsys.readouterr().out
        assert "flat" in out

    def test_unknown_fig(self):
        with pytest.raises(SystemExit):
            main(["--scale", "0.02", "fig", "99"])

    def test_fig10_fast_forum(self, capsys):
        assert main(["--scale", "0.02", "--forum-scale", "0.4", "fig", "10"]) == 0
        out = capsys.readouterr().out
        assert "Italian DarkNet Community" in out
        assert "recovered" in out


def _monitor_args(*extra):
    return [
        "--scale",
        "0.02",
        "--forum-scale",
        "0.2",
        "monitor",
        "--poll-hours",
        "2",
        "--days",
        "2",
        *extra,
    ]


class TestMonitorCommand:
    def test_parser_flags(self):
        args = build_parser().parse_args(
            ["monitor", "--fault-rate", "0.2", "--resume", "ck.json"]
        )
        assert args.fault_rate == 0.2
        assert args.resume == "ck.json"
        assert args.checkpoint_every == 24

    def test_monitor_smoke(self, capsys):
        assert main(_monitor_args()) == 0
        out = capsys.readouterr().out
        assert "polls" in out

    def test_monitor_checkpoint_then_resume(self, capsys, tmp_path):
        checkpoint = str(tmp_path / "campaign.json")
        assert main(_monitor_args("--checkpoint", checkpoint)) == 0
        assert (tmp_path / "campaign.json").exists()
        first_out = capsys.readouterr().out
        assert "checkpoint saved" in first_out

        # A fresh invocation resumes from the checkpoint and keeps going.
        assert (
            main(
                [
                    "--scale",
                    "0.02",
                    "--forum-scale",
                    "0.2",
                    "monitor",
                    "--poll-hours",
                    "2",
                    "--days",
                    "4",
                    "--resume",
                    checkpoint,
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "polls" in out

    def test_monitor_with_faults(self, capsys):
        assert main(_monitor_args("--fault-rate", "0.2")) == 0
        out = capsys.readouterr().out
        assert "polls" in out

    def test_parser_drift_flags(self):
        args = build_parser().parse_args(
            [
                "monitor",
                "--drift-window",
                "30",
                "--confidence-threshold",
                "0.4",
                "--migrations-out",
                "migrations.jsonl",
            ]
        )
        assert args.drift_window == 30
        assert args.confidence_threshold == 0.4
        assert args.migrations_out == "migrations.jsonl"

    def test_monitor_drift_replay(self, capsys, tmp_path):
        import json as json_module

        out_path = tmp_path / "migrations.jsonl"
        assert (
            main(
                _monitor_args(
                    "--drift-window", "30", "--migrations-out", str(out_path)
                )
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "zone migrations" in out
        assert f"migration events written to {out_path}" in out
        assert out_path.exists()
        for line in out_path.read_text().splitlines():
            event = json_module.loads(line)
            assert {"user_id", "new_offset", "reason"} <= set(event)

    def test_migrations_out_requires_drift_window(self, capsys, tmp_path):
        out_path = tmp_path / "m.jsonl"
        with pytest.raises(SystemExit, match="drift-window"):
            main(_monitor_args("--migrations-out", str(out_path)))
        assert "polls" not in capsys.readouterr().out
        assert not out_path.exists()

    @pytest.mark.parametrize(
        "command, flag, value, message",
        [
            (["monitor"], "--checkpoint-every", "0", "checkpoint_every must be >= 1"),
            (["monitor"], "--poll-hours", "0", "poll interval must be positive"),
            (["monitor"], "--poll-hours", "nan", "poll interval must be positive"),
            (["monitor"], "--days", "0", "campaign must end after it starts"),
            (["monitor"], "--days", "-2", "campaign must end after it starts"),
            (["monitor"], "--days", "inf", "campaign must end after it starts"),
            (["monitor"], "--fault-rate", "1.5", "failure_rate must be in [0, 1)"),
            (["monitor"], "--fault-rate", "-0.1", "failure_rate must be in [0, 1)"),
            (["monitor"], "--drift-window", "0", "window_days must be >= 1"),
            (["monitor"], "--drift-window", "x", "invalid literal for int()"),
            (
                ["monitor"],
                "--confidence-threshold",
                "1.5",
                "confidence_threshold must be in [0, 1]",
            ),
            (["replay", "t.jsonl"], "--drift-window", "0", "window_days must be >= 1"),
            (
                ["replay", "t.jsonl"],
                "--confidence-threshold",
                "1.5",
                "confidence_threshold must be in [0, 1]",
            ),
        ],
    )
    def test_bad_numeric_flags_refused_before_any_work(
        self, capsys, monkeypatch, command, flag, value, message
    ):
        def no_work(*args, **kwargs):
            raise AssertionError("the experiment context was built")

        monkeypatch.setattr("repro.cli.make_context", no_work)
        with pytest.raises(SystemExit) as exit_info:
            main(["--fast", *command, flag, value])
        assert exit_info.value.code == 2
        assert f"argument {flag}: {message}" in capsys.readouterr().err


class TestGeolocateCommand:
    def _write_traces(self, path, corrupt=False):
        lines = []
        for index in range(10):
            user_hour = 19 + index % 3
            stamps = [
                day * 86400.0 + user_hour * 3600.0 for day in range(40)
            ]
            lines.append(
                json.dumps({"user": f"u{index:02d}", "timestamps": stamps})
            )
        if corrupt:
            lines.append('{"user": "mangled", "timestamps": [NaN]}')
            lines.append('{"user": "hollow", "timestamps": []}')
            lines.append("definitely not json")
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    def test_geolocate_clean_file(self, capsys, tmp_path):
        path = tmp_path / "traces.jsonl"
        self._write_traces(path)
        assert main(["--scale", "0.02", "geolocate", str(path)]) == 0
        out = capsys.readouterr().out
        assert "placement" in out
        assert "users" in out

    def test_geolocate_strict_fails_on_corrupt_file(self, tmp_path):
        path = tmp_path / "traces.jsonl"
        self._write_traces(path, corrupt=True)
        with pytest.raises(DatasetError):
            main(["--scale", "0.02", "geolocate", str(path)])

    def test_geolocate_quarantine_names_bad_users(self, capsys, tmp_path):
        path = tmp_path / "traces.jsonl"
        self._write_traces(path, corrupt=True)
        assert (
            main(["--scale", "0.02", "geolocate", str(path), "--quarantine"])
            == 0
        )
        out = capsys.readouterr().out
        assert "placement" in out
        assert "mangled" in out  # named in the load report's quarantine list
        assert "quarantined hollow: empty-trace" in out

    @pytest.mark.parametrize("flag", ["--shards", "--workers"])
    @pytest.mark.parametrize("value", ["0", "-2", "x"])
    def test_bad_shard_and_worker_counts_refused(self, capsys, flag, value):
        with pytest.raises(SystemExit) as exit_info:
            main(["geolocate", "t.store", "--store", f"{flag}={value}"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"{flag}: " in err
        assert "must be at least 1" in err or "not an integer" in err

    @pytest.mark.parametrize("flag", ["--shards", "--workers"])
    def test_shard_flags_require_store(self, tmp_path, flag):
        path = tmp_path / "traces.jsonl"
        self._write_traces(path)
        with pytest.raises(SystemExit, match=f"{flag} requires --store"):
            main(["--scale", "0.02", "geolocate", str(path), flag, "2"])

    def test_store_shard_flags_parse(self):
        args = build_parser().parse_args(
            ["geolocate", "t.store", "--store", "--shards", "8", "--workers", "2"]
        )
        assert (args.shards, args.workers) == (8, 2)
        defaults = build_parser().parse_args(["geolocate", "t.store", "--store"])
        assert (defaults.shards, defaults.workers) == (None, None)

    def test_store_with_workers_matches_jsonl(self, capsys, tmp_path):
        jsonl = tmp_path / "traces.jsonl"
        self._write_traces(jsonl)
        store = tmp_path / "traces.store"
        assert main(["--scale", "0.02", "convert", str(jsonl), str(store)]) == 0
        capsys.readouterr()
        assert main(["--scale", "0.02", "geolocate", str(jsonl)]) == 0
        from_jsonl = capsys.readouterr().out.splitlines()[-1]
        assert (
            main(
                [
                    "--scale", "0.02", "geolocate", str(store), "--store",
                    "--shards", "3", "--workers", "2",
                ]
            )
            == 0
        )
        assert capsys.readouterr().out.splitlines()[-1] == from_jsonl


class TestReplayCommand:
    def _write_traces(self, path):
        lines = []
        for index in range(10):
            user_hour = 19 + index % 3
            stamps = [day * 86400.0 + user_hour * 3600.0 for day in range(40)]
            lines.append(
                json.dumps({"user": f"u{index:02d}", "timestamps": stamps})
            )
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    def test_parser_flags(self):
        args = build_parser().parse_args(
            ["replay", "traces.store", "--store", "--batch-size", "4096"]
        )
        assert args.traces == "traces.store"
        assert args.store
        assert args.batch_size == 4096
        assert args.drift_window is None
        defaults = build_parser().parse_args(["replay", "t.jsonl"])
        assert defaults.batch_size == 8192
        assert not defaults.store

    def test_monitor_batch_size_flag(self):
        args = build_parser().parse_args(["monitor", "--batch-size", "1024"])
        assert args.batch_size == 1024
        assert build_parser().parse_args(["monitor"]).batch_size == 8192

    @pytest.mark.parametrize("size", ["0", "-1"])
    @pytest.mark.parametrize("command", [["replay", "t.jsonl"], ["monitor"]])
    def test_nonpositive_batch_size_refused(self, capsys, command, size):
        with pytest.raises(SystemExit) as exit_info:
            main([*command, "--batch-size", size])
        assert exit_info.value.code == 2
        assert f"--batch-size: must be at least 1, got {size}" in (
            capsys.readouterr().err
        )

    def test_replay_jsonl(self, capsys, tmp_path):
        path = tmp_path / "traces.jsonl"
        self._write_traces(path)
        assert main(["--scale", "0.02", "replay", str(path)]) == 0
        out = capsys.readouterr().out
        assert "ingested 400 events" in out
        assert "events/s" in out
        assert "streamed 400 events" in out
        assert "placement" in out

    def test_replay_store_matches_jsonl(self, capsys, tmp_path):
        jsonl = tmp_path / "traces.jsonl"
        self._write_traces(jsonl)
        store = tmp_path / "traces.store"
        assert main(["--scale", "0.02", "convert", str(jsonl), str(store)]) == 0
        capsys.readouterr()
        assert main(["--scale", "0.02", "replay", str(store), "--store"]) == 0
        out = capsys.readouterr().out
        assert "ingested 400 events" in out
        assert "placement" in out

    def test_replay_drift_writes_migrations(self, capsys, tmp_path):
        path = tmp_path / "traces.jsonl"
        self._write_traces(path)
        out_path = tmp_path / "migrations.jsonl"
        assert (
            main(
                [
                    "--scale",
                    "0.02",
                    "replay",
                    str(path),
                    "--drift-window",
                    "30",
                    "--migrations-out",
                    str(out_path),
                    "--batch-size",
                    "97",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "zone migrations" in out
        assert out_path.exists()

    def test_migrations_out_requires_drift_window(self, tmp_path):
        path = tmp_path / "traces.jsonl"
        self._write_traces(path)
        with pytest.raises(SystemExit, match="drift-window"):
            main(
                [
                    "--scale",
                    "0.02",
                    "replay",
                    str(path),
                    "--migrations-out",
                    str(tmp_path / "m.jsonl"),
                ]
            )


def _write_daily_posts(path, hours, days):
    """Ten users posting once a day, user *i* at ``hours[i % len(hours)]``."""
    lines = [
        json.dumps(
            {
                "user": f"u{index:02d}",
                "timestamps": [
                    day * 86400.0 + hours[index % len(hours)] * 3600.0
                    for day in range(days)
                ],
            }
        )
        for index in range(10)
    ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestStreamReportComposition:
    def _composition(self, capsys, tmp_path, hours, days):
        path = tmp_path / "traces.jsonl"
        _write_daily_posts(path, hours, days)
        assert (
            main(["--scale", "0.02", "replay", str(path), "--drift-window", "7"])
            == 0
        )
        out = capsys.readouterr().out
        lines = [line for line in out.splitlines() if "final composition" in line]
        assert len(lines) == 1
        return out, lines[0]

    def test_no_placed_users(self, capsys, tmp_path):
        # Five posts each: nobody reaches the activity threshold.
        out, line = self._composition(capsys, tmp_path, [19], days=5)
        assert "0 active users" in out
        assert line == "final composition: no placed users"

    def test_lists_only_zones_holding_users(self, capsys, tmp_path):
        _, line = self._composition(capsys, tmp_path, [19], days=40)
        assert line == "final composition: UTC+1 100%"

    def test_three_occupied_zones_print_as_before(self, capsys, tmp_path):
        _, line = self._composition(capsys, tmp_path, [1, 7, 13, 19], days=40)
        assert line == "final composition: UTC+11 30%, UTC-11 30%, UTC+1 20%"


class TestObservatoryCli:
    """--series-out/--health-out/--profile-out, stats on them, dashboard."""

    def _write_traces(self, path):
        lines = []
        for index in range(10):
            user_hour = 19 + index % 3
            stamps = [day * 86400.0 + user_hour * 3600.0 for day in range(40)]
            lines.append(
                json.dumps({"user": f"u{index:02d}", "timestamps": stamps})
            )
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    def _replay_with_observatory(self, tmp_path, capsys):
        traces = tmp_path / "traces.jsonl"
        self._write_traces(traces)
        series = tmp_path / "series.jsonl"
        health = tmp_path / "health.jsonl"
        assert (
            main(
                [
                    "--scale",
                    "0.02",
                    "replay",
                    str(traces),
                    "--batch-size",
                    "97",
                    "--series-out",
                    str(series),
                    "--health-out",
                    str(health),
                ]
            )
            == 0
        )
        return series, health, capsys.readouterr().out

    def test_parser_observatory_flags(self):
        args = build_parser().parse_args(
            [
                "replay",
                "t.jsonl",
                "--series-out",
                "s.jsonl",
                "--health-out",
                "h.jsonl",
                "--profile-out",
                "p.json",
            ]
        )
        assert args.series_out == "s.jsonl"
        assert args.health_out == "h.jsonl"
        assert args.profile_out == "p.json"
        monitor = build_parser().parse_args(["monitor", "--series-out", "s.jsonl"])
        assert monitor.series_out == "s.jsonl"
        dash = build_parser().parse_args(["dashboard", "--series", "s.jsonl"])
        assert dash.out == "dashboard.html"

    def test_replay_writes_series_and_health(self, capsys, tmp_path):
        from repro.obs.health import load_health_jsonl
        from repro.obs.timeseries import load_series_jsonl

        series, health, out = self._replay_with_observatory(tmp_path, capsys)
        assert "series written to" in out
        assert "health events written to" in out
        frame = load_series_jsonl(series)
        assert len(frame) >= 2  # several chunks crossed the 6 h interval
        assert "stream_events_total" in frame.names()
        times, values = frame.series("stream_events_total")
        assert list(values) == sorted(values)  # a counter never decreases
        header, events = load_health_jsonl(health)
        assert "migration_rate_spike" in header["rules"]
        assert events == []  # stationary crowd: nothing ever trips
        assert "overall ok" in out

    def test_replay_store_observatory_prints_caveat(self, capsys, tmp_path):
        traces = tmp_path / "traces.jsonl"
        self._write_traces(traces)
        store = tmp_path / "traces.store"
        assert main(["--scale", "0.02", "convert", str(traces), str(store)]) == 0
        capsys.readouterr()
        assert (
            main(
                [
                    "--scale",
                    "0.02",
                    "replay",
                    str(store),
                    "--store",
                    "--series-out",
                    str(tmp_path / "s.jsonl"),
                ]
            )
            == 0
        )
        assert "user-ordered columns" in capsys.readouterr().out

    def test_profile_out_writes_profile(self, capsys, tmp_path):
        from repro.obs.profiler import load_profile

        traces = tmp_path / "traces.jsonl"
        self._write_traces(traces)
        profile = tmp_path / "run.profile.json"
        assert (
            main(
                [
                    "--scale",
                    "0.02",
                    "replay",
                    str(traces),
                    "--profile-out",
                    str(profile),
                ]
            )
            == 0
        )
        assert "profile written to" in capsys.readouterr().out
        payload = load_profile(profile)
        assert payload["kind"] == "repro-profile"
        assert payload["n_samples"] >= 0

    def test_stats_renders_observatory_artifacts(self, capsys, tmp_path):
        series, health, _ = self._replay_with_observatory(tmp_path, capsys)
        assert main(["stats", str(series)]) == 0
        out = capsys.readouterr().out
        assert "stream_events_total" in out
        assert "samples" in out
        assert main(["stats", str(health)]) == 0
        out = capsys.readouterr().out
        assert "migration_rate_spike" in out
        assert "no health transitions recorded" in out

    def test_stats_renders_profile(self, capsys, tmp_path):
        from repro.obs.profiler import SamplingProfiler

        profiler = SamplingProfiler()
        profiler._counts[("main", "ingest")] = 5
        profiler._n_samples = 5
        path = profiler.write(tmp_path / "p.json")
        assert main(["stats", str(path)]) == 0
        out = capsys.readouterr().out
        assert "ingest" in out
        assert "5" in out

    def test_dashboard_writes_html(self, capsys, tmp_path):
        series, health, _ = self._replay_with_observatory(tmp_path, capsys)
        out_path = tmp_path / "dash.html"
        assert (
            main(
                [
                    "dashboard",
                    "--series",
                    str(series),
                    "--health",
                    str(health),
                    "--out",
                    str(out_path),
                ]
            )
            == 0
        )
        assert "dashboard written to" in capsys.readouterr().out
        html = out_path.read_text(encoding="utf-8")
        assert html.lstrip().startswith("<!DOCTYPE html>")
        assert "stream_events_total" in html
        assert "src=" not in html  # self-contained: no external fetches

    @pytest.mark.parametrize("flag", ["--ansi", "--no-color"])
    def test_dashboard_has_no_terminal_mode(self, capsys, flag):
        with pytest.raises(SystemExit) as exit_info:
            main(["dashboard", "--series", "s.jsonl", flag])
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def _health_with_unknown_state(self, tmp_path):
        path = tmp_path / "health.jsonl"
        path.write_text(
            json.dumps({"kind": "repro-health", "version": 1, "rules": {}})
            + "\n"
            + json.dumps(
                {"t": 5.0, "rule": "spike", "old_state": "ok",
                 "new_state": "bogus", "value": 2.0, "message": ""}
            )
            + "\n",
            encoding="utf-8",
        )
        return path

    def test_stats_refuses_an_unknown_health_state(self, tmp_path):
        path = self._health_with_unknown_state(tmp_path)
        with pytest.raises(SystemExit, match="line 2: unknown health state 'bogus'"):
            main(["stats", str(path)])

    def test_dashboard_refuses_an_unknown_health_state(self, tmp_path):
        path = self._health_with_unknown_state(tmp_path)
        with pytest.raises(
            SystemExit, match="dashboard: .*line 2: unknown health state 'bogus'"
        ):
            main(["dashboard", "--health", str(path), "--out", str(tmp_path / "d.html")])
        assert not (tmp_path / "d.html").exists()

    def test_dashboard_requires_an_artifact(self):
        with pytest.raises(SystemExit, match="at least one"):
            main(["dashboard"])

    def test_dashboard_rejects_corrupt_artifact(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{not json\n", encoding="utf-8")
        with pytest.raises(SystemExit):
            main(["dashboard", "--series", str(bad)])
