"""Unit tests for the command-line interface."""

import json

import numpy as np
import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_fig2_defaults(self):
        args = build_parser().parse_args(["fig2"])
        assert args.command == "fig2"
        assert args.horizon == 100

    def test_fig4_knobs(self):
        args = build_parser().parse_args(
            ["fig4", "--draws", "50", "--replicates", "2",
             "--resample", "60", "--executor", "serial"])
        assert args.draws == 50
        assert args.replicates == 2
        assert args.resample == 60
        assert args.executor == "serial"

    def test_temper_knobs(self):
        args = build_parser().parse_args(
            ["fig4", "--temper", "--temper-threshold", "0.1",
             "--temper-floor", "0.3", "--size-policy", "ess",
             "--ess-low", "0.05", "--ess-high", "0.4"])
        assert args.temper
        assert args.temper_threshold == 0.1
        assert args.temper_floor == 0.3
        from repro.cli import _adaptive_config_kwargs
        kwargs = _adaptive_config_kwargs(args)
        assert kwargs["size_policy"] == "ess"
        assert kwargs["size_policy_options"] == {
            "target_low": 0.05, "target_high": 0.4, "n_min": 50,
            "n_max": 100_000}

    def test_temper_defaults_off(self):
        args = build_parser().parse_args(["fig5"])
        assert not args.temper
        assert args.size_policy == "fixed"

    @pytest.mark.parametrize("argv", [
        ["fig4", "--size-policy", "budget"],
        ["fig4", "--step-budget", "100"],
        ["fig4", "--resample-policy", "ess"],
        ["fig4", "--executor", "thread"],
    ])
    def test_deleted_options_rejected(self, argv):
        """The posterior-size and budget controllers and the thread
        executor are gone; their flags are usage errors."""
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig9"])

    def test_fault_tolerance_knobs(self):
        args = build_parser().parse_args(
            ["fig4", "--checkpoint-dir", "ckpts", "--resume",
             "--retry-attempts", "3", "--retry-timeout", "30",
             "--retry-backoff", "0.5"])
        from repro.cli import _fault_config_kwargs
        kwargs = _fault_config_kwargs(args)
        assert kwargs["checkpoint_dir"] == "ckpts"
        assert kwargs["resume"]
        assert kwargs["retry_attempts"] == 3
        assert kwargs["retry_timeout"] == 30.0
        assert kwargs["retry_backoff"] == 0.5

    def test_fault_tolerance_defaults_off(self):
        args = build_parser().parse_args(["fig5"])
        from repro.cli import _fault_config_kwargs
        kwargs = _fault_config_kwargs(args)
        assert kwargs == {"retry_attempts": 1, "retry_timeout": None,
                          "retry_backoff": 0.0, "checkpoint_dir": None,
                          "resume": False, "checkpoint_keep_last": None}

    def test_resume_requires_checkpoint_dir(self):
        args = build_parser().parse_args(["fig4", "--resume"])
        from repro.cli import _fault_config_kwargs
        with pytest.raises(SystemExit, match="checkpoint-dir"):
            _fault_config_kwargs(args)


class TestCommands:
    def test_fig2_writes_series(self, tmp_path, capsys):
        code = main(["fig2", "--out", str(tmp_path), "--horizon", "30"])
        assert code == 0
        assert (tmp_path / "fig2_series.csv").exists()
        out = capsys.readouterr().out
        assert "wrote" in out

    def test_fig3_writes_summary(self, tmp_path, capsys):
        code = main(["fig3", "--out", str(tmp_path), "--draws", "8",
                     "--replicates", "1", "--resample", "10",
                     "--executor", "serial"])
        assert code == 0
        payload = json.loads((tmp_path / "fig3_summary.json").read_text())
        assert "theta" in payload
        assert 0 < payload["ess_fraction"] <= 1

    def test_invalid_config_exits_with_message(self, tmp_path):
        """A bad numeric knob exits naming the field, not with a
        traceback from deep inside the calibrator."""
        serial = ["--executor", "serial"]
        serve = ["serve", *serial, "--spool", str(tmp_path / "spool"),
                 "--artifacts", str(tmp_path / "art"),
                 "--checkpoint-dir", str(tmp_path / "ckpt")]
        for argv, field in (
                (["fig4", "--draws", "0", *serial], "n_parameter_draws"),
                (["fig3", "--draws", "0", *serial], "n_parameter_draws"),
                (["fig3", "--resample", "0", *serial], "resample_size"),
                (["fig4", "--workers", "0", *serial], "max_workers"),
                (["fig4", "--retry-backoff", "-1", *serial], "retry_backoff"),
                (["fig2", "--horizon", "0"], "horizon must be >= 1"),
                ([*serve, "--horizon-days", "0"], "horizon_days"),
                ([*serve, "--window-breaks", "34,20"],
                 "window must have positive length"),
                ([*serve, "--poll-seconds", "-1"], "poll_seconds")):
            with pytest.raises(SystemExit,
                               match=f"invalid configuration: {field}"):
                main([*argv, "--out", str(tmp_path)])
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag, value, problem", [
        ("--restart-attempts", "0", "restart_attempts must be >= 1"),
        ("--deadline-seconds", "-1",
         "deadline_seconds must be positive when set"),
        ("--restart-backoff", "-1", "restart_backoff must be >= 0"),
    ], ids=["restart-attempts", "deadline-seconds", "restart-backoff"])
    def test_serve_restart_flags_named_as_typed(self, tmp_path, flag, value,
                                                problem):
        """A bad ``serve`` restart flag names the option the user typed,
        not the ``RetryPolicy`` field behind it."""
        argv = ["serve", "--executor", "serial",
                "--spool", str(tmp_path / "spool"),
                "--artifacts", str(tmp_path / "art"),
                "--checkpoint-dir", str(tmp_path / "ckpt"), flag, value]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert str(exc.value) == f"invalid configuration: {problem}"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("streams", ["", ",", " , "],
                             ids=["empty", "comma", "blank"])
    def test_serve_without_streams_exits_before_any_store(self, tmp_path,
                                                          streams):
        """``serve --streams`` naming no stream exits with one line naming
        the option, before the service writes ``run_meta.json``."""
        argv = ["serve", "--executor", "serial",
                "--spool", str(tmp_path / "spool"),
                "--artifacts", str(tmp_path / "art"),
                "--checkpoint-dir", str(tmp_path / "ckpt"),
                "--streams", streams]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert str(exc.value) == (
            "invalid configuration: --streams must name at least one "
            f"stream, got {streams!r}")
        assert not (tmp_path / "ckpt" / "run_meta.json").exists()
        assert list(tmp_path.iterdir()) == []

    def test_resume_of_another_runs_store_exits_with_message(self, tmp_path):
        """Resuming a store another seed wrote exits with one line naming
        the differing fingerprint keys, not a CheckpointError traceback."""
        argv = ["fig4", "--out", str(tmp_path / "out"), "--draws", "8",
                "--replicates", "1", "--resample", "10", "--executor",
                "serial", "--checkpoint-dir", str(tmp_path / "ckpt")]
        assert main([*argv, "--seed", "1"]) == 0
        with pytest.raises(SystemExit,
                           match=r"differing keys: \['base_seed'\]"):
            main([*argv, "--seed", "2", "--resume"])

    @pytest.mark.parametrize("argv, problem", [
        (["--horizon-days", "0"], "horizon_days must be >= 1"),
        (["--scenario-set", "default"],
         "scenario 'late_intervention_d48' override .* starts at day 48"),
    ], ids=["horizon-days-0", "scenario-set-default"])
    def test_forecast_rejects_inputs_before_calibrating(
            self, tmp_path, monkeypatch, argv, problem):
        """``repro forecast`` checks its horizon and its scenarios against
        its (20, 34, 48) schedule before anything is simulated: there is
        no continuation window at day 48 for a day-48 override."""
        import repro.cli as cli

        def no_simulation(*args, **kwargs):
            raise AssertionError("simulated before checking its inputs")

        for name in ("calibrate", "calibrate_scenarios",
                     "make_fig2_ground_truth"):
            monkeypatch.setattr(cli, name, no_simulation)
        with pytest.raises(SystemExit,
                           match=f"^invalid configuration: {problem}"):
            main(["forecast", "--out", str(tmp_path), "--executor", "serial",
                  *argv])
        assert list(tmp_path.iterdir()) == []

    def test_fig3_is_fig4_first_window(self, tmp_path, monkeypatch):
        """``repro fig3`` calibrates fig4's first window alone: at the same
        seed, sizes and executor its posterior (parameters, seeds and
        ancestors) is fig4's window 0 bit for bit."""
        import hashlib

        import repro.cli as cli
        runs = []

        def recording(*args, **kwargs):
            runs.append(calibrate(*args, **kwargs))
            return runs[-1]

        calibrate = cli.calibrate
        monkeypatch.setattr(cli, "calibrate", recording)
        sizes = ["--seed", "4242", "--draws", "40", "--replicates", "2",
                 "--resample", "60", "--executor", "serial"]
        for command in ("fig3", "fig4"):
            assert main([command, "--out", str(tmp_path / command),
                         *sizes]) == 0
        fig3, fig4 = runs

        def digest(result):
            post = result.windows[0].posterior
            h = hashlib.sha256()
            for column in (post.values("theta"), post.values("rho"),
                           post.seeds(), post.ancestors()):
                h.update(np.ascontiguousarray(column).tobytes())
            return h.hexdigest()

        assert fig3.n_windows == 1 and fig4.n_windows == 4
        assert digest(fig3) == digest(fig4)
        summary = json.loads((tmp_path / "fig3" / "fig3_summary.json")
                             .read_text())
        assert summary["theta"]["mean"] == \
            fig4.windows[0].summary()["theta"]["mean"]


    def test_summary_names_truncated_bridges(self, tmp_path, capsys,
                                             monkeypatch):
        """A bridge cut short by its stage cap is named next to the
        bridged-windows line (a two-stage cap forces the truncation)."""
        import functools

        import repro.core.smc as smc
        monkeypatch.setattr(smc, "temper_and_resample", functools.partial(
            smc.temper_and_resample, max_stages=2))
        code = main(["fig4", "--out", str(tmp_path), "--draws", "10",
                     "--replicates", "2", "--resample", "20",
                     "--temper", "--temper-threshold", "0.99",
                     "--temper-floor", "0.9"])
        assert code == 0
        out = capsys.readouterr().out
        assert "tempered rescue bridged windows: " in out
        assert "(truncated at the stage cap: 0" in out


class TestScenarioFlags:
    def test_scenario_flags_parse(self):
        args = build_parser().parse_args(
            ["fig4", "--scenario", "baseline",
             "--scenario", "milder_variant_d34"])
        assert args.scenario == ["baseline", "milder_variant_d34"]
        assert args.scenario_set is None

    def test_scenario_set_parses(self):
        args = build_parser().parse_args(["fig5", "--scenario-set", "default"])
        assert args.scenario_set == "default"

    def test_flags_default_to_single_run(self):
        from repro.cli import _requested_scenarios
        args = build_parser().parse_args(["fig4"])
        assert _requested_scenarios(args) is None

    def test_both_flags_rejected(self):
        from repro.cli import _requested_scenarios
        args = build_parser().parse_args(
            ["fig4", "--scenario", "baseline", "--scenario-set", "default"])
        with pytest.raises(SystemExit, match="mutually exclusive"):
            _requested_scenarios(args)

    def test_unknown_scenario_rejected(self):
        from repro.cli import _requested_scenarios
        args = build_parser().parse_args(["fig4", "--scenario", "warp_drive"])
        with pytest.raises(SystemExit, match="warp_drive"):
            _requested_scenarios(args)

    def test_unknown_set_rejected(self):
        from repro.cli import _requested_scenarios
        args = build_parser().parse_args(["fig4", "--scenario-set", "nope"])
        with pytest.raises(SystemExit, match="nope"):
            _requested_scenarios(args)

    def test_set_expands_to_names(self):
        from repro.cli import _requested_scenarios
        args = build_parser().parse_args(["fig4", "--scenario-set", "default"])
        names = _requested_scenarios(args)
        assert names is not None
        assert "baseline" in names
        assert names == sorted(names)

    def test_scenarios_command_lists_builtins(self, capsys):
        code = main(["scenarios"])
        assert code == 0
        out = capsys.readouterr().out
        assert "baseline" in out
        assert "milder_variant_d34" in out
        assert "default" in out
