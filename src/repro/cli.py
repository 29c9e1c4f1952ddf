"""Command-line interface: ``python -m repro <command>``.

Commands regenerate the paper experiments at a chosen scale and write their
data products to an output directory:

* ``fig2`` — simulated ground truth series;
* ``fig3`` — single-window importance sampling summary (the first window
  of ``fig4``, calibrated alone);
* ``fig4`` — sequential calibration (cases only);
* ``fig5`` — sequential calibration (cases + deaths);
* ``forecast`` — calibrate then forecast beyond the data.
* ``scenarios`` — list the registered what-if scenarios and sets.
* ``serve`` — run the always-on calibration service against a spool
  directory, publishing crash-safe forecast artifacts per window.

The sequential commands (``fig4``/``fig5``/``forecast``) accept
``--scenario NAME`` (repeatable) or ``--scenario-set SET`` to calibrate
several what-if worlds as one vectorized sweep (see ``docs/scenarios.md``).

Example::

    python -m repro fig4 --draws 500 --replicates 5 --out results/
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import time
from pathlib import Path
from typing import NoReturn

import numpy as np

from .core.diagnostics import DEGENERACY_THRESHOLD
from .core.ensemble_control import SIZE_POLICY_NAMES
from .core.scenarios import (SCENARIO_SETS, SCENARIOS, get_scenario,
                             scenario_set)
from .hpc.executor import EXECUTOR_SPECS
from .inference import (CalibrationConfig, calibrate, calibrate_scenarios,
                        forecast_from_posterior, forecast_scenarios)
from .seir.checkpoint import CheckpointError
from .sim import make_fig2_ground_truth
from .viz import write_json, write_series_csv

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Sequential Monte Carlo calibration of stochastic "
                    "epidemic models (Fadikar et al. 2024 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--out", type=Path, default=Path("repro-output"),
                       help="output directory (default: ./repro-output)")
        p.add_argument("--seed", type=int, default=20240215,
                       help="base seed for the whole run")
        p.add_argument("--executor", choices=EXECUTOR_SPECS,
                       default="process", help="parallel backend")
        p.add_argument("--workers", type=int, default=None,
                       help="worker count for pooled executors")

    p2 = sub.add_parser("fig2", help="simulate the ground truth (Figure 2)")
    common(p2)
    p2.add_argument("--horizon", type=int, default=100)

    for name, text in (("fig3", "single-window IS calibration (Figure 3)"),
                       ("fig4", "sequential calibration, cases (Figure 4)"),
                       ("fig5", "sequential calibration, cases+deaths (Figure 5)"),
                       ("forecast", "calibrate then forecast ahead")):
        p = sub.add_parser(name, help=text)
        common(p)
        p.add_argument("--draws", type=int, default=300,
                       help="prior parameter draws (paper: 25000)")
        p.add_argument("--replicates", type=int, default=5,
                       help="common-seed replicates per draw (paper: 20)")
        p.add_argument("--resample", type=int, default=1000,
                       help="posterior sample size (paper: 10000)")
        if name != "fig3":  # sequential commands can adapt the cloud size
            p.add_argument("--size-policy", choices=SIZE_POLICY_NAMES,
                           default="fixed",
                           help="adaptive ensemble-size policy between "
                                "windows (default: fixed size)")
            p.add_argument("--ess-low", type=float, default=0.1,
                           help="ess policy: grow the cloud below this ESS "
                                "fraction")
            p.add_argument("--ess-high", type=float, default=0.5,
                           help="ess policy: shrink the cloud above this "
                                "ESS fraction")
            p.add_argument("--size-min", type=int, default=50,
                           help="smallest cloud a policy may propose")
            p.add_argument("--size-max", type=int, default=100_000,
                           help="largest cloud a policy may propose")
            p.add_argument("--temper", action="store_true",
                           help="route degenerate windows through the "
                                "tempered resampling bridge instead of a "
                                "single pass")
            p.add_argument("--temper-threshold", type=float,
                           default=DEGENERACY_THRESHOLD,
                           help="ESS fraction below which a window is "
                                "tempered (with --temper)")
            p.add_argument("--temper-floor", type=float, default=0.5,
                           help="per-stage incremental ESS floor of the "
                                "tempered bridge (with --temper)")
            p.add_argument("--checkpoint-dir", type=Path, default=None,
                           help="durably persist each completed window's "
                                "posterior to this directory (enables "
                                "--resume after an interruption)")
            p.add_argument("--resume", action="store_true",
                           help="restart from the last complete window in "
                                "--checkpoint-dir instead of from scratch "
                                "(bit-identical to an uninterrupted run)")
            p.add_argument("--checkpoint-keep-last", type=int, default=None,
                           metavar="N",
                           help="after a successful run, prune the "
                                "checkpoint store down to its newest N "
                                "sealed windows (retention GC; never "
                                "deletes unsealed or the latest sealed "
                                "window)")
            p.add_argument("--retry-attempts", type=int, default=1,
                           help="attempts per simulation shard before the "
                                "run fails with a structured shard error "
                                "(1 fails fast); more retry failed shards "
                                "with a final in-process fallback")
            p.add_argument("--retry-timeout", type=float, default=None,
                           help="per-shard timeout in seconds (pooled "
                                "executors); timed-out shards are retried")
            p.add_argument("--retry-backoff", type=float, default=0.0,
                           help="seconds of linear backoff between shard "
                                "retry attempts")
            p.add_argument("--scenario", action="append", default=None,
                           metavar="NAME",
                           help="registered scenario to calibrate under "
                                "(repeatable; see `repro scenarios`); more "
                                "than one runs a vectorized multi-world "
                                "sweep with shared random numbers")
            p.add_argument("--scenario-set", default=None, metavar="SET",
                           help="named scenario set to sweep (mutually "
                                "exclusive with --scenario)")
        if name == "forecast":
            p.add_argument("--horizon-days", type=int, default=14)

    sub.add_parser("scenarios",
                   help="list registered scenarios and scenario sets")

    ps = sub.add_parser(
        "serve",
        help="always-on calibration daemon: ingest spool CSVs, calibrate "
             "ready windows, publish sealed forecast artifacts")
    common(ps)
    ps.add_argument("--spool", type=Path, required=True,
                    help="directory watched for tidy day,series,value CSV "
                         "files (write-then-rename; files are immutable "
                         "once dropped)")
    ps.add_argument("--artifacts", type=Path, required=True,
                    help="forecast artifact store root (sealed per-window "
                         "directories; readers may point here any time)")
    ps.add_argument("--checkpoint-dir", type=Path, required=True,
                    help="durable checkpoint store: the service's crash "
                         "recovery point and source of truth")
    ps.add_argument("--quarantine", type=Path, default=None,
                    help="JSONL log of rejected observation rows (default: "
                         "<artifacts>/quarantine.jsonl)")
    ps.add_argument("--window-breaks", default="20,34,48,62,76",
                    help="comma-separated window boundary days "
                         "(default matches fig4/fig5)")
    ps.add_argument("--streams", default="cases",
                    help="comma-separated observation streams to ingest "
                         "(from: cases, deaths; default: cases)")
    ps.add_argument("--draws", type=int, default=300,
                    help="prior parameter draws (paper: 25000)")
    ps.add_argument("--replicates", type=int, default=5,
                    help="common-seed replicates per draw (paper: 20)")
    ps.add_argument("--resample", type=int, default=1000,
                    help="posterior sample size (paper: 10000)")
    ps.add_argument("--poll-seconds", type=float, default=2.0,
                    help="spool re-scan interval while idle")
    ps.add_argument("--deadline-seconds", type=float, default=None,
                    help="soft per-window deadline; a miss logs a "
                         "degradation event but keeps the result")
    ps.add_argument("--restart-attempts", type=int, default=3,
                    help="window restart budget before the service holds "
                         "position (reads keep serving the last sealed "
                         "artifact)")
    ps.add_argument("--restart-backoff", type=float, default=0.0,
                    help="seconds of linear backoff between window restarts")
    ps.add_argument("--retry-attempts", type=int, default=1,
                    help="attempts per simulation shard within a window "
                         "step (the inner fault-tolerance layer)")
    ps.add_argument("--retry-timeout", type=float, default=None,
                    help="per-shard timeout in seconds (pooled executors)")
    ps.add_argument("--retry-backoff", type=float, default=0.0,
                    help="seconds of linear backoff between shard retries")
    ps.add_argument("--keep-last", type=int, default=None, metavar="N",
                    help="retention GC: keep only the newest N sealed "
                         "windows in both the checkpoint and artifact "
                         "stores")
    ps.add_argument("--horizon-days", type=int, default=14,
                    help="forecast horizon published per window: the next "
                         "window's proposal cloud, continued past its end "
                         "when the horizon is longer; after the last "
                         "window, the posterior with theta held")
    ps.add_argument("--forecast-seed", type=int, default=0,
                    help="base seed of the forecast continuations (past "
                         "the next window's end, and after the last "
                         "window)")
    ps.add_argument("--exit-when-done", action="store_true",
                    help="exit once every scheduled window is sealed "
                         "instead of polling forever (used by tests/CI)")
    return parser


def _adaptive_config_kwargs(args) -> dict:
    """The adaptive-resampling knobs shared by the sequential commands."""
    options = ({"target_low": args.ess_low, "target_high": args.ess_high,
                "n_min": args.size_min, "n_max": args.size_max}
               if args.size_policy == "ess" else {})
    return dict(size_policy=args.size_policy,
                size_policy_options=options,
                temper_degenerate=args.temper,
                temper_threshold=args.temper_threshold,
                temper_ess_floor=args.temper_floor)


def _fault_config_kwargs(args) -> dict:
    """The fault-tolerance knobs shared by the sequential commands."""
    if args.resume and args.checkpoint_dir is None:
        raise SystemExit("--resume requires --checkpoint-dir")
    if args.checkpoint_keep_last is not None:
        if args.checkpoint_dir is None:
            raise SystemExit("--checkpoint-keep-last requires --checkpoint-dir")
        if args.checkpoint_keep_last < 1:
            raise SystemExit("--checkpoint-keep-last must be >= 1")
    return dict(retry_attempts=args.retry_attempts,
                retry_timeout=args.retry_timeout,
                retry_backoff=args.retry_backoff,
                checkpoint_dir=(str(args.checkpoint_dir)
                                if args.checkpoint_dir is not None else None),
                resume=args.resume,
                checkpoint_keep_last=args.checkpoint_keep_last)


#: RetryPolicy field -> the ``serve`` option that sets it for restarts.
_RESTART_OPTIONS = {"max_attempts": "restart_attempts",
                    "timeout_seconds": "deadline_seconds",
                    "backoff_seconds": "restart_backoff"}


def _invalid(problem: object) -> NoReturn:
    raise SystemExit(f"invalid configuration: {problem}")


def _run_config(scenarios: list[str] | None = None,
                **kwargs) -> CalibrationConfig:
    """The run's configuration, validated before anything runs (its
    schedule, and the requested scenarios against it, too): a bad value
    exits with its message instead of a traceback."""
    try:
        cfg = CalibrationConfig(**kwargs)
        schedule = cfg.schedule()
        for name in scenarios or ():
            get_scenario(name).check_schedule(schedule)
    except ValueError as exc:
        _invalid(exc)
    return cfg


def _requested_scenarios(args) -> list[str] | None:
    """Resolve --scenario/--scenario-set into registered names (or None)."""
    chosen = getattr(args, "scenario", None)
    set_name = getattr(args, "scenario_set", None)
    if chosen and set_name:
        raise SystemExit("--scenario and --scenario-set are mutually "
                         "exclusive")
    if set_name is not None:
        try:
            return [spec.name for spec in scenario_set(set_name)]
        except KeyError as exc:
            raise SystemExit(str(exc.args[0]))
    if chosen:
        unknown = sorted(set(chosen) - set(SCENARIOS.names()))
        if unknown:
            raise SystemExit(f"unknown scenario(s) {unknown}; registered: "
                             f"{SCENARIOS.names()}")
        return list(chosen)
    return None


def _cmd_scenarios(args) -> int:
    print("registered scenarios:")
    for spec in SCENARIOS.specs():
        parts = [f"{o.field}={o.value}@d{o.start_day}"
                 for o in spec.overrides]
        detail = "; ".join(parts) if parts else "no overrides"
        print(f"  {spec.name:<24} {detail}")
        if spec.description:
            print(f"  {'':<24} {spec.description}")
    print("\nscenario sets:")
    for set_name, members in sorted(SCENARIO_SETS.items()):
        print(f"  {set_name:<24} {', '.join(members)}")
    return 0


def _cmd_fig2(args) -> int:
    try:
        truth = make_fig2_ground_truth(seed=args.seed, horizon=args.horizon)
    except ValueError as exc:
        _invalid(exc)
    args.out.mkdir(parents=True, exist_ok=True)
    write_series_csv(args.out / "fig2_series.csv", {
        "true_cases": truth.true_cases,
        "observed_cases": truth.observed_cases,
        "deaths": truth.deaths})
    print(f"wrote {args.out / 'fig2_series.csv'}")
    last = truth.true_cases.end_day - 1
    print(f"day {last}: true {truth.true_cases.value_on(last):.0f}, "
          f"observed {truth.observed_cases.value_on(last):.0f}, "
          f"deaths {truth.deaths.value_on(last):.0f}")
    return 0


def _cmd_fig3(args) -> int:
    """Importance sampling over days 20-33 alone: a one-window calibration,
    so its posterior is bit for bit ``fig4``'s first window."""
    cfg = _run_config(
        window_breaks=(20, 34), n_parameter_draws=args.draws,
        n_replicates=args.replicates, resample_size=args.resample,
        base_seed=args.seed, executor=args.executor, max_workers=args.workers)
    truth = make_fig2_ground_truth(seed=777, horizon=40)
    result = calibrate(truth.observations(), cfg, verbose=True)
    args.out.mkdir(parents=True, exist_ok=True)
    summary = result.windows[0].summary()
    write_json(args.out / "fig3_summary.json", summary)
    print(json.dumps(summary, indent=2, default=float))
    return 0


def _sequential(args, include_deaths: bool, label: str) -> int:
    scenario_names = _requested_scenarios(args)
    cfg = _run_config(
        scenario_names, window_breaks=(20, 34, 48, 62, 76),
        n_parameter_draws=args.draws, n_replicates=args.replicates,
        resample_size=args.resample, theta_jitter_width=0.16,
        rho_jitter_width=0.04, n_continuations=2, base_seed=args.seed,
        executor=args.executor, max_workers=args.workers,
        **_adaptive_config_kwargs(args), **_fault_config_kwargs(args))
    truth = make_fig2_ground_truth(seed=777, horizon=76)
    if scenario_names is not None:
        return _sequential_sweep(args, cfg, include_deaths, label,
                                 scenario_names, truth)
    result = calibrate(truth.observations(include_deaths=include_deaths),
                       cfg, verbose=True)
    args.out.mkdir(parents=True, exist_ok=True)
    result.save_summary(args.out / f"{label}_summary.json")
    print()
    if result.resumed_from is not None:
        print(f"  resumed from window {result.resumed_from} "
              f"(windows 0..{result.resumed_from} restored from "
              f"{args.checkpoint_dir})")
    print(result.describe())
    sizes = ", ".join(str(int(n)) for n in result.ensemble_sizes())
    print(f"  per-window cloud sizes: {sizes} "
          f"({result.total_particle_steps()} particle-steps)")
    posts = ", ".join(str(int(n)) for n in result.resample_sizes())
    print(f"  per-window posterior sizes: {posts}")
    tempered = result.tempered_windows()
    cut = [wr.index for wr in result.windows if wr.diagnostics.temper_truncated]
    if tempered:
        print(f"  tempered rescue bridged windows: "
              f"{', '.join(str(w) for w in tempered)}" + (
                  f" (truncated at the stage cap: "
                  f"{', '.join(str(w) for w in cut)})" if cut else ""))
    print(f"\nwrote {args.out / (label + '_summary.json')}")
    return 0


def _sequential_sweep(args, cfg, include_deaths: bool, label: str,
                      scenario_names: list[str], truth) -> int:
    """Multi-world variant of ``_sequential``: one vectorized sweep."""
    sweep = calibrate_scenarios(
        truth.observations(include_deaths=include_deaths),
        scenarios=scenario_names, config=cfg, verbose=True)
    args.out.mkdir(parents=True, exist_ok=True)
    sweep.save_summary(args.out / f"{label}_scenarios_summary.json")
    print(f"\nsweep over {len(sweep)} scenario(s): "
          f"{sweep.computed_windows} window(s) computed, "
          f"{sweep.reused_windows} reused across identical world-lines")
    for result in sweep:
        result.save_summary(args.out / f"{label}_{result.scenario}_summary.json")
        print(f"\n[{result.scenario}]")
        if result.resumed_from is not None:
            print(f"  resumed from window {result.resumed_from}")
        print(result.describe())
    print(f"\nwrote {args.out / (label + '_scenarios_summary.json')} "
          f"(+ one summary per scenario)")
    return 0


def _cmd_forecast(args) -> int:
    if args.horizon_days < 1:
        _invalid("horizon_days must be >= 1")
    scenario_names = _requested_scenarios(args)
    cfg = _run_config(
        scenario_names, window_breaks=(20, 34, 48),
        n_parameter_draws=args.draws, n_replicates=args.replicates,
        resample_size=args.resample, base_seed=args.seed,
        executor=args.executor, max_workers=args.workers,
        **_adaptive_config_kwargs(args), **_fault_config_kwargs(args))
    truth = make_fig2_ground_truth(seed=777, horizon=48)
    if scenario_names is not None:
        return _forecast_sweep(args, cfg, scenario_names, truth)
    result = calibrate(truth.observations(include_deaths=True), cfg,
                       verbose=True)
    if result.resumed_from is not None:
        print(f"resumed from window {result.resumed_from}")
    forecast = forecast_from_posterior(result.final_posterior,
                                       horizon_days=args.horizon_days,
                                       base_seed=args.seed)
    ribbon = forecast.ribbon("cases")
    args.out.mkdir(parents=True, exist_ok=True)
    payload = {
        "start_day": forecast.start_day,
        "horizon_days": forecast.horizon_days,
        "days": ribbon.days.tolist(),
        "q05": ribbon.band(0.05).tolist(),
        "q50": ribbon.median().tolist(),
        "q95": ribbon.band(0.95).tolist(),
    }
    write_json(args.out / "forecast.json", payload)
    print(f"\nforecast written to {args.out / 'forecast.json'}; "
          f"median day-{forecast.start_day + args.horizon_days - 1} cases: "
          f"{float(np.asarray(payload['q50'])[-1]):.0f}")
    return 0


def _forecast_sweep(args, cfg, scenario_names: list[str], truth) -> int:
    """Multi-world forecast: sweep-calibrate, then fan the forecast out
    under common random numbers so cross-scenario deltas are scenario
    effects, not Monte Carlo noise."""
    sweep = calibrate_scenarios(truth.observations(include_deaths=True),
                                scenarios=scenario_names, config=cfg,
                                verbose=True)
    forecasts = forecast_scenarios(
        {r.scenario: r.final_posterior for r in sweep},
        horizon_days=args.horizon_days, base_seed=args.seed)
    args.out.mkdir(parents=True, exist_ok=True)
    payload = {}
    for name, forecast in forecasts.items():
        ribbon = forecast.ribbon("cases")
        payload[name] = {
            "start_day": forecast.start_day,
            "horizon_days": forecast.horizon_days,
            "days": ribbon.days.tolist(),
            "q05": ribbon.band(0.05).tolist(),
            "q50": ribbon.median().tolist(),
            "q95": ribbon.band(0.95).tolist(),
        }
    write_json(args.out / "forecast_scenarios.json", payload)
    print(f"\nsweep over {len(sweep)} scenario(s): "
          f"{sweep.computed_windows} window(s) computed, "
          f"{sweep.reused_windows} reused")
    for name in forecasts:
        q50 = payload[name]["q50"]
        print(f"  [{name}] median horizon-end cases: "
              f"{float(np.asarray(q50)[-1]):.0f}")
    print(f"wrote {args.out / 'forecast_scenarios.json'}")
    return 0


def _cmd_serve(args) -> int:
    """Run the always-on calibration service until done or told to stop.

    Drains on SIGTERM/SIGINT: the in-flight window (a signal only sets a
    flag) and one final spool pass complete before a clean exit, so an
    orchestrator's stop never tears state — and could not anyway, since
    checkpoints and artifacts are sealed atomically.  Exit codes: 0 clean
    (drained or ``--exit-when-done``), 3 a window exhausted its restart
    budget (restarting the daemon grants a fresh one).
    """
    from .core.smc import SequentialCalibrator
    from .data.sources import _DEFAULT_STREAMS
    from .hpc import CheckpointStore, RetryPolicy
    from .service import (ArtifactStore, CalibrationService,
                          ObservationBuffer, ServiceConfig, SpoolIngest)

    try:
        breaks = tuple(int(b) for b in args.window_breaks.split(","))
    except ValueError:
        raise SystemExit(f"--window-breaks must be comma-separated integers, "
                         f"got {args.window_breaks!r}")
    stream_names = tuple(s.strip() for s in args.streams.split(",") if s.strip())
    if not stream_names:
        _invalid(f"--streams must name at least one stream, "
                 f"got {args.streams!r}")
    unknown = [s for s in stream_names if s not in _DEFAULT_STREAMS]
    if unknown:
        raise SystemExit(f"--streams {unknown} not in "
                         f"{sorted(_DEFAULT_STREAMS)}")
    if args.keep_last is not None and args.keep_last < 1:
        raise SystemExit("--keep-last must be >= 1")
    if args.poll_seconds < 0:
        _invalid("poll_seconds must be >= 0")

    cfg = _run_config(
        window_breaks=breaks, n_parameter_draws=args.draws,
        n_replicates=args.replicates, resample_size=args.resample,
        base_seed=args.seed, executor=args.executor,
        max_workers=args.workers, retry_attempts=args.retry_attempts,
        retry_timeout=args.retry_timeout, retry_backoff=args.retry_backoff)
    try:
        service_config = ServiceConfig(
            restart=RetryPolicy(max_attempts=args.restart_attempts,
                                timeout_seconds=args.deadline_seconds,
                                backoff_seconds=args.restart_backoff),
            horizon_days=args.horizon_days, forecast_seed=args.forecast_seed,
            keep_last=args.keep_last)
    except ValueError as exc:
        # Name the serve option, not the RetryPolicy field behind it.
        name, _, rule = str(exc).partition(" ")
        _invalid(f"{_RESTART_OPTIONS.get(name, name)} {rule}")
    executor = cfg.make_executor()
    quarantine = (args.quarantine if args.quarantine is not None
                  else args.artifacts / "quarantine.jsonl")

    stop = {"requested": False}

    def _request_stop(signum, frame):  # noqa: ARG001 — signal signature
        stop["requested"] = True
        print(f"received signal {signum}; draining (in-flight window and "
              "spooled data finish, then clean exit)", flush=True)

    signal.signal(signal.SIGTERM, _request_stop)
    signal.signal(signal.SIGINT, _request_stop)

    try:
        calibrator = SequentialCalibrator(
            base_params=cfg.disease_params(None), prior=cfg.prior(),
            jitter=cfg.jitter(), observation_model=cfg.observation_model(),
            schedule=cfg.schedule(), config=cfg.smc_config(),
            executor=executor,
            progress=lambda msg: print(f"  {msg}", flush=True))
        service = CalibrationService(
            calibrator, CheckpointStore(args.checkpoint_dir),
            ArtifactStore(args.artifacts), service_config,
            streams=stream_names,
            progress=lambda msg: print(msg, flush=True))
        resumed = service.resume()
        if resumed is None:
            print(f"fresh run: {len(cfg.schedule())} windows scheduled, "
                  f"watching {args.spool}", flush=True)
        # The buffer starts at the resumed frontier so a post-crash spool
        # re-scan silently skips already-calibrated history instead of
        # flagging it out-of-order.
        frontier = (cfg.schedule()[service.head].end_day
                    if service.head is not None else 0)
        buffer = ObservationBuffer(
            streams={name: _DEFAULT_STREAMS[name] for name in stream_names},
            frontier=frontier)
        ingest = SpoolIngest(args.spool, buffer, quarantine_path=quarantine)

        while True:
            rejected = ingest.scan()
            if rejected:
                print(f"quarantined {len(rejected)} rejected row(s) -> "
                      f"{quarantine}", flush=True)
            service.tick(buffer)
            if service.failed_window is not None:
                print(f"window {service.failed_window} exhausted its "
                      f"restart budget; holding position — restart the "
                      "daemon for a fresh budget", flush=True)
                return 3
            if service.done:
                print("all scheduled windows calibrated and published",
                      flush=True)
                if args.exit_when_done:
                    return 0
            if stop["requested"]:
                head = service.head
                print(f"drained; head window: "
                      f"{head if head is not None else 'none'}", flush=True)
                return 0
            time.sleep(args.poll_seconds)
    finally:
        executor.close()


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # A refused or unreadable checkpoint store (another run's fingerprint,
    # a torn window) is the user's to fix: one line, not a traceback.
    try:
        if args.command == "fig2":
            return _cmd_fig2(args)
        if args.command == "fig3":
            return _cmd_fig3(args)
        if args.command == "fig4":
            return _sequential(args, include_deaths=False, label="fig4")
        if args.command == "fig5":
            return _sequential(args, include_deaths=True, label="fig5")
        if args.command == "forecast":
            return _cmd_forecast(args)
        if args.command == "scenarios":
            return _cmd_scenarios(args)
        if args.command == "serve":
            return _cmd_serve(args)
    except CheckpointError as exc:
        raise SystemExit(f"checkpoint error: {exc}") from None
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
