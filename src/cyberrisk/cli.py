"""Command-line interface.

Four subcommands: ``simulate`` (run the engine on a config file),
``calibrate`` (baseline-proportion arithmetic to a config fragment),
``fit`` (estimate intensity/severity parameters from a threat dataset)
and ``report`` (risk measures over a pre-existing loss sample).

Exit codes are a stable contract: 0 ok, otherwise the ``exit_code`` of
the error class raised, as tabled in ``errors.py``.
"""

from __future__ import annotations

import argparse
from dataclasses import replace
import io
import json
import math
import sys
import time

from .config import load_config, scenario_to_mapping
from .engine import run_simulation, summarize_level
from .errors import ConfigError, CyberRiskError, InputError, InsufficientDataError, read_input
from .report import _rho_text, render_csv, render_json, render_table
from .risk_measures import EmpiricalDistribution
from .scenario import MINUTES_PER_YEAR, ScenarioConfig, attacks_per_year, baseline_proportion


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cyberrisk",
                                     description="Deterministic IoT cyber-risk Monte Carlo engine")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run the Monte Carlo experiment from a config file")
    sim.add_argument("--config", required=True, help="path to the JSON configuration")
    sim.add_argument("--seed", type=int, default=None,
                     help="64-bit seed (overrides config; default from config, else 42)")
    sim.add_argument("--reps", type=int, default=None, help="repetitions override")
    sim.add_argument("--format", choices=["table", "csv", "json"], default="table")
    sim.add_argument("--out", default=None, help="output path (default stdout)")
    sim.add_argument("--workers", type=int, default=None,
                     help="worker processes (default: machine parallelism), at most "
                          "one per task; never changes output bytes")

    cal = sub.add_parser("calibrate", help="baseline attacked-proportion arithmetic")
    cal.add_argument("--attack-window-min", type=float, default=5.0)
    cal.add_argument("--unrecorded-frac", type=float, default=0.5)
    cal.add_argument("--population", type=int, default=10000)
    cal.add_argument("--minutes-per-year", type=int, default=MINUTES_PER_YEAR)

    fit = sub.add_parser("fit", help="fit model inputs from a threat-event dataset")
    fit.add_argument("--input", required=True, help="path to the dataset")
    fit.add_argument("--format", choices=["csv", "jsonl"], default="csv")
    fit.add_argument("--severity", choices=["lognormal", "pareto"], default="lognormal")
    fit.add_argument("--x-min", type=float, default=None, help="Pareto tail threshold (required for pareto)")
    fit.add_argument("--from", dest="window_from", default=None, help="window start (YYYY-MM-DD)")
    fit.add_argument("--to", dest="window_to", default=None, help="window end (YYYY-MM-DD)")

    rep = sub.add_parser("report", help="risk measures over an existing loss sample")
    rep.add_argument("--samples", required=True,
                     help="newline-delimited loss values; '#' starts a comment")
    rep.add_argument("--premium-pool", type=float, default=0.0)
    rep.add_argument("--levels", default="0.90,0.95,0.99", help="comma-separated confidence levels")

    return parser


def _cmd_simulate(args) -> int:
    spec = load_config(args.config)
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.reps is not None:
        overrides["repetitions"] = args.reps
    if overrides:
        # SimulationSpec re-validates the overridden fields
        spec = replace(spec, **overrides)

    started = time.perf_counter()
    report = run_simulation(spec, workers=args.workers)
    sys.stderr.write(f"cyberrisk: simulated {len(report.levels)} levels x {spec.repetitions} "
                     f"repetitions in {time.perf_counter() - started:.2f}s\n")

    if args.format == "json":
        text = render_json(report)
    elif args.format == "csv":
        text = render_csv(report)
    else:
        text = render_table(report)

    if args.out is None:
        sys.stdout.write(text)
    else:
        try:
            with open(args.out, "w", encoding="utf-8", newline="") as handle:
                handle.write(text)
        except OSError as exc:
            raise InputError(f"cannot write report to {args.out}: {exc}") from exc
    return 0


def _cmd_calibrate(args) -> int:
    proportion = baseline_proportion(
        minutes_per_year=args.minutes_per_year,
        unrecorded_fraction=args.unrecorded_frac,
        attack_window_minutes=args.attack_window_min,
        population=args.population,
    )
    scenario = ScenarioConfig(base_proportion=proportion, population=args.population,
                              attacks_per_year_base=attacks_per_year(proportion, args.minutes_per_year))
    sys.stdout.write(json.dumps({"scenario": scenario_to_mapping(scenario)}, indent=2) + "\n")
    return 0


def _cmd_fit(args) -> int:
    # only fit parses datasets, so the other subcommands never load these
    import datetime as dt

    from .ingestion import estimate_intensity, fit_lognormal, fit_pareto_tail, parse_records

    if args.severity == "pareto" and args.x_min is None:
        raise ConfigError("--x-min is required with --severity pareto")
    records, rejects = parse_records(read_input(args.input, "input"), fmt=args.format)
    if rejects:
        sys.stderr.write(f"rejected {len(rejects)} row(s):\n")
        for reject in rejects[:20]:
            sys.stderr.write(f"  line {reject.line}: field {reject.field or '-'}: {reject.reason}\n")
        if len(rejects) > 20:
            sys.stderr.write(f"  ... and {len(rejects) - 20} more\n")
    if not records:
        raise InsufficientDataError("no parseable records in input")

    def parse_date(text, flag):
        try:
            return dt.date.fromisoformat(text)
        except ValueError:
            raise ConfigError(f"{flag} must be YYYY-MM-DD, got {text!r}") from None

    start = parse_date(args.window_from, "--from") if args.window_from else min(r.date for r in records)
    end = parse_date(args.window_to, "--to") if args.window_to else max(r.date for r in records)
    if end < start:
        raise ConfigError(f"--to {end} precedes --from {start}")

    intensity = estimate_intensity(records, (start, end))
    warnings = []
    if intensity == 0.0:
        warnings.append("no events in window: intensity is 0 (low-data)")

    losses = [r.loss_amount for r in records
              if r.loss_amount is not None and start <= r.date <= end]
    if args.severity == "lognormal":
        positive = [x for x in losses if x > 0]
        if len(positive) < 2:
            raise InsufficientDataError(
                f"lognormal fit needs >= 2 positive loss amounts in window, got {len(positive)}")
        mu, sigma = fit_lognormal(positive)
        if sigma == 0.0:
            warnings.append("all positive losses are equal: lognormal sigma is 0, "
                            "which a config rejects (sigma must be positive)")
        severity_map = {"kind": "lognormal", "mu": mu, "sigma": sigma}
        used = len(positive)
    else:
        alpha, warn = fit_pareto_tail(losses, args.x_min)
        if warn:
            warnings.append(f"tail index {alpha:.4f} outside the plausible range (1, 3)")
        severity_map = {"kind": "pareto", "x_min": args.x_min, "alpha": alpha}
        used = sum(1 for x in losses if x >= args.x_min)

    fragment = {
        "intensity_per_day": intensity,
        "severity": severity_map,
        "sample_sizes": {"records": len(records), "rejects": len(rejects), "losses_used": used},
        "window": [start.isoformat(), end.isoformat()],
    }
    if warnings:
        fragment["warnings"] = warnings
    sys.stdout.write(json.dumps(fragment, indent=2) + "\n")
    return 0


def _read_samples(path: str) -> list[float]:
    try:  # newline=None splits lines as a file opened in text mode does
        lines = io.StringIO(read_input(path, "samples").decode("utf-8"), newline=None)
    except UnicodeDecodeError as exc:
        raise InputError(f"samples file {path} is not valid UTF-8: {exc}") from exc
    values = []
    for lineno, line in enumerate(lines, start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        try:
            value = float(text)
        except ValueError:
            raise ConfigError(f"samples line {lineno}: not a number: {text!r}") from None
        if not math.isfinite(value) or value < 0:
            raise ConfigError(f"samples line {lineno}: losses must be finite and nonnegative")
        values.append(value)
    if not values:
        raise ConfigError(f"samples file {path} holds no values")
    return values


def _cmd_report(args) -> int:
    try:
        levels = [float(x) for x in args.levels.split(",") if x.strip()]
    except ValueError:
        raise ConfigError(f"--levels must be comma-separated numbers, got {args.levels!r}") from None
    if not levels:
        raise ConfigError("--levels must name at least one confidence level")
    for rho in levels:
        if not (0.0 < rho < 1.0):
            raise ConfigError(f"confidence level {rho} outside (0, 1)")

    dist = EmpiricalDistribution(_read_samples(args.samples))
    pool = args.premium_pool + 0.0  # -0.0 reads as +0.0, as in every figure it yields
    metrics = summarize_level(dist, pool, levels)
    rhos = sorted(metrics.var)
    lines = [
        f"samples           {dist.count}",
        f"expected loss     {metrics.expected_loss:.6f}",
        f"premium pool      {pool:.6f}",
        f"Prob(Shortfall)   {metrics.shortfall_probability!r}",
        f"E(Shortfall)      {metrics.expected_shortfall:.6f}",
    ]
    lines += [f"VAR({_rho_text(rho)})          {metrics.var[rho]:.6f}" for rho in rhos]
    lines += [f"CTE({_rho_text(rho)})          {metrics.cte[rho]:.6f}" for rho in rhos]
    if metrics.margin_ratio:  # empty when the expected loss is zero
        for measure in ("var", "cte"):
            lines += [f"Margin {measure.upper()}({_rho_text(rho)})   {metrics.margin_ratio[measure, rho]!r}"
                      for rho in rhos]
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


_HANDLERS = {
    "simulate": _cmd_simulate,
    "calibrate": _cmd_calibrate,
    "fit": _cmd_fit,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except CyberRiskError as exc:
        sys.stderr.write(f"error: {exc.prefix}{exc}\n")
        return exc.exit_code
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return InputError.exit_code


if __name__ == "__main__":
    sys.exit(main())
