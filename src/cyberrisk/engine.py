"""Deterministic parallel Monte Carlo orchestration.

One simulation run sweeps the requested risk levels; each level runs R
independent repetitions of a kappa-device portfolio year and reduces the
resulting loss sample to the full set of risk measures. Reports are a
pure function of the spec (seed included): repetitions own fixed counter
regions of per-level streams, so any partition of repetitions over
workers produces bitwise-identical results.

Draw layout, version 1
----------------------
Per (seed, level) there are several stream families (ids built by
``streams.pack_stream_id``):

* COUNT (domain 1): the portfolio-wide attack cluster count
  ~ Poisson(kappa * theta) per repetition. When the rate is below 30 the
  draw is a single sequential-search inversion word and repetition r
  reads word r (dense layout); otherwise repetition r owns the 32-word
  region [32r, 32r+32) and burns two words per PTRS attempt, spilling to
  a per-repetition COUNT_SPILL stream (domain 4) after 16 attempts.
* DETAIL (domain 2): repetition regions of 8 words, used only when the
  repetition drew exactly one cluster - word 0 is reserved for the
  cluster's device placement (the index is irrelevant to the loss when
  there is a single cluster, so the value is not inspected), words 1..6
  hold the cluster-size draw (one sequential-search word, or up to three
  2-word PTRS attempts before spilling), word 7 the survival draw when
  kill_rate > 0.
* DETAIL_SPILL (domain 6): per-repetition stream for repetitions with
  two or more clusters (or an exhausted in-region size draw): placement
  words for every cluster (unbiased modulo rejection), then the cluster
  sizes, then - only if kill_rate > 0 - one survival word per affected
  device in ascending device order.
* CHANNEL (domain 3) with spill domain 7: event count of the optional
  common-loss channel, same dense/region rule as COUNT; severities come
  from a per-repetition CHANNEL_SEV stream (domain 5).

Drawing the portfolio cluster total once and placing clusters uniformly
over devices is distributionally identical to kappa independent
compound-count draws (Poisson superposition/thinning); the scalar
per-device path in ``loss_model.simulate_device`` is the reference
implementation that the test suite checks this equivalence against.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
import math
import os
import time

import numpy as np

from .distributions import (
    PTRS_THRESHOLD,
    poisson_inversion,
    poisson_ptrs_regions,
    sample_poisson_batch,
    sample_severity_batch,
)
from .errors import ConfigError, NumericFault
from .loss_model import (
    AggregateLossParams,
    DeviceParameters,
    discount_factor,
    expected_present_loss,
    premium_schedule,
)
from .risk_measures import (
    EmpiricalDistribution,
    RiskMetrics,
    conditional_tail_expectation,
    expected_shortfall,
    risk_margin_ratio,
    shortfall_probability,
    value_at_risk,
)
from .scenario import RiskLevel, ScenarioConfig, level_mitigation, level_parameters
from .streams import RandomStream, chunk_words, derive_stream, pack_stream_id, words_to_uniforms, STREAM_FORMAT_VERSION

__all__ = [
    "SimulationSpec",
    "LevelReport",
    "RiskReport",
    "run_simulation",
    "summarize_level",
    "ENGINE_VERSION",
    "DRAW_LAYOUT_VERSION",
]

ENGINE_VERSION = "0.1.0"
DRAW_LAYOUT_VERSION = 1

_DOMAIN_COUNT = 1
_DOMAIN_DETAIL = 2
_DOMAIN_CHANNEL = 3
_DOMAIN_COUNT_SPILL = 4
_DOMAIN_CHANNEL_SEV = 5
_DOMAIN_DETAIL_SPILL = 6
_DOMAIN_CHANNEL_SPILL = 7

_COUNT_BLOCKS_PER_REP = 8                # 32-word PTRS regions
_COUNT_MAX_ATTEMPTS = 16
_DETAIL_BLOCKS_PER_REP = 2               # 8-word single-cluster regions
_DETAIL_MAX_ATTEMPTS = 3
_CHUNK_REPS = 16384

_DEFAULT_CONFIDENCE = (0.90, 0.95, 0.99)
_DEFAULT_LEVELS = (RiskLevel.GUARDED, RiskLevel.ELEVATED, RiskLevel.HIGH, RiskLevel.SEVERE)


@dataclass(frozen=True)
class SimulationSpec:
    """Everything a run depends on. Two equal specs produce byte-identical
    reports regardless of worker count."""

    device: DeviceParameters
    loading: float = 0.1
    mitigation: float = 0.9
    portfolio_size: int = 1000
    repetitions: int = 100_000
    seed: int = 42
    levels: tuple = _DEFAULT_LEVELS
    scenario: ScenarioConfig = field(default_factory=ScenarioConfig)
    aggregate_channel: AggregateLossParams | None = None
    confidence_levels: tuple = _DEFAULT_CONFIDENCE

    def __post_init__(self):
        if self.repetitions < 1:
            raise ConfigError("repetitions must be >= 1")
        if self.portfolio_size < 1:
            raise ConfigError("portfolio_size must be >= 1")
        if not (0 <= self.seed < 2 ** 64):
            raise ConfigError("seed must be a 64-bit unsigned integer")
        if not self.levels:
            raise ConfigError("at least one risk level is required")
        if len(set(self.levels)) != len(self.levels):
            raise ConfigError("risk levels must be distinct")
        if not all(isinstance(lv, RiskLevel) for lv in self.levels):
            raise ConfigError("levels must be RiskLevel values")
        if not self.confidence_levels:
            raise ConfigError("at least one confidence level is required")
        for rho in self.confidence_levels:
            if not (0.0 < rho < 1.0):
                raise ConfigError(f"confidence level {rho} outside (0, 1)")
        if list(self.confidence_levels) != sorted(self.confidence_levels):
            raise ConfigError("confidence levels must be ascending")
        if not (self.loading >= 0 and math.isfinite(self.loading)):
            raise ConfigError(f"loading must be nonnegative, got {self.loading}")
        if not (0.0 < self.mitigation <= 1.0):
            raise ConfigError(f"mitigation must lie in (0, 1], got {self.mitigation}")


@dataclass(frozen=True)
class LevelReport:
    level: RiskLevel
    intensity_multiplier: float
    mitigation: float
    expected_present_loss: float     # E(P1) = alpha * mean portfolio loss
    premium_pool: float              # kappa * pi1, priced at Baseline
    metrics: RiskMetrics
    cap_events: int                  # repetition-device pairs hitting the horizon cap


@dataclass(frozen=True)
class RiskReport:
    levels: tuple
    seed: int
    repetitions: int
    portfolio_size: int
    confidence_levels: tuple
    baseline_expected_device_loss: float
    engine_version: str = ENGINE_VERSION
    stream_format_version: int = STREAM_FORMAT_VERSION
    draw_layout_version: int = DRAW_LAYOUT_VERSION
    spec_echo: dict = field(default_factory=dict)
    wall_time_seconds: float | None = None  # excluded from canonical serializations

    def level_report(self, level: RiskLevel) -> LevelReport:
        for item in self.levels:
            if item.level is level:
                return item
        raise KeyError(level.name)


# ---------------------------------------------------------------------------
# per-chunk simulation
# ---------------------------------------------------------------------------

def _counts_for_chunk(seed: int, domain: int, level: RiskLevel, rep_lo: int, n: int,
                      rate: float) -> np.ndarray:
    """Event counts ~ Poisson(rate) for repetitions [rep_lo, rep_lo + n).

    Dense one-word-per-repetition inversion below rate 30; 32-word PTRS
    regions (with per-repetition spill) above."""
    if rate == 0.0:
        return np.zeros(n, dtype=np.int64)
    stream_id = pack_stream_id(domain, level.code, 0)
    if rate < PTRS_THRESHOLD:
        return poisson_inversion(RandomStream(seed, stream_id, counter=rep_lo).uniforms(n), rate)
    words = chunk_words(seed, stream_id, rep_lo, n, _COUNT_BLOCKS_PER_REP)
    out = poisson_ptrs_regions(words, rate, 0, _COUNT_MAX_ATTEMPTS)
    spill_domain = _DOMAIN_COUNT_SPILL if domain == _DOMAIN_COUNT else _DOMAIN_CHANNEL_SPILL
    for rep_off in np.nonzero(out < 0)[0]:
        stream = derive_stream(seed, pack_stream_id(spill_domain, level.code, rep_lo + int(rep_off)))
        out[rep_off] = sample_poisson_batch(stream, rate, 1)[0]
    return out


def _unbiased_indices(stream: RandomStream, n: int, modulus: int) -> np.ndarray:
    """n unbiased indices in [0, modulus) via 64-bit modulo rejection."""
    remainder = (1 << 64) % modulus
    limit = None if remainder == 0 else np.uint64((1 << 64) - remainder)
    out = np.empty(n, dtype=np.int64)
    filled = 0
    while filled < n:
        words = stream.raw_words(n - filled)
        if limit is not None:
            words = words[words < limit]
        take = (words % np.uint64(modulus)).astype(np.int64)
        out[filled:filled + len(take)] = take
        filled += len(take)
    return out


def _device_days_for_rep(seed: int, level: RiskLevel, rep: int, n_clusters: int,
                         spec: SimulationSpec, device: DeviceParameters) -> tuple[int, int]:
    """Resolve one multi-cluster repetition on its spill stream.

    Returns (total capped surviving loss-days, cap events)."""
    kappa = spec.portfolio_size
    stream = derive_stream(seed, pack_stream_id(_DOMAIN_DETAIL_SPILL, level.code, rep))
    placement = _unbiased_indices(stream, n_clusters, kappa)
    lam = device.counts.lambda_cluster
    if lam > 0.0:
        extras = sample_poisson_batch(stream, lam, n_clusters)
    else:
        extras = np.zeros(n_clusters, dtype=np.int64)
    affected = np.unique(placement)
    days = (np.bincount(placement, minlength=kappa)
            + np.bincount(placement, weights=extras, minlength=kappa).astype(np.int64))[affected]
    if device.kill_rate > 0.0:
        u = stream.uniforms(len(affected))
        survived = u < math.exp(-device.kill_rate)
        days = days[survived]
    effective = device.loss_day_multiplier * days
    caps = int((effective > device.horizon_days).sum())
    return float(np.minimum(effective, float(device.horizon_days)).sum()), caps


def _single_cluster_days(spec: SimulationSpec, level: RiskLevel, rep_lo: int, n: int,
                         rows: np.ndarray, device: DeviceParameters):
    """Vectorized in-region path for repetitions with exactly one cluster.

    Returns (rows resolved, capped surviving loss-days per row, cap events,
    rows that spilled to the scalar path)."""
    lam = device.counts.lambda_cluster
    words = chunk_words(spec.seed, pack_stream_id(_DOMAIN_DETAIL, level.code, 0),
                        rep_lo, n, _DETAIL_BLOCKS_PER_REP)[rows]
    # word 0 is the reserved placement draw; a lone cluster's device index
    # cannot change the portfolio loss, so the value is not inspected.
    if lam == 0.0:
        extras = np.zeros(len(rows), dtype=np.int64)
    elif lam < PTRS_THRESHOLD:
        extras = poisson_inversion(words_to_uniforms(words[:, 1]), lam)
    else:
        extras = poisson_ptrs_regions(words, lam, 1, _DETAIL_MAX_ATTEMPTS)
    resolved = extras >= 0
    days = device.loss_day_multiplier * (1 + extras[resolved])
    if device.kill_rate > 0.0:
        u = words_to_uniforms(words[resolved, 7])
        days = days * (u < math.exp(-device.kill_rate))
    capped = np.minimum(days, float(device.horizon_days))
    caps = int((days > device.horizon_days).sum())
    return rows[resolved], capped, caps, rows[~resolved]


def _simulate_chunk(spec: SimulationSpec, level: RiskLevel, rep_lo: int, rep_hi: int):
    """Losses and cap counts for repetitions [rep_lo, rep_hi) of one level."""
    n = rep_hi - rep_lo
    device = level_parameters(spec.scenario, level, spec.device)
    kappa = spec.portfolio_size
    v = discount_factor(device.discount_rate)
    unit = v * device.daily_loss

    cluster_counts = _counts_for_chunk(spec.seed, _DOMAIN_COUNT, level, rep_lo, n,
                                       kappa * device.counts.theta)
    losses = np.zeros(n)
    caps = 0

    single_rows = np.nonzero(cluster_counts == 1)[0]
    scalar_rows = np.nonzero(cluster_counts >= 2)[0]
    if single_rows.size:
        resolved, capped_days, single_caps, spilled = _single_cluster_days(
            spec, level, rep_lo, n, single_rows, device)
        losses[resolved] = unit * capped_days
        caps += single_caps
        if spilled.size:
            scalar_rows = np.sort(np.concatenate([scalar_rows, spilled]))
    for rep_off in scalar_rows:
        rep = rep_lo + int(rep_off)
        total_days, rep_caps = _device_days_for_rep(spec.seed, level, rep,
                                                    int(cluster_counts[rep_off]), spec, device)
        losses[rep_off] = unit * total_days
        caps += rep_caps

    if spec.aggregate_channel is not None and spec.aggregate_channel.event_rate > 0.0:
        event_counts = _counts_for_chunk(spec.seed, _DOMAIN_CHANNEL, level, rep_lo, n,
                                         spec.aggregate_channel.event_rate)
        for rep_off in np.nonzero(event_counts)[0]:
            rep = rep_lo + int(rep_off)
            sev_stream = derive_stream(spec.seed,
                                       pack_stream_id(_DOMAIN_CHANNEL_SEV, level.code, rep))
            amounts = sample_severity_batch(sev_stream, spec.aggregate_channel.severity,
                                            int(event_counts[rep_off]))
            losses[rep_off] += float(amounts.sum())

    bad = np.nonzero(~np.isfinite(losses))[0]
    if bad.size:
        raise NumericFault(
            f"nonfinite loss at level {level.name}, repetition {rep_lo + int(bad[0])}",
            level=level.name, repetition=rep_lo + int(bad[0]))
    return losses, caps


def _chunk_task(args):
    spec, level, lo, hi = args
    return _simulate_chunk(spec, level, lo, hi)


# ---------------------------------------------------------------------------
# reduction and public entry points
# ---------------------------------------------------------------------------

def summarize_level(samples: EmpiricalDistribution, premium_pool: float,
                    levels) -> RiskMetrics:
    """Compose the five risk measures over one loss sample.

    Margin ratios are produced for every (measure, confidence) pair, and
    omitted entirely when the expected loss is zero (Solvency-2 ratio is
    undefined there)."""
    expected = samples.mean()
    var = {rho: value_at_risk(samples, rho) for rho in levels}
    cte = {rho: conditional_tail_expectation(samples, rho) for rho in levels}
    margin = {}
    if expected != 0.0:
        for rho in levels:
            margin[("var", rho)] = risk_margin_ratio(var[rho], expected)
            margin[("cte", rho)] = risk_margin_ratio(cte[rho], expected)
    return RiskMetrics(
        expected_loss=expected,
        shortfall_probability=shortfall_probability(samples, premium_pool),
        expected_shortfall=expected_shortfall(samples, premium_pool),
        var=var,
        cte=cte,
        margin_ratio=margin,
    )


def resolve_workers(workers: int | None) -> int:
    """CLI/env worker resolution: explicit value, else CYBERRISK_WORKERS,
    else machine parallelism. Never changes results, only wall time."""
    if workers is None:
        env = os.environ.get("CYBERRISK_WORKERS")
        if env:
            try:
                workers = int(env)
            except ValueError:
                raise ConfigError(f"CYBERRISK_WORKERS is not an integer: {env!r}") from None
        else:
            workers = os.cpu_count() or 1
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    return workers


def run_simulation(spec: SimulationSpec, workers: int | None = None) -> RiskReport:
    """Run the full experiment described by ``spec``.

    The premium pool is priced once at Baseline conditions: pi1 =
    (1 + loading) * alpha_level * E(P_Baseline) with E(P_Baseline) the
    analytic per-device expected present loss, so riskier levels face a
    pool calibrated to normal conditions; that is what makes the shortfall
    metrics grow across levels.
    """
    started = time.perf_counter()
    workers = resolve_workers(workers)

    baseline_device = level_parameters(spec.scenario, RiskLevel.BASELINE, spec.device)
    baseline_expected = expected_present_loss(baseline_device)

    tasks = []
    for level in spec.levels:
        for lo in range(0, spec.repetitions, _CHUNK_REPS):
            tasks.append((spec, level, lo, min(lo + _CHUNK_REPS, spec.repetitions)))

    if workers == 1 or len(tasks) == 1:
        results = [_chunk_task(t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_chunk_task, tasks, chunksize=1))

    level_reports = []
    cursor = 0
    for level in spec.levels:
        losses = np.empty(spec.repetitions)
        caps = 0
        for lo in range(0, spec.repetitions, _CHUNK_REPS):
            chunk_losses, chunk_caps = results[cursor]
            losses[lo:lo + len(chunk_losses)] = chunk_losses
            caps += chunk_caps
            cursor += 1
        losses.sort()
        dist = EmpiricalDistribution.from_sorted(losses)

        alpha = level_mitigation(spec.scenario, level)
        schedule = premium_schedule(baseline_expected, spec.loading, alpha)
        pool_amount = spec.portfolio_size * schedule.adjusted_premium
        metrics = summarize_level(dist, pool_amount, spec.confidence_levels)
        level_reports.append(LevelReport(
            level=level,
            intensity_multiplier=spec.scenario.intensity_multipliers[level],
            mitigation=alpha,
            expected_present_loss=alpha * metrics.expected_loss,
            premium_pool=pool_amount,
            metrics=metrics,
            cap_events=caps,
        ))

    return RiskReport(
        levels=tuple(level_reports),
        seed=spec.seed,
        repetitions=spec.repetitions,
        portfolio_size=spec.portfolio_size,
        confidence_levels=tuple(spec.confidence_levels),
        baseline_expected_device_loss=baseline_expected,
        spec_echo=_spec_echo(spec),
        wall_time_seconds=time.perf_counter() - started,
    )


def _spec_echo(spec: SimulationSpec) -> dict:
    from .config import spec_to_mapping

    return spec_to_mapping(spec)
