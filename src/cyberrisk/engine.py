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
  from a per-repetition CHANNEL_SEV stream (domain 5), one word per event
  (none for a fixed severity).

Batched resolution
------------------
Layout v1 above is unchanged; it is defined per repetition, but a chunk
resolves all of its DETAIL_SPILL and CHANNEL_SEV repetitions at once,
each on its own stream (``streams.RaggedStreams``), and replays every
stream's word order exactly: placement rejection and PTRS size draws
proceed round by round, each round reading the next words of every
repetition that still has unresolved draws, as the one-stream samplers
do. Per-repetition totals are bit-identical to ``ndarray.sum`` over that
repetition's devices or events. One batched read holds at most
``_BATCH_WORDS`` (2**18) words, except for a repetition that alone needs
more; the in-region DETAIL words are read for single-cluster repetitions
only, at most 8 * ``_CHUNK_REPS`` words. COUNT_SPILL and CHANNEL_SPILL,
taken after 16 rejected PTRS attempts, stay one stream at a time.

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

# bench/run.py traces the engine by patching sample_severity_batch,
# sample_poisson_batch, chunk_words, derive_stream, expected_present_loss
# and summarize_level as attributes of this module, so they stay imported
# here even where the batched path no longer calls them.
from .distributions import (
    PTRS_THRESHOLD,
    poisson_inversion,
    poisson_ptrs_regions,
    sample_indices_rows,
    sample_poisson_batch,
    sample_poisson_rows,
    sample_severity_batch,
    sample_severity_rows,
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
from .streams import (
    RaggedStreams,
    RandomStream,
    chunk_words,
    derive_stream,
    pack_stream_id,
    ragged_words,
    words_to_uniforms,
    STREAM_FORMAT_VERSION,
)

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

_MAX_REPETITIONS = 1 << 52              # the stream-id index field
_MAX_PORTFOLIO = (1 << 64) - 1           # devices are 64-bit words modulo kappa
_COUNT_BLOCKS_PER_REP = 8                # 32-word PTRS regions
_COUNT_MAX_ATTEMPTS = 16
_DETAIL_BLOCKS_PER_REP = 2               # 8-word single-cluster regions
_DETAIL_MAX_ATTEMPTS = 3
_CHUNK_REPS = 16384
# Most words one batched read of DETAIL_SPILL or CHANNEL_SEV streams holds
# (plus any row that alone exceeds it); bounds memory for any kappa and R.
_BATCH_WORDS = 1 << 18

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
        if not 1 <= self.repetitions <= _MAX_REPETITIONS:
            raise ConfigError(f"repetitions must lie in [1, 2**52], got {self.repetitions}")
        if not 1 <= self.portfolio_size <= _MAX_PORTFOLIO:
            raise ConfigError(f"portfolio_size must lie in [1, 2**64 - 1], got {self.portfolio_size}")
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


def _batches(words: np.ndarray):
    """Consecutive row groups ``(lo, hi)`` holding at most ``_BATCH_WORDS``
    of ``words`` each; a row larger than that forms a group of its own."""
    ends = np.cumsum(words)
    lo = 0
    while lo < len(words):
        base = ends[lo - 1] if lo else 0
        hi = max(lo + 1, int(np.searchsorted(ends, base + _BATCH_WORDS, side="right")))
        yield lo, hi
        lo = hi


def _row_totals(values: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Per-row sums of a ragged array, each bit-identical to ``ndarray.sum``
    of its row: rows under 8 entries add in order, as ``ndarray.sum`` and
    ``bincount`` both do, and longer rows, which ``ndarray.sum`` adds
    pairwise, are summed by it row by row."""
    owner = np.repeat(np.arange(len(lengths)), lengths)
    totals = np.bincount(owner, weights=values, minlength=len(lengths))
    ends = np.cumsum(lengths)
    for row in np.flatnonzero(lengths >= 8):
        totals[row] = values[ends[row] - lengths[row]:ends[row]].sum()
    return totals


def _multi_cluster_days(seed: int, level: RiskLevel, reps: np.ndarray, n_clusters: np.ndarray,
                        device: DeviceParameters, kappa: int):
    """Resolve repetitions on their DETAIL_SPILL streams, batch by batch.

    Returns (capped surviving loss-days per repetition, cap events)."""
    lam = device.counts.lambda_cluster
    kill = device.kill_rate > 0.0
    # words per cluster: placement, size (two per PTRS attempt), survival
    per_cluster = 1 + (0 if lam == 0.0 else 1 if lam < PTRS_THRESHOLD else 3) + kill
    prefix = n_clusters * per_cluster + 8
    totals = np.empty(len(reps))
    caps = 0
    for lo, hi in _batches(prefix):
        n = n_clusters[lo:hi]
        rows = np.arange(hi - lo)
        streams = RaggedStreams(seed, pack_stream_id(_DOMAIN_DETAIL_SPILL, level.code, reps[lo:hi]),
                                prefix[lo:hi])
        devices = sample_indices_rows(streams, n, kappa)
        extras = sample_poisson_rows(streams, n, lam)
        owner = np.repeat(rows, n)
        order = np.lexsort((devices, owner))
        devices, owner, extras = devices[order], owner[order], extras[order]
        # one entry per (repetition, affected device), devices ascending
        first = np.ones(len(order), dtype=bool)
        first[1:] = (owner[1:] != owner[:-1]) | (devices[1:] != devices[:-1])
        starts = np.flatnonzero(first)
        days = np.diff(starts, append=len(order)) + np.add.reduceat(extras, starts)
        owner = owner[starts]
        if kill:
            u = streams.uniforms(rows, np.bincount(owner, minlength=hi - lo))
            survived = u < math.exp(-device.kill_rate)
            days, owner = days[survived], owner[survived]
        effective = device.loss_day_multiplier * days
        caps += int((effective > device.horizon_days).sum())
        capped = np.minimum(effective, float(device.horizon_days))
        totals[lo:hi] = _row_totals(capped, np.bincount(owner, minlength=hi - lo))
    return totals, caps


def _single_cluster_days(spec: SimulationSpec, level: RiskLevel, rep_lo: int,
                         rows: np.ndarray, device: DeviceParameters):
    """Vectorized in-region path for repetitions with exactly one cluster.

    Returns (rows resolved, capped surviving loss-days per row, cap events,
    rows that spilled to the DETAIL_SPILL path)."""
    lam = device.counts.lambda_cluster
    region = 4 * _DETAIL_BLOCKS_PER_REP
    stream_ids = np.full(len(rows), pack_stream_id(_DOMAIN_DETAIL, level.code, 0), dtype=np.uint64)
    words = ragged_words(spec.seed, stream_ids, (rep_lo + rows) * region,
                         np.full(len(rows), region)).reshape(len(rows), region)
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


def _channel_losses(seed: int, level: RiskLevel, reps: np.ndarray, counts: np.ndarray,
                    severity) -> np.ndarray:
    """Common-channel loss of each repetition: the sum of its ``counts``
    severities, drawn from its CHANNEL_SEV stream, batch by batch."""
    totals = np.empty(len(reps))
    for lo, hi in _batches(counts):
        streams = RaggedStreams(seed, pack_stream_id(_DOMAIN_CHANNEL_SEV, level.code, reps[lo:hi]))
        amounts = sample_severity_rows(streams, counts[lo:hi], severity)
        totals[lo:hi] = _row_totals(amounts, counts[lo:hi])
    return totals


def _simulate_chunk(spec: SimulationSpec, level: RiskLevel, rep_lo: int, rep_hi: int):
    """Losses and cap counts for repetitions [rep_lo, rep_hi) of one level."""
    n = rep_hi - rep_lo
    device = level_parameters(spec.scenario, level, spec.device)
    v = discount_factor(device.discount_rate)
    unit = v * device.daily_loss

    cluster_counts = _counts_for_chunk(spec.seed, _DOMAIN_COUNT, level, rep_lo, n,
                                       spec.portfolio_size * device.counts.theta)
    losses = np.zeros(n)
    caps = 0

    single_rows = np.flatnonzero(cluster_counts == 1)
    multi_rows = np.flatnonzero(cluster_counts >= 2)
    if single_rows.size:
        resolved, capped_days, single_caps, spilled = _single_cluster_days(
            spec, level, rep_lo, single_rows, device)
        losses[resolved] = unit * capped_days
        caps += single_caps
        multi_rows = np.concatenate([multi_rows, spilled])
    if multi_rows.size:
        total_days, multi_caps = _multi_cluster_days(spec.seed, level, rep_lo + multi_rows,
                                                     cluster_counts[multi_rows], device,
                                                     spec.portfolio_size)
        losses[multi_rows] = unit * total_days
        caps += multi_caps

    if spec.aggregate_channel is not None and spec.aggregate_channel.event_rate > 0.0:
        event_counts = _counts_for_chunk(spec.seed, _DOMAIN_CHANNEL, level, rep_lo, n,
                                         spec.aggregate_channel.event_rate)
        rows = np.flatnonzero(event_counts)
        losses[rows] += _channel_losses(spec.seed, level, rep_lo + rows, event_counts[rows],
                                        spec.aggregate_channel.severity)

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


def resolve_workers(workers: int | None, tasks: int | None = None,
                    cpus: int | None = None) -> int:
    """Worker count: the explicit value, else CYBERRISK_WORKERS, else
    machine parallelism; then at most ``tasks`` and at most ``cpus`` when
    they are given. Never changes results, only wall time."""
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
    return min([workers] + [bound for bound in (tasks, cpus) if bound is not None])


def run_simulation(spec: SimulationSpec, workers: int | None = None) -> RiskReport:
    """Run the full experiment described by ``spec``.

    The premium pool is priced once at Baseline conditions: pi1 =
    (1 + loading) * alpha_level * E(P_Baseline) with E(P_Baseline) the
    analytic per-device expected present loss, so riskier levels face a
    pool calibrated to normal conditions; that is what makes the shortfall
    metrics grow across levels.
    """
    started = time.perf_counter()

    baseline_device = level_parameters(spec.scenario, RiskLevel.BASELINE, spec.device)
    baseline_expected = expected_present_loss(baseline_device)

    tasks = []
    for level in spec.levels:
        for lo in range(0, spec.repetitions, _CHUNK_REPS):
            tasks.append((spec, level, lo, min(lo + _CHUNK_REPS, spec.repetitions)))

    workers = resolve_workers(workers, len(tasks), os.cpu_count() or 1)
    if workers == 1:
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
