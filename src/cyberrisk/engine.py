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
* DETAIL (domain 2): repetition regions of 8 words (cipher blocks 2r + 1
  and 2r + 2 of repetition r), used only when the repetition drew exactly
  one cluster - word 0 is reserved for the cluster's device placement
  (the index is irrelevant to the loss when there is a single cluster, so
  the value is not inspected), words 1..6 hold the cluster-size draw (one
  sequential-search word, or up to three 2-word PTRS attempts before
  spilling), word 7 the survival draw when kill_rate > 0.
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
Layout v1 above is unchanged; it is defined per repetition, so any
partition of a level's repetitions into tasks gives the same bytes, and
the partition follows the work. A level of R repetitions at count rate r
(kappa * theta at the level, plus the channel's event rate) is cut into T
tasks of equal size, T = max(w, ceil(R * min(1, r) / _TASK_DRAWN_ROWS)) on
w workers and at most R: min(1, r) bounds the share 1 - exp(-r) of
repetitions that draw something, so a task expects at most
``_TASK_DRAWN_ROWS`` (2**18) drawn rows, and a quiet level is one task on
one worker.

A task resolves its DETAIL_SPILL and CHANNEL_SEV repetitions in batches,
each repetition on its own stream (``streams.RaggedStreams``), and
replays every stream's word order exactly: placement rejection and PTRS
size draws proceed round by round, each round reading the next words of
every repetition that still has unresolved draws, as the one-stream
samplers do. Per-repetition totals are bit-identical to ``ndarray.sum``
over that repetition's devices or events. Batches are bounded by words,
not repetitions: every batched read - COUNT and CHANNEL counts, the
in-region DETAIL words of single-cluster repetitions, DETAIL_SPILL and
CHANNEL_SEV - holds at most ``_BATCH_WORDS`` (2**16) words, except for a
repetition that alone needs more. COUNT_SPILL and CHANNEL_SPILL, taken
after 16 rejected PTRS attempts (about one region in 10**12), are drawn
in one batched call per task, each spilled repetition on its own stream,
without that cut.

Past its count words, a task holds arrays only over the rows that drew
something: its count reads keep the rows with a nonzero count, in arrays
sized from the expected number of them, and it returns the losses of
those rows alone. Below rate 30 a span of count words becomes those rows
in one step: when P(0) >= 1/2, one ``uint64`` comparison against the
first word that does not invert to 0 picks them, and only their words
are mapped to uniforms and searched; otherwise the span is inverted
whole and its nonzero draws kept (``distributions.poisson_regions_nonzero``).
So a task's memory grows with its drawn rows, not with the repetitions it
scans. A run holds one R-length loss array, reused by
every level: each task's losses go into its tail, and the level's sample
is its zeros followed by its sorted drawn losses, which is ``np.sort`` of
all R losses bit for bit, as no loss is negative or -0.0.

Only the cipher blocks a draw reads are enciphered. A task reads its
single-cluster repetitions' DETAIL regions in two reads, each in spans of
``_BATCH_WORDS // 4`` rows, one block per row: block 0 of every row when
lambda_cluster > 0 (the inversion word, or PTRS attempt 1), then, after
the last block-0 span, block 1 of every row when kill_rate > 0 (the
survival word) and otherwise only of the rows whose first PTRS attempt
was rejected (about 10%, Hormann 1993). Those rows keep their word 3 for
attempts 2 and 3. So every cipher pass holds one block of many rows.

A DETAIL_SPILL stream's first read covers the words a repetition of n
clusters reads first - n placement words, its first size round (n words,
or 2n with PTRS) and up to n survival words when kill_rate > 0 - plus two
words, rounded up to whole blocks; later rounds read past it.

Drawing the portfolio cluster total once and placing clusters uniformly
over devices is distributionally identical to kappa independent
compound-count draws (Poisson superposition/thinning); the test suite
checks this equivalence against kappa independent draws of
M = K + Poisson(lambda * K), K ~ Poisson(theta), per repetition, taken
from numpy's own generator (``tests/oracles.py``).
"""

from __future__ import annotations

from collections import deque
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
import math
import os

import numpy as np

# bench/run.py traces the engine by patching sample_severity_batch,
# sample_poisson_batch, chunk_words, derive_stream, expected_present_loss
# and summarize_level as attributes of this module. No engine path calls
# chunk_words, derive_stream, sample_poisson_batch or sample_severity_batch:
# they are imported only for that.
from .distributions import (
    PTRS_THRESHOLD,
    poisson_regions,
    poisson_regions_nonzero,
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
    philox_blocks,
    words_to_uniforms,
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
# Largest Poisson rate drawn from (kappa * theta per level, lambda_cluster,
# the channel event rate): bounds the draws, and memory, of one repetition.
_MAX_RATE = float(1 << 20)
_COUNT_BLOCKS_PER_REP = 8                # 32-word PTRS regions
_COUNT_MAX_ATTEMPTS = 16
_DETAIL_BLOCKS_PER_REP = 2               # 8-word single-cluster regions
_DETAIL_MAX_ATTEMPTS = 3
# Most rows a task (the unit handed to a worker) expects to draw something;
# sets the number of tasks a level is cut into.
_TASK_DRAWN_ROWS = 1 << 18
# Rows over the expected nonzero count that a task's count arrays hold
# before they grow.
_COUNT_SLACK = 64
# Most words one batched read holds (plus any row that alone exceeds it);
# bounds a task's memory for any kappa and R.
_BATCH_WORDS = 1 << 16

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
        object.__setattr__(self, "loading", self.loading + 0.0)  # -0.0 reads as +0.0
        if not (0.0 < self.mitigation <= 1.0):
            raise ConfigError(f"mitigation must lie in (0, 1], got {self.mitigation}")
        rates = {f"portfolio_size * theta * multiplier at {level.name}": self.portfolio_size * (
            self.device.counts.theta * self.scenario.intensity_multipliers[level])
            for level in self.levels}
        rates["lambda_cluster"] = self.device.counts.lambda_cluster
        if self.aggregate_channel is not None:
            rates["aggregate_channel event_rate"] = self.aggregate_channel.event_rate
        for name, rate in rates.items():
            if not rate <= _MAX_RATE:
                raise ConfigError(f"{name} must be at most 2**20, got {rate}")


@dataclass(frozen=True)
class LevelReport:
    level: RiskLevel
    expected_present_loss: float     # E(P1) = alpha * mean portfolio loss
    premium_pool: float              # kappa * pi1, priced at Baseline
    metrics: RiskMetrics
    cap_events: int                  # repetition-device pairs hitting the horizon cap


@dataclass(frozen=True)
class RiskReport:
    """The spec a run was given and the results it computed from it, one
    ``LevelReport`` per level of ``spec.levels``: a pure function of the
    spec."""

    spec: SimulationSpec
    levels: tuple
    baseline_expected_device_loss: float


# ---------------------------------------------------------------------------
# per-chunk simulation
# ---------------------------------------------------------------------------

def _spans(n: int, words_per_row: int):
    """Consecutive ``(lo, hi)`` spans of ``range(n)`` whose rows, at
    ``words_per_row`` words each, hold at most ``_BATCH_WORDS`` words (at
    least one row per span)."""
    step = max(1, _BATCH_WORDS // words_per_row)
    for lo in range(0, n, step):
        yield lo, min(lo + step, n)


def _counts_for_chunk(seed: int, domain: int, level: RiskLevel, rep_lo: int, n: int,
                      rate: float):
    """Event counts ~ Poisson(rate) for repetitions [rep_lo, rep_lo + n), as
    (rows, counts): the offsets from ``rep_lo`` of the repetitions whose
    count is nonzero, ascending, and their counts.

    Repetition r reads its dense inversion word r below rate 30, and its
    32-word PTRS region [32r, 32r + 32) above, the rows still unresolved
    after ``_COUNT_MAX_ATTEMPTS`` attempts drawn together, each on its own
    spill stream. A span's zero inversion draws are never searched.

    The arrays are sized for the expected nonzero count, at most
    n * min(1, rate) plus ``_COUNT_SLACK`` rows, and double when more
    rows drew."""
    size = min(n, math.ceil(n * min(1.0, rate)) + _COUNT_SLACK)
    rows = np.empty(size, dtype=np.int64)
    counts = np.empty(size, dtype=np.int64)
    found = 0
    width = 1 if rate < PTRS_THRESHOLD else 4 * _COUNT_BLOCKS_PER_REP
    stream = RandomStream(seed, pack_stream_id(domain, level.code, 0), counter=rep_lo * width)
    for lo, hi in _spans(n, width):
        words = stream.raw_words((hi - lo) * width).reshape(hi - lo, width)
        # unresolved rows (-1) included
        nonzero, span_counts = poisson_regions_nonzero(words, rate, _COUNT_MAX_ATTEMPTS)
        if found + len(nonzero) > len(rows):
            size = min(n, max(2 * len(rows), found + len(nonzero)))
            rows, counts = np.resize(rows[:found], size), np.resize(counts[:found], size)
        rows[found:found + len(nonzero)] = lo + nonzero
        counts[found:found + len(nonzero)] = span_counts
        found += len(nonzero)
    rows, counts = rows[:found], counts[:found]
    spill_domain = _DOMAIN_COUNT_SPILL if domain == _DOMAIN_COUNT else _DOMAIN_CHANNEL_SPILL
    spilled = np.flatnonzero(counts < 0)
    if spilled.size:
        streams = RaggedStreams(seed, pack_stream_id(spill_domain, level.code, rep_lo + rows[spilled]))
        counts[spilled] = sample_poisson_rows(streams, np.ones(len(spilled), dtype=np.int64), rate)
        drawn = counts > 0  # a spilled draw may be 0
        rows, counts = rows[drawn], counts[drawn]
    return rows, counts


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
    # Each row's prefix holds the words it reads first - placement, the
    # first size round (two words per PTRS draw), at most one survival word
    # per cluster - and two words for one rejected PTRS attempt, rounded up
    # to whole cipher blocks, which are enciphered whole in any case. Later
    # rounds read past it.
    per_cluster = 1 + (0 if lam == 0.0 else 1 if lam < PTRS_THRESHOLD else 2) + kill
    prefix = (n_clusters * per_cluster + 2 + 3) // 4 * 4
    totals = np.empty(len(reps))
    caps = 0
    for lo, hi in _batches(prefix):
        n = n_clusters[lo:hi]
        rows = np.arange(hi - lo)
        streams = RaggedStreams(seed, pack_stream_id(_DOMAIN_DETAIL_SPILL, level.code, reps[lo:hi]),
                                prefix[lo:hi])
        devices = sample_indices_rows(streams, n, kappa)
        extras = sample_poisson_rows(streams, n, lam)
        # one entry per (repetition, affected device), devices ascending:
        # rank the devices, then sort one key by repetition and rank
        ranks, rank = np.unique(devices, return_inverse=True)
        key = np.repeat(rows, n) * len(ranks) + rank
        order = np.argsort(key, kind="stable")
        key, extras = key[order], extras[order]
        first = np.ones(len(key), dtype=bool)
        first[1:] = key[1:] != key[:-1]
        starts = np.flatnonzero(first)
        days = np.diff(starts, append=len(key)) + np.add.reduceat(extras, starts)
        owner = key[starts] // len(ranks)
        if kill:
            u = streams.uniforms(rows, np.bincount(owner, minlength=hi - lo))
            survived = u < math.exp(-device.kill_rate)
            days, owner = days[survived], owner[survived]
        effective = device.loss_day_multiplier * days
        caps += int((effective > device.horizon_days).sum())
        capped = np.minimum(effective, float(device.horizon_days))
        totals[lo:hi] = _row_totals(capped, np.bincount(owner, minlength=hi - lo))
    return totals, caps


def _single_cluster_days(seed: int, level: RiskLevel, reps: np.ndarray,
                         device: DeviceParameters):
    """Vectorized in-region path for a task's repetitions with exactly one
    cluster: DETAIL block 0, then block 1, each read in spans (see the
    module docstring). Only the rows that attempt 1 leaves unresolved are
    held across spans, with their word 3.

    Returns (mask of resolved repetitions, capped surviving loss-days per
    repetition, 0 where unresolved, cap events); unresolved repetitions go
    on to the DETAIL_SPILL path."""
    lam = device.counts.lambda_cluster
    kill = device.kill_rate > 0.0
    stream_id = pack_stream_id(_DOMAIN_DETAIL, level.code, 0)

    def read(at, block):
        # repetition r's region is words [8r, 8r + 8), blocks 2r + 1 and 2r + 2
        counters = _DETAIL_BLOCKS_PER_REP * at + 1 + block
        return philox_blocks(seed, np.broadcast_to(np.uint64(stream_id), counters.shape), counters)

    days = np.full(len(reps), device.loss_day_multiplier)  # a cluster of 1 at lambda_cluster = 0
    resolved = np.ones(len(reps), dtype=bool)
    late, late_word_3 = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.uint64)]
    # Block 0: word 0 is the reserved placement draw, not inspected (a lone
    # cluster's device cannot change the loss); attempt 1 reads words 1-2.
    for lo, hi in _spans(len(reps) if lam > 0.0 else 0, 4):
        words = read(reps[lo:hi], 0)
        extras = poisson_regions(words, lam, 1, 1)
        days[lo:hi] = device.loss_day_multiplier * (1 + extras)  # 0 where unresolved (-1)
        resolved[lo:hi] = extras >= 0
        rejected = np.flatnonzero(extras < 0)
        late.append(lo + rejected)
        late_word_3.append(words[rejected, 3])
    late, late_word_3 = np.concatenate(late), np.concatenate(late_word_3)
    # Block 1: attempts 2 and 3 of the late rows read words 3-6; word 7 is
    # the survival draw.
    for lo, hi in _spans(len(reps) if kill else len(late), 4):
        at = np.arange(lo, hi) if kill else late[lo:hi]
        words = read(reps[at], 1)
        first, last = np.searchsorted(late, (at[0], at[-1] + 1))  # the late rows in at
        retry = late[first:last]
        words_3_to_6 = np.column_stack((late_word_3[first:last],
                                        words[np.searchsorted(at, retry), :3]))
        extras = poisson_regions(words_3_to_6, lam, 0, _DETAIL_MAX_ATTEMPTS - 1)
        days[retry] = device.loss_day_multiplier * (1 + extras)
        resolved[retry] = extras >= 0
        if kill:
            days[at] *= words_to_uniforms(words[:, 3]) < math.exp(-device.kill_rate)
    caps = int(np.count_nonzero(days > device.horizon_days))
    np.minimum(days, float(device.horizon_days), out=days)
    return resolved, days, caps


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


def _merged(rows: np.ndarray, losses: np.ndarray, more_rows: np.ndarray, more: np.ndarray):
    """The union of two sets of distinct rows, ``more_rows`` ascending, and
    each row's loss: ``losses + more`` for a row in both, and its one loss
    otherwise. Adds into ``more``."""
    at = np.searchsorted(more_rows, rows)
    both = at < len(more_rows)
    both[both] = more_rows[at[both]] == rows[both]
    more[at[both]] += losses[both]  # the same bits as losses + more: IEEE addition commutes
    return np.concatenate([rows[~both], more_rows]), np.concatenate([losses[~both], more])


@np.errstate(over="ignore", invalid="ignore")  # a nonfinite loss raises NumericFault below
def _simulate_chunk(spec: SimulationSpec, level: RiskLevel, rep_lo: int, rep_hi: int):
    """Losses and cap events of repetitions [rep_lo, rep_hi) of one level,
    over the rows that drew something: (rows, losses, caps), ``rows`` the
    offsets from ``rep_lo`` of the repetitions that drew a cluster or a
    channel event, each once. Every other repetition loses 0."""
    n = rep_hi - rep_lo
    device = level_parameters(spec.scenario, level, spec.device)
    v = discount_factor(device.discount_rate)
    unit = v * device.daily_loss

    rows, clusters = _counts_for_chunk(spec.seed, _DOMAIN_COUNT, level, rep_lo, n,
                                       spec.portfolio_size * device.counts.theta)
    # Multi-cluster repetitions, as indexes into rows, and their cluster
    # counts; only these counts are kept while the single-cluster ones,
    # marked in a mask, are resolved.
    single = clusters == 1
    multi = np.flatnonzero(clusters >= 2)
    clusters = clusters[multi]
    resolved, capped_days, caps = _single_cluster_days(spec.seed, level, rep_lo + rows[single],
                                                       device)
    losses = np.empty(len(rows))  # every row is written below
    losses[single] = unit * capped_days
    spilled = np.flatnonzero(single)[~resolved]  # single-cluster rows left unresolved
    multi = np.concatenate([multi, spilled])
    if multi.size:
        n_clusters = np.concatenate([clusters, np.ones(len(spilled), dtype=np.int64)])
        total_days, multi_caps = _multi_cluster_days(spec.seed, level, rep_lo + rows[multi],
                                                     n_clusters, device, spec.portfolio_size)
        losses[multi] = unit * total_days
        caps += multi_caps

    channel = spec.aggregate_channel
    if channel is not None and channel.event_rate > 0.0:
        events_at, events = _counts_for_chunk(spec.seed, _DOMAIN_CHANNEL, level, rep_lo, n,
                                              channel.event_rate)
        amounts = _channel_losses(spec.seed, level, rep_lo + events_at, events, channel.severity)
        rows, losses = _merged(rows, losses, events_at, amounts)

    bad = rows[~np.isfinite(losses)]
    if bad.size:
        first = rep_lo + int(bad.min())
        raise NumericFault(f"nonfinite loss at level {level.name}, repetition {first}",
                           level=level.name, repetition=first)
    return rows, losses, caps


def _chunk_task(args):
    """The losses of one task's drawn rows and its cap events: a
    repetition that drew nothing is not sent back."""
    _, losses, caps = _simulate_chunk(*args)
    return losses, caps


# ---------------------------------------------------------------------------
# reduction and public entry points
# ---------------------------------------------------------------------------

@np.errstate(over="ignore", invalid="ignore")  # a nonfinite measure raises NumericFault below
def summarize_level(samples: EmpiricalDistribution, premium_pool: float,
                    levels) -> RiskMetrics:
    """Compose the five risk measures over one loss sample.

    Margin ratios are produced for every (measure, confidence) pair, and
    omitted entirely when the expected loss is zero (Solvency-2 ratio is
    undefined there). Finite losses can still sum past the float range;
    a nonfinite measure raises NumericFault."""
    expected = samples.mean()
    var = {rho: value_at_risk(samples, rho) for rho in levels}
    cte = {rho: conditional_tail_expectation(samples, rho) for rho in levels}
    margin = {}
    if expected != 0.0:
        for rho in levels:
            margin[("var", rho)] = risk_margin_ratio(var[rho], expected)
            margin[("cte", rho)] = risk_margin_ratio(cte[rho], expected)
    shortfall = (shortfall_probability(samples, premium_pool),
                 expected_shortfall(samples, premium_pool))
    if not all(map(math.isfinite, [expected, *shortfall, *var.values(), *cte.values(),
                                   *margin.values()])):
        raise NumericFault("nonfinite risk measure: a sum over the losses overflows")
    return RiskMetrics(
        expected_loss=expected,
        shortfall_probability=shortfall[0],
        expected_shortfall=shortfall[1],
        var=var,
        cte=cte,
        margin_ratio=margin,
    )


def resolve_workers(workers: int | None, tasks: int, cpus: int) -> int:
    """Worker count: the explicit value, else machine parallelism; then at
    most ``tasks`` and at most ``cpus``. Never changes results, only wall
    time."""
    if workers is None:
        workers = os.cpu_count() or 1
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    return min(workers, tasks, cpus)


def _level_tasks(spec: SimulationSpec, level: RiskLevel, workers: int) -> int:
    """How many tasks of equal size one level is cut into on ``workers``
    workers: enough that each expects at most ``_TASK_DRAWN_ROWS`` drawn
    rows, at least one per worker, at most one per repetition. A
    repetition draws something with probability 1 - exp(-r) <= min(1, r)
    at count rate r."""
    rate = spec.portfolio_size * level_parameters(spec.scenario, level, spec.device).counts.theta
    if spec.aggregate_channel is not None:
        rate += spec.aggregate_channel.event_rate
    drawn = spec.repetitions * min(1.0, rate)
    return min(spec.repetitions, max(workers, math.ceil(drawn / _TASK_DRAWN_ROWS)))


def run_simulation(spec: SimulationSpec, workers: int | None = None) -> RiskReport:
    """Run the full experiment described by ``spec``.

    The premium pool is priced once at Baseline conditions: pi1 =
    (1 + loading) * alpha_level * E(P_Baseline) with E(P_Baseline) the
    analytic per-device expected present loss, so riskier levels face a
    pool calibrated to normal conditions; that is what makes the shortfall
    metrics grow across levels.
    """
    baseline_device = level_parameters(spec.scenario, RiskLevel.BASELINE, spec.device)
    baseline_expected = expected_present_loss(baseline_device)

    reps = spec.repetitions
    workers = resolve_workers(workers, reps * len(spec.levels), os.cpu_count() or 1)
    # The one loss array every level reuses, taken before any task runs.
    try:
        losses = np.zeros(reps)
    except MemoryError:
        raise ConfigError(f"repetitions {reps} need a {8 * reps}-byte loss array, "
                          "more memory than can be allocated") from None
    task_counts = [_level_tasks(spec, level, workers) for level in spec.levels]
    tasks = ((spec, level, reps * i // n, reps * (i + 1) // n)
             for level, n in zip(spec.levels, task_counts) for i in range(n))
    # A task's losses are written into the loss array as its result
    # arrives; tasks run only as their results are consumed, at most
    # 2 * workers of them ahead.
    with ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
        results = _ahead(pool, _chunk_task, tasks, 2 * workers) if pool else map(_chunk_task, tasks)
        level_reports, written = [], reps
        for level, n in zip(spec.levels, task_counts):
            report, written = _level_report(spec, level, baseline_expected, results, n,
                                            losses, written)
            level_reports.append(report)

    return RiskReport(spec=spec, levels=tuple(level_reports),
                      baseline_expected_device_loss=baseline_expected)


def _ahead(pool, function, tasks, depth: int):
    """``function`` of each task, in task order, run on ``pool`` with at most
    ``depth`` tasks submitted and not yet consumed. ``Executor.map`` would
    submit every task before yielding its first result."""
    futures = deque()
    for task in tasks:
        if len(futures) == depth:
            yield futures.popleft().result()
        futures.append(pool.submit(function, task))
    while futures:
        yield futures.popleft().result()


def _level_report(spec: SimulationSpec, level: RiskLevel, baseline_expected: float,
                  results, tasks: int, losses: np.ndarray, written: int):
    """Reduce one level's losses to its report; returns the report and the
    index where the level's drawn losses start.

    ``losses`` is the run's one R-length array, zero below index
    ``written``, where the previous level's sample starts; that sample is
    zeroed first. The level's ``tasks`` tasks are the next ones of the
    ``results`` iterator; each writes its drawn rows' losses into the tail
    of ``losses`` as it arrives. Losses are nonnegative and carry no -0.0,
    so the sorted sample is its zeros followed by its sorted drawn losses:
    only the tail is sorted, and the head stays zero."""
    losses[written:] = 0.0
    start = len(losses)
    caps = 0
    for _ in range(tasks):
        drawn, task_caps = next(results)
        start -= len(drawn)
        losses[start:start + len(drawn)] = drawn
        caps += task_caps
    losses[start:].sort()
    dist = EmpiricalDistribution.from_sorted(losses)

    alpha = level_mitigation(spec.scenario, level)
    schedule = premium_schedule(baseline_expected, spec.loading, alpha)
    pool_amount = spec.portfolio_size * schedule.adjusted_premium
    metrics = summarize_level(dist, pool_amount, spec.confidence_levels)
    return LevelReport(
        level=level,
        expected_present_loss=alpha * metrics.expected_loss,
        premium_pool=pool_amount,
        metrics=metrics,
        cap_events=caps,
    ), start
