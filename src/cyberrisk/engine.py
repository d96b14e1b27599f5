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
  draw is a single inversion word and repetition r
  reads word r (dense layout); otherwise repetition r owns the 32-word
  region [32r, 32r+32) and burns two words per PTRS attempt, spilling to
  a per-repetition COUNT_SPILL stream (domain 4) after 16 attempts.
* DETAIL (domain 2): repetition regions of 8 words (cipher blocks 2r + 1
  and 2r + 2 of repetition r), used only when the repetition drew exactly
  one cluster - word 0 is reserved for the cluster's device placement
  (the index is irrelevant to the loss when there is a single cluster, so
  the value is not inspected), words 1..6 hold the cluster-size draw (one
  inversion word, or up to three 2-word PTRS attempts before
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
partition of the repetitions into tasks, and any grouping of a task's
reads, gives the same bytes: a counter-based stream returns the same
words however its reads are grouped. A task is a repetition range
[lo, hi) of every level of the run, and the partition follows the work:
R repetitions at count rates r_l (kappa * theta at level l, plus the
channel's event rate) are cut into T tasks of equal size,
T = ceil(sum_l R * min(1, r_l) / _TASK_DRAWN_ROWS), at most R. min(1, r)
bounds the share 1 - exp(-r) of repetitions that draw something, so a
task expects at most ``_TASK_DRAWN_ROWS`` (2**17) drawn rows over all its
levels. The workers follow the tasks, at most one per task, so a run of
one task (a quiet run, or the paper's table) runs in its own process at
any worker count and never imports ``concurrent.futures``; only a run
resolved to more than one worker imports it and starts a process pool.

Within a task each level scans its own COUNT words into one level-ordered
array of the task's drawn rows. Its single-cluster rows are resolved
together, each on its level's DETAIL stream, then its multi-cluster rows
and the single-cluster rows left unresolved, on their DETAIL_SPILL
streams; each row's loss-days are written back by position, and each level
takes its slice. Each level's CHANNEL counts and CHANNEL_SEV severities
are drawn on their own. A task returns, for each level, its drawn losses,
its cap events and its smallest repetition with a nonfinite loss. The run
raises NumericFault at the first level in spec order that has one, at its
smallest repetition, as a run of the levels one at a time would.

The count scan may take two threads (``_level_counts``). Each level reads
its own COUNT stream, and numpy's C Philox releases the GIL while it fills
a span, so two levels can be scanned side by side. The task's thread scans
levels 0, 2, 4, ... and one helper thread levels 1, 3, ..., each into its
own slot, so the results keep spec order; the helper is joined before the
scan returns or raises, and what it raised is raised then. It starts only
when all three hold: the task has two levels or more; the run is resolved
to one worker on a machine of two CPUs or more, so the helper has a CPU
of its own, while a pool's workers never add threads (a pool of fewer
workers than CPUs would put 2 * workers threads on as few as workers + 1
CPUs, a case not measured); and the task's levels read at least
``_HELPER_WORDS`` (2**19) count words, n times the region width
(``_count_width``) summed over its levels. On a 2-core VM whose cores
other tenants share, scanning 4 levels of n words each, two threads lost
at n = 1e4 and won from 3e4 on while the other core was free (5.9 against
4.1 ms at 1e5, 54.5 against 28.2 ms at 1e6), and lost 1.5-24% at every n,
the most at the smallest, while it was busy. So the threshold sits well
above the break-even: the paper's table (4e5 words in all) scans on one
thread, and a 4e6-repetition run of two quiet levels on two.

A task resolves its DETAIL_SPILL and CHANNEL_SEV repetitions in batches,
each repetition on its own stream, a ``streams.RaggedStreams`` row that
the ``distributions`` row samplers read through its ``raw_words``. They
replay every stream's word order exactly: placement rejection and PTRS
size draws proceed round by round, each round reading the next words of
every repetition that still has unresolved draws, and a one-stream
sampler is the same code on one row. Per-repetition totals are
``risk_measures._row_totals`` of the batch's rows, bit-identical to
``ndarray.sum`` over that repetition's devices or events. Batches are
bounded by words, not repetitions: every batched read - COUNT and
CHANNEL counts, the in-region DETAIL words of single-cluster
repetitions, DETAIL_SPILL and CHANNEL_SEV - holds at most
``_BATCH_WORDS`` (2**16) words, except for a repetition that alone needs
more. COUNT_SPILL and CHANNEL_SPILL, taken after 16 rejected PTRS
attempts (about one region in 10**12), are drawn in one batched call per
task, each spilled repetition on its own stream, without that cut.

Past its count words, a task holds arrays only over the rows that drew
something: its count reads keep the rows with a nonzero count, in arrays
of ceil(n * min(1, r)) rows for n repetitions, which grow when more rows
drew, and it returns the losses of those rows alone. Below rate 30 a span
of count words becomes those rows in one step: one ``uint64`` comparison
against the first word that does not invert to 0 picks them, and only
their words are mapped to uniforms, each looked up for the first k with
``cum[k] >= u``, clamped to the table, through a guide table
(``distributions.poisson_regions``). So a task's memory grows
with its drawn rows, not with the repetitions it scans. A run holds no
R-length array either: a level's sample is R and its drawn losses,
sorted (``risk_measures.EmpiricalDistribution``). Every other repetition
loses 0, and no loss is negative or -0.0, so the measures over that pair
equal those over all R losses sorted, bit for bit. Each level collects
its drawn losses in a buffer of its own; the buffers are taken as one
block before any task runs and live until the last task. A task's result
is let go once it is copied into them, before the next task of a
one-worker run starts.

Only the cipher blocks a draw reads are enciphered. A task reads its
single-cluster repetitions' DETAIL regions, over all its levels, in two
reads, each in spans of ``_BATCH_WORDS // 4`` rows, one block per row:
block 0 of every row when lambda_cluster > 0 (the inversion word, or PTRS
attempt 1), then, after the last block-0 span, block 1 of every row when
kill_rate > 0 (the survival word) and otherwise only of the rows whose
first PTRS attempt was rejected (about 10%, Hormann 1993). Those rows keep
their word 3 for attempts 2 and 3. So every cipher pass holds one block of
many rows.

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

Working memory
--------------
A run allocates and frees many blocks of 128 KiB to a few MiB (cipher
temporaries, count spans, ragged batches). By default glibc serves such a
block by ``mmap`` and gives its pages back to the OS when it is freed, or
trims them off the heap top, so every pass, span, level and run would fault
them in afresh. So on its first run, and on the first task in each worker
process, never at import, the engine sets glibc's ``M_MMAP_THRESHOLD`` to
32 MiB (the ceiling of glibc's own dynamic threshold) and its
``M_TRIM_THRESHOLD`` to twice that, through ``mallopt(3)``
(``_keep_freed_memory``). Freed pages then stay mapped for reuse. Just
before the first count-scan helper thread of a process starts, and only
then, the engine also sets ``M_ARENA_MAX`` to 1 (``_share_main_arena``),
so that the helper allocates from the main arena and reuses the blocks
freed there (a thread takes its arena at its first malloc): with an arena
of its own, a fresh process's one-worker run of two levels at 4e6
repetitions peaked 2.4-3.4 MiB higher in RSS (42.7-43.4 MiB with it). A
process whose runs never start a helper keeps glibc's arena policy. The
settings are process-wide, and they are a no-op where the C library has no
``mallopt`` or refuses the values (not glibc). They move no report byte.
"""

from __future__ import annotations

from collections import deque
import ctypes
from dataclasses import dataclass, field
import functools
import math
import os
import threading

import numpy as np

# bench/run.py traces the engine by patching sample_severity_batch,
# sample_poisson_batch, chunk_words, derive_stream, expected_present_loss
# and summarize_level as attributes of this module. No engine path calls
# chunk_words, derive_stream, sample_poisson_batch or sample_severity_batch:
# they are imported only for that.
from .distributions import (
    PTRS_THRESHOLD,
    poisson_regions,
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
)
from .risk_measures import (
    EmpiricalDistribution,
    RiskMetrics,
    _row_totals,
    conditional_tail_expectation,
    expected_shortfall,
    risk_margin_ratio,
    shortfall_probability,
    value_at_risk,
)
from .scenario import RiskLevel, ScenarioConfig, level_parameters
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
# Most rows a task (the unit handed to a worker) expects to draw something,
# over all levels; sets the number of tasks a run is cut into.
_TASK_DRAWN_ROWS = 1 << 17
# Most words one batched read holds (plus any row that alone exceeds it);
# bounds a task's memory for any kappa and R.
_BATCH_WORDS = 1 << 16
# Fewest count words a task's levels read (n times the region width,
# summed) for which a helper thread scans half of its levels; set well
# above the break-even, which moves with the load on the other CPU (module
# docstring, "Batched resolution").
_HELPER_WORDS = 1 << 19

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
        theta = self.device.counts.theta
        rates = {}
        for level in (RiskLevel.BASELINE, *self.levels):
            multiplier = self.scenario.intensity_multipliers[level]
            if not theta * multiplier > 0:  # both are positive: the product underflowed
                raise ConfigError(f"theta * intensity multiplier at {level.name} must be positive, "
                                  f"got {theta} * {multiplier} = {theta * multiplier}")
            if level in self.levels:  # Baseline only prices the pool: nothing is drawn at it
                rates[f"portfolio_size * theta * multiplier at {level.name}"] = (
                    self.portfolio_size * (theta * multiplier))
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


def _count_width(rate: float) -> int:
    """Words of a repetition's count region at Poisson ``rate``: one
    inversion word below ``PTRS_THRESHOLD``, a 32-word PTRS region from it
    on."""
    return 1 if rate < PTRS_THRESHOLD else 4 * _COUNT_BLOCKS_PER_REP


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
    n * min(1, rate) rows, and double when more rows drew."""
    size = math.ceil(n * min(1.0, rate))
    rows = np.empty(size, dtype=np.int64)
    counts = np.empty(size, dtype=np.int64)
    found = 0
    width = _count_width(rate)
    stream = RandomStream(seed, pack_stream_id(domain, level.code, 0), counter=rep_lo * width)
    for lo, hi in _spans(n, width):
        words = stream.raw_words((hi - lo) * width).reshape(hi - lo, width)
        # unresolved rows (-1) included
        nonzero, span_counts = poisson_regions(words, rate, _COUNT_MAX_ATTEMPTS)
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
        counts[spilled] = sample_poisson_rows(streams.raw_words, np.ones_like(spilled), rate)
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


# cap events are counted per level code, from the codes of the capped rows
_LEVEL_CODES = 1 + max(level.code for level in RiskLevel)


def _multi_cluster_days(seed: int, codes: np.ndarray, reps: np.ndarray, n_clusters: np.ndarray,
                        device: DeviceParameters, kappa: int):
    """Resolve repetitions on their DETAIL_SPILL streams, batch by batch;
    row i is repetition ``reps[i]`` of the level whose code is ``codes[i]``.

    Returns (capped surviving loss-days per repetition, cap events per level
    code)."""
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
    caps = np.zeros(_LEVEL_CODES, dtype=np.int64)
    for lo, hi in _batches(prefix):
        n = n_clusters[lo:hi]
        rows = np.arange(hi - lo)
        ids = pack_stream_id(_DOMAIN_DETAIL_SPILL, codes[lo:hi], reps[lo:hi])
        streams = RaggedStreams(seed, ids, prefix[lo:hi])
        devices = sample_indices_rows(streams.raw_words, n, kappa)
        extras = sample_poisson_rows(streams.raw_words, n, lam)
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
            u = words_to_uniforms(streams.raw_words(rows, np.bincount(owner, minlength=hi - lo)))
            survived = u < math.exp(-device.kill_rate)
            days, owner = days[survived], owner[survived]
        effective = device.loss_day_multiplier * days
        caps += np.bincount(codes[lo:hi][owner[effective > device.horizon_days]],
                            minlength=_LEVEL_CODES)
        capped = np.minimum(effective, float(device.horizon_days))
        totals[lo:hi] = _row_totals(capped, owner, hi - lo)
    return totals, caps


def _single_cluster_days(seed: int, codes: np.ndarray, reps: np.ndarray,
                         device: DeviceParameters):
    """Vectorized in-region path for a task's repetitions with exactly one
    cluster, row i repetition ``reps[i]`` of the level whose code is
    ``codes[i]``: DETAIL block 0, then block 1, each read in spans over the
    rows of every level (see the module docstring). Only the rows that
    attempt 1 leaves unresolved are held across spans, with their word 3.

    Returns (mask of resolved repetitions, capped surviving loss-days per
    repetition, 0 where unresolved, cap events per level code); unresolved
    repetitions go on to the DETAIL_SPILL path."""
    lam = device.counts.lambda_cluster
    kill = device.kill_rate > 0.0

    def read(rows, block):
        # repetition r's region is words [8r, 8r + 8), blocks 2r + 1 and 2r + 2
        return philox_blocks(seed, pack_stream_id(_DOMAIN_DETAIL, codes[rows], 0),
                             _DETAIL_BLOCKS_PER_REP * reps[rows] + 1 + block)

    # a cluster of 1 with no extra event: a row that draws 0 keeps it
    days = np.full(len(reps), device.loss_day_multiplier)
    resolved = np.ones(len(reps), dtype=bool)
    late, late_word_3 = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.uint64)]
    # Block 0: word 0 is the reserved placement draw, not inspected (a lone
    # cluster's device cannot change the loss); attempt 1 reads words 1-2.
    for lo, hi in _spans(len(reps) if lam > 0.0 else 0, 4):
        words = read(slice(lo, hi), 0)
        drew, extras = poisson_regions(words[:, 1:], lam, 1)
        days[lo + drew] = device.loss_day_multiplier * (1 + extras)  # 0 where unresolved (-1)
        rejected = drew[extras < 0]
        late.append(lo + rejected)
        late_word_3.append(words[rejected, 3])
    late, late_word_3 = np.concatenate(late), np.concatenate(late_word_3)
    # Block 1: attempts 2 and 3 of the late rows read words 3-6; word 7 is
    # the survival draw, read for every row when kill_rate > 0.
    for lo, hi in _spans(len(reps) if kill else len(late), 4):
        at = np.arange(lo, hi) if kill else late[lo:hi]
        words = read(at, 1)
        first, last = np.searchsorted(late, (at[0], at[-1] + 1))  # the late rows in at
        retry = late[first:last]
        words_3_to_6 = np.column_stack((late_word_3[first:last],
                                        words[np.searchsorted(at, retry), :3]))
        drew, extras = poisson_regions(words_3_to_6, lam, _DETAIL_MAX_ATTEMPTS - 1)
        days[retry] = device.loss_day_multiplier  # attempt 1 left them at 0
        days[retry[drew]] = device.loss_day_multiplier * (1 + extras)
        resolved[retry[drew[extras < 0]]] = False
        if kill:
            days[at] *= words_to_uniforms(words[:, 3]) < math.exp(-device.kill_rate)
    caps = np.bincount(codes[days > device.horizon_days], minlength=_LEVEL_CODES)
    np.minimum(days, float(device.horizon_days), out=days)
    return resolved, days, caps


def _channel_losses(seed: int, level: RiskLevel, reps: np.ndarray, counts: np.ndarray,
                    severity) -> np.ndarray:
    """Common-channel loss of each repetition: the sum of its ``counts``
    severities, drawn from its CHANNEL_SEV stream, batch by batch."""
    totals = np.empty(len(reps))
    for lo, hi in _batches(counts):
        streams = RaggedStreams(seed, pack_stream_id(_DOMAIN_CHANNEL_SEV, level.code, reps[lo:hi]))
        amounts = sample_severity_rows(streams.raw_words, counts[lo:hi], severity)
        totals[lo:hi] = _row_totals(amounts, np.repeat(np.arange(hi - lo), counts[lo:hi]), hi - lo)
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


def _count_rate(spec: SimulationSpec, level: RiskLevel) -> float:
    """A level's portfolio cluster-count rate, kappa * theta at that level."""
    return spec.portfolio_size * level_parameters(spec.scenario, level, spec.device).counts.theta


def _level_counts(spec: SimulationSpec, rep_lo: int, n: int, spare_cpu: bool) -> list:
    """Each level's portfolio cluster counts for repetitions [rep_lo,
    rep_lo + n), in spec order, as ``_counts_for_chunk`` returns them.

    When ``spare_cpu`` holds, there are two levels or more, and they read
    at least ``_HELPER_WORDS`` count words, one helper thread scans levels
    1, 3, ... while this thread scans levels 0, 2, ... (module docstring,
    "Batched resolution"). The helper scans under the floating-point error
    state of ``_simulate_chunk``, is joined before this returns or raises,
    and what it raised is raised here."""
    rates = [_count_rate(spec, level) for level in spec.levels]
    scans = [functools.partial(_counts_for_chunk, spec.seed, _DOMAIN_COUNT, level, rep_lo, n,
                               rate) for level, rate in zip(spec.levels, rates)]
    if not (spare_cpu and len(scans) >= 2
            and n * sum(map(_count_width, rates)) >= _HELPER_WORDS):
        return [scan() for scan in scans]
    counts, raised = [None] * len(scans), []

    def scan_odd_levels():
        try:
            with np.errstate(over="ignore", invalid="ignore"):  # as _simulate_chunk's
                for i in range(1, len(scans), 2):
                    counts[i] = scans[i]()
        except BaseException as exc:  # re-raised by the caller once joined
            raised.append(exc)

    _share_main_arena()
    helper = threading.Thread(target=scan_odd_levels)
    helper.start()
    try:
        for i in range(0, len(scans), 2):
            counts[i] = scans[i]()
    finally:
        helper.join()
    if raised:
        raise raised[0]
    return counts


@np.errstate(over="ignore", invalid="ignore")  # a nonfinite loss is the run's to raise
def _simulate_chunk(spec: SimulationSpec, rep_lo: int, rep_hi: int,
                    spare_cpu: bool = False) -> list:
    """Losses and cap events of repetitions [rep_lo, rep_hi) of every level
    of ``spec.levels``, over the rows that drew something: one (rows,
    losses, caps) per level, in spec order, ``rows`` the offsets from
    ``rep_lo`` of the repetitions that drew a cluster or a channel event,
    each once. Every other repetition loses 0.

    The task holds its drawn rows in one level-ordered array and writes
    each resolved row's days back by position; each level takes its slice
    and adds its own channel. The levels differ only in theta, which no
    cluster draw reads. With ``spare_cpu`` the count scan may take a helper
    thread (``_level_counts``)."""
    n = rep_hi - rep_lo
    device = spec.device
    rows, clusters = zip(*_level_counts(spec, rep_lo, n, spare_cpu))
    ends = np.cumsum([0] + [len(level_rows) for level_rows in rows])
    codes = np.repeat(np.array([level.code for level in spec.levels], dtype=np.uint8),
                      np.diff(ends))
    rows = np.concatenate(rows)  # frees each level's rows before clusters are joined
    clusters = np.concatenate(clusters)
    rows += rep_lo
    one = clusters == 1
    single, other = np.flatnonzero(one), np.flatnonzero(~one)
    reps, single_codes = rows[single], codes[single]
    other_reps, other_codes, other_clusters = rows[other], codes[other], clusters[other]
    del rows, clusters, codes, single, other

    resolved, single_days, caps = _single_cluster_days(spec.seed, single_codes, reps, device)
    retry = np.flatnonzero(~resolved)
    codes = np.concatenate([other_codes, single_codes[retry]])
    other_reps = np.concatenate([other_reps, reps[retry]])
    clusters = np.concatenate([other_clusters, np.ones(len(retry), dtype=np.int64)])
    del resolved, single_codes, other_codes, other_clusters
    days, multi_caps = _multi_cluster_days(spec.seed, codes, other_reps, clusters, device,
                                           spec.portfolio_size)
    del codes, clusters
    caps += multi_caps
    n_other = len(days) - len(retry)
    single_days[retry] = days[n_other:]

    # single-cluster rows by mask: an index of them would add 8 bytes a row
    other = np.flatnonzero(~one)
    losses = np.empty(len(one))
    losses[one], losses[other] = single_days, days[:n_other]
    del single_days, days
    rows = np.empty(len(one), dtype=np.int64)
    rows[one], rows[other] = reps, other_reps[:n_other]
    rows -= rep_lo
    losses *= discount_factor(device.discount_rate) * device.daily_loss
    chunks = []
    channel = spec.aggregate_channel
    for level, lo, hi in zip(spec.levels, ends, ends[1:]):
        level_rows, level_losses = rows[lo:hi], losses[lo:hi]
        if channel is not None and channel.event_rate > 0.0:
            events_at, events = _counts_for_chunk(spec.seed, _DOMAIN_CHANNEL, level, rep_lo, n,
                                                  channel.event_rate)
            amounts = _channel_losses(spec.seed, level, rep_lo + events_at, events,
                                      channel.severity)
            level_rows, level_losses = _merged(level_rows, level_losses, events_at, amounts)
        chunks.append((level_rows, level_losses, int(caps[level.code])))
    return chunks


def _mallopt(*settings) -> bool:
    """Pass each ``(param, value)`` of ``settings`` to glibc's
    ``mallopt(3)``, in order. True if every value was taken, False where
    there is no ``mallopt`` or it refuses one."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # no mallopt, or no C library handle
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    # mallopt returns 0 for a value it refuses
    return all(mallopt(param, value) != 0 for param, value in settings)


@functools.cache
def _keep_freed_memory() -> bool:
    """Raise glibc's mmap and trim thresholds, once per process, so that
    the blocks a run frees stay mapped for reuse (module docstring,
    "Working memory"). True if both values were taken."""
    # M_MMAP_THRESHOLD (-3) at glibc's 32 MiB ceiling, M_TRIM_THRESHOLD (-1)
    # at twice that
    return _mallopt((-3, 32 << 20), (-1, 64 << 20))


@functools.cache
def _share_main_arena() -> bool:
    """Cap glibc's malloc arenas at one (M_ARENA_MAX, -8), once per
    process, just before its first count-scan helper thread starts, so
    that the helper allocates from the main arena (module docstring,
    "Working memory"). True if the value was taken."""
    return _mallopt((-8, 1))


def _chunk_task(args, spare_cpu: bool = False):
    """One task ``(spec, rep_lo, rep_hi)``: for each level, in spec order,
    the losses of its drawn rows, its cap events and its first repetition
    with a nonfinite loss (None if there is none). A repetition that drew
    nothing is not sent back. ``spare_cpu``: the run is one worker with a
    CPU to spare, so the task's count scan may take a helper thread."""
    _keep_freed_memory()
    rep_lo = args[1]
    out = []
    for rows, losses, caps in _simulate_chunk(*args, spare_cpu=spare_cpu):
        bad = rows[~np.isfinite(losses)]
        out.append((losses, caps, rep_lo + int(bad.min()) if bad.size else None))
    return out


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


def _expected_drawn(spec: SimulationSpec, level: RiskLevel) -> int:
    """The most rows one level expects to draw something, at most R: a
    repetition draws with probability 1 - exp(-r) <= min(1, r) at count
    rate r."""
    rate = _count_rate(spec, level)
    if spec.aggregate_channel is not None:
        rate += spec.aggregate_channel.event_rate
    return math.ceil(spec.repetitions * min(1.0, rate))


def _task_count(spec: SimulationSpec) -> int:
    """How many tasks of equal size a run's repetitions are cut into, each
    over every level: enough that each expects at most
    ``_TASK_DRAWN_ROWS`` drawn rows over all levels, at most one per
    repetition."""
    drawn = sum(_expected_drawn(spec, level) for level in spec.levels)
    return min(spec.repetitions, math.ceil(drawn / _TASK_DRAWN_ROWS))


def _loss_buffer(reps: int, size: int) -> np.ndarray:
    """An empty buffer of ``size`` losses; failing that, a ConfigError
    naming its bytes."""
    try:
        return np.empty(size)
    except MemoryError:
        raise ConfigError(f"repetitions {reps} need a {8 * size}-byte loss buffer, "
                          "more memory than can be allocated") from None


def run_simulation(spec: SimulationSpec, workers: int | None = None) -> RiskReport:
    """Run the full experiment described by ``spec``.

    The premium pool is priced once at Baseline conditions: pi1 =
    (1 + loading) * alpha_level * E(P_Baseline) with E(P_Baseline) the
    analytic per-device expected present loss, so riskier levels face a
    pool calibrated to normal conditions; that is what makes the shortfall
    metrics grow across levels.

    ``_task_count`` cuts the repetitions into tasks; ``resolve_workers`` caps
    ``workers`` at the tasks and the CPUs. At one worker the tasks run in
    this process; only a run resolved to more than one worker imports
    ``concurrent.futures`` and starts a process pool of that many workers.
    A run resolved to one worker on two CPUs or more leaves a CPU idle, so
    each of its tasks whose count scan is long (at least ``_HELPER_WORDS``
    words over two levels or more) scans half of its levels on one helper
    thread in the calling process, joined before the task returns; a pool's
    workers start no thread.
    """
    _keep_freed_memory()
    baseline_device = level_parameters(spec.scenario, RiskLevel.BASELINE, spec.device)
    baseline_expected = expected_present_loss(baseline_device)

    reps = spec.repetitions
    n_tasks = _task_count(spec)
    cpus = os.cpu_count() or 1
    workers = resolve_workers(workers, n_tasks, cpus)
    tasks = ((spec, reps * i // n_tasks, reps * (i + 1) // n_tasks) for i in range(n_tasks))
    # Every level's drawn-loss buffer, taken as one block before any task
    # runs. A task's losses are written into them as its result arrives;
    # tasks run only as their results are consumed, at most 2 * workers of
    # them ahead.
    sizes = [_expected_drawn(spec, level) for level in spec.levels]
    buffers = np.split(_loss_buffer(reps, sum(sizes)), np.cumsum(sizes)[:-1])
    if workers == 1:
        levels = _gather(reps, map(functools.partial(_chunk_task, spare_cpu=cpus > 1), tasks),
                         buffers)
    else:
        # only a run of more than one worker loads the process pool
        import concurrent.futures
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            levels = _gather(reps, _ahead(pool, _chunk_task, tasks, 2 * workers), buffers)
    level_reports = [_level_report(spec, level, baseline_expected, *gathered)
                     for level, gathered in zip(spec.levels, levels)]
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


def _gather(reps: int, results, buffers: list) -> list:
    """Each level's drawn losses, cap events and first repetition with a
    nonfinite loss over every task of ``results``, in the order of
    ``buffers``, one per level.

    A task's losses of a level are appended to that level's buffer as the
    task's result arrives. A buffer too small for them doubles, or grows to
    the losses drawn so far if that is more, and never past R losses."""
    filled = [0] * len(buffers)
    caps = [0] * len(buffers)
    faults = [None] * len(buffers)
    for task in results:
        for i, (drawn, task_caps, fault) in enumerate(task):
            buffer, count = buffers[i], filled[i]
            if count + len(drawn) > len(buffer):
                grown = _loss_buffer(reps, min(reps, max(2 * len(buffer), count + len(drawn))))
                grown[:count] = buffer[:count]
                buffers[i] = buffer = grown
            buffer[count:count + len(drawn)] = drawn
            filled[i] += len(drawn)
            caps[i] += task_caps
            if faults[i] is None:  # tasks arrive in repetition order
                faults[i] = fault
        # a one-worker run computes the next task while the loop runs, so
        # let this task's losses go first
        del task, drawn
    return [(buffer[:count], level_caps, fault)
            for buffer, count, level_caps, fault in zip(buffers, filled, caps, faults)]


def _level_report(spec: SimulationSpec, level: RiskLevel, baseline_expected: float,
                  drawn: np.ndarray, caps: int, fault: int | None) -> LevelReport:
    """Reduce one level's drawn losses to its report, or raise NumericFault
    at its first repetition with a nonfinite loss. The drawn losses are
    sorted in place, and the level's sample is R and them: every other
    repetition lost 0."""
    if fault is not None:
        raise NumericFault(f"nonfinite loss at level {level.name}, repetition {fault}",
                           level=level.name, repetition=fault)
    drawn.sort()
    dist = EmpiricalDistribution.from_sorted(spec.repetitions, drawn)

    alpha = spec.scenario.mitigation_alphas[level]
    pool_amount = spec.portfolio_size * ((1.0 + spec.loading) * (alpha * baseline_expected))
    metrics = summarize_level(dist, pool_amount, spec.confidence_levels)
    return LevelReport(
        level=level,
        expected_present_loss=alpha * metrics.expected_loss,
        premium_pool=pool_amount,
        metrics=metrics,
        cap_events=caps,
    )
