"""Per-layer microbenchmarks.

Each call into a cyberrisk module's public function is recorded as a span
by the benchmark's tracer, and every metric here is derived from those
spans: per-call metrics are the median span in microseconds, bulk
metrics are items per second over the median span. Inputs come from the
benchmark seed.
"""

from __future__ import annotations

import numpy as np

from cyberrisk.distributions import (
    DiscreteTable,
    Fixed,
    Lognormal,
    Pareto,
    normal_quantile,
    sample_poisson_batch,
    sample_severity_batch,
)
from cyberrisk.engine import summarize_level
from cyberrisk.report import render_csv, render_json, render_table
from cyberrisk.streams import RandomStream, chunk_words, derive_stream, pack_stream_id

CALLS = 2000               # calls per per-call metric
REPEATS = 5                # calls per bulk metric
BULK_DRAWS = 1_000_000
PTRS_DRAWS = 200_000
CHUNK_REGIONS = 32_768     # 8-block regions, 1,048,576 words per call
PAPER_CLUSTER_RATE = 182.0  # lambda_cluster of the paper preset
DENSE_COUNT_RATE = 0.04    # kappa * theta at Elevated in the dense workload
_DOMAIN = 15               # stream-id domain the engine never uses

SEVERITIES = {
    "lognormal": Lognormal(mu=8.0, sigma=1.5),
    "pareto": Pareto(x_min=1000.0, alpha=2.5),
    "discrete": DiscreteTable(values=(100.0, 1000.0, 10000.0), probabilities=(0.5, 0.25, 0.25)),
    "fixed": Fixed(value=5000.0),
}


def _stream(seed, family, index=0):
    return derive_stream(seed, pack_stream_id(_DOMAIN, family, index))


def _per_call_us(tracer, name):
    return tracer.median(name, run=name) * 1e6


def _bulk_per_s(tracer, name, items):
    return items / tracer.median(name, run=name)


def streams_layer(tracer, seed):
    name = "streams.call"
    tracer.run = name
    for i in range(CALLS):
        with tracer.span(name):
            RandomStream(seed, pack_stream_id(_DOMAIN, 0, i)).raw_words(4)
    bulk = "streams.chunk_words"
    tracer.run = bulk
    words = CHUNK_REGIONS * 8 * 4
    for i in range(REPEATS):
        tracer.timed(bulk, chunk_words, seed, pack_stream_id(_DOMAIN, 1, 0),
                     i * CHUNK_REGIONS, CHUNK_REGIONS, 8)
    return {
        "streams.call_us": _per_call_us(tracer, name),
        "streams.words_per_s": _bulk_per_s(tracer, bulk, words),
    }


def distributions_layer(tracer, seed):
    out = {}
    name = "distributions.ptrs_call"
    tracer.run = name
    for i in range(CALLS):
        tracer.timed(name, sample_poisson_batch, _stream(seed, 2, i), PAPER_CLUSTER_RATE, 2)
    out["distributions.ptrs_call_us"] = _per_call_us(tracer, name)

    name = "distributions.normal_quantile_call"
    tracer.run = name
    uniforms = _stream(seed, 3).uniforms(2 * CALLS).reshape(CALLS, 2)
    for row in uniforms:
        tracer.timed(name, normal_quantile, row)
    out["distributions.normal_quantile_call_us"] = _per_call_us(tracer, name)

    for metric, rate, draws in (("ptrs", PAPER_CLUSTER_RATE, PTRS_DRAWS),
                                ("inversion", DENSE_COUNT_RATE, BULK_DRAWS)):
        name = f"distributions.{metric}_bulk"
        tracer.run = name
        stream = _stream(seed, 4)
        for _ in range(REPEATS):
            tracer.timed(name, sample_poisson_batch, stream, rate, draws)
        out[f"distributions.{metric}_per_s"] = _bulk_per_s(tracer, name, draws)

    for kind, dist in SEVERITIES.items():
        name = f"distributions.severity.{kind}"
        tracer.run = name
        stream = _stream(seed, 5)
        for _ in range(REPEATS):
            tracer.timed(name, sample_severity_batch, stream, dist, BULK_DRAWS)
        out[f"distributions.severity_per_s.{kind}"] = _bulk_per_s(tracer, name, BULK_DRAWS)
    return out


def risk_measures_layer(tracer, seed, samples, premium_pool, confidence_levels):
    """Sort and reduce one R-sized loss sample of the workload."""
    shuffled = np.random.default_rng(seed).permutation(samples.sorted_losses)
    name = "risk_measures.sort"
    tracer.run = name
    for _ in range(REPEATS):
        losses = shuffled.copy()
        tracer.timed(name, losses.sort)
    name = "risk_measures.summarize_level"
    tracer.run = name
    for _ in range(REPEATS):
        tracer.timed(name, summarize_level, samples, premium_pool, confidence_levels)
    return {
        "risk_measures.sort_s": tracer.median("risk_measures.sort"),
        "risk_measures.summarize_s": tracer.median("risk_measures.summarize_level"),
    }


def report_layer(tracer, report):
    out = {}
    for kind, render in (("json", render_json), ("csv", render_csv), ("table", render_table)):
        name = f"report.render_{kind}"
        tracer.run = name
        for _ in range(REPEATS):
            tracer.timed(name, render, report)
        out[f"report.render_{kind}_s"] = tracer.median(name)
    return out
