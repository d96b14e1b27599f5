"""Report serialization: table, CSV and JSON views of a RiskReport.

All three views list metrics as rows and risk levels as columns, in the
fixed row order E(P1), Prob(Shortfall), E(Shortfall), VAR(rho)...,
CTE(rho)..., margin ratios, premium pool. Monetary figures serialize as
decimal strings with exactly six fraction digits so reports diff cleanly
across platforms; probabilities and ratios serialize as shortest
round-trip floats. Output is locale-independent ('.' decimal separator,
no thousands grouping outside the human table view) and never includes
wall-clock timing, so identical specs give identical bytes.
"""

from __future__ import annotations

import csv
import io
import json

from .config import spec_to_mapping
from .engine import DRAW_LAYOUT_VERSION, ENGINE_VERSION, LevelReport, RiskReport
from .scenario import ScenarioConfig
from .streams import STREAM_FORMAT_VERSION

__all__ = ["render_json", "render_csv", "render_table", "report_rows", "REPORT_VERSION"]

REPORT_VERSION = 1


def _money(value: float) -> str:
    return f"{value:.6f}"


def _ratio(value: float) -> float:
    return float(value)


def _level_payload(item: LevelReport, scenario: ScenarioConfig) -> dict:
    metrics = item.metrics
    payload = {
        "level": item.level.name.lower(),
        "label": item.level.label,
        "intensity_multiplier": scenario.intensity_multipliers[item.level],
        "mitigation": scenario.mitigation_alphas[item.level],
        "expected_present_loss": _money(item.expected_present_loss),
        "expected_loss": _money(metrics.expected_loss),
        "premium_pool": _money(item.premium_pool),
        "shortfall_probability": _ratio(metrics.shortfall_probability),
        "expected_shortfall": _money(metrics.expected_shortfall),
        "var": {repr(rho): _money(metrics.var[rho]) for rho in sorted(metrics.var)},
        "cte": {repr(rho): _money(metrics.cte[rho]) for rho in sorted(metrics.cte)},
        "margin_ratio": {
            "var": {repr(rho): _ratio(metrics.margin_ratio[("var", rho)])
                    for rho in sorted(metrics.var) if ("var", rho) in metrics.margin_ratio},
            "cte": {repr(rho): _ratio(metrics.margin_ratio[("cte", rho)])
                    for rho in sorted(metrics.cte) if ("cte", rho) in metrics.margin_ratio},
        },
        "cap_events": item.cap_events,
    }
    return payload


def render_json(report: RiskReport) -> str:
    """Canonical JSON view; a pure function of the spec and seed."""
    spec = report.spec
    document = {
        "report_version": REPORT_VERSION,
        "provenance": {
            "seed": spec.seed,
            "repetitions": spec.repetitions,
            "portfolio_size": spec.portfolio_size,
            "confidence_levels": list(spec.confidence_levels),
            "engine_version": ENGINE_VERSION,
            "stream_format_version": STREAM_FORMAT_VERSION,
            "draw_layout_version": DRAW_LAYOUT_VERSION,
            "baseline_expected_device_loss": _money(report.baseline_expected_device_loss),
            "config": spec_to_mapping(spec),
        },
        "levels": [_level_payload(item, spec.scenario) for item in report.levels],
    }
    return json.dumps(document, indent=2) + "\n"


def report_rows(report: RiskReport, formatted: bool = False):
    """(metric name, [cell per level]) rows in the fixed report order.

    With ``formatted`` the cells carry human formatting (thousands
    grouping, percent signs); otherwise they are the machine-stable
    strings used by the CSV view.
    """
    rows = []
    levels = report.levels
    rhos = sorted(set(report.spec.confidence_levels))

    def money(value):
        return f"{value:,.1f}" if formatted else _money(value)

    def prob(value):
        return f"{100.0 * value:.3f}%" if formatted else repr(float(value))

    def ratio_cell(metrics, key):
        if key not in metrics.margin_ratio:
            return ""
        value = metrics.margin_ratio[key]
        return f"{value:.4f}" if formatted else repr(float(value))

    rows.append(("E(P1)", [money(it.expected_present_loss) for it in levels]))
    rows.append(("Prob(Shortfall)", [prob(it.metrics.shortfall_probability) for it in levels]))
    rows.append(("E(Shortfall)", [money(it.metrics.expected_shortfall) for it in levels]))
    for rho in rhos:
        rows.append((f"VAR({_rho_text(rho)})", [money(it.metrics.var[rho]) for it in levels]))
    for rho in rhos:
        rows.append((f"CTE({_rho_text(rho)})", [money(it.metrics.cte[rho]) for it in levels]))
    for rho in rhos:
        rows.append((f"Margin VAR({_rho_text(rho)})",
                     [ratio_cell(it.metrics, ("var", rho)) for it in levels]))
    for rho in rhos:
        rows.append((f"Margin CTE({_rho_text(rho)})",
                     [ratio_cell(it.metrics, ("cte", rho)) for it in levels]))
    rows.append(("Premium pool", [money(it.premium_pool) for it in levels]))
    return rows


def _rho_text(rho: float) -> str:
    """.90-style confidence labels: .90, .95, .99, .975; from ``repr``, so
    distinct levels get distinct labels."""
    text = repr(float(rho))
    if text.startswith("0."):
        frac = text[2:]
        if len(frac) == 1:
            frac += "0"
        return "." + frac
    return text


def render_csv(report: RiskReport) -> str:
    """CSV view: provenance in leading comment lines, then metric rows."""
    buffer = io.StringIO()
    buffer.write(f"# report_version={REPORT_VERSION}\n")
    spec = report.spec
    buffer.write(f"# seed={spec.seed}\n")
    buffer.write(f"# repetitions={spec.repetitions}\n")
    buffer.write(f"# portfolio_size={spec.portfolio_size}\n")
    buffer.write(f"# engine_version={ENGINE_VERSION}\n")
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["metric"] + [item.level.label for item in report.levels])
    for name, cells in report_rows(report, formatted=False):
        writer.writerow([name] + cells)
    return buffer.getvalue()


def render_table(report: RiskReport) -> str:
    """Human table view (thousands grouping allowed here)."""
    headers = ["Risk calculation metrics"] + [item.level.label for item in report.levels]
    body = report_rows(report, formatted=True)
    widths = [len(h) for h in headers]
    for name, cells in body:
        widths[0] = max(widths[0], len(name))
        for i, cell in enumerate(cells, start=1):
            widths[i] = max(widths[i], len(cell))

    def fmt_row(first, cells):
        parts = [first.ljust(widths[0])]
        parts += [cell.rjust(widths[i + 1]) for i, cell in enumerate(cells)]
        return "  ".join(parts)

    lines = [
        fmt_row(headers[0], headers[1:]),
        "-" * (sum(widths) + 2 * len(widths) - 2),
    ]
    for name, cells in body:
        lines.append(fmt_row(name, cells))
    lines.append("")
    spec = report.spec
    lines.append(f"seed={spec.seed}  repetitions={spec.repetitions:,}  "
                 f"portfolio={spec.portfolio_size:,}  engine={ENGINE_VERSION}")
    return "\n".join(lines) + "\n"
