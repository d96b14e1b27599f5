"""Threat-event dataset parsing and parameter fitting.

Input schema (CSV header or JSON-lines field names):
``date,category,event_count,loss_amount`` - ISO-8601 dates, nonnegative
integer counts, optional nonnegative loss amounts. Malformed rows are
never silently dropped: they land in a rejects list with their line
number and offending field.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
import datetime as dt
import io
import json
import math

from .errors import DomainError, FormatError, InputError, InsufficientDataError

__all__ = [
    "ThreatRecord",
    "RejectedRow",
    "parse_records",
    "estimate_intensity",
    "fit_lognormal",
    "fit_pareto_tail",
]

_FIELDS = ("date", "category", "event_count", "loss_amount")


@dataclass(frozen=True)
class ThreatRecord:
    date: dt.date
    category: str
    event_count: int
    loss_amount: float | None = None


@dataclass(frozen=True)
class RejectedRow:
    line: int
    field: str
    reason: str


def _coerce_record(raw: dict, line: int):
    for field in ("date", "category"):  # a JSON value may be any type
        if not isinstance(raw.get(field, ""), (str, type(None))):
            return None, RejectedRow(line, field, f"not a string: {raw[field]!r}")
    date_text = (raw.get("date") or "").strip()
    try:
        date = dt.date.fromisoformat(date_text)
    except ValueError:
        return None, RejectedRow(line, "date", f"not ISO-8601: {date_text!r}")
    category = (raw.get("category") or "").strip()
    count_text = raw.get("event_count")
    try:
        count = int(str(count_text).strip())
        if count < 0:
            raise ValueError
    except (TypeError, ValueError):
        return None, RejectedRow(line, "event_count", f"not a nonnegative integer: {count_text!r}")
    loss_text = raw.get("loss_amount")
    loss: float | None
    if loss_text is None or str(loss_text).strip() == "":
        loss = None
    else:
        try:
            loss = float(str(loss_text).strip())
            if loss < 0 or not math.isfinite(loss):
                raise ValueError
        except ValueError:
            return None, RejectedRow(line, "loss_amount", f"not a nonnegative number: {loss_text!r}")
    return ThreatRecord(date=date, category=category, event_count=count, loss_amount=loss), None


def parse_records(data: bytes, fmt: str = "csv"):
    """Parse a byte stream into (records, rejects).

    Total over its input: every data row becomes either a record or a
    reject. Raises InputError when the bytes do not decode, FormatError
    when the csv module cannot read a row or more than half of the rows reject.
    """
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InputError(f"input is not valid UTF-8: {exc}") from exc

    records: list[ThreatRecord] = []
    rejects: list[RejectedRow] = []

    if fmt == "csv":
        reader = csv.DictReader(io.StringIO(text))
        try:
            if reader.fieldnames is not None:
                missing = [f for f in ("date", "event_count") if f not in reader.fieldnames]
                if missing:
                    raise FormatError(f"CSV header missing required columns: {', '.join(missing)}")
            for line, row in enumerate(reader, start=2):
                extra = row.pop(None, None)
                if extra:
                    rejects.append(RejectedRow(line, "", f"{len(extra)} unexpected extra column(s)"))
                    continue
                record, reject = _coerce_record(row, line)
                if record is not None:
                    records.append(record)
                else:
                    rejects.append(reject)
        except csv.Error as exc:  # a field longer than csv.field_size_limit()
            raise FormatError(f"CSV line {reader.reader.line_num}: {exc}") from exc
    elif fmt == "jsonl":
        for line, raw_line in enumerate(text.splitlines(), start=1):
            if not raw_line.strip():
                continue
            try:
                obj = json.loads(raw_line)
                if not isinstance(obj, dict):
                    raise ValueError("not an object")
            except ValueError as exc:
                rejects.append(RejectedRow(line, "", f"not a JSON object: {exc}"))
                continue
            unknown = set(obj) - set(_FIELDS)
            if unknown:
                rejects.append(RejectedRow(line, ",".join(sorted(unknown)), "unknown field(s)"))
                continue
            record, reject = _coerce_record(obj, line)
            if record is not None:
                records.append(record)
            else:
                rejects.append(reject)
    else:
        raise DomainError(f"unknown input format {fmt!r}")

    total = len(records) + len(rejects)
    if total and len(rejects) * 2 > total:
        raise FormatError(f"{len(rejects)} of {total} rows rejected; input does not match the schema")
    return records, rejects


def estimate_intensity(records, window: tuple) -> float:
    """Homogeneous-Poisson MLE: events inside the window divided by the
    window length in days (both endpoints inclusive). Records outside the
    window are ignored - threat feeds overlap."""
    start, end = window
    days = (end - start).days + 1
    if days < 1:
        raise DomainError(f"window must span at least one day, got {start}..{end}")
    events = sum(r.event_count for r in records if start <= r.date <= end)
    try:
        return events / days
    except OverflowError:
        raise DomainError("event count in window is too large for a float intensity") from None


def fit_lognormal(losses) -> tuple[float, float]:
    """(mu, sigma) as the mean and population standard deviation of logs.

    A constant sample returns exactly (log c, 0): the mean-then-deviate
    route would leak an ulp of rounding into sigma."""
    losses = list(losses)
    if any(x <= 0 or not math.isfinite(x) for x in losses):
        raise DomainError("lognormal fitting requires strictly positive losses")
    if len(losses) < 2:
        raise InsufficientDataError(f"need at least 2 losses, got {len(losses)}")
    logs = [math.log(x) for x in losses]
    if min(logs) == max(logs):
        return logs[0], 0.0
    mu = math.fsum(logs) / len(logs)
    var = math.fsum((g - mu) ** 2 for g in logs) / len(logs)
    return mu, math.sqrt(var)


def fit_pareto_tail(losses, x_min: float) -> tuple[float, bool]:
    """Hill/MLE tail index over the n values >= x_min:
    alpha = n / sum(ln(x / x_min)).

    Returns (alpha, warning) where the warning flags an estimate outside
    the plausible (1, 3) range. Degenerate tails (all mass at x_min) have
    no finite MLE and raise."""
    if not (x_min > 0 and math.isfinite(x_min)):
        raise DomainError(f"x_min must be positive, got {x_min}")
    tail = [x for x in losses if x >= x_min]
    if len(tail) < 10:
        raise InsufficientDataError(f"need at least 10 tail values >= x_min, got {len(tail)}")
    log_sum = math.fsum(math.log(x / x_min) for x in tail)
    if log_sum <= 0.0:
        raise DomainError("degenerate tail: all values at x_min, tail index diverges")
    alpha = len(tail) / log_sum
    return alpha, not (1.0 < alpha < 3.0)
