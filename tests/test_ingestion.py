"""Dataset parsing and generate-then-recover fitting."""

import datetime as dt
import json
import math

import pytest

from cyberrisk.distributions import Lognormal, Pareto, sample_poisson_batch, sample_severity_batch
from cyberrisk.errors import DomainError, FormatError, InputError, InsufficientDataError
from cyberrisk.ingestion import (
    ThreatRecord,
    estimate_intensity,
    fit_lognormal,
    fit_pareto_tail,
    parse_records,
)
from cyberrisk.streams import derive_stream


class TestParseRecords:
    def test_header_only_csv(self):
        records, rejects = parse_records(b"date,category,event_count,loss_amount\n")
        assert records == [] and rejects == []

    def test_direct_mapping(self):
        data = b"date,category,event_count,loss_amount\n2019-06-01,iot_malware,3,12000.0\n"
        records, rejects = parse_records(data)
        assert rejects == []
        assert records == [ThreatRecord(dt.date(2019, 6, 1), "iot_malware", 3, 12000.0)]

    def test_bad_date_rejected_with_location(self):
        data = (b"date,category,event_count,loss_amount\n"
                b"2019-06-01,ok,1,\n"
                b"06/01/2019,bad,2,\n")
        records, rejects = parse_records(data)
        assert len(records) == 1
        assert len(rejects) == 1
        assert rejects[0].line == 3
        assert rejects[0].field == "date"

    def test_missing_loss_amount_is_none(self):
        data = b"date,category,event_count,loss_amount\n2020-01-01,x,5,\n"
        records, _ = parse_records(data)
        assert records[0].loss_amount is None

    def test_jsonl(self):
        data = (b'{"date": "2020-02-02", "category": "c", "event_count": 1, "loss_amount": 3.5}\n'
                b'{"date": "2020-02-03", "category": "c", "event_count": 0}\n'
                b"not json\n")
        records, rejects = parse_records(data, fmt="jsonl")
        assert len(records) == 2 and len(rejects) == 1
        assert rejects[0].line == 3

    def test_totality(self):
        rows = [f"2020-01-{d:02d},c,{d},\n" for d in range(1, 11)]
        rows[3] = "garbage,c,x,\n"
        data = ("date,category,event_count,loss_amount\n" + "".join(rows)).encode()
        records, rejects = parse_records(data)
        assert len(records) + len(rejects) == 10

    def test_majority_rejects_is_format_error(self):
        data = (b"date,category,event_count,loss_amount\n"
                b"bad,x,y,\n" * 3 + b"2020-01-01,c,1,\n")
        with pytest.raises(FormatError):
            parse_records(data)

    def test_undecodable_input(self):
        with pytest.raises(InputError):
            parse_records(b"\xff\xfe\x00date")

    def test_negative_count_rejected(self):
        data = (b"date,category,event_count,loss_amount\n"
                b"2020-01-01,c,-3,\n"
                b"2020-01-02,c,3,\n")
        records, rejects = parse_records(data)
        assert len(records) == 1
        assert rejects[0].field == "event_count"

    @pytest.mark.parametrize("field", ["date", "category"])
    @pytest.mark.parametrize("value", [20200101, 7.5, True, False, 0, [1], [], {"a": 1}, {}],
                             ids=repr)
    def test_non_string_json_field_is_rejected(self, field, value):
        row = {"date": "2020-02-02", "category": "c", "event_count": 1, field: value}
        data = (json.dumps({"date": "2020-02-01", "category": "c", "event_count": 2}) + "\n"
                + json.dumps(row) + "\n").encode()
        records, rejects = parse_records(data, fmt="jsonl")
        assert records == [ThreatRecord(dt.date(2020, 2, 1), "c", 2)]
        assert [(r.line, r.field) for r in rejects] == [(2, field)]
        assert repr(value) in rejects[0].reason

    def test_null_category_is_empty(self):
        data = b'{"date": "2020-02-02", "category": null, "event_count": 1}\n'
        records, rejects = parse_records(data, fmt="jsonl")
        assert rejects == [] and records[0].category == ""

    def test_overlong_csv_field_is_format_error_naming_its_line(self):
        data = ("date,category,event_count,loss_amount\n2020-01-01,c,1,\n"
                f"2020-01-02,{'x' * 200_000},1,\n").encode()
        with pytest.raises(FormatError, match="CSV line 3: field larger than field limit"):
            parse_records(data)

    @pytest.mark.parametrize("header", ["category,event_count,loss_amount",
                                        "date,category,loss_amount",
                                        "category,loss_amount"])
    def test_csv_header_missing_a_required_column_is_format_error(self, header):
        missing = [f for f in ("date", "event_count") if f not in header.split(",")]
        with pytest.raises(FormatError, match=f"missing required columns: {', '.join(missing)}$"):
            parse_records(f"{header}\nx,1,2\n".encode())

    def test_csv_row_with_extra_columns_is_rejected(self):
        data = (b"date,category,event_count,loss_amount\n"
                b"2020-01-01,c,1,\n"
                b"2020-01-02,c,1,5.0,surplus,more\n"
                b"2020-01-03,c,1,\n")
        records, rejects = parse_records(data)
        assert [r.date.day for r in records] == [1, 3]
        assert [(r.line, r.field, r.reason) for r in rejects] == [
            (3, "", "2 unexpected extra column(s)")]

    def test_blank_json_lines_are_skipped(self):
        data = (b'\n{"date": "2020-02-02", "event_count": 1}\n'
                b'   \n\t\n{"date": "2020-02-03", "event_count": 2}\n\n')
        records, rejects = parse_records(data, fmt="jsonl")
        assert rejects == []
        assert [(r.date.day, r.event_count) for r in records] == [(2, 1), (3, 2)]

    @pytest.mark.parametrize("line", [b"[1]", b'"x"', b"7", b"null", b"{"])
    def test_json_line_that_is_not_an_object_is_rejected(self, line):
        data = (b'{"date": "2020-02-02", "event_count": 1}\n' + line + b"\n"
                b'{"date": "2020-02-03", "event_count": 2}\n')
        records, rejects = parse_records(data, fmt="jsonl")
        assert len(records) == 2
        assert [(r.line, r.field) for r in rejects] == [(2, "")]
        assert rejects[0].reason.startswith("not a JSON object")

    def test_unknown_json_field_is_rejected_naming_it(self):
        data = (b'{"date": "2020-02-02", "event_count": 1}\n'
                b'{"date": "2020-02-03", "event_count": 2, "severity": 9, "actor": "x"}\n'
                b'{"date": "2020-02-04", "event_count": 3}\n')
        records, rejects = parse_records(data, fmt="jsonl")
        assert len(records) == 2
        assert [(r.line, r.field, r.reason) for r in rejects] == [
            (2, "actor,severity", "unknown field(s)")]

    @pytest.mark.parametrize("loss", ["-1", "abc", "inf", "nan", "-0.5"])
    def test_invalid_loss_amount_is_rejected(self, loss):
        data = ("date,category,event_count,loss_amount\n"
                f"2020-01-01,c,1,5.0\n2020-01-02,c,1,{loss}\n2020-01-03,c,1,\n").encode()
        records, rejects = parse_records(data)
        assert len(records) == 2
        assert [(r.line, r.field) for r in rejects] == [(3, "loss_amount")]
        assert repr(loss) in rejects[0].reason

    def test_unknown_format_is_domain_error(self):
        with pytest.raises(DomainError, match="unknown input format 'xml'"):
            parse_records(b"date,category,event_count,loss_amount\n", fmt="xml")


class TestEstimateIntensity:
    def test_division(self):
        records = [ThreatRecord(dt.date(2020, 1, 1), "c", 730, None)]
        window = (dt.date(2020, 1, 1), dt.date(2020, 12, 30))  # 365 days inclusive
        assert estimate_intensity(records, window) == 2.0

    def test_zero_events(self):
        window = (dt.date(2020, 1, 1), dt.date(2020, 1, 10))
        assert estimate_intensity([], window) == 0.0

    def test_order_invariance_and_window_filter(self):
        records = [
            ThreatRecord(dt.date(2020, 1, 5), "a", 3, None),
            ThreatRecord(dt.date(2020, 1, 1), "b", 2, None),
            ThreatRecord(dt.date(2021, 6, 1), "outside", 100, None),
        ]
        window = (dt.date(2020, 1, 1), dt.date(2020, 1, 10))
        assert estimate_intensity(records, window) == estimate_intensity(records[::-1], window)
        assert estimate_intensity(records, window) == 0.5

    def test_additive_over_disjoint_windows(self):
        records = [ThreatRecord(dt.date(2020, 1, d), "c", d, None) for d in range(1, 21)]
        w1 = (dt.date(2020, 1, 1), dt.date(2020, 1, 10))
        w2 = (dt.date(2020, 1, 11), dt.date(2020, 1, 20))
        whole = (dt.date(2020, 1, 1), dt.date(2020, 1, 20))
        weighted = (estimate_intensity(records, w1) * 10 + estimate_intensity(records, w2) * 10) / 20
        assert estimate_intensity(records, whole) == pytest.approx(weighted, rel=1e-12)

    def test_generate_then_recover(self):
        counts = sample_poisson_batch(derive_stream(77, 1), 3.0, 1000)
        records = [
            ThreatRecord(dt.date(2017, 1, 1) + dt.timedelta(days=i), "syn", int(c), None)
            for i, c in enumerate(counts)
        ]
        window = (dt.date(2017, 1, 1), dt.date(2017, 1, 1) + dt.timedelta(days=999))
        assert abs(estimate_intensity(records, window) - 3.0) < 0.2

    def test_empty_window(self):
        with pytest.raises(DomainError):
            estimate_intensity([], (dt.date(2020, 1, 2), dt.date(2020, 1, 1)))

    def test_event_count_beyond_float_range_is_domain_error(self):
        records = [ThreatRecord(dt.date(2020, 1, 1), "c", 10 ** 400, None)]
        with pytest.raises(DomainError, match="too large for a float"):
            estimate_intensity(records, (dt.date(2020, 1, 1), dt.date(2020, 1, 1)))


class TestFitLognormal:
    def test_constant(self):
        mu, sigma = fit_lognormal([7.0] * 5)
        assert mu == pytest.approx(math.log(7.0), rel=1e-12)
        assert sigma == 0.0

    def test_two_point_exact(self):
        mu, sigma = fit_lognormal([math.e, math.e ** 3])
        assert mu == pytest.approx(2.0, rel=1e-12)
        assert sigma == pytest.approx(1.0, rel=1e-12)

    def test_generate_then_recover(self):
        draws = sample_severity_batch(derive_stream(77, 2), Lognormal(1.5, 0.7), 100_000)
        mu, sigma = fit_lognormal(draws)
        assert abs(mu - 1.5) < 0.02
        assert abs(sigma - 0.7) < 0.02

    def test_domain(self):
        with pytest.raises(DomainError):
            fit_lognormal([1.0, -2.0])
        with pytest.raises(InsufficientDataError):
            fit_lognormal([1.0])


class TestFitParetoTail:
    def test_degenerate_tail(self):
        with pytest.raises(DomainError):
            fit_pareto_tail([2.0] * 20, x_min=2.0)

    def test_log_sum_identity(self):
        alpha, warn = fit_pareto_tail([math.e] * 25, x_min=1.0)
        assert alpha == 1.0
        assert warn is True  # 1.0 sits outside the open (1, 3) range

    def test_generate_then_recover(self):
        draws = sample_severity_batch(derive_stream(77, 3), Pareto(x_min=1.0, alpha=1.5), 100_000)
        alpha, warn = fit_pareto_tail(draws, x_min=1.0)
        assert abs(alpha - 1.5) < 0.02
        assert warn is False

    def test_recover_within_three_se(self):
        # second seed, statistical check at 3 standard errors
        draws = sample_severity_batch(derive_stream(78, 3), Pareto(x_min=2.0, alpha=2.2), 50_000)
        alpha, _ = fit_pareto_tail(draws, x_min=2.0)
        assert abs(alpha - 2.2) < 3 * 2.2 / math.sqrt(50_000)

    def test_warning_outside_plausible_range(self):
        values = [1.0001] * 9 + [1.00005] * 11  # tiny logs -> huge alpha
        alpha, warn = fit_pareto_tail(values, x_min=1.0)
        assert alpha > 3.0
        assert warn is True

    def test_insufficient(self):
        with pytest.raises(InsufficientDataError):
            fit_pareto_tail([2.0] * 9, x_min=1.0)
        with pytest.raises(InsufficientDataError):
            fit_pareto_tail([0.5] * 100, x_min=1.0)
