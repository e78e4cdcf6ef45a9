from __future__ import annotations

import math
from types import SimpleNamespace

import pytest
import scipy.stats
from hypothesis import given
from hypothesis import strategies as st

from dfscreen.evaluation import (
    CSV_COLUMNS,
    ConfusionMatrix,
    EvaluationError,
    MetricsReport,
    ReviewMetrics,
    compare_runs,
    confusion,
    evaluate_run,
    f1_from_precision_recall,
    macro_f1,
    metrics,
    paired_t_test,
    read_report_csv,
    t_cdf,
    write_report,
)

T_GRID = [-6.0, -3.5, -2.0, -1.0, -0.5, -0.1, 0.1, 0.5, 1.0, 2.0, 3.872983346207417, 6.0]


class TestConfusionMatrix:
    def test_negative_rejected(self):
        with pytest.raises(EvaluationError):
            ConfusionMatrix(tp=-1, fp=0, fn=0, tn=0)

    def test_total_and_addition(self):
        a = ConfusionMatrix(1, 2, 3, 4)
        b = ConfusionMatrix(10, 20, 30, 40)
        assert a.total == 10
        assert a + b == ConfusionMatrix(11, 22, 33, 44)


class TestConfusion:
    def test_hand_example(self):
        gold = {"a": "include", "b": "include", "c": "exclude", "d": "exclude"}
        pred = {"a": "include", "b": "exclude", "c": "include", "d": "exclude"}
        assert confusion(pred, gold) == ConfusionMatrix(tp=1, fp=1, fn=1, tn=1)

    def test_id_mismatch_rejected(self):
        with pytest.raises(EvaluationError, match="id sets differ"):
            confusion({"a": "include"}, {"b": "include"})
        with pytest.raises(EvaluationError, match="only in gold"):
            confusion({"a": "include"}, {"a": "include", "b": "exclude"})

    @given(
        st.dictionaries(
            st.text(st.characters(categories=["L", "N"]), min_size=1, max_size=6),
            st.tuples(
                st.sampled_from(["include", "exclude"]),
                st.sampled_from(["include", "exclude"]),
            ),
            min_size=1,
            max_size=40,
        )
    )
    def test_marginals_check_out(self, table):
        pred = {k: v[0] for k, v in table.items()}
        gold = {k: v[1] for k, v in table.items()}
        cm = confusion(pred, gold)
        assert cm.total == len(table)
        assert cm.tp + cm.fp == sum(1 for v in pred.values() if v == "include")
        assert cm.tp + cm.fn == sum(1 for v in gold.values() if v == "include")
        assert cm.tn + cm.fn == sum(1 for v in pred.values() if v == "exclude")


class TestMetrics:
    def test_hand_example(self):
        m = metrics(ConfusionMatrix(tp=3, fp=1, fn=2, tn=4))
        assert m["precision"] == 0.75
        assert m["recall"] == 0.6
        assert m["f1"] == pytest.approx(2 / 3)
        assert m["accuracy"] == 0.7

    def test_no_predicted_positives(self):
        m = metrics(ConfusionMatrix(tp=0, fp=0, fn=5, tn=5))
        assert m["precision"] == 0.0
        assert m["recall"] == 0.0
        assert m["f1"] == 0.0
        assert m["accuracy"] == 0.5

    def test_no_gold_positives(self):
        m = metrics(ConfusionMatrix(tp=0, fp=2, fn=0, tn=8))
        assert m["recall"] == 0.0
        assert m["f1"] == 0.0

    def test_empty_matrix_rejected(self):
        with pytest.raises(EvaluationError, match="empty"):
            metrics(ConfusionMatrix(0, 0, 0, 0))

    @given(
        st.integers(0, 500), st.integers(0, 500), st.integers(0, 500), st.integers(0, 500)
    )
    def test_ranges_and_harmonic_identity(self, tp, fp, fn, tn):
        cm = ConfusionMatrix(tp, fp, fn, tn)
        if cm.total == 0:
            return
        m = metrics(cm)
        for v in m.values():
            assert 0.0 <= v <= 1.0
        p, r = m["precision"], m["recall"]
        expected = 0.0 if p + r == 0 else 2 * p * r / (p + r)
        assert m["f1"] == pytest.approx(expected, abs=1e-12)


class TestF1:
    def test_zero_when_both_zero(self):
        assert f1_from_precision_recall(0.0, 0.0) == 0.0

    def test_benchmark_pair(self):
        assert f1_from_precision_recall(0.6875, 0.7333) == pytest.approx(0.7097, abs=1e-4)

    def test_perfect(self):
        assert f1_from_precision_recall(1.0, 1.0) == 1.0


class TestMacroF1:
    def test_mean(self):
        assert macro_f1([0.5, 0.7, 0.9]) == pytest.approx(0.7)

    def test_permutation_invariant(self):
        values = [0.1, 0.4, 0.9, 0.3]
        assert macro_f1(values) == pytest.approx(
            macro_f1(list(reversed(values))), abs=1e-15
        )

    def test_empty_rejected(self):
        with pytest.raises(EvaluationError):
            macro_f1([])


class TestTCdf:
    def test_zero_is_half(self):
        for df in (1, 2, 3, 10):
            assert t_cdf(0.0, df) == 0.5

    def test_df_one_closed_form(self):
        # Cauchy: F(t) = 1/2 + atan(t)/pi.
        for t in T_GRID:
            expected = 0.5 + math.atan(t) / math.pi
            assert t_cdf(t, 1) == pytest.approx(expected, abs=1e-10)

    def test_df_two_closed_form(self):
        # F(t) = 1/2 + t / (2 sqrt(2 + t^2)).
        for t in T_GRID:
            expected = 0.5 + t / (2.0 * math.sqrt(2.0 + t * t))
            assert t_cdf(t, 2) == pytest.approx(expected, abs=1e-10)

    def test_symmetry(self):
        for df in (1, 3, 7, 25):
            for t in T_GRID:
                assert t_cdf(t, df) + t_cdf(-t, df) == pytest.approx(1.0, abs=1e-12)

    def test_monotone(self):
        for df in (1, 3, 9):
            values = [t_cdf(t, df) for t in T_GRID]
            assert values == sorted(values)

    def test_against_scipy(self):
        for df in (1, 2, 3, 5, 9, 30, 100):
            for t in T_GRID:
                assert t_cdf(t, df) == pytest.approx(
                    scipy.stats.t.cdf(t, df), abs=1e-10
                )

    def test_df_validated(self):
        with pytest.raises(EvaluationError):
            t_cdf(1.0, 0)


class TestPairedTTest:
    def test_unit_staircase(self):
        before = [0.0, 0.0, 0.0, 0.0]
        after = [1.0, 2.0, 3.0, 4.0]
        res = paired_t_test(before, after)
        assert res.t_statistic == pytest.approx(3.872983346207417, abs=1e-12)
        assert res.df == 3
        ref = scipy.stats.ttest_rel(after, before)
        assert res.p_value == pytest.approx(ref.pvalue, abs=1e-10)
        assert res.p_value == pytest.approx(0.030466, abs=1e-6)

    def test_tails_are_consistent(self):
        res = paired_t_test([0.0, 0.0, 0.0], [0.3, 0.5, 0.1])
        assert res.lower_tail_p + res.upper_tail_p == pytest.approx(1.0, abs=1e-12)
        assert res.p_value == pytest.approx(2.0 * min(res.lower_tail_p, res.upper_tail_p))

    def test_antisymmetric(self):
        a = [0.1, 0.2, 0.3, 0.5]
        b = [0.4, 0.1, 0.6, 0.8]
        fwd = paired_t_test(a, b)
        rev = paired_t_test(b, a)
        assert fwd.t_statistic == pytest.approx(-rev.t_statistic, abs=1e-12)
        assert fwd.p_value == pytest.approx(rev.p_value, abs=1e-12)

    def test_matches_scipy_on_random_pairs(self):
        rng_values = [
            ([0.42, 0.58, 0.61, 0.35, 0.71], [0.49, 0.60, 0.66, 0.41, 0.70]),
            ([0.9, 0.2, 0.4, 0.6, 0.8, 0.1], [0.85, 0.25, 0.45, 0.55, 0.82, 0.12]),
            ([1.0, 2.0, 3.0], [0.5, 2.5, 2.9]),
        ]
        for before, after in rng_values:
            res = paired_t_test(before, after)
            ref = scipy.stats.ttest_rel(after, before)
            assert res.t_statistic == pytest.approx(ref.statistic, abs=1e-10)
            assert res.p_value == pytest.approx(ref.pvalue, abs=1e-10)

    def test_zero_variance_rejected(self):
        # Differences are exactly 1.0 each; sample variance is exactly zero.
        with pytest.raises(EvaluationError, match="zero variance"):
            paired_t_test([1.0, 2.0, 3.0], [2.0, 3.0, 4.0])

    def test_length_mismatch(self):
        with pytest.raises(EvaluationError, match="differ in length"):
            paired_t_test([1.0], [1.0, 2.0])

    def test_too_few_pairs(self):
        with pytest.raises(EvaluationError, match="at least 2"):
            paired_t_test([1.0], [2.0])


def fake_results(finals, routed_ids=()):
    return [
        SimpleNamespace(record_id=rid, final=label, routed=rid in routed_ids)
        for rid, label in finals.items()
    ]


class TestEvaluateRun:
    def test_row(self):
        gold = {"a": "include", "b": "include", "c": "exclude", "d": "exclude"}
        finals = {"a": "include", "b": "exclude", "c": "include", "d": "exclude"}
        row = evaluate_run("R1", fake_results(finals, routed_ids={"a", "b"}), gold,
                           usd_stage1=0.5, usd_stage2=0.25)
        assert row.review_id == "R1"
        assert (row.tp, row.fp, row.fn, row.tn) == (1, 1, 1, 1)
        assert row.precision == 0.5
        assert row.recall == 0.5
        assert row.f1 == pytest.approx(0.5)
        assert row.routed_ratio == 0.5
        assert (row.usd_stage1, row.usd_stage2) == (0.5, 0.25)

    def test_empty_rejected(self):
        with pytest.raises(EvaluationError, match="no results"):
            evaluate_run("R1", [], {"a": "include"})


def sample_report():
    rows = [
        ReviewMetrics("R1", 3, 1, 2, 4, 0.75, 0.6, 2 / 3, 0.7, 0.25, 0.012, 0.034),
        ReviewMetrics("R2", 5, 0, 0, 5, 1.0, 1.0, 1.0, 1.0, 0.5, 0.02, 0.05),
    ]
    return MetricsReport(rows=rows)


class TestReports:
    def test_macro(self):
        macro = sample_report().macro()
        assert macro["precision"] == pytest.approx(0.875)
        assert macro["f1"] == pytest.approx((2 / 3 + 1.0) / 2)

    def test_pooled(self):
        pooled = sample_report().pooled()
        # Summed matrix: tp=8 fp=1 fn=2 tn=9.
        assert pooled["precision"] == pytest.approx(8 / 9)
        assert pooled["recall"] == pytest.approx(0.8)

    def test_empty_macro_rejected(self):
        with pytest.raises(EvaluationError):
            MetricsReport(rows=[]).macro()

    def test_csv_round_trip_exact(self, tmp_path):
        report = sample_report()
        csv_path = str(tmp_path / "report.csv")
        write_report(report, csv_path)
        back = read_report_csv(csv_path)
        assert back.rows == report.rows

    def test_csv_columns_pinned(self, tmp_path):
        csv_path = str(tmp_path / "report.csv")
        write_report(sample_report(), csv_path)
        with open(csv_path) as fh:
            header = fh.readline().strip()
        assert header == ",".join(CSV_COLUMNS)
        assert header == (
            "review_id,tp,fp,fn,tn,precision,recall,f1,accuracy,"
            "routed_ratio,usd_stage1,usd_stage2"
        )

    def test_read_rejects_wrong_columns(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("review_id,tp\nR1,3\n")
        with pytest.raises(EvaluationError, match="unexpected columns"):
            read_report_csv(str(path))

    def test_json_summary(self, tmp_path):
        import json

        report = sample_report()
        csv_path = str(tmp_path / "report.csv")
        json_path = str(tmp_path / "report.json")
        write_report(report, csv_path, json_path)
        with open(json_path) as fh:
            summary = json.load(fh)
        assert summary["reviews"] == ["R1", "R2"]
        assert summary["macro"]["f1"] == pytest.approx((2 / 3 + 1.0) / 2)
        assert summary["usd_total"] == pytest.approx(0.012 + 0.034 + 0.02 + 0.05)
        assert sorted(summary) == ["macro", "pooled", "reviews", "usd_total"]


class TestCompareRuns:
    def report_from_f1(self, pairs):
        rows = [
            ReviewMetrics(rid, 1, 0, 0, 1, 1.0, 1.0, f1, 1.0, 0.0, 0.0, 0.0)
            for rid, f1 in pairs
        ]
        return MetricsReport(rows=rows)

    def test_comparison(self):
        a = self.report_from_f1([("R1", 0.5), ("R2", 0.6), ("R3", 0.7), ("R4", 0.4)])
        b = self.report_from_f1([("R3", 0.8), ("R1", 0.6), ("R2", 0.7), ("R4", 0.45)])
        out = compare_runs(a, b)
        assert out["reviews"] == ["R1", "R2", "R3", "R4"]
        assert out["f1_before"] == [0.5, 0.6, 0.7, 0.4]
        assert out["f1_after"] == [0.6, 0.7, 0.8, 0.45]
        assert out["macro_before"] == pytest.approx(0.55)
        assert out["macro_after"] == pytest.approx(0.6375)
        ref = paired_t_test(out["f1_before"], out["f1_after"])
        assert out["t_test"] == ref

    def test_review_set_mismatch(self):
        a = self.report_from_f1([("R1", 0.5)])
        b = self.report_from_f1([("R2", 0.5)])
        with pytest.raises(EvaluationError, match="review sets differ"):
            compare_runs(a, b)

    def test_identical_runs(self):
        a = self.report_from_f1([("R1", 0.5), ("R2", 0.6)])
        b = self.report_from_f1([("R1", 0.5), ("R2", 0.6)])
        with pytest.raises(EvaluationError, match="runs identical"):
            compare_runs(a, b)

    def test_equal_gains_are_not_identical_runs(self):
        # Every review gains exactly 0.25: the runs differ, but the
        # differences have zero variance, so no t statistic exists.
        a = self.report_from_f1([("R1", 0.25), ("R2", 0.5), ("R3", 0.625)])
        b = self.report_from_f1([("R1", 0.5), ("R2", 0.75), ("R3", 0.875)])
        with pytest.raises(EvaluationError, match="zero variance") as info:
            compare_runs(a, b)
        assert "identical" not in str(info.value)
