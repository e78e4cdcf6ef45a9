"""Screening metrics, macro aggregates, paired t-test, and reports.

Include is the positive class throughout.  Degenerate denominators
(no predicted positives, no gold positives) yield 0 rather than an
exception, since reviews where a run predicts nothing positive are a
real outcome that still needs a row in the report.

The t-test's p-value comes from Student's t CDF at an integer df,
summed as its exact finite series in atan(t / sqrt(df)), so the
statistics carry no dependency beyond ``math``.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, fields
from typing import get_type_hints

from .corpus import INCLUDE
from .jsonl import check_unique


class EvaluationError(ValueError):
    pass


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    fp: int
    fn: int
    tn: int

    def __post_init__(self):
        if min(self.tp, self.fp, self.fn, self.tn) < 0:
            raise EvaluationError("confusion counts must be nonnegative")

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn

    def __add__(self, other: "ConfusionMatrix") -> "ConfusionMatrix":
        return ConfusionMatrix(
            self.tp + other.tp,
            self.fp + other.fp,
            self.fn + other.fn,
            self.tn + other.tn,
        )


def check_ids(predicted, gold: dict[str, str]) -> None:
    """Raise EvaluationError unless the ids ``predicted`` holds are ``gold``'s."""
    predicted = set(predicted)
    if predicted != set(gold):
        only_pred = sorted(predicted - set(gold))
        only_gold = sorted(set(gold) - predicted)
        raise EvaluationError(
            f"id sets differ: {len(only_pred)} only in predictions "
            f"{only_pred[:5]}, {len(only_gold)} only in gold {only_gold[:5]}"
        )


def confusion(final_labels: dict[str, str], gold: dict[str, str]) -> ConfusionMatrix:
    """Count outcomes over identical id sets; any mismatch is an error."""
    check_ids(final_labels, gold)
    tp = fp = fn = tn = 0
    for rid, predicted in final_labels.items():
        actual = gold[rid]
        if predicted == INCLUDE:
            if actual == INCLUDE:
                tp += 1
            else:
                fp += 1
        else:
            if actual == INCLUDE:
                fn += 1
            else:
                tn += 1
    return ConfusionMatrix(tp=tp, fp=fp, fn=fn, tn=tn)


def metrics(cm: ConfusionMatrix) -> dict[str, float]:
    if cm.total == 0:
        raise EvaluationError("empty confusion matrix")
    precision = cm.tp / (cm.tp + cm.fp) if cm.tp + cm.fp > 0 else 0.0
    recall = cm.tp / (cm.tp + cm.fn) if cm.tp + cm.fn > 0 else 0.0
    f1 = f1_from_precision_recall(precision, recall)
    accuracy = (cm.tp + cm.tn) / cm.total
    return {"precision": precision, "recall": recall, "f1": f1, "accuracy": accuracy}


def f1_from_precision_recall(precision: float, recall: float) -> float:
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def macro_f1(per_review_f1: list[float]) -> float:
    """Unweighted mean across reviews; a 100-record review counts the
    same as a 3,000-record one."""
    if not per_review_f1:
        raise EvaluationError("no reviews to average")
    return sum(per_review_f1) / len(per_review_f1)


# --- Student-t distribution -------------------------------------------------

def t_cdf(t: float, df: int) -> float:
    """P(T <= t) for Student's t with ``df`` degrees of freedom.

    Abramowitz & Stegun 26.7.3-4 in theta = atan(t / sqrt(df)): for odd
    df, (theta + sin(theta) * S) / pi + 1/2 with S = cos + 2/3 cos^3 +
    (2*4)/(3*5) cos^5 + ...; for even df, (1 + sin(theta) * S) / 2 with
    S = 1 + 1/2 cos^2 + (1*3)/(2*4) cos^4 + ...; each S has df // 2 terms.
    """
    if df < 1:
        raise EvaluationError(f"df must be at least 1, got {df}")
    theta = math.atan(t / math.sqrt(df))
    cos = math.cos(theta)
    odd = df % 2
    term = cos if odd else 1.0
    series = 0.0
    for k in range(df // 2):
        series += term
        term *= cos * cos * (2 * k + 1 + odd) / (2 * k + 2 + odd)
    if odd:
        return 0.5 + (theta + math.sin(theta) * series) / math.pi
    return 0.5 + 0.5 * math.sin(theta) * series


@dataclass(frozen=True)
class PairedTTestResult:
    t_statistic: float
    df: int
    p_value: float  # two-sided
    lower_tail_p: float  # P(T <= t)
    upper_tail_p: float  # P(T >= t)


def paired_t_test(before: list[float], after: list[float]) -> PairedTTestResult:
    """Two-sided paired t-test on after - before differences, sample sd (n-1).

    Both tail probabilities ride along so a report can print them.
    """
    if len(before) != len(after):
        raise EvaluationError(
            f"paired samples differ in length: {len(before)} vs {len(after)}"
        )
    n = len(before)
    if n < 2:
        raise EvaluationError("need at least 2 pairs")
    d = [a - b for b, a in zip(before, after)]
    mean = sum(d) / n
    var = sum((x - mean) ** 2 for x in d) / (n - 1)
    if var == 0.0:
        raise EvaluationError("degenerate: zero variance in differences")
    t = mean / math.sqrt(var / n)
    df = n - 1
    lower = t_cdf(t, df)
    upper = 1.0 - lower
    return PairedTTestResult(
        t_statistic=t,
        df=df,
        p_value=min(1.0, 2.0 * min(lower, upper)),
        lower_tail_p=lower,
        upper_tail_p=upper,
    )


# --- Reports ----------------------------------------------------------------

@dataclass(frozen=True)
class ReviewMetrics:
    review_id: str
    tp: int
    fp: int
    fn: int
    tn: int
    precision: float
    recall: float
    f1: float
    accuracy: float
    routed_ratio: float
    usd_stage1: float
    usd_stage2: float


# The report.csv header, and the parser of each column, in field order.
CSV_COLUMNS = [f.name for f in fields(ReviewMetrics)]
_COLUMN_TYPES = list(get_type_hints(ReviewMetrics).values())


@dataclass
class MetricsReport:
    rows: list[ReviewMetrics]

    def macro(self) -> dict[str, float]:
        if not self.rows:
            raise EvaluationError("empty report")
        n = len(self.rows)
        return {
            "precision": sum(r.precision for r in self.rows) / n,
            "recall": sum(r.recall for r in self.rows) / n,
            "f1": sum(r.f1 for r in self.rows) / n,
            "accuracy": sum(r.accuracy for r in self.rows) / n,
        }

    def pooled(self) -> dict[str, float]:
        """Micro metrics over the summed confusion; informational only."""
        cm = ConfusionMatrix(0, 0, 0, 0)
        for r in self.rows:
            cm = cm + ConfusionMatrix(r.tp, r.fp, r.fn, r.tn)
        return metrics(cm)


def evaluate_run(
    review_id: str,
    results,
    gold: dict[str, str],
    usd_stage1: float = 0.0,
    usd_stage2: float = 0.0,
) -> ReviewMetrics:
    """One report row from screening results plus gold labels.

    ``results`` is anything iterable whose items expose record_id,
    final, and routed.
    """
    results = list(results)
    if not results:
        raise EvaluationError(f"no results for review {review_id}")
    finals = {r.record_id: r.final for r in results}
    cm = confusion(finals, gold)
    m = metrics(cm)
    routed = sum(1 for r in results if r.routed) / len(results)
    return ReviewMetrics(review_id=review_id, **vars(cm), **m, routed_ratio=routed,
                         usd_stage1=usd_stage1, usd_stage2=usd_stage2)


def write_report(report: MetricsReport, csv_path: str, json_path: str | None = None) -> None:
    """Per-review CSV plus an optional JSON summary.

    Floats are written with repr so a read-back compares equal.
    """
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        writer.writerows(vars(r).values() for r in report.rows)
    if json_path is None:
        return
    summary = {
        "reviews": [r.review_id for r in report.rows],
        "macro": report.macro(),
        "pooled": report.pooled(),
        "usd_total": sum(r.usd_stage1 + r.usd_stage2 for r in report.rows),
    }
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_report_csv(path: str) -> MetricsReport:
    rows = []
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != CSV_COLUMNS:
                raise EvaluationError(f"{path}: unexpected columns {header}")
            try:
                for values in reader:
                    if not values:
                        continue
                    if len(values) != len(CSV_COLUMNS):
                        raise ValueError(f"{len(values)} values, {len(CSV_COLUMNS)} columns")
                    rows.append(ReviewMetrics(*(t(v) for t, v in zip(_COLUMN_TYPES, values))))
            except (ValueError, csv.Error) as exc:
                raise EvaluationError(
                    f"{path}:{reader.line_num}: unreadable row: {exc}"
                ) from None
    except UnicodeDecodeError as exc:
        raise EvaluationError(f"{path} is not UTF-8: {exc}") from None
    check_unique(path, (r.review_id for r in rows), EvaluationError, "review")
    return MetricsReport(rows=rows)


def compare_runs(report_a: MetricsReport, report_b: MetricsReport) -> dict:
    """Paired t-test over per-review F1 between two runs (b minus a)."""
    ids_a = [r.review_id for r in report_a.rows]
    ids_b = [r.review_id for r in report_b.rows]
    if sorted(ids_a) != sorted(ids_b):
        raise EvaluationError(
            f"review sets differ: {sorted(set(ids_a) ^ set(ids_b))}"
        )
    f1_a = {r.review_id: r.f1 for r in report_a.rows}
    f1_b = {r.review_id: r.f1 for r in report_b.rows}
    order = sorted(ids_a)
    before = [f1_a[i] for i in order]
    after = [f1_b[i] for i in order]
    if before == after:
        raise EvaluationError("runs identical: no F1 differences to test")
    test = paired_t_test(before, after)
    return {
        "reviews": order,
        "f1_before": before,
        "f1_after": after,
        "macro_before": macro_f1(before),
        "macro_after": macro_f1(after),
        "t_test": test,
    }
