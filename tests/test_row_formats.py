"""Golden bytes of every on-disk row format.

Each test writes known values and compares the file byte for byte with
the text the format has always had, then reads it back: a field added,
renamed, reordered or reformatted on one side shows up here.
"""

from __future__ import annotations

import json
import re

import pytest

from dfscreen.clustering import Clustering
from dfscreen.corpus import EXCLUDE, INCLUDE
from dfscreen.evaluation import (
    EvaluationError,
    MetricsReport,
    PairedTTestResult,
    ReviewMetrics,
    read_report_csv,
    write_report,
)
from dfscreen.gateway import CostLedger, Decision, LlmResponse, ModelPricing, ResponseCache
from dfscreen.projection import Point2D
from dfscreen.triage import ScreeningResult, read_results_jsonl, write_results_jsonl

RESULTS = [
    ScreeningResult("R1", Decision(EXCLUDE, 0.5), True, Decision(INCLUDE, 0.97),
                    INCLUDE, 120, 9, 120, 11, False),
    ScreeningResult("R2", None, True, Decision(INCLUDE), INCLUDE, 80, 3, 80, 5, False),
    ScreeningResult("R3", Decision(INCLUDE, None), False, None, INCLUDE, 64, 2),
]
RESULTS_JSONL = (
    '{"final": "include", "record_id": "R1", "routed": true, '
    '"stage1": {"confidence": 0.5, "label": "exclude"}, '
    '"stage1_completion_tokens": 9, "stage1_prompt_tokens": 120, '
    '"stage2": {"confidence": 0.97, "label": "include"}, '
    '"stage2_completion_tokens": 11, "stage2_prompt_tokens": 120, '
    '"unparsed_final": false}\n'
    '{"final": "include", "record_id": "R2", "routed": true, "stage1": null, '
    '"stage1_completion_tokens": 3, "stage1_prompt_tokens": 80, '
    '"stage2": {"confidence": null, "label": "include"}, '
    '"stage2_completion_tokens": 5, "stage2_prompt_tokens": 80, '
    '"unparsed_final": false}\n'
    '{"final": "include", "record_id": "R3", "routed": false, '
    '"stage1": {"confidence": null, "label": "include"}, '
    '"stage1_completion_tokens": 2, "stage1_prompt_tokens": 64, "stage2": null, '
    '"stage2_completion_tokens": 0, "stage2_prompt_tokens": 0, '
    '"unparsed_final": false}\n'
)


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_results_rows(tmp_path):
    path = str(tmp_path / "results_R.jsonl")
    write_results_jsonl(RESULTS, path)
    assert read_bytes(path) == RESULTS_JSONL.encode("utf-8")
    assert read_results_jsonl(path) == RESULTS


def test_results_row_without_token_fields_loads_with_defaults(tmp_path):
    path = tmp_path / "results_old.jsonl"
    path.write_text(
        '{"final": "exclude", "record_id": "R9", "routed": false, '
        '"stage1": {"confidence": 0.95, "label": "exclude"}, "stage2": null}\n'
    )
    assert read_results_jsonl(str(path)) == [
        ScreeningResult("R9", Decision(EXCLUDE, 0.95), False, None, EXCLUDE,
                        0, 0, 0, 0, False)
    ]


REPORT = MetricsReport([
    ReviewMetrics("R1", 1, 2, 3, 4, 1 / 3, 0.1, 5e-324, 0.7, 0.25, 1e-05, 2.5),
    ReviewMetrics("R,2", 0, 0, 5, 5, 0.0, 0.0, 0.0, 0.5, 1.0, 0.0, 1e300),
])


def test_report_csv_rows(tmp_path):
    path = str(tmp_path / "report.csv")
    write_report(REPORT, path)
    assert read_bytes(path) == (
        b"review_id,tp,fp,fn,tn,precision,recall,f1,accuracy,routed_ratio,"
        b"usd_stage1,usd_stage2\r\n"
        b"R1,1,2,3,4,0.3333333333333333,0.1,5e-324,0.7,0.25,1e-05,2.5\r\n"
        b'"R,2",0,0,5,5,0.0,0.0,0.0,0.5,1.0,0.0,1e+300\r\n'
    )
    assert read_report_csv(path) == REPORT


def test_report_json_paired_t_test_block(tmp_path):
    json_path = str(tmp_path / "report.json")
    t_test = PairedTTestResult(1 / 3, 3, 0.1, True, 5e-324, 0.9999999999999999)
    write_report(REPORT, str(tmp_path / "report.csv"), json_path, t_test=t_test)
    text = read_bytes(json_path).decode("utf-8")
    block = text[text.index('  "paired_t_test"'):text.index('  "pooled"')]
    assert block == (
        '  "paired_t_test": {\n'
        '    "df": 3,\n'
        '    "lower_tail_p": 5e-324,\n'
        '    "p_value": 0.1,\n'
        '    "t_statistic": 0.3333333333333333,\n'
        '    "two_sided": true,\n'
        '    "upper_tail_p": 0.9999999999999999\n'
        '  },\n'
    )


def test_response_log_row(tmp_path):
    path = str(tmp_path / "responses.jsonl")
    response = LlmResponse('{"decision": "include"}', 7, 2, "m")
    cache = ResponseCache(path)
    cache.put("k", response)
    cache.close()
    assert read_bytes(path) == (
        b'{"key": "k", "text": "{\\"decision\\": \\"include\\"}", '
        b'"prompt_tokens": 7, "completion_tokens": 2, "model_id": "m"}\n'
    )
    assert ResponseCache(path).get("k") == response


def test_manifest_ledger_entry():
    ledger = CostLedger({"m": ModelPricing(2.0, 8.0)})
    ledger.record("m", 1000, 10, attempts=2)
    ledger.record_cache_hit("m")
    merged = CostLedger()
    merged.merge(ledger)
    assert json.dumps(merged.to_dict(), indent=2, sort_keys=True) == (
        '{\n'
        '  "m": {\n'
        '    "cache_hits": 1,\n'
        '    "call_count": 2,\n'
        '    "completion_tokens": 10,\n'
        '    "prompt_tokens": 1000,\n'
        '    "usd": 0.0020800000000000003\n'
        '  }\n'
        '}'
    )


def test_clustering_json():
    clustering = Clustering(2, [Point2D(0.1, -1 / 3), Point2D(2.0, 5e-324)],
                            {"b": 1, "a": 0}, 0.1)
    text = clustering.to_json()
    assert text == (
        '{"assignment": {"a": 0, "b": 1}, '
        '"centroids": [[0.1, -0.3333333333333333], [2.0, 5e-324]], '
        '"inertia": 0.1, "k": 2}'
    )
    assert Clustering.from_json(text) == clustering


@pytest.mark.parametrize("line", [
    RESULTS_JSONL.splitlines()[1][:60],
    '{"final": "include", "record_id": "R2", "stage1": null, "stage2": null}',
    RESULTS_JSONL.splitlines()[1][:-1] + ', "stage3": null}',
    RESULTS_JSONL.splitlines()[1].replace('"label": "include"', '"label": "maybe"'),
    "[1, 2]",
], ids=["torn", "missing-field", "unknown-field", "bad-label", "not-an-object"])
def test_unreadable_results_row_names_file_and_line(tmp_path, line):
    path = tmp_path / "results_R.jsonl"
    lines = RESULTS_JSONL.splitlines()
    lines[1] = line
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(EvaluationError, match=re.escape(f"{path}:2: unreadable result row")):
        read_results_jsonl(str(path))


@pytest.mark.parametrize("row", [
    "R1,1,2,3,4,0.333",
    "R1,x,2,3,4,0.3333333333333333,0.1,5e-324,0.7,0.25,1e-05,2.5",
    "R1,1,2,3,4,0.3333333333333333,0.1,5e-324,0.7,0.25,1e-05,2.5,7",
    "R1,1,2,3,4,one third,0.1,5e-324,0.7,0.25,1e-05,2.5",
], ids=["torn", "bad-int", "extra-value", "bad-float"])
def test_unreadable_report_row_names_file_and_line(tmp_path, row):
    path = tmp_path / "report.csv"
    write_report(REPORT, str(path))
    lines = path.read_text().splitlines()
    lines[2] = row
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(EvaluationError, match=re.escape(f"{path}:3: unreadable row")):
        read_report_csv(str(path))
