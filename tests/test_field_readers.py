"""Row converters that take each field by name give what a generic walk gives.

``ScreeningResult.from_dict``, ``corpus._record_from_mapping`` and the
response log's ``gateway._entry`` read the fields their writers write one
by one.  For any row, written or damaged, each returns what, or raises
what, the generic walk over the row's fields it replaced does, message
and all.
"""

from __future__ import annotations

import pytest

from dfscreen import corpus, gateway
from dfscreen.gateway import Decision, LlmResponse
from dfscreen.triage import ScreeningResult


def result_by_walk(row):
    r = ScreeningResult(**{name: Decision(**v) if isinstance(v, dict) else v
                           for name, v in row.items()})
    if type(r.record_id) is not str:
        raise ValueError(f"record_id {r.record_id!r} is not a string")
    if r.final not in corpus.LABELS:
        raise ValueError(f"final {r.final!r} is not one of {corpus.LABELS}")
    if type(r.routed) is not bool or type(r.unparsed_final) is not bool:
        raise ValueError("routed and unparsed_final must be true or false")
    for d in (r.stage1, r.stage2):
        if d is not None and type(d) is not Decision:
            raise ValueError(f"decision {d!r} is neither null nor an object")
    for n in (r.stage1_prompt_tokens, r.stage1_completion_tokens,
              r.stage2_prompt_tokens, r.stage2_completion_tokens):
        if type(n) is not int or n < 0:
            raise ValueError(f"token count {n!r} is not a nonnegative integer")
    return r


def record_by_walk(m):
    for k in ("id", "title", "abstract"):
        if k not in m:
            raise corpus.DatasetError(f"missing field {k!r}")
    gold = m.get("gold_label")
    if gold is not None:
        gold = str(gold).strip().lower()
        if gold == "":
            gold = None
    return corpus.StudyRecord(str(m["id"]), str(m["title"]), str(m["abstract"]), gold)


def entry_by_walk(row):
    return row.pop("key"), LlmResponse(**row)


def outcome(convert, row):
    """(True, value) or (False, (exception type, message)) of ``convert`` on a copy of ``row``."""
    try:
        return True, convert(dict(row))
    except Exception as exc:  # noqa: BLE001 - the exception is what is compared
        return False, (type(exc), str(exc))


RESULT = {"final": "include", "record_id": "a", "routed": True,
          "stage1": {"confidence": 0.5, "label": "exclude"},
          "stage1_completion_tokens": 9, "stage1_prompt_tokens": 120,
          "stage2": {"confidence": 0.97, "label": "include"},
          "stage2_completion_tokens": 11, "stage2_prompt_tokens": 120, "unparsed_final": False}


def changed(row, **fields):
    return {**row, **fields}


def without(row, *names):
    return {k: v for k, v in row.items() if k not in names}


RESULT_ROWS = {
    "written": RESULT,
    "unrouted": changed(RESULT, routed=False, stage2=None, stage2_completion_tokens=0,
                        stage2_prompt_tokens=0),
    "unparsed": changed(RESULT, stage1=None),
    "older-row": without(RESULT, "unparsed_final", "stage2_prompt_tokens"),
    "missing-final": without(RESULT, "final"),
    "extra-field": changed(RESULT, note="x"),
    "swapped-field": changed(without(RESULT, "final"), note="include"),
    "final-object": changed(RESULT, final={"label": "include"}),
    "id-object": changed(RESULT, record_id={"x": 1}),
    "id-decision": changed(RESULT, record_id={"label": "include"}),
    "routed-object": changed(RESULT, routed={"label": "exclude"}),
    "tokens-object": changed(RESULT, stage1_prompt_tokens={"label": "exclude"}),
    "decision-extra-key": changed(RESULT, stage1={"label": "include", "why": 1}),
    "decision-bool": changed(RESULT, stage1={"confidence": True, "label": "include"}),
    "decision-string-confidence": changed(RESULT, stage2={"confidence": "hi",
                                                          "label": "include"}),
    "decision-list": changed(RESULT, stage1=[1, 2]),
    "decision-string": changed(RESULT, stage2="include"),
    "tokens-string": changed(RESULT, stage1_prompt_tokens="12"),
    "tokens-negative": changed(RESULT, stage2_completion_tokens=-1),
    "tokens-bool": changed(RESULT, stage1_completion_tokens=True),
    "final-maybe": changed(RESULT, final="maybe"),
    "final-null": changed(RESULT, final=None),
    "routed-string": changed(RESULT, routed="yes"),
    "unparsed-int": changed(RESULT, unparsed_final=0),
    "id-int": changed(RESULT, record_id=5),
}


@pytest.mark.parametrize("row", RESULT_ROWS.values(), ids=RESULT_ROWS)
def test_result_row(row):
    assert outcome(ScreeningResult.from_dict, row) == outcome(result_by_walk, row)


RECORD = {"id": "a", "title": "T", "abstract": "A", "gold_label": "include"}
RECORD_ROWS = {
    "written": RECORD,
    "unlabelled": without(RECORD, "gold_label"),
    "null-label": changed(RECORD, gold_label=None),
    "padded-label": changed(RECORD, gold_label=" Exclude "),
    "empty-label": changed(RECORD, gold_label="  "),
    "bad-label": changed(RECORD, gold_label="maybe"),
    "number-label": changed(RECORD, gold_label=1),
    "list-label": changed(RECORD, gold_label=["include"]),
    "number-id": changed(RECORD, id=7),
    "missing-id": without(RECORD, "id"),
    "missing-title-and-abstract": without(RECORD, "title", "abstract"),
    "missing-abstract": without(RECORD, "abstract"),
    "extra-field": changed(RECORD, year=2001),
}


@pytest.mark.parametrize("row", RECORD_ROWS.values(), ids=RECORD_ROWS)
def test_record_row(row):
    assert outcome(corpus._record_from_mapping, row) == outcome(record_by_walk, row)


ENTRY = {"key": "k", "text": "x", "prompt_tokens": 1, "completion_tokens": 2, "model_id": "m"}
ENTRY_ROWS = {
    "written": ENTRY,
    "missing-key": without(ENTRY, "key"),
    "missing-text": without(ENTRY, "text"),
    "extra-field": changed(ENTRY, usage=5),
    "key-swapped": changed(without(ENTRY, "key"), usage=5),
    "text-swapped": changed(without(ENTRY, "text"), usage=5),
    "negative-tokens": changed(ENTRY, prompt_tokens=-1),
    "text-int": changed(ENTRY, text=5),
    "tokens-float": changed(ENTRY, completion_tokens=1.5),
}


@pytest.mark.parametrize("row", ENTRY_ROWS.values(), ids=ENTRY_ROWS)
def test_log_entry(row):
    assert outcome(gateway._entry, row) == outcome(entry_by_walk, row)
