"""``evaluate`` scores a results file its ``screen-*`` memo vouches for from the memo's seal.

``screen`` seals each review's memo with a ``score``: the confusion
counts against the curated gold labels and the four token sums.  When a
results file's bytes are the memo's body, ``evaluate`` builds the row
from those counts, priced at the config's prices, and parses no row; any
other file is parsed.  Both paths must write the same report bytes.
"""

from __future__ import annotations

import dataclasses
import os
import shutil

import pytest

from dfscreen import cli, evaluation, synth, triage
from dfscreen.cache import ArtifactCache
from dfscreen.corpus import ReviewDataset
from dfscreen.gateway import ModelPricing

from test_cli import build_workspace, drop_memos, single_review_workspace, slurp
from test_screen_memo import edit_config, memo_path, screen

REPORTS = ("report.csv", "report.json")
DATASET = synth.synth_review("SCORE", 60, 15, k=3, seed=8)
RESULTS = "results_SCORE.jsonl"


def evaluate(config_path, results, capsys):
    """(exit code, stderr, report bytes) of one ``evaluate``."""
    for name in REPORTS:
        if (results / name).exists():
            (results / name).unlink()
    capsys.readouterr()
    rc = cli.main(["evaluate", "--config", config_path, "--results", str(results)])
    err = capsys.readouterr().err
    reports = {name: slurp(results / name) for name in REPORTS
               if (results / name).exists()}
    return rc, err, reports


def memo_facts(path):
    cache = ArtifactCache(os.path.dirname(path))
    return cache.read_text(os.path.basename(path)).facts


def parsed_files(monkeypatch):
    """The results files ``evaluate`` parses from now on, in order."""
    parsed = []
    real = triage.read_results_jsonl

    def record(path, *args):
        parsed.append(os.path.basename(path))
        return real(path, *args)

    monkeypatch.setattr(triage, "read_results_jsonl", record)
    return parsed


@pytest.fixture(scope="module")
def screened(tmp_path_factory):
    """The root of a one-review workspace, ``ws/``, screened once into ``run/``."""
    root = tmp_path_factory.mktemp("screened")
    config_path = single_review_workspace(str(root / "ws"), DATASET)
    assert screen(config_path, root / "run") == cli.EXIT_OK
    return root


@pytest.fixture
def ws(screened, tmp_path):
    """A copy of ``screened`` to change: (config path, results dir)."""
    shutil.copytree(screened, tmp_path / "copy")
    return str(tmp_path / "copy" / "ws" / "config.json"), tmp_path / "copy" / "run"


class TestSealedScore:
    def test_memo_holds_the_counts_of_its_results(self, ws):
        config_path, run = ws
        path = memo_path(config_path)
        facts = memo_facts(path)
        results = triage.read_results_jsonl(str(run / RESULTS))
        gold = cli._pipeline_for(cli.PipelineConfig.load(config_path), "SCORE").gold()
        assert facts["score"] == evaluation.score(results, gold)
        assert sum(facts["score"][n] for n in ("tp", "fp", "fn", "tn")) == facts["records"]

    def test_reports_match_the_parse_path(self, tmp_path, capsys, monkeypatch):
        config_path = build_workspace(str(tmp_path / "ws"))
        run = tmp_path / "run"
        assert screen(config_path, run) == cli.EXIT_OK
        parsed = parsed_files(monkeypatch)
        from_memo = evaluate(config_path, run, capsys)
        assert parsed == []
        drop_memos(config_path)
        from_rows = evaluate(config_path, run, capsys)
        assert len(parsed) == 3
        assert from_memo == from_rows
        assert from_memo[:2] == (cli.EXIT_OK, "")

    def test_warm_evaluate_parses_no_results_row(self, ws, capsys, monkeypatch):
        config_path, run = ws
        expected = evaluate(config_path, run, capsys)

        def refuse(row):
            raise AssertionError("a results row was parsed")

        monkeypatch.setattr(triage.ScreeningResult, "from_dict", refuse)
        assert evaluate(config_path, run, capsys) == expected

    def test_another_pricing_gives_the_parse_paths_usd(self, ws, capsys, monkeypatch):
        config_path, run = ws
        before = evaluate(config_path, run, capsys)[2]
        edit_config(config_path, lambda raw: raw.update(
            stage1={"pricing": {"input_usd_per_mtok": 3.0, "output_usd_per_mtok": 5.0}},
            stage2={"pricing": {"input_usd_per_mtok": 7.0}}))
        parsed = parsed_files(monkeypatch)
        from_memo = evaluate(config_path, run, capsys)
        assert parsed == []  # pricing is not in the screen key
        drop_memos(config_path)
        assert evaluate(config_path, run, capsys) == from_memo
        assert parsed == [RESULTS]
        assert from_memo[2]["report.csv"] != before["report.csv"]
        (row,) = evaluation.read_report_csv(str(run / "report.csv")).rows
        results = triage.read_results_jsonl(str(run / RESULTS))

        def total(name):
            return sum(getattr(r, name) for r in results)

        assert row.usd_stage1 == ModelPricing(3.0, 5.0).cost(
            total("stage1_prompt_tokens"), total("stage1_completion_tokens"))
        assert row.usd_stage2 == ModelPricing(7.0, 8.0).cost(
            total("stage2_prompt_tokens"), total("stage2_completion_tokens"))


def flip_first_byte(data: bytes) -> bytes:
    return bytes([data[0] ^ 1]) + data[1:]


def flip_a_token_count(data: bytes) -> bytes:
    # Still a valid row: a record stage 2 never saw now holds 9 tokens of it.
    return data.replace(b'"stage2_completion_tokens": 0', b'"stage2_completion_tokens": 9', 1)


def drop_a_row(data: bytes) -> bytes:
    lines = data.splitlines(keepends=True)
    return b"".join(lines[:3] + lines[4:])


def repeat_an_id(data: bytes) -> bytes:
    lines = data.splitlines(keepends=True)
    return b"".join(lines + lines[:1])


DAMAGES = {
    "flipped-byte": (flip_first_byte, cli.EXIT_EVALUATION, ":1: unreadable result row"),
    "flipped-count": (flip_a_token_count, cli.EXIT_OK, ""),
    "dropped-row": (drop_a_row, cli.EXIT_EVALUATION, "id sets differ"),
    "repeated-id": (repeat_an_id, cli.EXIT_EVALUATION, "repeated"),
}


class TestParsePath:
    @pytest.mark.parametrize("name", DAMAGES)
    def test_changed_results_are_parsed(self, ws, capsys, monkeypatch, name):
        config_path, run = ws
        damage, rc, message = DAMAGES[name]
        intact = evaluate(config_path, run, capsys)
        path = run / RESULTS
        changed = damage(slurp(path))
        assert changed != slurp(path)
        path.write_bytes(changed)
        parsed = parsed_files(monkeypatch)
        with_memo = evaluate(config_path, run, capsys)
        assert parsed == [RESULTS]
        drop_memos(config_path)
        assert evaluate(config_path, run, capsys) == with_memo
        assert with_memo[0] == rc
        assert message in with_memo[1]
        if rc == cli.EXIT_OK:  # the USD follows the changed count
            assert with_memo[2]["report.csv"] != intact[2]["report.csv"]

    @pytest.mark.parametrize("change", [
        lambda facts: facts.pop("score"),  # as a screen before the fact sealed it
        lambda facts: facts.update(records=facts["records"] + 1),
    ], ids=["without-score", "other-record-count"])
    def test_resealed_memo_is_parsed_quietly(self, ws, capsys, monkeypatch, change):
        config_path, run = ws
        expected = evaluate(config_path, run, capsys)
        path = memo_path(config_path)
        cache, key = ArtifactCache(os.path.dirname(path)), os.path.basename(path)
        memo = cache.read_text(key)
        body, facts = memo.body, memo.facts
        change(facts)

        def write(tmp):
            with open(tmp, "wb") as fh:
                fh.write(body)

        cache.write_atomic(key, write, facts)
        parsed = parsed_files(monkeypatch)
        assert evaluate(config_path, run, capsys) == expected
        assert parsed == [RESULTS]
        assert expected[:2] == (cli.EXIT_OK, "")

    def test_damaged_memo_is_parsed_quietly(self, ws, capsys, monkeypatch):
        config_path, run = ws
        expected = evaluate(config_path, run, capsys)
        path = memo_path(config_path)
        with open(path, "r+b") as fh:
            fh.write(b"X")
        parsed = parsed_files(monkeypatch)
        assert evaluate(config_path, run, capsys) == expected
        assert parsed == [RESULTS]

    def test_unreadable_criteria_still_scores(self, ws, capsys, monkeypatch):
        # The memo's key hashes the criteria; scoring never needed them.
        config_path, run = ws
        expected = evaluate(config_path, run, capsys)
        os.unlink(os.path.join(os.path.dirname(config_path), "criteria.txt"))
        parsed = parsed_files(monkeypatch)
        assert evaluate(config_path, run, capsys) == expected
        assert parsed == [RESULTS]

    def test_results_directory_is_exit_2(self, ws, capsys):
        config_path, run = ws
        path = run / RESULTS
        path.unlink()
        path.mkdir()
        rc, err, _ = evaluate(config_path, run, capsys)
        assert rc == cli.EXIT_CONFIG
        assert err == f"config error: [Errno 21] Is a directory: '{path}'\n"


def test_unlabeled_review_gets_no_score(tmp_path, capsys, stub):
    dataset = ReviewDataset("HALF", [
        r if i % 3 else dataclasses.replace(r, gold_label=None)
        for i, r in enumerate(synth.synth_review("HALF", 60, 15, k=3, seed=4).records)
    ])
    config_path = single_review_workspace(str(tmp_path / "ws"), dataset)
    chat = stub.url("/v1/chat/completions")
    edit_config(config_path, lambda raw: raw.update(
        provider={"kind": "http"}, stage1={"model": "m1", "url": chat},
        stage2={"model": "m2", "url": chat}))
    run = tmp_path / "run"
    assert screen(config_path, run) == cli.EXIT_OK
    path = memo_path(config_path)
    facts = memo_facts(path)
    assert facts["records"] == len(dataset)
    assert "score" not in facts
    rc, err, _ = evaluate(config_path, run, capsys)
    assert rc == cli.EXIT_EVALUATION
    assert "gold labels missing" in err
