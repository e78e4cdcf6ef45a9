from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dfscreen.corpus import (
    EXCLUDE,
    INCLUDE,
    CurationReport,
    DatasetError,
    ReviewDataset,
    StudyRecord,
    curate,
    load_dataset,
    load_dataset_csv,
    load_dataset_jsonl,
    write_dataset_jsonl,
)


def rec(i, title="Some title", abstract="Some abstract", label=None):
    return StudyRecord(
        id=f"r{i}", title=title, abstract=abstract, gold_label=label
    )


class TestStudyRecord:
    def test_text_joins_title_and_abstract(self):
        r = rec(1, "T", "A")
        assert r.text == "T\nA"

    def test_rejects_unknown_label(self):
        with pytest.raises(DatasetError):
            StudyRecord(id="x", title="t", abstract="a", gold_label="maybe")

    def test_accepts_both_labels(self):
        assert rec(1, label=INCLUDE).gold_label == "include"
        assert rec(2, label=EXCLUDE).gold_label == "exclude"


class TestCurate:
    def test_removes_blank_title_and_abstract(self):
        ds = ReviewDataset(
            "R",
            [
                rec(1),
                rec(2, title="   "),
                rec(3, abstract=""),
                rec(4, abstract="\t\n"),
            ],
        )
        curated, report = curate(ds)
        assert [r.id for r in curated.records] == ["r1"]
        assert report.removed_missing == 3
        assert report.removed_duplicate == 0

    def test_removes_duplicate_ids_first_wins(self):
        first = StudyRecord(id="x", title="Alpha", abstract="a1")
        second = StudyRecord(id="x", title="Beta", abstract="a2")
        curated, report = curate(ReviewDataset("R", [first, second]))
        assert curated.records == [first]
        assert report.removed_duplicate == 1

    def test_removes_title_duplicates_case_and_spacing(self):
        a = StudyRecord(id="a", title="Deep Learning For Screening", abstract="x")
        b = StudyRecord(id="b", title="  deep   learning for screening ", abstract="y")
        curated, report = curate(ReviewDataset("R", [a, b]))
        assert curated.records == [a]
        assert report.removed_duplicate == 1

    def test_different_titles_kept(self):
        a = StudyRecord(id="a", title="Alpha study", abstract="x")
        b = StudyRecord(id="b", title="Beta study", abstract="y")
        curated, _ = curate(ReviewDataset("R", [a, b]))
        assert len(curated) == 2

    def test_missing_filter_runs_before_dedup(self):
        # Two blank-abstract rows with identical titles: both count as
        # missing, neither as duplicate.
        a = StudyRecord(id="a", title="Same", abstract="")
        b = StudyRecord(id="b", title="Same", abstract="")
        _, report = curate(ReviewDataset("R", [a, b]))
        assert report.removed_missing == 2
        assert report.removed_duplicate == 0

    def test_order_preserved(self):
        ds = ReviewDataset(
            "R", [rec(3, title="Gamma"), rec(1, title="Alpha"), rec(2, title="Beta")]
        )
        curated, _ = curate(ds)
        assert [r.id for r in curated.records] == ["r3", "r1", "r2"]

    def test_idempotent(self):
        ds = ReviewDataset("R", [rec(1), rec(2), rec(1)])
        once, _ = curate(ds)
        twice, report = curate(once)
        assert twice.records == once.records
        assert report.removed_missing == 0
        assert report.removed_duplicate == 0


class TestCurationReport:
    def test_identity_enforced(self):
        with pytest.raises(ValueError):
            CurationReport("R", retrieved=10, curated=5, removed_missing=2, removed_duplicate=2)

    @given(st.lists(st.tuples(st.integers(0, 20), st.booleans(), st.booleans()), max_size=40))
    def test_identity_on_random_fixtures(self, spec):
        # Build a dataset from (id modulo pool, blank?, duplicate-title?) triples
        # and check the report always balances.
        records = []
        for idx, (id_mod, blank, dup_title) in enumerate(spec):
            title = "Shared title" if dup_title else f"Title {idx} unique"
            records.append(
                StudyRecord(
                    id=f"id{id_mod}",
                    title="" if blank else title,
                    abstract="body",
                )
            )
        ds = ReviewDataset("R", records)
        curated, report = curate(ds)
        assert report.retrieved == len(records)
        assert report.curated == len(curated)
        assert (
            report.curated
            == report.retrieved - report.removed_missing - report.removed_duplicate
        )


class TestLoading:
    def test_jsonl_round_trip(self, tmp_path):
        ds = ReviewDataset("R", [rec(1, label=INCLUDE), rec(2)])
        path = str(tmp_path / "d.jsonl")
        write_dataset_jsonl(ds, path)
        loaded = load_dataset(path, "R")
        assert [r.id for r in loaded.records] == ["r1", "r2"]
        assert loaded.records[0].gold_label == INCLUDE
        assert loaded.records[1].gold_label is None

    def test_jsonl_missing_field_names_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "a", "title": "t", "abstract": "x"}\n{"id": "b", "title": "t2"}\n')
        with pytest.raises(DatasetError, match="bad.jsonl:2"):
            load_dataset_jsonl(str(path), "R")

    def test_jsonl_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "dup.jsonl"
        path.write_text('{"id": "a", "id": "b", "title": "t", "abstract": "x"}\n')
        with pytest.raises(DatasetError, match="duplicate key"):
            load_dataset_jsonl(str(path), "R")

    def test_jsonl_bad_json_names_line(self, tmp_path):
        path = tmp_path / "broken.jsonl"
        path.write_text('{"id": "a", "title": "t", "abstract": "x"}\nnot json\n')
        with pytest.raises(DatasetError, match="broken.jsonl:2"):
            load_dataset_jsonl(str(path), "R")

    def test_jsonl_skips_blank_lines(self, tmp_path):
        path = tmp_path / "gaps.jsonl"
        path.write_text('{"id": "a", "title": "t", "abstract": "x"}\n\n\n')
        assert len(load_dataset_jsonl(str(path), "R")) == 1

    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("id,title,abstract,gold_label\n1,T1,A1,include\n2,T2,A2,\n")
        loaded = load_dataset_csv(str(path), "R")
        assert loaded.records[0].gold_label == INCLUDE
        assert loaded.records[1].gold_label is None

    def test_csv_with_a_bom_loads_as_without(self, tmp_path):
        # Spreadsheet "CSV UTF-8" exports start the file with a BOM.
        text = "id,title,abstract,gold_label\n1,T1,A1,include\n2,T2,A2,exclude\n"
        plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
        plain.write_text(text, encoding="utf-8")
        bom.write_text(text, encoding="utf-8-sig")
        assert bom.read_bytes().startswith(b"\xef\xbb\xbf")
        assert load_dataset_csv(str(bom), "R") == load_dataset_csv(str(plain), "R")

    def test_csv_duplicate_header_rejected(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("id,title,title,abstract\n1,T,T,A\n")
        with pytest.raises(DatasetError, match="duplicate column"):
            load_dataset_csv(str(path), "R")

    def test_csv_ragged_row_names_line(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("id,title,abstract\n1,T1,A1\n2,T2\n")
        with pytest.raises(DatasetError, match="ragged.csv:3"):
            load_dataset_csv(str(path), "R")

    @pytest.mark.parametrize("head", ["", "id,title,abstract\n1,T1,A1\n"])
    def test_csv_open_quote_past_the_field_limit_names_line(self, tmp_path, head):
        # An unmatched quote makes the rest of the file one field, past csv's limit.
        path = tmp_path / "quote.csv"
        path.write_text(head + 'id,"title,abstract\n' + "x" * (1 << 17) + "\n")
        line = head.count("\n") + 2
        with pytest.raises(DatasetError, match=f"quote.csv:{line}: field larger than"):
            load_dataset_csv(str(path), "R")

    def test_unknown_extension(self, tmp_path):
        path = tmp_path / "d.xlsx"
        path.write_text("whatever")
        with pytest.raises(DatasetError, match="unsupported extension"):
            load_dataset(str(path), "R")
