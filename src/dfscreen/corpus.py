"""Study records, dataset loading, and curation.

A screening corpus is a list of title/abstract records, optionally tagged
with a gold label for benchmarking.  Curation mirrors what a human
librarian would do before screening: drop rows with no usable title or
abstract, then collapse duplicates.
"""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass, field

from .jsonl import from_row, read_jsonl, write_jsonl

INCLUDE = "include"
EXCLUDE = "exclude"
LABELS = (INCLUDE, EXCLUDE)


class DatasetError(ValueError):
    """Raised when an input file cannot be interpreted as a corpus."""


@dataclass(frozen=True)
class StudyRecord:
    """One candidate study: identifier, title, abstract, optional gold label."""

    id: str
    title: str
    abstract: str
    gold_label: str | None = None
    review_id: str | None = None

    def __post_init__(self):
        if self.gold_label is not None and self.gold_label not in LABELS:
            raise DatasetError(
                f"record {self.id!r}: gold_label must be one of {LABELS}, "
                f"got {self.gold_label!r}"
            )

    @property
    def text(self) -> str:
        """The text that gets embedded and shown to the model."""
        return f"{self.title}\n{self.abstract}"


@dataclass
class ReviewDataset:
    """Records belonging to a single review, in input order."""

    review_id: str
    records: list[StudyRecord] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.records)

    def by_id(self) -> dict[str, StudyRecord]:
        return {r.id: r for r in self.records}

    def include_count(self) -> int:
        return sum(1 for r in self.records if r.gold_label == INCLUDE)


@dataclass(frozen=True)
class CurationReport:
    """Accounting of what curation removed."""

    review_id: str
    retrieved: int
    curated: int
    removed_missing: int
    removed_duplicate: int

    def __post_init__(self):
        if self.curated != self.retrieved - self.removed_missing - self.removed_duplicate:
            raise ValueError(
                f"curation counts do not add up for {self.review_id}: "
                f"{self.retrieved} - {self.removed_missing} - "
                f"{self.removed_duplicate} != {self.curated}"
            )


_WS = re.compile(r"\s+")


def _title_key(title: str) -> str:
    """Case- and whitespace-insensitive form of a title for duplicate checks."""
    return _WS.sub(" ", title.strip()).casefold()


def curate(dataset: ReviewDataset) -> tuple[ReviewDataset, CurationReport]:
    """Drop unusable rows, then deduplicate. First occurrence wins.

    A row is unusable when its title or abstract is empty or whitespace.
    Duplicates are detected first by record id, then by normalized title.
    Order of the survivors is input order.
    """
    usable = []
    removed_missing = 0
    for rec in dataset.records:
        if not rec.title.strip() or not rec.abstract.strip():
            removed_missing += 1
        else:
            usable.append(rec)

    seen_ids: set[str] = set()
    seen_titles: set[str] = set()
    kept = []
    removed_duplicate = 0
    for rec in usable:
        tkey = _title_key(rec.title)
        if rec.id in seen_ids or tkey in seen_titles:
            removed_duplicate += 1
            continue
        seen_ids.add(rec.id)
        seen_titles.add(tkey)
        kept.append(rec)

    report = CurationReport(
        review_id=dataset.review_id,
        retrieved=len(dataset.records),
        curated=len(kept),
        removed_missing=removed_missing,
        removed_duplicate=removed_duplicate,
    )
    return ReviewDataset(dataset.review_id, kept), report


_REQUIRED_FIELDS = ("id", "title", "abstract")


def _record_from_mapping(m: dict, review_id: str) -> StudyRecord:
    for k in _REQUIRED_FIELDS:
        if k not in m:
            raise DatasetError(f"missing field {k!r}")
    gold = m.get("gold_label")
    if gold is not None:
        gold = str(gold).strip().lower()
        if gold == "":
            gold = None
    return from_row(StudyRecord, {
        "id": str(m["id"]),
        "title": str(m["title"]),
        "abstract": str(m["abstract"]),
        "gold_label": gold,
        "review_id": review_id,
    })


def load_dataset_jsonl(path: str, review_id: str) -> ReviewDataset:
    """Load records from JSON lines, one object per line."""
    records = read_jsonl(
        path, lambda row: _record_from_mapping(row, review_id), DatasetError, "bad record row"
    )
    return ReviewDataset(review_id, records)


def load_dataset_csv(path: str, review_id: str) -> ReviewDataset:
    """Load records from CSV with a header row."""
    records = []
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise DatasetError(f"{path}: empty file") from None
            if len(set(header)) != len(header):
                raise DatasetError(f"{path}: duplicate column names in header")
            for k in _REQUIRED_FIELDS:
                if k not in header:
                    raise DatasetError(f"{path}: missing column {k!r}")
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != len(header):
                    raise DatasetError(
                        f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}"
                    )
                try:
                    records.append(_record_from_mapping(dict(zip(header, row)), review_id))
                except DatasetError as exc:
                    raise DatasetError(f"{path}:{lineno}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise DatasetError(f"{path} is not UTF-8: {exc}") from None
    return ReviewDataset(review_id, records)


def load_dataset(path: str, review_id: str) -> ReviewDataset:
    """Dispatch on file extension: .jsonl/.ndjson or .csv."""
    lower = path.lower()
    if lower.endswith((".jsonl", ".ndjson")):
        return load_dataset_jsonl(path, review_id)
    if lower.endswith(".csv"):
        return load_dataset_csv(path, review_id)
    raise DatasetError(f"{path}: unsupported extension (use .jsonl, .ndjson, or .csv)")


def _record_row(rec: StudyRecord) -> dict:
    row = {"id": rec.id, "title": rec.title, "abstract": rec.abstract}
    if rec.gold_label is not None:
        row["gold_label"] = rec.gold_label
    return row


def write_dataset_jsonl(dataset: ReviewDataset, path: str) -> None:
    write_jsonl(path, map(_record_row, dataset.records))
