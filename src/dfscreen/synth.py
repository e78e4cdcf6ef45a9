"""Synthetic screening corpora for benchmarks, demos, and tests.

Generates topic-structured title/abstract records (so hashed-TF
embeddings actually cluster), plus "raw" variants salted with unusable
and duplicate rows in known quantities for exercising curation.  A
small registry of benchmark review shapes drives both.

Run as a module to materialize a full demo workspace:

    python -m dfscreen.synth OUT_DIR [--seed N]
"""

from __future__ import annotations

import argparse
import json
import os
from dataclasses import dataclass

from .corpus import EXCLUDE, INCLUDE, ReviewDataset, StudyRecord, write_dataset_jsonl
from .rng import SplitMix64, derive_rng


@dataclass(frozen=True)
class ReviewShape:
    """Row/label counts a synthetic review should land on."""

    review_id: str
    stage: str
    retrieved: int
    retrieved_includes: int
    curated: int
    curated_includes: int
    k: int


BENCHMARK_REVIEWS = [
    ReviewShape("CD012233", "diagnosis", 472, 43, 429, 38, 5),
    ReviewShape("CD012768", "diagnosis", 131, 45, 119, 43, 3),
    ReviewShape("CD011977", "diagnosis", 1182, 297, 1117, 280, 8),
    ReviewShape("CD012069", "diagnosis", 251, 42, 247, 41, 4),
    ReviewShape("CD012551", "diagnosis", 316, 47, 307, 46, 4),
    ReviewShape("CD004414", "intervention", 195, 49, 192, 49, 3),
    ReviewShape("CD012661", "intervention", 3479, 320, 2897, 282, 10),
    ReviewShape("CD011431", "intervention", 591, 68, 546, 65, 5),
    ReviewShape("CD011420", "intervention", 336, 16, 303, 16, 4),
    ReviewShape("CD010772", "prognosis", 3367, 192, 3343, 192, 10),
]

K_OVERRIDES = {shape.review_id: shape.k for shape in BENCHMARK_REVIEWS}

_TOPIC_STEMS = [
    "cardiac",
    "oncologic",
    "neural",
    "renal",
    "hepatic",
    "pulmonary",
    "vascular",
    "immune",
    "metabolic",
    "skeletal",
]

_COMMON_WORDS = [
    "patients",
    "study",
    "clinical",
    "outcomes",
    "treatment",
    "analysis",
    "randomized",
    "cohort",
    "baseline",
    "followup",
    "risk",
    "assessment",
]

_SUFFIXES = ["", "itis", "oma", "pathy", "plasty", "gram", "scope", "cyte"]


# One table of every word a record can hold: each stem's suffixed words in
# stem order, then the common words.
_WORDS = [stem + suffix for stem in _TOPIC_STEMS for suffix in _SUFFIXES] + _COMMON_WORDS

# Random draws per record: a topic, 4 topic words, 2 common words, then 30
# pairs of a coin (topic or common vocabulary) and a word from that vocabulary.
_DRAWS = 67


def _texts(rng: SplitMix64, n: int, k: int) -> tuple[list[str], list[str]]:
    """Titles and abstracts of ``n`` records over ``k`` topics.

    The texts are those of drawing each record in turn: ``randrange(k)``
    for the topic, ``randrange`` over the topic's suffixed words 4 times
    and over the common words twice for the title, then 30 times a coin
    ``random() < 0.7`` choosing the topic's words over the common words
    and a ``randrange`` over the chosen list for the abstract.  All
    ``n * 67`` outputs are drawn as one array.  ``randrange(m)`` rejects
    an output at or above the largest multiple of m below 2**64 and draws
    again at the same place, so a rejected output is dropped from the
    array, the rest move up one place, and one more output is drawn at
    the end.
    """
    if not n:
        return [], []
    if k < 1:
        raise ValueError(f"need at least one topic, got k={k}")
    import numpy as np

    u64 = np.uint64
    n_topic, n_common = len(_SUFFIXES), len(_COMMON_WORDS)

    def rejected(v, m):
        return v > u64((1 << 64) - 1 - (1 << 64) % m)

    draws = rng.next_u64_array(n * _DRAWS)
    while True:
        v = draws.reshape(n, _DRAWS)
        topical = (v[:, 7::2] >> u64(11)).astype(np.float64) * 2.0**-53 < 0.7
        reject = np.zeros(v.shape, dtype=bool)
        reject[:, 0] = rejected(v[:, 0], k)
        reject[:, 1:5] = rejected(v[:, 1:5], n_topic)
        reject[:, 5:7] = rejected(v[:, 5:7], n_common)
        reject[:, 8::2] = np.where(
            topical, rejected(v[:, 8::2], n_topic), rejected(v[:, 8::2], n_common)
        )
        at = np.flatnonzero(reject)
        if not at.size:
            break
        draws = np.concatenate([np.delete(draws, at[0]), rng.next_u64_array(1)])

    stem = (v[:, :1] % u64(k) % u64(len(_TOPIC_STEMS))).astype(np.intp) * n_topic
    in_topic = stem + (v % u64(n_topic)).astype(np.intp)
    in_common = len(_TOPIC_STEMS) * n_topic + (v % u64(n_common)).astype(np.intp)
    index = np.concatenate([
        in_topic[:, 1:5],
        in_common[:, 5:7],
        np.where(topical, in_topic[:, 8::2], in_common[:, 8::2]),
    ], axis=1)
    rows = np.array(_WORDS, dtype=object)[index].tolist()
    titles = [(" ".join(r[:6]) + f" cohort{i}").capitalize() for i, r in enumerate(rows)]
    abstracts = [" ".join(r[6:]).capitalize() + "." for r in rows]
    return titles, abstracts


def synth_review(
    review_id: str,
    n: int,
    n_includes: int,
    k: int = 4,
    seed: int = 0,
) -> ReviewDataset:
    """Fully labeled dataset of ``n`` records spread over ``k`` topics.

    Every title carries a unique marker token, so no two distinct
    records can collide under title deduplication.
    """
    if n_includes > n:
        raise ValueError(f"cannot place {n_includes} includes in {n} records")
    rng = derive_rng(seed, "review", review_id)
    include_at = set(rng.sample_indices(n, n_includes))
    titles, abstracts = _texts(rng, n, k)
    records = [
        StudyRecord(
            id=f"{review_id}-{i:05d}",
            title=title,
            abstract=abstract,
            gold_label=INCLUDE if i in include_at else EXCLUDE,
        )
        for i, (title, abstract) in enumerate(zip(titles, abstracts))
    ]
    return ReviewDataset(review_id, records)


def synth_raw_review(shape: ReviewShape, seed: int = 0) -> ReviewDataset:
    """Raw dataset whose curation lands exactly on ``shape``'s counts.

    Starts from the curated core, then mixes in rows curation must
    remove: half with a blank abstract, half duplicating an earlier row
    (same id, or same title up to case and spacing).  Include labels on
    the junk rows make up the retrieved/curated include gap.
    """
    core = synth_review(
        shape.review_id, shape.curated, shape.curated_includes, k=shape.k, seed=seed
    )
    removed = shape.retrieved - shape.curated
    removed_inc = shape.retrieved_includes - shape.curated_includes
    if removed < 0 or removed_inc < 0 or removed_inc > removed:
        raise ValueError(f"inconsistent shape for {shape.review_id}")
    n_missing = removed // 2
    n_dup = removed - n_missing
    missing_inc = removed_inc // 2
    dup_inc = removed_inc - missing_inc
    if dup_inc > n_dup or missing_inc > n_missing:
        # Tiny removal budgets can't split evenly; shift the labels over.
        dup_inc = min(dup_inc, n_dup)
        missing_inc = removed_inc - dup_inc

    rng = derive_rng(seed, "raw", shape.review_id)
    rows = list(core.records)
    ids = [r.id for r in rows]  # kept in step with rows

    for i in range(n_missing):
        label = INCLUDE if i < missing_inc else EXCLUDE
        rec = StudyRecord(
            id=f"{shape.review_id}-missing-{i:04d}",
            title=f"Unindexed report {i}" if rng.random() < 0.5 else "",
            abstract="",
            gold_label=label,
        )
        at = rng.randrange(len(rows) + 1)
        rows.insert(at, rec)
        ids.insert(at, rec.id)

    core_includes = [r for r in core.records if r.gold_label == INCLUDE]
    core_excludes = [r for r in core.records if r.gold_label == EXCLUDE]
    for i in range(n_dup):
        wants_include = i < dup_inc
        bank = core_includes if wants_include else core_excludes
        src = bank[rng.randrange(len(bank))]
        if i % 2 == 0:
            # Same id again; content may drift, the id alone damns it.
            dup = StudyRecord(
                id=src.id,
                title=src.title,
                abstract=src.abstract + " Duplicate entry.",
                gold_label=src.gold_label,
            )
        else:
            # Fresh id but the title differs only in case and spacing.
            dup = StudyRecord(
                id=f"{shape.review_id}-dup-{i:04d}",
                title="  " + src.title.upper().replace(" ", "  "),
                abstract=src.abstract,
                gold_label=src.gold_label,
            )
        src_pos = ids.index(src.id)
        insert_at = src_pos + 1 + rng.randrange(len(rows) - src_pos)
        rows.insert(insert_at, dup)
        ids.insert(insert_at, dup.id)

    return ReviewDataset(shape.review_id, rows)


def synth_criteria(review_id: str) -> str:
    """Plausible eligibility text; injected verbatim into prompts."""
    return (
        f"Include primary studies reporting original {review_id} cohort data "
        "with extractable outcomes in adult participants.\n"
        "Exclude editorials, conference abstracts, animal studies, case "
        "reports with fewer than 10 participants, and studies without "
        "outcome data."
    )


def write_workspace(out_dir: str, seed: int = 0) -> str:
    """Materialize raw datasets, criteria files, and a pipeline config.

    Returns the config path.  The config carries the per-review cluster
    overrides and screening defaults, ready for the command-line runner.
    """
    os.makedirs(out_dir, exist_ok=True)
    data_dir = os.path.join(out_dir, "data")
    os.makedirs(data_dir, exist_ok=True)
    reviews = {}
    for shape in BENCHMARK_REVIEWS:
        raw = synth_raw_review(shape, seed=seed)
        write_dataset_jsonl(
            raw, os.path.join(data_dir, f"{shape.review_id}_raw.jsonl")
        )
        with open(
            os.path.join(data_dir, f"{shape.review_id}_criteria.txt"),
            "w",
            encoding="utf-8",
        ) as fh:
            fh.write(synth_criteria(shape.review_id) + "\n")
        # Paths are stored relative to the config file so the workspace
        # can move wholesale.
        reviews[shape.review_id] = {
            "dataset": f"data/{shape.review_id}_raw.jsonl",
            "criteria": f"data/{shape.review_id}_criteria.txt",
            "k": shape.k,
        }
    config = {
        "reviews": reviews,
        "embedding": {"kind": "hashed_tf", "dim": 64},
        "projection": "pca",
        "strategy": "dfsl",
        "threshold": 0.9,
        "seed": seed,
        "stage1": {
            "model": "oracle-mini",
            "pricing": {"input_usd_per_mtok": 0.40, "output_usd_per_mtok": 1.60},
        },
        "stage2": {
            "model": "oracle-large",
            "pricing": {"input_usd_per_mtok": 2.00, "output_usd_per_mtok": 8.00},
        },
        "provider": {
            "kind": "oracle",
            "profile": {"acc_hi": 0.95, "acc_lo": 0.75, "p_hi": 0.87},
            "stage2_profile": {"acc_hi": 0.97, "acc_lo": 0.95, "p_hi": 0.95},
        },
        "cache_dir": "cache",
    }
    config_path = os.path.join(out_dir, "config.json")
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(config, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return config_path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Generate a synthetic screening workspace."
    )
    parser.add_argument("out_dir", help="directory to create the workspace in")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    config_path = write_workspace(args.out_dir, seed=args.seed)
    print(f"wrote {config_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
