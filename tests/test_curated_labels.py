"""The curated artifact's seal carries each record's gold label.

``ReviewPipeline.gold`` reads the ``labels`` fact, so a command that only
scores (``evaluate``) parses no curated record.  A curated artifact sealed
without the fact, as caches written before it hold, is a miss: it is
reported once, curated again and rewritten with it.
"""

from __future__ import annotations

import os
import shutil

import pytest

from dfscreen import cli, corpus, synth
from dfscreen.cache import ArtifactCache

from test_cli import single_review_workspace, slurp

DATASET = synth.synth_review("LABELS", 40, 10, k=3, seed=6)
REPORTS = ("report.csv", "report.json")


@pytest.fixture(scope="module")
def warm(tmp_path_factory):
    """(workspace, cold screen's output with its evaluate reports)."""
    root = tmp_path_factory.mktemp("labels")
    config_path = single_review_workspace(str(root / "ws"), DATASET)
    out = root / "cold"
    assert cli.main(["screen", "--config", config_path, "--out", str(out)]) == cli.EXIT_OK
    assert cli.main(["evaluate", "--config", config_path, "--results", str(out)]) == cli.EXIT_OK
    return root / "ws", out


def curated_key(ws):
    (name,) = [n for n in os.listdir(ws / "cache") if n.startswith("curate-")]
    return name


def test_labels_fact_equals_the_records_labels(warm):
    ws, _ = warm
    cache = ArtifactCache(str(ws / "cache"))
    key = curated_key(ws)
    body, facts = cache.read_text(key, with_facts=True)
    records = corpus.load_dataset_jsonl(cache.path(key), "LABELS", body).records
    assert set(facts) == {"labels"}
    assert facts["labels"] == {r.id: r.gold_label for r in records}
    assert len(records) == len(DATASET.records)
    pipe = cli.ReviewPipeline(cli.PipelineConfig.load(str(ws / "config.json")), "LABELS", cache)
    assert pipe.gold() == facts["labels"]


def test_record_without_a_label_is_null_in_the_fact(tmp_path):
    records = [r if i % 3 else corpus.StudyRecord(r.id, r.title, r.abstract)
               for i, r in enumerate(DATASET.records)]
    config_path = single_review_workspace(str(tmp_path / "ws"),
                                          corpus.ReviewDataset("LABELS", records))
    assert cli.main(["project", "--config", config_path]) == cli.EXIT_OK
    cache = ArtifactCache(str(tmp_path / "ws" / "cache"))
    _, facts = cache.read_text(curated_key(tmp_path / "ws"), with_facts=True)
    assert facts["labels"] == {r.id: r.gold_label for r in records}
    assert sum(v is None for v in facts["labels"].values()) == len(records[::3])


def test_curated_artifact_sealed_without_labels_is_rebuilt_once(warm, tmp_path, capsys):
    clean_ws, cold = warm
    ws = tmp_path / "ws"
    shutil.copytree(clean_ws, ws)
    cache = ArtifactCache(str(ws / "cache"))
    key = curated_key(ws)
    sealed = slurp(cache.path(key))
    # As an older cache holds it: the same body, sealed with no facts.
    cache.write_text(key, cache.read_text(key))
    assert slurp(cache.path(key)) != sealed
    out = tmp_path / "run"
    shutil.copytree(cold, out)
    for name in REPORTS:
        os.unlink(out / name)
    argv = ["evaluate", "--config", str(ws / "config.json"), "--results", str(out)]
    capsys.readouterr()
    assert cli.main(argv) == cli.EXIT_OK
    assert capsys.readouterr().err == (
        f"artifact {cache.path(key)}: sealed without labels; building it again\n")
    assert slurp(cache.path(key)) == sealed
    assert [slurp(out / name) for name in REPORTS] == [slurp(cold / name) for name in REPORTS]
    assert cli.main(argv) == cli.EXIT_OK
    assert capsys.readouterr().err == ""
    assert [slurp(out / name) for name in REPORTS] == [slurp(cold / name) for name in REPORTS]
