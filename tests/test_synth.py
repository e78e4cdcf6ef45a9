from __future__ import annotations

import hashlib
import json
import os

import pytest

from dfscreen import synth
from dfscreen.corpus import EXCLUDE, INCLUDE, ReviewDataset, StudyRecord, curate, load_dataset
from dfscreen.rng import derive_rng


def reference_texts(rng, n, k):
    """Titles and abstracts drawn one ``random``/``randrange`` call at a time.

    The per-draw loop ``synth_review`` used before it drew its records as
    one array; the block draw must give exactly these texts.
    """
    titles, abstracts = [], []
    for i in range(n):
        topic = rng.randrange(k)
        stem = synth._TOPIC_STEMS[topic % len(synth._TOPIC_STEMS)]
        vocab = [stem + s for s in synth._SUFFIXES]
        common = synth._COMMON_WORDS
        title_words = [vocab[rng.randrange(len(vocab))] for _ in range(4)]
        title_words += [common[rng.randrange(len(common))] for _ in range(2)]
        titles.append(" ".join(title_words + [f"cohort{i}"]).capitalize())
        body = []
        for _ in range(30):
            src = vocab if rng.random() < 0.7 else common
            body.append(src[rng.randrange(len(src))])
        abstracts.append(" ".join(body).capitalize() + ".")
    return titles, abstracts


def reference_review(review_id, n, n_includes, k=4, seed=0):
    if n_includes > n:
        raise ValueError(f"cannot place {n_includes} includes in {n} records")
    rng = derive_rng(seed, "review", review_id)
    include_at = set(rng.sample_indices(n, n_includes))
    titles, abstracts = reference_texts(rng, n, k)
    return ReviewDataset(review_id, [
        StudyRecord(
            id=f"{review_id}-{i:05d}",
            title=title,
            abstract=abstract,
            gold_label=INCLUDE if i in include_at else EXCLUDE,
        )
        for i, (title, abstract) in enumerate(zip(titles, abstracts))
    ])


class TestSynthReview:
    def test_counts_and_labels(self):
        ds = synth.synth_review("R", 50, 12, k=4, seed=1)
        assert len(ds) == 50
        assert ds.include_count() == 12

    def test_ids_and_titles_unique(self):
        ds = synth.synth_review("R", 200, 40, k=5, seed=2)
        ids = [r.id for r in ds.records]
        assert len(set(ids)) == len(ids)
        titles = [r.title.casefold() for r in ds.records]
        assert len(set(titles)) == len(titles)

    def test_deterministic(self):
        a = synth.synth_review("R", 30, 5, seed=9)
        b = synth.synth_review("R", 30, 5, seed=9)
        assert a.records == b.records

    def test_seed_matters(self):
        a = synth.synth_review("R", 30, 5, seed=1)
        b = synth.synth_review("R", 30, 5, seed=2)
        assert a.records != b.records

    def test_curation_is_a_no_op_on_clean_data(self):
        ds = synth.synth_review("R", 80, 20, seed=3)
        curated, report = curate(ds)
        assert report.removed_missing == 0
        assert report.removed_duplicate == 0
        assert curated.records == ds.records

    def test_too_many_includes_rejected(self):
        with pytest.raises(ValueError, match="cannot place"):
            synth.synth_review("R", 5, 6)


class TestMatchesPerDrawReference:
    @pytest.mark.parametrize(
        "shape", synth.BENCHMARK_REVIEWS, ids=lambda s: s.review_id
    )
    @pytest.mark.parametrize("seed", [0, 7])
    def test_benchmark_shapes(self, shape, seed):
        args = (shape.review_id, shape.curated, shape.curated_includes)
        assert synth.synth_review(*args, k=shape.k, seed=seed).records == (
            reference_review(*args, k=shape.k, seed=seed).records
        )

    def test_fullscale_shape(self):
        args = ("FULLSCALE", 9515, 1052)
        assert synth.synth_review(*args, k=10, seed=6).records == (
            reference_review(*args, k=10, seed=6).records
        )

    @pytest.mark.parametrize(
        "n, n_includes, k",
        [(0, 0, 4), (0, 0, 0), (25, 5, 1), (60, 9, 12), (30, 0, 3), (30, 30, 3)],
        ids=["n=0", "n=0,k=0", "k=1", "k=12", "no includes", "all includes"],
    )
    def test_edge_cases(self, n, n_includes, k):
        got = synth.synth_review("EDGE", n, n_includes, k=k, seed=5)
        assert got.records == reference_review("EDGE", n, n_includes, k=k, seed=5).records
        assert len(got) == n and got.include_count() == n_includes

    def test_no_topics_rejected(self):
        with pytest.raises(ValueError):
            reference_review("EDGE", 3, 1, k=0)
        with pytest.raises(ValueError):
            synth.synth_review("EDGE", 3, 1, k=0)


class TestRawReviews:
    @pytest.mark.parametrize(
        "shape", synth.BENCHMARK_REVIEWS, ids=lambda s: s.review_id
    )
    def test_curation_lands_on_registry_counts(self, shape):
        raw = synth.synth_raw_review(shape, seed=0)
        assert len(raw) == shape.retrieved
        assert raw.include_count() == shape.retrieved_includes
        curated, report = curate(raw)
        assert report.retrieved == shape.retrieved
        assert report.curated == shape.curated
        assert len(curated) == shape.curated
        assert curated.include_count() == shape.curated_includes
        assert report.removed_missing + report.removed_duplicate == (
            shape.retrieved - shape.curated
        )

    def test_curated_survivors_are_the_core(self):
        shape = synth.BENCHMARK_REVIEWS[0]
        core = synth.synth_review(
            shape.review_id, shape.curated, shape.curated_includes, k=shape.k, seed=0
        )
        raw = synth.synth_raw_review(shape, seed=0)
        curated, _ = curate(raw)
        assert [r.id for r in curated.records] == [r.id for r in core.records]

    def test_registry_shapes_are_internally_consistent(self):
        for shape in synth.BENCHMARK_REVIEWS:
            assert shape.curated <= shape.retrieved
            assert shape.curated_includes <= shape.retrieved_includes
            assert 3 <= shape.k <= 10
        assert len({s.review_id for s in synth.BENCHMARK_REVIEWS}) == 10
        assert synth.K_OVERRIDES["CD011431"] == 5


# sha256 of every file write_workspace writes, taken from the per-draw
# generator before it drew records as one array.
WORKSPACE_SHA256 = {
    0: {
        "config.json":
            "23ec89ebdac421b058fa66792c76dfd6b7a53fc2ec3abc1b6c1c13603f542f93",
        "data/CD004414_criteria.txt":
            "74daf1d7de72d91e75bb3940f24bf44c26fcbd7f4e2ac906e986bf82be239919",
        "data/CD004414_raw.jsonl":
            "be9ed6ebc935ac232f1d1f3df140dc6a0c97de9ddb5099fe97ef47e335b867aa",
        "data/CD010772_criteria.txt":
            "6ac581bbf7c54b281787140660ba8e1d15faa501480a2dd258048fb67138164e",
        "data/CD010772_raw.jsonl":
            "9553f1f9773c2ec9cad210fc4231602d1f9fd0ca872b82890e2ce0dca768acf6",
        "data/CD011420_criteria.txt":
            "4dd9f29613c3cf2dc78aa769462d8bc983c950d05ecf1acc752d1312a01e5f1a",
        "data/CD011420_raw.jsonl":
            "193d3b1d8144abf25d43d16021898b8bb983d5c1f49a11b70e6b1263151e532c",
        "data/CD011431_criteria.txt":
            "4432a4031ebb6d7063489910a861b749fe8107e57d510139f7b393cf16178691",
        "data/CD011431_raw.jsonl":
            "88731c39c702f7e089bcff653a870c197de758f45c42cdf45af6fcf7367e243a",
        "data/CD011977_criteria.txt":
            "2a4ee3825e290f856cf1d8de3c163f48902675142562c50d96980ff2e13f603f",
        "data/CD011977_raw.jsonl":
            "1a1a621cb8c0fd5dd1051e11d40566c2b854be176ac47c35d502af63895fa9d5",
        "data/CD012069_criteria.txt":
            "35c48fb28737188c8c696632131e00c206fba376b0db722a063ae90e92431378",
        "data/CD012069_raw.jsonl":
            "12ca7cc9c9dc6fc8c92b9b3b531458c88384d78d5a1b3bca78ced28e40308cd4",
        "data/CD012233_criteria.txt":
            "70931718c077198ca081b3e5ba3abe2f623a6438d68ac70b907d12785b9d6261",
        "data/CD012233_raw.jsonl":
            "bc34b5eeae05068cf497bf6c7824242d7cd720cee4b0bb17c128747cb010a070",
        "data/CD012551_criteria.txt":
            "3192408248fe6a3e8597b88387b9746e26414943bb1a9600dbbfa8b93fdd2ccc",
        "data/CD012551_raw.jsonl":
            "20769466d906244d6832ae11f043e7b1b0a027ace9734b36099abfad1afbb5b1",
        "data/CD012661_criteria.txt":
            "30625be40b90f8aa9a2c64654f156845011918e64ff8c92c94633abe0832a73a",
        "data/CD012661_raw.jsonl":
            "06fe9432593d46020efc4804d0073b66ccb54cfce4b8fa50f145f167b0ea6f6f",
        "data/CD012768_criteria.txt":
            "4000969181cf6730cb705372855fdd31915ef086b7647c7350d7cf2ea9891b3d",
        "data/CD012768_raw.jsonl":
            "a810de46d5298d4c2380a174eb12a5dafdc88fb2406f5ebc295e215b78a313d0",
    },
    7: {
        "config.json":
            "ad63873fcbf70def422a5222f23b8bd7762b15174af82ed4cc6c9e5bed0f773e",
        "data/CD004414_criteria.txt":
            "74daf1d7de72d91e75bb3940f24bf44c26fcbd7f4e2ac906e986bf82be239919",
        "data/CD004414_raw.jsonl":
            "472df66ec8e2159a044bd9242adf80477076c5b006c9d4791dafaf24934dd85e",
        "data/CD010772_criteria.txt":
            "6ac581bbf7c54b281787140660ba8e1d15faa501480a2dd258048fb67138164e",
        "data/CD010772_raw.jsonl":
            "685d7728d801e1ac6beb80d4ecd0ea6d4d635313d385aa567766455b0f16f5c8",
        "data/CD011420_criteria.txt":
            "4dd9f29613c3cf2dc78aa769462d8bc983c950d05ecf1acc752d1312a01e5f1a",
        "data/CD011420_raw.jsonl":
            "8cb92b09db1e6cc57a32030b7a60d905be17d942b66abc413f009607a07a81d7",
        "data/CD011431_criteria.txt":
            "4432a4031ebb6d7063489910a861b749fe8107e57d510139f7b393cf16178691",
        "data/CD011431_raw.jsonl":
            "6334447c60aa712069015a2f43208b7a97500a1ae4e9eaa6a35b1a55346b036a",
        "data/CD011977_criteria.txt":
            "2a4ee3825e290f856cf1d8de3c163f48902675142562c50d96980ff2e13f603f",
        "data/CD011977_raw.jsonl":
            "1da12f8cef4f266b7b22fbe06c3be3dcc0a9fddf1fd0a5651c0e3102874b8c10",
        "data/CD012069_criteria.txt":
            "35c48fb28737188c8c696632131e00c206fba376b0db722a063ae90e92431378",
        "data/CD012069_raw.jsonl":
            "802ceafc1dd98aa30b854441f304cfebbc6be6ed1d822d03c122402f9736a792",
        "data/CD012233_criteria.txt":
            "70931718c077198ca081b3e5ba3abe2f623a6438d68ac70b907d12785b9d6261",
        "data/CD012233_raw.jsonl":
            "efc4559e1a7c896db0f455e6ad284f08d0f6ddd7a60cbd9a33c1393a131062e4",
        "data/CD012551_criteria.txt":
            "3192408248fe6a3e8597b88387b9746e26414943bb1a9600dbbfa8b93fdd2ccc",
        "data/CD012551_raw.jsonl":
            "856b8d18aa7aede55edc3b52b76f27cb654dbb79c5125d9e7f9d1ef5cc531131",
        "data/CD012661_criteria.txt":
            "30625be40b90f8aa9a2c64654f156845011918e64ff8c92c94633abe0832a73a",
        "data/CD012661_raw.jsonl":
            "128b298d082acddbfbf6addb1c14cfc406dc7e406d01042e6c3411723ae8dd78",
        "data/CD012768_criteria.txt":
            "4000969181cf6730cb705372855fdd31915ef086b7647c7350d7cf2ea9891b3d",
        "data/CD012768_raw.jsonl":
            "2bbb00570aec238abdd96242f7d9a8de2eb7986ac06ba121149faa540e35b92d",
    },
}


class TestWorkspace:
    @pytest.mark.parametrize("seed", sorted(WORKSPACE_SHA256))
    def test_files_keep_their_bytes(self, tmp_path, seed):
        synth.write_workspace(str(tmp_path), seed=seed)
        written = {}
        for root, _, names in os.walk(tmp_path):
            for name in names:
                path = os.path.join(root, name)
                with open(path, "rb") as fh:
                    digest = hashlib.sha256(fh.read()).hexdigest()
                written[os.path.relpath(path, tmp_path).replace(os.sep, "/")] = digest
        assert written == WORKSPACE_SHA256[seed]

    def test_workspace_is_loadable(self, tmp_path):
        out = tmp_path / "ws"
        config_path = synth.write_workspace(str(out), seed=0)
        with open(config_path) as fh:
            config = json.load(fh)
        assert set(config["reviews"]) == {s.review_id for s in synth.BENCHMARK_REVIEWS}
        assert config["strategy"] == "dfsl"
        assert config["threshold"] == 0.9
        # Paths are stored relative to the config file.
        small = min(synth.BENCHMARK_REVIEWS, key=lambda s: s.retrieved)
        entry = config["reviews"][small.review_id]
        assert not entry["dataset"].startswith("/")
        ds = load_dataset(str(out / entry["dataset"]), review_id=small.review_id)
        assert len(ds) == small.retrieved
        criteria = (out / entry["criteria"]).read_text()
        assert "Include" in criteria and "Exclude" in criteria

    def test_cli_entry_point(self, tmp_path, capsys):
        rc = synth.main([str(tmp_path / "demo"), "--seed", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "config.json" in out

    def test_criteria_mentions_both_verdicts(self):
        text = synth.synth_criteria("CD000001")
        assert text.splitlines()[0].startswith("Include")
        assert "Exclude" in text


def test_include_marker_consistency():
    ds = synth.synth_review("R", 40, 10, seed=4)
    flagged = [r for r in ds.records if r.gold_label == INCLUDE]
    assert len(flagged) == 10
