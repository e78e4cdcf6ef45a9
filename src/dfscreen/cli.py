"""Command-line front end for the screening pipeline.

One JSON config describes an experiment: datasets and criteria per
review, embedding backend, clustering overrides, strategy, threshold,
models and pricing, seed, cache directory.  The stage commands
(``project``, ``cluster``, ``pool``) or the whole cascade (``screen``)
run; intermediates land in a content-addressed cache so reruns only redo
what changed.  The embedding has a key but no artifact: ``project``
embeds the records as its input.  Every command but ``curate`` walks the
reviews in id order with one ReviewPipeline each, which reads each
stage's sealed artifact back, or on a miss (missing, damaged or
unsealed) builds and writes it, and runs each stage once.  The curated
artifact's seal also holds every record's gold label, so a command that
only scores (``evaluate``) parses no record.  ``screen`` memoizes each
review's results at its ``screen_key``, sealed with their facts, and
replays them while the response log still holds the answers they came
from; ``sweep`` runs the same cascade, at its highest threshold, and
uses no memo.  The facts include the results' score counts, so
``evaluate`` scores a results file that is the memo's body from them and
parses only the rows of any other.

Exit codes: 0 success, 2 config error, 3 provider failure,
4 evaluation mismatch.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import json
import math
import os
import shutil
import sys
import typing
from contextlib import closing
from dataclasses import replace
from enum import Enum
from operator import attrgetter

from . import clustering as clustering_mod
from . import corpus, evaluation, triage
from .cache import ArtifactCache, canonical_json, content_key, sha256_hex
from .embedding import EmbeddingClient, EmbeddingError, EmbeddingProviderConfig
from .exemplar_pool import ExemplarPool, PoolError, build_pool
from .gateway import (
    CostLedger,
    HttpChatProvider,
    ModelPricing,
    OracleProfile,
    OracleProvider,
    ProviderError,
    ResponseCache,
    ResponseCacheError,
    estimate_tokens,
)
from .projection import (
    ProjectionError,
    project_2d,
    read_points_jsonl,
    write_points_jsonl,
)
from .prompting import PromptError, Strategy
from .prompting import render  # noqa: F401  (the benchmark's tracer patches cli.render)
from .triage import RunConfig, RunError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PROVIDER = 3
EXIT_EVALUATION = 4

DRY_RUN_COMPLETION_TOKENS = 64  # nominal per-call output allowance
# The stage commands, and the ReviewPipeline method each one runs.
STAGE_METHODS = {"project": "points", "cluster": "clustering", "pool": "pool"}


class ConfigError(ValueError):
    pass


def _file_sha256(path: str, size: float = math.inf, start: int = 0, h=None) -> str | None:
    """sha256 of the file, or of its first ``size`` bytes, read in 64 KiB blocks.

    A prefix's digest is None unless the file holds ``size`` bytes and they
    end a line.  Given ``h``, the sha256 state of the file's first
    ``start`` bytes, which end a line, the bytes after them are hashed on
    into ``h``.
    """
    h = hashlib.sha256() if h is None else h
    left, block = size - start, b"\n"  # an empty prefix ends a line
    with open(path, "rb") as fh:
        fh.seek(start)
        while left and (block := fh.read(min(left, 1 << 16))):
            h.update(block)
            left -= len(block)
    return h.hexdigest() if size == math.inf or not left and block.endswith(b"\n") else None


def _mapping(value, what: str, keys=None) -> dict:
    """``value`` as a JSON object; given ``keys``, one that holds no other key."""
    if not isinstance(value, dict):
        raise ConfigError(f"{what} must be a JSON object, got {value!r}")
    unknown = sorted(set(value).difference(keys)) if keys is not None else ()
    if unknown:
        raise ConfigError(f"{what}: unknown key {unknown[0]!r}")
    return value


def _typed(name: str, value, kind):
    """``value`` as a field annotated ``kind`` holds it.

    An int takes a JSON integer and a float an integer or a real, stored as
    a float; neither takes a bool.  A str takes a string, and ``str | None``
    also null.  An enum takes one of its values.
    """
    if kind in (str, str | None) and not (isinstance(value, str) or value is None and kind != str):
        raise ConfigError(f"{name} must be a string, got {value!r}")
    if kind is int or kind is float:
        if isinstance(value, bool) or not isinstance(value, (int, kind)):
            article = "an integer" if kind is int else "a number"
            raise ConfigError(f"{name} must be {article}, got {value!r}")
        return kind(value)
    return kind(value) if isinstance(kind, type) and issubclass(kind, Enum) else value


def _read(what: str, cls, raw: dict, base=None):
    """A ``cls`` from ``raw``, a mapping of field names to config values.

    Each value is ``_typed`` by its field's annotation; the fields ``raw``
    leaves out keep their value in ``base``, else their default.  The
    TypeError or ValueError of a bad value or name becomes a ConfigError.
    """
    hints = typing.get_type_hints(cls)
    try:
        values = {name: _typed(name, v, hints.get(name)) for name, v in raw.items()}
        return cls(**values) if base is None else replace(base, **values)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{what}: {exc}") from None


# Oracle behaviour per stage when the provider config names none.
ORACLE_PROFILES = {
    "profile": {"acc_hi": 0.95, "acc_lo": 0.75, "p_hi": 0.87},
    "stage2_profile": {"acc_hi": 0.97, "acc_lo": 0.95, "p_hi": 0.95},
}
# The RunConfig fields a config sets, and every top-level key it may hold.
RUN_SETTINGS = ("strategy", "threshold", "seed", "temperature", "parallelism")
CONFIG_KEYS = ("reviews", "embedding", "projection", "stage1", "stage2", "provider",
               "cache_dir", *RUN_SETTINGS)
# The keys each section of a config may hold; STAGE_KEYS is for stage1 and stage2.
REVIEW_KEYS = ("dataset", "criteria", "k")
EMBEDDING_KEYS = ("kind", "model", "url", "path", "dim")
PROJECTION_KEYS = ("method", "path")
STAGE_KEYS = ("model", "pricing", "url", "api_key_env")
PROVIDER_KEYS = ("kind", *ORACLE_PROFILES)


class PipelineConfig:
    """The experiment config file, every value checked at load.

    A bad value raises ConfigError.  ``run`` is the cascade's RunConfig.
    """

    strategy = property(attrgetter("run.strategy"))
    threshold = property(attrgetter("run.threshold"))
    seed = property(attrgetter("run.seed"))
    temperature = property(attrgetter("run.temperature"))
    parallelism = property(attrgetter("run.parallelism"))

    def __init__(self, raw: dict, base_dir: str = "."):
        self.raw = _mapping(raw, "config", CONFIG_KEYS)
        self.base_dir = base_dir
        reviews = raw.get("reviews")
        if not isinstance(reviews, dict) or not reviews:
            raise ConfigError("config needs a nonempty 'reviews' mapping")
        self.reviews: dict[str, dict] = {}
        for rid, entry in reviews.items():
            if not rid or "/" in rid or "\\" in rid:
                raise ConfigError(f"review id {rid!r} must be nonempty and hold no '/' or '\\'")
            _mapping(entry, f"review {rid}", REVIEW_KEYS)
            if "dataset" not in entry or "criteria" not in entry:
                raise ConfigError(f"review {rid}: needs 'dataset' and 'criteria' paths")
            k = None if entry.get("k") is None else _typed(f"review {rid}: k", entry["k"], int)
            if k is not None and not clustering_mod.K_MIN <= k <= clustering_mod.K_MAX:
                raise ConfigError(f"review {rid}: k {k} outside "
                                  f"[{clustering_mod.K_MIN}, {clustering_mod.K_MAX}]")
            self.reviews[rid] = {
                "dataset": self._resolve(entry["dataset"]),
                "criteria": self._resolve(entry["criteria"]),
                "k": k,
            }
        emb = {"kind": "hashed_tf",
               **_mapping(raw.get("embedding", {}), "embedding", EMBEDDING_KEYS)}
        if emb.get("path"):
            emb["path"] = self._resolve(emb["path"])
        self.embedding = _read("embedding", EmbeddingProviderConfig, emb)
        proj = raw.get("projection", "pca")
        if isinstance(proj, str):
            proj = {"method": proj}
        _mapping(proj, "projection", PROJECTION_KEYS)
        if proj.get("method") not in ("pca", "import"):
            raise ConfigError(f"unknown projection method {proj.get('method')!r}")
        if proj["method"] == "import":
            proj = {**proj, "path": self._resolve(proj.get("path"))}
        self.projection = proj
        self.stage1 = self._stage(raw, "stage1", "mini", triage.DEFAULT_STAGE1_PRICING)
        self.stage2 = self._stage(raw, "stage2", "large", triage.DEFAULT_STAGE2_PRICING)
        self.run = _read("config", RunConfig, {
            **{key: raw[key] for key in RUN_SETTINGS if key in raw},
            "stage1_model": self.stage1["model"],
            "stage2_model": self.stage2["model"],
            "stage1_pricing": self.stage1["pricing"],
            "stage2_pricing": self.stage2["pricing"],
        })
        self.provider = _mapping(raw.get("provider", {"kind": "oracle"}), "provider",
                                 PROVIDER_KEYS)
        kind = self.provider.get("kind")
        if kind == "oracle":
            self.profiles = tuple(
                _read(f"provider {key}", OracleProfile,
                      _mapping(self.provider.get(key, default), f"provider {key}"))
                for key, default in ORACLE_PROFILES.items()
            )
        elif kind == "http":
            for key, stage in (("stage1", self.stage1), ("stage2", self.stage2)):
                if not stage["url"]:
                    raise ConfigError(f"http provider needs a url for {key}")
        else:
            raise ConfigError(f"unknown provider kind {kind!r}")
        self.cache_dir = self._resolve(raw.get("cache_dir", "cache"))

    def _resolve(self, path: str) -> str:
        if not isinstance(path, str):
            raise ConfigError(f"expected a path, got {path!r}")
        if os.path.isabs(path):
            return path
        return os.path.normpath(os.path.join(self.base_dir, path))

    @staticmethod
    def _stage(raw: dict, key: str, model: str, pricing: ModelPricing) -> dict:
        entry = _mapping(raw.get(key, {}), key, STAGE_KEYS)
        prices = _mapping(entry.get("pricing", {}), f"{key} pricing")
        return {
            "model": _typed(f"{key} model", entry.get("model", model), str),
            "pricing": _read(f"{key} pricing", ModelPricing, prices, base=pricing),
            "url": _typed(f"{key} url", entry.get("url"), str | None),
            "api_key_env": _typed(f"{key} api_key_env", entry.get("api_key_env"), str | None),
        }

    def config_hash(self) -> str:
        return sha256_hex(canonical_json(self.raw))

    @classmethod
    def load(cls, path: str) -> "PipelineConfig":
        try:
            with open(path, encoding="utf-8") as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from None
        except ValueError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from None
        return cls(raw, base_dir=os.path.dirname(os.path.abspath(path)))


def _once(stage):
    """Run a stage method at most once per pipeline; later calls reuse its result."""

    @functools.wraps(stage)
    def run(self):
        if stage.__name__ not in self._done:
            self._done[stage.__name__] = stage(self)
        return self._done[stage.__name__]

    return run


class ReviewPipeline:
    """Lazy stage runner for one review, backed by the artifact cache.

    Each stage runs at most once per pipeline, through ``_artifact``: it
    reads the stage's artifact back if cached, else builds and writes it.
    Every stage's cache key (``keys``) folds in its parameters and its
    input's key, so a changed dataset, embedding config, or seed
    invalidates exactly the stages downstream of the change.
    """

    def __init__(self, cfg: PipelineConfig, review_id: str, cache: ArtifactCache):
        self.cfg = cfg
        self.review_id = review_id
        self.entry = cfg.reviews[review_id]
        self.cache = cache
        self._done: dict = {}

    @staticmethod
    def _load(path: str, parse):
        """``parse()`` of the artifact at ``path``; a failure is a ConfigError naming it."""
        try:
            return parse()
        except (ValueError, KeyError, TypeError) as exc:
            raise ConfigError(f"unreadable artifact {path}: {exc}") from None

    def _artifact(self, key: str, build, load, write=None):
        """(value, key): the artifact at ``key`` read back, or built and written.

        ``load(path, data)`` loads the checked bytes a hit reads.  A miss
        writes ``write(value, path)`` for a file format, else ``to_json()``
        text.
        """
        path = self.cache.path(key)
        hit = self.cache.read_text(key)
        if hit is not None:
            return self._load(path, lambda: load(path, hit.body)), key
        value = build()
        if write is None:
            self.cache.write_text(key, value.to_json())
        else:
            self.cache.write_atomic(key, lambda path: write(value, path))
        return value, key

    @_once
    def criteria(self) -> str:
        path = self.entry["criteria"]
        try:
            with open(path, encoding="utf-8-sig") as fh:
                return fh.read().strip()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"criteria {path} is not UTF-8: {exc}") from None

    @_once
    def _curated_seal(self) -> dict:
        """``{"hit": the curated artifact}``, read once, its ``labels`` fact unparsed.

        The hit is None on a miss: a missing, damaged or unsealed artifact,
        or one sealed without labels, as caches written before the fact
        hold.  ``curated`` takes the hit out when it parses the body: the
        records then hold the labels.
        """
        key = self._curate_key()
        hit = self.cache.read_text(key)
        if hit is not None and not hit.facts_json.startswith(b'{"labels":'):  # its one fact
            print(f"artifact {self.cache.path(key)}: sealed without labels; building it again",
                  file=sys.stderr)
            hit = None
        return {"hit": hit}

    @_once
    def curated(self):
        """(dataset, curation report, key); the report is None on a cache hit.

        A hit parses the checked bytes block by block, keeping neither
        them nor the labels fact.  A miss curates the raw dataset and
        writes the artifact, sealed with each record's gold label
        (``labels``).  A review that curation leaves without records is a
        ConfigError, and writes no artifact.
        """
        key = self._curate_key()
        hit = self._curated_seal().pop("hit", None)
        if hit is not None:
            path, body = self.cache.path(key), hit.body
            del hit  # and the labels fact's bytes with it, before the records are parsed
            dataset = self._load(
                path, lambda: corpus.load_dataset_jsonl(path, self.review_id, body))
            return dataset, None, key
        dataset, report = corpus.curate(corpus.load_dataset(self.entry["dataset"],
                                                            self.review_id))
        if not dataset.records:
            raise ConfigError(f"review {self.review_id}: no records left after curation")
        self.cache.write_atomic(key, functools.partial(corpus.write_dataset_jsonl, dataset),
                                {"labels": _labels(dataset)})
        return dataset, report, key

    def gold(self, scoring: bool = False) -> dict[str, str | None]:
        """Gold label per curated record id, None where a record has none.

        Before the records are parsed they come from the curated
        artifact's seal, so a command that only scores parses none.
        Commands that score against the labels pass ``scoring``: a missing
        label is then an EvaluationError.
        """
        hit = self._curated_seal().get("hit")
        gold = hit.facts["labels"] if hit is not None else _labels(self.curated()[0])
        if scoring and any(v is None for v in gold.values()):
            raise evaluation.EvaluationError(
                f"review {self.review_id}: gold labels missing"
            )
        return gold

    @_once
    def _curate_key(self) -> str:
        """The curate key alone, which hashes the raw dataset and no other input."""
        return content_key("curate", {"dataset_sha256": _file_sha256(self.entry["dataset"])}, [])

    @_once
    def keys(self) -> dict[str, str]:
        """Stage name -> cache key, from the config and each input file's sha256.

        No key reads an artifact.  The cluster key holds ``k`` as configured,
        None for the automatic count, which the curate key already fixes.
        """
        cfg = self.cfg
        embed = {"provider": cfg.embedding.fingerprint()}
        if cfg.embedding.kind == "file_import":
            embed["source_sha256"] = _file_sha256(cfg.embedding.path)
        project = {"method": cfg.projection["method"]}
        if project["method"] == "import":
            project["source_sha256"] = _file_sha256(cfg.projection["path"])
        key = self._curate_key()
        keys = {"curate": key}
        for stage, params in (("embed", embed), ("project", project),
                              ("cluster", {"k": self.entry["k"], "seed": cfg.seed}), ("pool", {})):
            key = keys[stage] = content_key(stage, params, [key])
        return keys

    @_once
    def points(self):
        method = self.cfg.projection["method"]

        def build():
            records = self.curated()[0].records
            ids = [r.id for r in records]
            vecs = None
            if method == "pca":
                vecs = EmbeddingClient(self.cfg.embedding).embed_batch(
                    [r.text for r in records], ids)
            return project_2d(ids, vecs, method, self.cfg.projection.get("path"))

        return self._artifact(
            self.keys()["project"], build, read_points_jsonl, write_points_jsonl
        )

    @_once
    def clustering(self):
        def build():
            points = self.points()[0]  # one per curated record
            k = clustering_mod.choose_k(len(points), override=self.entry["k"])
            return clustering_mod.kmeans(points, k, self.cfg.seed)

        return self._artifact(self.keys()["cluster"], build,
                              lambda _, data: clustering_mod.Clustering.from_json(data))

    @_once
    def pool(self):
        return self._artifact(
            self.keys()["pool"],
            lambda: build_pool(self.curated()[0], self.clustering()[0], self.points()[0]),
            lambda _, data: ExemplarPool.from_json(data),
        )

    def exemplars(self):
        """(pool, clustering, points); points only place unclustered records."""
        clus, _ = self.clustering()
        unplaced = any(r.id not in clus.assignment for r in self.curated()[0].records)
        return self.pool()[0], clus, self.points()[0] if unplaced else {}

    def providers(self):
        """(stage-1, stage-2) providers, not kept: an oracle's gold loader holds the pipeline."""
        cfg = self.cfg
        stages = (cfg.stage1, cfg.stage2)
        if cfg.provider["kind"] == "http":
            return tuple(
                HttpChatProvider(stage["model"], stage["url"], api_key=(
                    os.environ.get(stage["api_key_env"]) if stage["api_key_env"] else None))
                for stage in stages
            )

        def gold():
            labels = self.gold()
            if any(v is None for v in labels.values()):
                raise ConfigError("oracle provider needs gold labels on every record")
            return labels

        return tuple(
            OracleProvider(stage["model"], gold, profile, cfg.seed, self._curate_key())
            for stage, profile in zip(stages, cfg.profiles)
        )

    def screen_key(self) -> str:
        """Key of the review's results: everything that decides their bytes.

        Beside the pool key (dataset, embedding, projection, clustering) it
        covers the run settings a prompt or answer depends on, the criteria
        text, each stage provider's identity (the oracle's profile, seed
        and the curate key of the raw dataset its labels come from, or the
        http url), and ``triage.SCREEN_FORMAT``, the version of the
        templates, parser, routing and row format.  Parallelism, pricing
        and ``cache_dir`` decide no result and are left out.
        """
        run = self.cfg.run
        params = {
            "format": triage.SCREEN_FORMAT,
            "strategy": run.strategy.value,
            "threshold": run.threshold,
            "stage1": run.stage1_model,
            "stage2": run.stage2_model,
            "temperature": run.temperature,
            "seed": run.seed,
            "criteria_sha256": sha256_hex(self.criteria()),
            "providers": [p.identity for p in self.providers()],
        }
        return content_key("screen", params, [self.keys()["pool"]])


def _labels(dataset: corpus.ReviewDataset) -> dict[str, str | None]:
    """Each record's gold label by id: the curated artifact's ``labels`` fact."""
    return {r.id: r.gold_label for r in dataset.records}


def cmd_curate(args) -> int:
    cfg = PipelineConfig.load(args.config)
    out_dir = args.out
    os.makedirs(out_dir, exist_ok=True)
    reports = {}
    for rid, entry in sorted(cfg.reviews.items()):
        raw = corpus.load_dataset(entry["dataset"], rid)
        dataset, report = corpus.curate(raw)
        corpus.write_dataset_jsonl(dataset, os.path.join(out_dir, f"{rid}_curated.jsonl"))
        reports[rid] = {
            "retrieved": report.retrieved,
            "curated": report.curated,
            "removed_missing": report.removed_missing,
            "removed_duplicate": report.removed_duplicate,
            "includes": dataset.include_count(),
        }
        print(
            f"{rid}: {report.retrieved} -> {report.curated} "
            f"({report.removed_missing} missing, {report.removed_duplicate} duplicate)"
        )
    with open(os.path.join(out_dir, "curation_report.json"), "w", encoding="utf-8") as fh:
        json.dump(reports, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return EXIT_OK


def _pipeline_for(cfg: PipelineConfig, rid: str) -> ReviewPipeline:
    return ReviewPipeline(cfg, rid, ArtifactCache(cfg.cache_dir))


def _pipelines(cfg: PipelineConfig):
    """Yield (review id, pipeline) in review-id order, one review at a time."""
    for rid in sorted(cfg.reviews):
        yield rid, _pipeline_for(cfg, rid)


def cmd_stage(args) -> int:
    cfg = PipelineConfig.load(args.config)
    for rid, pipe in _pipelines(cfg):
        value, key = getattr(pipe, STAGE_METHODS[args.command])()
        if args.command == "cluster":
            print(f"{rid}: k={value.k} inertia={value.inertia:.4f}")
        print(f"{rid}: {args.command} -> {pipe.cache.path(key)}")
    return EXIT_OK


def _screen_review(pipe: ReviewPipeline, response_cache, failures):
    cfg = pipe.cfg
    dataset, _, _ = pipe.curated()
    criteria = pipe.criteria()
    stage1, stage2 = pipe.providers()
    if cfg.strategy is Strategy.DYNAMIC_FEW_SHOT:
        return triage.run_two_stage(dataset, *pipe.exemplars(), cfg.run, stage1, stage2,
                                    criteria, cache=response_cache, failures=failures)
    return triage.run_single_stage(dataset, cfg.run, stage1, criteria,
                                   cache=response_cache, failures=failures)


class _LogDigest:
    """``_file_sha256`` of the response log's prefixes, for one command.

    Each prefix is hashed on from the longest prefix hashed before it, if
    it is no shorter, so prefixes asked for in increasing sizes read the
    log once.  Only line-ending prefixes are carried on from: the log only
    grows, and a torn tail it drops lies past its last line.  A missing
    log has no digest.
    """

    def __init__(self, path: str):
        self.path = path
        self._at, self._state = 0, hashlib.sha256()

    def __call__(self, size: int) -> str | None:
        if size < self._at:
            self._at, self._state = 0, hashlib.sha256()
        h = self._state.copy()
        try:
            digest = _file_sha256(self.path, size, self._at, h)
        except FileNotFoundError:
            return None
        if digest is not None:
            self._at, self._state = size, h
        return digest


def _write_memo(cache: ArtifactCache, key: str, results_path: str, records: int,
                routed: int, log_digest: _LogDigest, score: dict | None) -> None:
    """Store a review's results at ``key``, sealed with the facts of their screen.

    The facts: the record and routed counts, the length and sha256 of the
    response log, which holds every answer the results were built from,
    and the results' ``score``, if given, which ``evaluate`` reads.
    """
    log_bytes = os.path.getsize(log_digest.path)
    facts = {"log_bytes": log_bytes, "log_sha256": log_digest(log_bytes),
             "records": records, "routed": routed}
    if score is not None:
        facts["score"] = score
    if facts["log_sha256"] is not None:  # else the log ends mid-line; screen again
        cache.write_atomic(key, functools.partial(shutil.copyfile, results_path), facts)


def _dry_run_screen(cfg: PipelineConfig) -> int:
    stages = 2 if cfg.strategy is Strategy.DYNAMIC_FEW_SHOT else 1
    total_calls = 0
    usd_upper = 0.0
    for rid, pipe in _pipelines(cfg):
        dataset, _, _ = pipe.curated()
        exemplars = pipe.exemplars() if stages == 2 else None
        prompt_for = triage.prompter(
            cfg.strategy, pipe.criteria(), dataset, cfg.seed, exemplars
        )
        prompt_tokens = sum(
            estimate_tokens(prompt_for(record).text) for record in dataset.records
        )
        calls = len(dataset) * stages
        completion_tokens = len(dataset) * DRY_RUN_COMPLETION_TOKENS
        cost = cfg.run.stage1_pricing.cost(prompt_tokens, completion_tokens)
        if stages == 2:
            # Upper bound assumes every record routes.
            cost += cfg.run.stage2_pricing.cost(prompt_tokens, completion_tokens)
        total_calls += calls
        usd_upper += cost
        print(f"{rid}: {len(dataset)} records, up to {calls} calls, <= ${cost:.2f}")
    print(f"total: up to {total_calls} calls, <= ${usd_upper:.2f}")
    return EXIT_OK


def cmd_screen(args) -> int:
    cfg = PipelineConfig.load(args.config)
    flags = {"strategy": args.strategy, "threshold": args.threshold}
    cfg.run = _read("--threshold", RunConfig,
                    {k: v for k, v in flags.items() if v is not None}, base=cfg.run)
    if args.dry_run:
        return _dry_run_screen(cfg)
    out_dir = args.out
    os.makedirs(out_dir, exist_ok=True)
    os.makedirs(cfg.cache_dir, exist_ok=True)
    merged = CostLedger()
    manifest = {
        "config_sha256": cfg.config_hash(),
        "seed": cfg.seed,
        "strategy": cfg.strategy.value,
        "threshold": cfg.threshold,
        "reviews": {},
    }
    log = os.path.join(cfg.cache_dir, "responses.jsonl")
    log_digest = _LogDigest(log)
    with closing(ResponseCache(log)) as response_cache:
        for rid, pipe in _pipelines(cfg):
            key = pipe.screen_key()
            results_path = os.path.join(out_dir, f"results_{rid}.jsonl")
            failures: list = []
            memo = pipe.cache.read_text(key, "screen memo")
            facts = memo.facts if memo is not None else None
            # A memo is used only while the log starts with the prefix its answers came from.
            if facts and log_digest(facts["log_bytes"]) == facts["log_sha256"]:
                records, routed = facts["records"], facts["routed"]
                with open(results_path, "wb") as fh:
                    fh.write(memo.body)
                # Every answer was a cache hit, which costs $0 at any price.
                merged.record_cache_hit(cfg.run.stage1_model, records)
                if routed:
                    merged.record_cache_hit(cfg.run.stage2_model, routed)
            else:
                results, ledger = _screen_review(pipe, response_cache, failures)
                merged.merge(ledger)
                triage.write_results_jsonl(results, results_path)
                records = len(pipe.curated()[0])
                routed = sum(1 for r in results if r.routed)
                if not failures:
                    gold = pipe.gold()
                    score = None if None in gold.values() else evaluation.score(results, gold)
                    _write_memo(pipe.cache, key, results_path, records, routed, log_digest,
                                score)
            manifest["reviews"][rid] = {
                "screen_key": key,
                "records": records,
                "results": os.path.basename(results_path),
                "routed": routed,
                "failed": sorted(rid_ for rid_, _ in failures),
            }
            print(f"{rid}: screened {records - len(failures)} records, routed {routed}")
    manifest["ledger"] = merged.to_dict()
    manifest_path = os.path.join(out_dir, "manifest.json")
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"usd_total: ${merged.usd_total:.4f}")
    return EXIT_OK


def _memo_facts(pipe: ReviewPipeline, data: bytes, records: int) -> dict | None:
    """The facts of the config's memo for the review, if its body is ``data``
    and its seal holds a ``score`` of ``records`` records.  A damaged memo,
    or one whose key cannot be built, is not reported: ``data`` is parsed.
    """
    try:
        memo = pipe.cache.read_text(pipe.screen_key(), None)
    except (OSError, ConfigError):
        return None
    facts = memo.facts if memo is not None and memo.body == data else {}
    return facts if "score" in facts and facts["records"] == records else None


def _priced(run: RunConfig, tokens: dict[str, int]) -> tuple[float, float]:
    """(stage-1, stage-2) USD of ``evaluation.TOKEN_SUMS`` at the config's prices."""
    s1p, s1c, s2p, s2c = (tokens[name] for name in evaluation.TOKEN_SUMS)
    return run.stage1_pricing.cost(s1p, s1c), run.stage2_pricing.cost(s2p, s2c)


def cmd_evaluate(args) -> int:
    """Score each review's results; a file that is its memo's body, from the memo's counts."""
    cfg = PipelineConfig.load(args.config)
    rows = []
    for rid, pipe in _pipelines(cfg):
        results_path = os.path.join(args.results, f"results_{rid}.jsonl")
        if not os.path.exists(results_path):
            raise evaluation.EvaluationError(f"missing results file {results_path}")
        with open(results_path, "rb") as fh:
            data = fh.read()
        gold = pipe.gold(scoring=True)
        facts = _memo_facts(pipe, data, len(gold))
        if facts is None:
            results = triage.read_results_jsonl(results_path, data)
            tokens = {name: sum(getattr(r, name) for r in results)
                      for name in evaluation.TOKEN_SUMS}
            rows.append(evaluation.evaluate_run(rid, results, gold, *_priced(cfg.run, tokens)))
        else:
            rows.append(evaluation.report_row(rid, facts["score"], facts["routed"] / len(gold),
                                              *_priced(cfg.run, facts["score"])))
    report = evaluation.MetricsReport(rows=rows)
    csv_path = os.path.join(args.results, "report.csv")
    json_path = os.path.join(args.results, "report.json")
    evaluation.write_report(report, csv_path, json_path)
    macro = report.macro()
    for row in rows:
        print(
            f"{row.review_id}: P={row.precision:.4f} R={row.recall:.4f} "
            f"F1={row.f1:.4f} routed={row.routed_ratio:.2%}"
        )
    print(f"macro F1: {macro['f1']:.4f}")
    print(f"report: {csv_path}")
    return EXIT_OK


def _sweep_review(pipe: ReviewPipeline, gold: dict, response_cache, thresholds) -> list:
    """One review's sweep points; its records and results go when it returns."""
    failures: list = []
    results, _ = _screen_review(pipe, response_cache, failures)
    if failures:
        raise RunError(
            f"sweep needs every record; {len(failures)} of {len(gold)} "
            f"failed: {sorted(rid_ for rid_, _ in failures)}"
        )
    return triage.sweep_thresholds(results, gold, thresholds)


def cmd_sweep(args) -> int:
    """Score every threshold from one memo-less ``_screen_review`` per review.

    Every review's gold labels are checked before any call; then the
    reviews are screened one at a time, each pipeline let go once scored.
    """
    cfg = PipelineConfig.load(args.config)
    try:
        thresholds = [float(t) for t in args.thresholds.split(",") if t.strip()]
    except ValueError:
        raise ConfigError(f"bad thresholds list {args.thresholds!r}") from None
    if not thresholds:
        raise ConfigError("no thresholds given")
    for t in thresholds:
        _read("--thresholds", RunConfig, {"threshold": t}, base=cfg.run)
    cfg.run = replace(cfg.run, threshold=max(thresholds))
    if cfg.strategy is not Strategy.DYNAMIC_FEW_SHOT:
        raise ConfigError("sweep needs the dfsl strategy")
    os.makedirs(args.out, exist_ok=True)
    os.makedirs(cfg.cache_dir, exist_ok=True)
    out_rows = []
    reviews = [(rid, pipe, pipe.gold(scoring=True)) for rid, pipe in _pipelines(cfg)]
    log = os.path.join(cfg.cache_dir, "responses.jsonl")
    with closing(ResponseCache(log)) as response_cache:
        while reviews:
            rid, pipe, gold = reviews.pop(0)
            for pt in _sweep_review(pipe, gold, response_cache, thresholds):
                out_rows.append((rid, pt.threshold, pt.f1, pt.routed_ratio))
                print(
                    f"{rid} @ {pt.threshold:.2f}: F1={pt.f1:.4f} "
                    f"routed={pt.routed_ratio:.2%}"
                )
    sweep_path = os.path.join(args.out, "sweep.csv")
    with open(sweep_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("review_id", "threshold", "f1", "routed_ratio"))
        writer.writerows(out_rows)
    print(f"sweep table: {sweep_path}")
    return EXIT_OK


def cmd_compare(args) -> int:
    report_a = evaluation.read_report_csv(args.run_a)
    report_b = evaluation.read_report_csv(args.run_b)
    outcome = evaluation.compare_runs(report_a, report_b)
    test = outcome["t_test"]
    for rid, f1a, f1b in zip(
        outcome["reviews"], outcome["f1_before"], outcome["f1_after"]
    ):
        print(f"{rid}: {f1a:.4f} -> {f1b:.4f} ({f1b - f1a:+.4f})")
    print(
        f"macro F1: {outcome['macro_before']:.4f} -> {outcome['macro_after']:.4f}"
    )
    print(
        f"paired t: t={test.t_statistic:.4f} df={test.df} "
        f"two-sided p={test.p_value:.6f} "
        f"(tails: lower={test.lower_tail_p:.6f}, upper={test.upper_tail_p:.6f})"
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dfscreen",
        description="Two-stage dynamic few-shot screening pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("curate", help="clean raw datasets and report the removals")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_curate)

    for stage in STAGE_METHODS:
        p = sub.add_parser(stage, help=f"run the {stage} stage (and its inputs)")
        p.add_argument("--config", required=True)
        p.set_defaults(func=cmd_stage)

    p = sub.add_parser("screen", help="run the screening cascade")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--strategy", choices=[s.value for s in Strategy])
    p.add_argument("--threshold", type=float)
    p.add_argument("--dry-run", action="store_true")
    p.set_defaults(func=cmd_screen)

    p = sub.add_parser("evaluate", help="score screening results against gold labels")
    p.add_argument("--config", required=True)
    p.add_argument("--results", required=True, help="directory cmd_screen wrote")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sweep", help="threshold sensitivity sweep")
    p.add_argument("--config", required=True)
    p.add_argument("--thresholds", default="0.7,0.8,0.9")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("compare", help="paired t-test between two report CSVs")
    p.add_argument("--run-a", required=True)
    p.add_argument("--run-b", required=True)
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, corpus.DatasetError, OSError, ResponseCacheError,
            EmbeddingError, ProjectionError, clustering_mod.ClusteringError,
            PoolError, PromptError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ProviderError, RunError) as exc:
        print(f"provider failure: {exc}", file=sys.stderr)
        return EXIT_PROVIDER
    except evaluation.EvaluationError as exc:
        print(f"evaluation error: {exc}", file=sys.stderr)
        return EXIT_EVALUATION


if __name__ == "__main__":
    raise SystemExit(main())
