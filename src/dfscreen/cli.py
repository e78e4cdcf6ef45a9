"""Command-line front end for the screening pipeline.

One JSON config describes an experiment: datasets and criteria per
review, embedding backend, clustering overrides, strategy, threshold,
models and pricing, seed, cache directory.  The stage commands
(``project``, ``cluster``, ``pool``) or the whole cascade (``screen``)
run; intermediates land in a content-addressed cache so reruns only redo
what changed.  The embedding has a key but no artifact: ``project``
embeds the records as its input.  Every command but ``curate`` walks the
reviews in id order with one ReviewPipeline each; its single stage
helper reads a stage's artifact back or builds and writes it, and each
stage runs once per pipeline.

Exit codes: 0 success, 2 config error, 3 provider failure,
4 evaluation mismatch.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
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
from .pubmed import PubMedClient, PubMedError
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


def _file_sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


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
    a float; neither takes a bool.  An enum takes one of its values.
    """
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
            _mapping(entry, f"review {rid}", ("dataset", "criteria", "k"))
            if "dataset" not in entry or "criteria" not in entry:
                raise ConfigError(f"review {rid}: needs 'dataset' and 'criteria' paths")
            k = entry.get("k")
            self.reviews[rid] = {
                "dataset": self._resolve(entry["dataset"]),
                "criteria": self._resolve(entry["criteria"]),
                "k": None if k is None else _typed(f"review {rid}: k", k, int),
            }
        keys = ("kind", "model", "url", "path", "dim")
        emb = {"kind": "hashed_tf", **_mapping(raw.get("embedding", {}), "embedding", keys)}
        if emb.get("path"):
            emb["path"] = self._resolve(emb["path"])
        self.embedding = _read("embedding", EmbeddingProviderConfig, emb)
        proj = raw.get("projection", "pca")
        if isinstance(proj, str):
            proj = {"method": proj}
        _mapping(proj, "projection", ("method", "path"))
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
                                 ("kind", *ORACLE_PROFILES))
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
        entry = _mapping(raw.get(key, {}), key, ("model", "pricing", "url", "api_key_env"))
        prices = _mapping(entry.get("pricing", {}), f"{key} pricing")
        return {
            "model": entry.get("model", model),
            "pricing": _read(f"{key} pricing", ModelPricing, prices, base=pricing),
            "url": entry.get("url"),
            "api_key_env": entry.get("api_key_env"),
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
    Every stage's cache key folds in its parameters and its input's key,
    so a changed dataset, embedding config, or seed invalidates exactly
    the stages downstream of the change.
    """

    def __init__(self, cfg: PipelineConfig, review_id: str, cache: ArtifactCache):
        self.cfg = cfg
        self.review_id = review_id
        self.entry = cfg.reviews[review_id]
        self.cache = cache
        self._done: dict = {}

    def _artifact(self, key: str, build, read, write=None):
        """(value, key): the artifact at ``key`` read back, or built and written.

        ``read(path)``/``write(value, path)`` handle a file format; without
        ``write`` the artifact is ``to_json()`` text and ``read(text)`` loads
        it, and text it cannot load is a ConfigError naming the file.
        """
        if self.cache.has(key):
            if write is not None:
                return read(self.cache.path(key)), key
            try:
                return read(self.cache.read_text(key)), key
            except (ValueError, KeyError, TypeError) as exc:
                raise ConfigError(f"unreadable artifact {self.cache.path(key)}: {exc}") from None
        value = build()
        if write is None:
            self.cache.write_text(key, value.to_json())
        else:
            self.cache.write_atomic(key, lambda path: write(value, path))
        return value, key

    def criteria(self) -> str:
        path = self.entry["criteria"]
        try:
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"criteria {path} is not UTF-8: {exc}") from None

    @_once
    def curated(self):
        """(dataset, curation report, key); the report is None on a cache hit.

        A review that curation leaves without records is a ConfigError
        before anything is written, so a cached curated artifact that holds
        none is damaged: a ConfigError naming the file.
        """
        source = self.entry["dataset"]
        key = content_key("curate", {"dataset_sha256": _file_sha256(source)}, [])

        def build():
            dataset, report = corpus.curate(corpus.load_dataset(source, self.review_id))
            if not dataset.records:
                raise ConfigError(f"review {self.review_id}: no records left after curation")
            return dataset, report

        def read(path):
            dataset = corpus.load_dataset_jsonl(path, self.review_id)
            if not dataset.records:
                raise ConfigError(f"unreadable artifact {path}: no records")
            return dataset, None

        (dataset, report), _ = self._artifact(
            key, build, read, lambda built, path: corpus.write_dataset_jsonl(built[0], path),
        )
        return dataset, report, key

    def gold(self, scoring: bool = False) -> dict[str, str | None]:
        """Gold label per curated record id, None where a record has none.

        Commands that score against the labels pass ``scoring``: a missing
        label is then an EvaluationError.
        """
        dataset, _, _ = self.curated()
        gold = {r.id: r.gold_label for r in dataset.records}
        if scoring and any(v is None for v in gold.values()):
            raise evaluation.EvaluationError(
                f"review {self.review_id}: gold labels missing"
            )
        return gold

    def _embed_key(self) -> str:
        """Key of the vectors ``project`` reads; they are never written to a file."""
        _, _, curate_key = self.curated()
        params = {"provider": self.cfg.embedding.fingerprint()}
        if self.cfg.embedding.kind == "file_import":
            params["source_sha256"] = _file_sha256(self.cfg.embedding.path)
        return content_key("embed", params, [curate_key])

    @_once
    def _project_key(self) -> str:
        params = {"method": self.cfg.projection["method"]}
        if params["method"] == "import":
            params["source_sha256"] = _file_sha256(self.cfg.projection["path"])
        return content_key("project", params, [self._embed_key()])

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
            self._project_key(), build, read_points_jsonl, write_points_jsonl
        )

    @_once
    def clustering(self):
        # One point per curated record, so a warm run need not read the points.
        k = clustering_mod.choose_k(len(self.curated()[0]), override=self.entry.get("k"))
        params = {"k": k, "seed": self.cfg.seed}
        key = content_key("cluster", params, [self._project_key()])
        return self._artifact(
            key,
            lambda: clustering_mod.kmeans(self.points()[0], k, self.cfg.seed),
            clustering_mod.Clustering.from_json,
        )

    @_once
    def pool(self):
        clus, cluster_key = self.clustering()
        key = content_key("pool", {}, [cluster_key])
        return self._artifact(
            key,
            lambda: build_pool(self.curated()[0], clus, self.points()[0]),
            ExemplarPool.from_json,
        )

    def exemplars(self):
        """(pool, clustering, points); points only place unclustered records."""
        clus, _ = self.clustering()
        unplaced = any(r.id not in clus.assignment for r in self.curated()[0].records)
        return self.pool()[0], clus, self.points()[0] if unplaced else {}

    def screen_key(self) -> str:
        _, pool_key = self.pool()
        run = self.cfg.run
        params = {
            "strategy": run.strategy.value,
            "threshold": run.threshold,
            "stage1": run.stage1_model,
            "stage2": run.stage2_model,
            "temperature": run.temperature,
            "seed": run.seed,
        }
        return content_key("screen", params, [pool_key])


def _build_providers(cfg: PipelineConfig, gold: dict[str, str]):
    stages = (cfg.stage1, cfg.stage2)
    if cfg.provider["kind"] == "http":
        return tuple(
            HttpChatProvider(stage["model"], stage["url"], api_key=(
                os.environ.get(stage["api_key_env"]) if stage["api_key_env"] else None))
            for stage in stages
        )
    if any(v is None for v in gold.values()):
        raise ConfigError("oracle provider needs gold labels on every record")
    return tuple(
        OracleProvider(stage["model"], gold, profile, cfg.seed)
        for stage, profile in zip(stages, cfg.profiles)
    )


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


def cmd_fetch(args) -> int:
    pmids = []
    if args.pmid_file:
        try:
            with open(args.pmid_file, encoding="utf-8") as fh:
                pmids.extend(line.strip() for line in fh if line.strip())
        except UnicodeDecodeError as exc:
            raise ConfigError(f"PMID file {args.pmid_file} is not UTF-8: {exc}") from None
    pmids.extend(args.pmids)
    if not pmids:
        raise ConfigError("no PMIDs given (use --pmid-file or positional ids)")
    client = PubMedClient(api_key=os.environ.get("NCBI_API_KEY"))
    dataset = client.fetch(pmids, review_id=args.review_id)
    corpus.write_dataset_jsonl(dataset, args.out)
    print(f"fetched {len(dataset)} of {len(pmids)} records -> {args.out}")
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
    stage1, stage2 = _build_providers(cfg, pipe.gold())
    if cfg.strategy is Strategy.DYNAMIC_FEW_SHOT:
        return triage.run_two_stage(dataset, *pipe.exemplars(), cfg.run, stage1, stage2,
                                    criteria, cache=response_cache, failures=failures)
    return triage.run_single_stage(
        dataset, cfg.strategy, stage1, criteria, pricing=cfg.run.stage1_pricing,
        seed=cfg.seed, temperature=cfg.temperature, parallelism=cfg.parallelism,
        cache=response_cache, failures=failures,
    )


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
    with closing(ResponseCache(log)) as response_cache:
        for rid, pipe in _pipelines(cfg):
            failures: list = []
            results, ledger = _screen_review(pipe, response_cache, failures)
            merged.merge(ledger)
            results_path = os.path.join(out_dir, f"results_{rid}.jsonl")
            triage.write_results_jsonl(results, results_path)
            manifest["reviews"][rid] = {
                "screen_key": pipe.screen_key(),
                "records": len(pipe.curated()[0]),
                "results": os.path.basename(results_path),
                "routed": sum(1 for r in results if r.routed),
                "failed": sorted(rid_ for rid_, _ in failures),
            }
            print(
                f"{rid}: screened {len(results)} records, "
                f"routed {manifest['reviews'][rid]['routed']}"
            )
    manifest["ledger"] = merged.to_dict()
    manifest_path = os.path.join(out_dir, "manifest.json")
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"usd_total: ${merged.usd_total:.4f}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    cfg = PipelineConfig.load(args.config)
    rows = []
    for rid, pipe in _pipelines(cfg):
        results_path = os.path.join(args.results, f"results_{rid}.jsonl")
        if not os.path.exists(results_path):
            raise evaluation.EvaluationError(f"missing results file {results_path}")
        results = triage.read_results_jsonl(results_path)
        gold = pipe.gold(scoring=True)
        usd1 = cfg.run.stage1_pricing.cost(
            sum(r.stage1_prompt_tokens for r in results),
            sum(r.stage1_completion_tokens for r in results),
        )
        usd2 = cfg.run.stage2_pricing.cost(
            sum(r.stage2_prompt_tokens for r in results),
            sum(r.stage2_completion_tokens for r in results),
        )
        rows.append(evaluation.evaluate_run(rid, results, gold, usd1, usd2))
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


def cmd_sweep(args) -> int:
    cfg = PipelineConfig.load(args.config)
    try:
        thresholds = [float(t) for t in args.thresholds.split(",") if t.strip()]
    except ValueError:
        raise ConfigError(f"bad thresholds list {args.thresholds!r}") from None
    if not thresholds:
        raise ConfigError("no thresholds given")
    for t in thresholds:
        _read("--thresholds", RunConfig, {"threshold": t}, base=cfg.run)
    if cfg.strategy is not Strategy.DYNAMIC_FEW_SHOT:
        raise ConfigError("sweep needs the dfsl strategy")
    os.makedirs(args.out, exist_ok=True)
    os.makedirs(cfg.cache_dir, exist_ok=True)
    out_rows = []
    pipes = list(_pipelines(cfg))
    golds = [pipe.gold(scoring=True) for _, pipe in pipes]  # before any call
    log = os.path.join(cfg.cache_dir, "responses.jsonl")
    with closing(ResponseCache(log)) as response_cache:
        for (rid, pipe), gold in zip(pipes, golds):
            stage1, stage2 = _build_providers(cfg, gold)
            points = triage.sweep_thresholds(
                pipe.curated()[0], *pipe.exemplars(), cfg.run, stage1, stage2,
                pipe.criteria(), thresholds, cache=response_cache,
            )
            for pt in points:
                out_rows.append((rid, pt.threshold, pt.f1, pt.routed_ratio))
                print(
                    f"{rid} @ {pt.threshold:.2f}: F1={pt.f1:.4f} "
                    f"routed={pt.routed_ratio:.2%}"
                )
    sweep_path = os.path.join(args.out, "sweep.csv")
    with open(sweep_path, "w", encoding="utf-8", newline="") as fh:
        fh.write("review_id,threshold,f1,routed_ratio\n")
        for rid, th, f1, ratio in out_rows:
            fh.write(f"{rid},{th!r},{f1!r},{ratio!r}\n")
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

    p = sub.add_parser("fetch", help="fetch title/abstract records from PubMed")
    p.add_argument("pmids", nargs="*", help="PMIDs to fetch")
    p.add_argument("--pmid-file", help="file with one PMID per line")
    p.add_argument("--review-id", default="pubmed")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fetch)

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
    except (ProviderError, RunError, PubMedError) as exc:
        print(f"provider failure: {exc}", file=sys.stderr)
        return EXIT_PROVIDER
    except evaluation.EvaluationError as exc:
        print(f"evaluation error: {exc}", file=sys.stderr)
        return EXIT_EVALUATION


if __name__ == "__main__":
    raise SystemExit(main())
