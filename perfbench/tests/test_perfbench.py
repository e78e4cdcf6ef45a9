"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q

They check that the latency provider is a pure function of its seed and
that neither the tracer nor its count-only mode changes any artifact.
Workspaces go under the checkout's ``.perfbench_work/`` and are removed.
"""

from __future__ import annotations

import os
import shutil
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import checks  # noqa: E402
import common  # noqa: E402

common.use_checkout_source()

import latency  # noqa: E402
import worker  # noqa: E402
from dfscreen.gateway import TransientProviderError  # noqa: E402
from tracer import LAYER_METRICS, Tracer, layer_metrics  # noqa: E402

SMALL_REVIEW = ("CD012768",)  # 119 curated records
RECORDS = [f"R-{i:05d}" for i in range(2000)]


class _Echo:
    model_id = "echo"

    def send(self, prompt_text, temperature, max_tokens, tags):
        return tags["record_id"], 1, 1


def _transient_positions(provider) -> list[str]:
    failed = []
    for rid in RECORDS:
        try:
            provider.send("p", 0.0, None, {"record_id": rid})
        except TransientProviderError:
            failed.append(rid)
            assert provider.send("p", 0.0, None, {"record_id": rid})[0] == rid
    return failed


@pytest.fixture
def workdir():
    path = os.path.join(common.WORK_ROOT, f"tests-{os.getpid()}")
    os.makedirs(path)
    yield path
    shutil.rmtree(path, ignore_errors=True)
    try:
        os.rmdir(common.WORK_ROOT)
    except OSError:
        pass


def test_latency_provider_is_deterministic():
    a = latency.LatencyProvider(_Echo(), stage=1, seed=5, record_ids=RECORDS,
                                  unit_s=0.0)
    b = latency.LatencyProvider(_Echo(), stage=1, seed=5, record_ids=RECORDS,
                                  unit_s=0.0)
    other = latency.LatencyProvider(_Echo(), stage=1, seed=6, record_ids=RECORDS,
                                      unit_s=0.0)
    delays = [a.delay_units(rid) for rid in RECORDS]
    assert delays == [b.delay_units(rid) for rid in RECORDS]
    assert delays != [other.delay_units(rid) for rid in RECORDS]
    failed = _transient_positions(a)
    assert failed == _transient_positions(b)
    assert failed != _transient_positions(other)
    # Exactly 2% of first attempts fail; retries never do.
    assert len(failed) == round(latency.TRANSIENT_SHARE * len(RECORDS))
    # Another seed puts other records in the tail, but exactly as many.
    tails = round(latency.TAIL_SHARE * len(RECORDS))
    slow = 1.5 * latency.STAGE_UNITS[1]
    assert sum(d > slow for d in delays) == tails
    assert sum(other.delay_units(rid) > slow for rid in RECORDS) == tails


def test_latency_provider_shape():
    stage1 = latency.LatencyProvider(_Echo(), stage=1, seed=0, record_ids=RECORDS,
                                     unit_s=0.0)
    stage2 = latency.LatencyProvider(_Echo(), stage=2, seed=0, record_ids=RECORDS,
                                     unit_s=0.0)
    d1 = sorted(stage1.delay_units(rid) for rid in RECORDS)
    d2 = sorted(stage2.delay_units(rid) for rid in RECORDS)
    median = len(RECORDS) // 2
    assert d2[median] == pytest.approx(3 * d1[median], rel=0.1)
    tail = sum(d > 1.5 * latency.STAGE_UNITS[1] for d in d1) / len(d1)
    assert tail == pytest.approx(latency.TAIL_SHARE)


def _cold_screen(ws: str, pass_dir: str, trace: str | None) -> dict:
    shutil.rmtree(os.path.join(ws, "cache"), ignore_errors=True)
    tracer = None
    if trace is not None:
        tracer = Tracer("test", cache_root=os.path.join(ws, "cache"))
        tracer.install(count_only=trace == "count")
    try:
        worker.measured_pass("cold_workspace", ws, pass_dir, 0, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return layer_metrics(tracer, 2) if tracer is not None else {}


def _assert_same_artifacts(ref_run: str, run: str) -> None:
    names = sorted(os.listdir(ref_run))
    assert names == sorted(os.listdir(run))
    assert checks.same_bytes(run, ref_run, names) == []


def test_traced_and_count_only_runs_write_identical_artifacts(workdir):
    ws = os.path.join(workdir, "ws")
    worker.make_workspace(ws, seed=0, parallelism=2, reviews=SMALL_REVIEW)
    _cold_screen(ws, os.path.join(workdir, "plain"), None)
    traced = _cold_screen(ws, os.path.join(workdir, "traced"), "1")
    counted = _cold_screen(ws, os.path.join(workdir, "counted"), "count")
    plain_run = os.path.join(workdir, "plain", "run")
    _assert_same_artifacts(plain_run, os.path.join(workdir, "traced", "run"))
    _assert_same_artifacts(plain_run, os.path.join(workdir, "counted", "run"))
    assert traced["embedding.vectors"] == 119
    assert traced["triage.cascade_runs"] == 1
    assert traced["gateway.complete_calls"] == 119 + traced["triage.stage2_calls"]
    assert counted["rng.fnv1a64_calls"] == traced["rng.fnv1a64_calls"] > 0
    assert counted["clustering.nearest_centroid_calls"] > 0
    assert counted["gateway.complete_calls"] == 0  # only counters installed
    assert set(traced) <= set(LAYER_METRICS)


def test_latency_cascade_matches_zero_latency_oracle(workdir):
    ws = os.path.join(workdir, "ws")
    config = worker.make_workspace(ws, seed=3, parallelism=2, reviews=SMALL_REVIEW)
    worker._main(["screen", "--config", config, "--out", os.path.join(ws, "ref")])
    totals = worker.latency_cascade(config, os.path.join(workdir, "pass"), seed=3)
    assert totals["failed"] == 0 and totals["records"] == 119
    assert checks.same_bytes(os.path.join(workdir, "pass", "run"),
                             os.path.join(ws, "ref")) == []
