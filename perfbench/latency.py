"""A provider with seeded latency and transient failures.

``LatencyProvider`` wraps a zero-latency provider (the program's
``OracleProvider``) and, before answering, sleeps for a delay chosen
per (seed, model, record) from the benchmark's own hash, so that
``dfscreen.rng`` is neither used nor counted.  Time is expressed in
model-time units of ``unit_s`` seconds: stage 1 takes about one unit,
stage 2 about three, and a seeded 5% tail takes several times longer.

A seeded 2% of records fail their first attempt with
``TransientProviderError``; the retry succeeds, so no record fails and
the answers are the wrapped provider's answers.

The draws are stratified over the records the provider is given: the
seed orders the records by hash, and a record's rank picks its delay,
whether it is in the tail and whether it fails first.  Every seed
therefore hands out the same set of delays, exactly 5% tails and exactly
2% failures, to different records, so the time a pass takes depends on
the seed only through which records reach stage 2.  The retry's backoff
goes through ``scaled_sleep``, which maps the program's backoff
seconds onto the same unit.
"""

from __future__ import annotations

import hashlib
import threading
import time

from dfscreen.gateway import TransientProviderError

UNIT_S = 0.010  # seconds of wall time per model-time unit
STAGE_UNITS = {1: 1.0, 2: 3.0}  # median delay per stage, in units
TAIL_SHARE = 0.05
TAIL_FACTOR = 6.0
TRANSIENT_SHARE = 0.02


def uniform(seed: int, *parts: str) -> float:
    """Uniform draw in [0, 1) keyed by the seed and the parts."""
    key = ":".join([str(seed), *parts]).encode("utf-8")
    digest = hashlib.blake2b(key, digest_size=8).digest()
    return int.from_bytes(digest, "big") / 2.0**64


class LatencyProvider:
    """Delays and transient failures around a zero-latency provider."""

    def __init__(self, inner, stage: int, seed: int, record_ids, unit_s: float = UNIT_S):
        self.inner = inner
        self.model_id = inner.model_id
        self.stage = stage
        self.seed = seed
        self.unit_s = unit_s
        self._count = len(record_ids)
        self._ranks = {purpose: self._rank(record_ids, purpose)
                       for purpose in ("delay", "tail", "transient")}
        self._attempts: dict[str, int] = {}
        self._lock = threading.Lock()

    def _rank(self, record_ids, purpose: str) -> dict[str, int]:
        ordered = sorted(record_ids,
                         key=lambda rid: uniform(self.seed, self.model_id, rid, purpose))
        return {rid: rank for rank, rid in enumerate(ordered)}

    def _within(self, record_id: str, purpose: str, share: float) -> bool:
        return self._ranks[purpose][record_id] < round(share * self._count)

    def delay_units(self, record_id: str) -> float:
        draw = (self._ranks["delay"][record_id] + 0.5) / self._count
        base = STAGE_UNITS[self.stage] * (0.5 + draw)
        if self._within(record_id, "tail", TAIL_SHARE):
            base *= TAIL_FACTOR
        return base

    def fails_first_attempt(self, record_id: str) -> bool:
        return self._within(record_id, "transient", TRANSIENT_SHARE)

    def scaled_sleep(self, seconds: float) -> None:
        """Backoff hook for ``run_two_stage``: program seconds become units."""
        time.sleep(seconds * self.unit_s)

    def send(self, prompt_text, temperature, max_tokens, tags):
        record_id = (tags or {}).get("record_id", "")
        with self._lock:
            attempt = self._attempts.get(record_id, 0) + 1
            self._attempts[record_id] = attempt
        if attempt == 1 and self.fails_first_attempt(record_id):
            # A failure returns quickly, as a refused request would.
            time.sleep(0.25 * self.delay_units(record_id) * self.unit_s)
            raise TransientProviderError(f"{self.model_id}: seeded transient failure")
        time.sleep(self.delay_units(record_id) * self.unit_s)
        return self.inner.send(prompt_text, temperature, max_tokens, tags)
