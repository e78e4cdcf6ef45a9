"""Uniform completion-provider interface with metering and caching.

Everything that talks to a language model goes through ``complete``:
retries with exponential backoff, token accounting (provider-reported
usage when present, a character-count estimate otherwise), a response
cache keyed by prompt/provider/temperature, and a thread-safe cost ledger.
Providers are small objects exposing ``model_id`` and ``send``; the HTTP
one speaks the chat-completions wire shape, and the oracle one answers
from gold labels for tests and benchmark runs that must cost nothing.  A
provider's ``identity``, when it has one, names everything besides the
prompt and temperature that decides its answers (endpoint, oracle
profile and seed); the response cache keys on it, and on ``model_id``
otherwise.
A provider marked ``in_process`` answers without waiting (the oracle).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
import sys
import threading
import time
from dataclasses import astuple, dataclass, replace
from typing import Callable

from .corpus import EXCLUDE, INCLUDE
from .jsonl import blocks, from_row, lines, scan_lines
from .rng import derive_rng


class ProviderError(RuntimeError):
    """Terminal provider failure (bad request, exhausted retries)."""


class TransientProviderError(ProviderError):
    """Retryable failure: timeouts, rate limits, server errors."""


class UnparseableResponse(ValueError):
    """Model output carried no usable decision."""


class ResponseCacheError(RuntimeError):
    """A complete line of the persisted response cache cannot be read."""


@dataclass(frozen=True)
class LlmResponse:
    text: str
    prompt_tokens: int
    completion_tokens: int
    model_id: str

    def __post_init__(self):
        if self.prompt_tokens < 0 or self.completion_tokens < 0:
            raise ValueError("token counts must be nonnegative")


@dataclass(frozen=True)
class Decision:
    label: str  # include | exclude
    confidence: float | None = None

    def __post_init__(self):
        if self.label not in (INCLUDE, EXCLUDE):
            raise ValueError(f"bad decision label {self.label!r}")
        if self.confidence is not None and not 0.0 <= self.confidence <= 1.0:
            raise ValueError(f"confidence {self.confidence} outside [0,1]")


@dataclass(frozen=True)
class ModelPricing:
    input_usd_per_mtok: float
    output_usd_per_mtok: float

    def __post_init__(self):
        if self.input_usd_per_mtok < 0 or self.output_usd_per_mtok < 0:
            raise ValueError("pricing must be nonnegative")

    def cost(self, prompt_tokens: int, completion_tokens: int) -> float:
        return (
            prompt_tokens / 1e6 * self.input_usd_per_mtok
            + completion_tokens / 1e6 * self.output_usd_per_mtok
        )


@dataclass
class LedgerEntry:
    """Token and call counters for one model."""

    prompt_tokens: int = 0
    completion_tokens: int = 0
    call_count: int = 0  # attempts, not successes
    cache_hits: int = 0


class CostLedger:
    """Per-model accumulators; dollars are always recomputed from tokens.

    There is deliberately no incremental usd counter to drift out of sync
    with the token totals.
    """

    def __init__(self, pricing: dict[str, ModelPricing] | None = None):
        self._entries: dict[str, LedgerEntry] = {}
        self._pricing: dict[str, ModelPricing] = dict(pricing or {})
        self._lock = threading.Lock()

    def record(
        self,
        model_id: str,
        prompt_tokens: int,
        completion_tokens: int,
        attempts: int = 1,
    ) -> None:
        with self._lock:
            e = self._entries.setdefault(model_id, LedgerEntry())
            e.prompt_tokens += prompt_tokens
            e.completion_tokens += completion_tokens
            e.call_count += attempts

    def record_cache_hit(self, model_id: str) -> None:
        with self._lock:
            self._entries.setdefault(model_id, LedgerEntry()).cache_hits += 1

    def entry(self, model_id: str) -> LedgerEntry:
        with self._lock:
            return replace(self._entries.get(model_id, LedgerEntry()))

    def models(self) -> list[str]:
        with self._lock:
            return sorted(self._entries)

    def usd_for(self, model_id: str) -> float:
        with self._lock:
            e = self._entries.get(model_id)
            p = self._pricing.get(model_id)
            if e is None or p is None:
                return 0.0
            return p.cost(e.prompt_tokens, e.completion_tokens)

    @property
    def usd_total(self) -> float:
        return sum(self.usd_for(m) for m in self.models())

    def merge(self, other: "CostLedger") -> None:
        """Fold another ledger's counters into this one."""
        for model_id in other.models():
            e = other.entry(model_id)
            with self._lock:
                mine = self._entries.setdefault(model_id, LedgerEntry())
                for name, count in vars(e).items():
                    setattr(mine, name, getattr(mine, name) + count)
        with other._lock:
            pricing = dict(other._pricing)
        for model_id, p in pricing.items():
            with self._lock:
                self._pricing.setdefault(model_id, p)

    def to_dict(self) -> dict:
        return {m: {**vars(self.entry(m)), "usd": self.usd_for(m)}
                for m in self.models()}


def estimate_tokens(text: str) -> int:
    """Character-count fallback when a provider reports no usage."""
    return math.ceil(len(text) / 4)


_DECISION_WORDS = ("include", "exclude")


def _last_decision_word(text: str) -> str | None:
    matches = re.findall(r"\b(include|exclude)\b", text, flags=re.IGNORECASE)
    return matches[-1].lower() if matches else None


_JSON = json.JSONDecoder()


def _first_json_object(text: str) -> dict | None:
    idx = text.find("{")
    while idx != -1:
        try:
            obj, _ = _JSON.raw_decode(text, idx)
        except ValueError:
            pass
        else:
            if isinstance(obj, dict):
                return obj
        idx = text.find("{", idx + 1)
    return None


def parse_decision(text: str, expects_confidence: bool) -> Decision:
    """Extract the screening decision from raw model output.

    Plain strategies take the LAST standalone include/exclude word, so
    chain-of-thought ramble before a final answer parses correctly.  The
    confidence strategy reads the first JSON object instead; a bad
    "decision" field there is unparseable even if prose elsewhere would
    have matched.
    """
    if not expects_confidence:
        word = _last_decision_word(text)
        if word is None:
            raise UnparseableResponse("no include/exclude decision in output")
        return Decision(label=word)
    obj = _first_json_object(text)
    if obj is None:
        raise UnparseableResponse("no JSON object in output")
    label = obj.get("decision")
    if not isinstance(label, str) or label.strip().lower() not in _DECISION_WORDS:
        raise UnparseableResponse(f"JSON decision field invalid: {label!r}")
    conf = obj.get("confidence")
    if isinstance(conf, bool) or not isinstance(conf, (int, float)) or math.isnan(conf):
        confidence = None
    else:
        confidence = max(0.0, min(1.0, float(conf)))
    return Decision(label=label.strip().lower(), confidence=confidence)


class ResponseCache:
    """Completion cache keyed by (prompt digest, provider, temperature).

    Optionally persisted as append-only JSONL so warm reruns replay
    earlier calls for free: each new response is one ``write`` of one
    line to the log, kept open for appending until ``close``.  A torn
    last line (a write cut short) is truncated away on load and reported
    on stderr; a corrupt complete line raises ResponseCacheError naming
    the file and line.  The log is read as ``jsonl`` reads row files: in
    blocks of whole lines, each scanned in one pass.
    """

    def __init__(self, path: str | None = None):
        self.path = path
        self._mem: dict[str, LlmResponse] = {}
        self._lock = threading.Lock()
        self._loaded = path is None
        self._log = None  # the log, opened for appending by the first put

    @staticmethod
    def key(prompt_text: str, model_id: str, temperature: float,
            digest: str | None = None) -> str:
        """``digest``, when given, is the sha256 hex of ``prompt_text``."""
        if digest is None:
            digest = hashlib.sha256(prompt_text.encode("utf-8")).hexdigest()
        return f"{digest}:{model_id}:{repr(float(temperature))}"

    def _ensure_loaded(self) -> None:
        if self._loaded:
            return
        if os.path.exists(self.path):
            with open(self.path, "rb+") as fh:
                lineno = kept = 0
                for block in blocks(fh):
                    if not block.endswith(b"\n"):
                        # A write cut short: drop it so the next append
                        # starts a fresh line; its call is simply re-sent.
                        fh.truncate(kept)
                        print(f"response cache {self.path}: dropped a torn last "
                              f"line ({len(block)} bytes)", file=sys.stderr)
                        break
                    self._load_block(block, lineno)
                    lineno += block.count(b"\n")
                    kept += len(block)
        self._loaded = True

    def _load_block(self, block: bytes, lineno: int) -> None:
        """Add the responses of ``block``, whole lines that follow line ``lineno``."""
        try:
            rows = scan_lines(block.decode("utf-8"), _JSON.scan_once, bom=False)
            if rows is not None:
                for row in rows:
                    key = row.pop("key")
                    self._mem[key] = from_row(LlmResponse, row)
                return
        except (ValueError, KeyError, TypeError):
            pass  # the line that fails is found below
        for lineno, line in enumerate(lines(block), start=lineno + 1):
            if not line.strip():
                continue
            try:
                row = _JSON.decode(line.decode("utf-8"))
                key = row.pop("key")
                self._mem[key] = LlmResponse(**row)
            except (ValueError, KeyError, TypeError, AttributeError) as exc:
                raise ResponseCacheError(
                    f"{self.path}:{lineno}: corrupt response cache line: {exc!r}"
                ) from None

    def get(self, key: str) -> LlmResponse | None:
        with self._lock:
            self._ensure_loaded()
            return self._mem.get(key)

    def put(self, key: str, response: LlmResponse) -> None:
        line = None
        if self.path:
            line = (json.dumps({"key": key, **vars(response)}) + "\n").encode("utf-8")
        with self._lock:
            self._ensure_loaded()
            if key in self._mem:
                return
            self._mem[key] = response
            if line is not None:
                if self._log is None:
                    # Opened after _ensure_loaded has cut any torn tail.
                    self._log = open(self.path, "ab", buffering=0)
                # One write unless it comes up short (a full disk): the
                # rest is retried, so that error is raised, not swallowed.
                while line:
                    line = line[self._log.write(line):]

    def close(self) -> None:
        """Close the log; a later ``put`` opens it again."""
        with self._lock:
            if self._log is not None:
                self._log.close()
                self._log = None


MAX_ATTEMPTS = 3
DEFAULT_TIMEOUT = 60.0


def complete(
    prompt_text: str,
    provider,
    ledger: CostLedger,
    temperature: float = 0.0,
    max_tokens: int | None = None,
    cache: ResponseCache | None = None,
    tags: dict | None = None,
    sleep: Callable[[float], None] = time.sleep,
    digest: str | None = None,
) -> LlmResponse:
    """One metered completion: cache check, retries, token accounting.

    Transient failures are retried up to three attempts with exponential
    backoff; every attempt lands in the ledger's call_count.  A cache hit
    adds nothing but a cache_hits tick, so replays cost $0.  ``digest``,
    the sha256 hex of ``prompt_text`` when the caller has it, saves the
    cache key hashing the prompt again.
    """
    key = None
    if cache is not None:
        identity = getattr(provider, "identity", provider.model_id)
        key = ResponseCache.key(prompt_text, identity, temperature, digest)
        hit = cache.get(key)
        if hit is not None:
            ledger.record_cache_hit(provider.model_id)
            return hit
    attempts = 0
    last_error: Exception | None = None
    response = None
    while attempts < MAX_ATTEMPTS:
        attempts += 1
        try:
            text, p_tok, c_tok = provider.send(
                prompt_text, temperature=temperature, max_tokens=max_tokens, tags=tags
            )
        except TransientProviderError as exc:
            last_error = exc
            if attempts < MAX_ATTEMPTS:
                sleep(2.0 ** (attempts - 1))
            continue
        except ProviderError as exc:
            ledger.record(provider.model_id, 0, 0, attempts=attempts)
            raise
        if p_tok is None:
            p_tok = estimate_tokens(prompt_text)
        if c_tok is None:
            c_tok = estimate_tokens(text)
        response = LlmResponse(
            text=text,
            prompt_tokens=p_tok,
            completion_tokens=c_tok,
            model_id=provider.model_id,
        )
        break
    if response is None:
        ledger.record(provider.model_id, 0, 0, attempts=attempts)
        raise ProviderError(
            f"provider {provider.model_id} failed after {attempts} attempts: {last_error}"
        )
    ledger.record(
        response.model_id,
        response.prompt_tokens,
        response.completion_tokens,
        attempts=attempts,
    )
    if cache is not None:
        cache.put(key, response)
    return response


class HttpChatProvider:
    """Chat-completions endpoint speaking the common JSON wire shape."""

    def __init__(self, model_id: str, url: str, api_key: str | None = None):
        self.model_id = model_id
        self.url = url
        self.api_key = api_key  # never part of the identity
        self.identity = f"{model_id}@{url}"

    def send(self, prompt_text, temperature, max_tokens, tags):
        import requests

        payload = {
            "model": self.model_id,
            "messages": [{"role": "user", "content": prompt_text}],
            "temperature": temperature,
        }
        if max_tokens is not None:
            payload["max_tokens"] = max_tokens
        headers = {}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        try:
            resp = requests.post(
                self.url, json=payload, headers=headers, timeout=DEFAULT_TIMEOUT
            )
        except requests.Timeout as exc:
            raise TransientProviderError(f"timeout: {exc}") from None
        except requests.RequestException as exc:
            raise TransientProviderError(f"transport error: {exc}") from None
        if resp.status_code == 429 or resp.status_code >= 500:
            raise TransientProviderError(f"HTTP {resp.status_code}")
        if resp.status_code != 200:
            raise ProviderError(f"HTTP {resp.status_code}: {resp.text[:200]}")
        try:
            body = resp.json()
            text = body["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise ProviderError(f"malformed completion response: {exc}") from None
        usage = body.get("usage") or {}
        p_tok = usage.get("prompt_tokens")
        c_tok = usage.get("completion_tokens")
        return text, p_tok, c_tok


@dataclass(frozen=True)
class OracleProfile:
    """Behavior knobs for the gold-label-driven stand-in provider."""

    acc_hi: float  # correctness when confident
    acc_lo: float  # correctness when unsure
    p_hi: float  # chance of a confident answer

    def __post_init__(self):
        for name in ("acc_hi", "acc_lo", "p_hi"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0,1], got {v}")


class OracleProvider:
    """Deterministic fake model keyed on gold labels.

    Each request must carry a record_id tag; the response stream is a
    pure function of (seed, model_id, record_id), so identical requests
    give identical answers no matter the call order or thread count.
    Confidence values are emitted unrounded: rounding could push a value
    across the routing threshold.  It never waits, so the cascade screens
    with it on the calling thread (``in_process``).
    """

    in_process = True

    def __init__(
        self,
        model_id: str,
        gold: dict[str, str],
        profile: OracleProfile,
        seed: int,
    ):
        self.model_id = model_id
        self.gold = gold
        self.profile = profile
        self.seed = seed
        self.identity = f"{model_id}@{astuple(profile)}:{seed}"

    def send(self, prompt_text, temperature, max_tokens, tags):
        record_id = (tags or {}).get("record_id")
        if not record_id:
            raise ProviderError(f"{self.model_id}: request lacks a record_id tag")
        if record_id not in self.gold:
            raise ProviderError(f"{self.model_id}: no gold label for {record_id!r}")
        rng = derive_rng(self.seed, self.model_id, record_id)
        confident = rng.random() < self.profile.p_hi
        if confident:
            confidence = 0.9 + 0.1 * rng.random()
            accuracy = self.profile.acc_hi
        else:
            confidence = 0.9 * rng.random()
            accuracy = self.profile.acc_lo
        correct = rng.random() < accuracy
        truth = self.gold[record_id]
        label = truth if correct else (EXCLUDE if truth == INCLUDE else INCLUDE)
        text = json.dumps({"confidence": confidence, "decision": label})
        return text, estimate_tokens(prompt_text), estimate_tokens(text)
