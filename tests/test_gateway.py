from __future__ import annotations

import json
import math
import sys
import threading
from contextlib import closing

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dfscreen import gateway
from dfscreen.gateway import (
    CostLedger,
    Decision,
    LlmResponse,
    ModelPricing,
    OracleProfile,
    ProviderError,
    ResponseCache,
    TransientProviderError,
    UnparseableResponse,
    complete,
    estimate_tokens,
    parse_decision,
)

from conftest import ScriptedProvider, oracle_provider
from http_stub import Reply, closed_url


class TestParseDecisionPlain:
    def test_last_word_wins(self):
        d = parse_decision("I would include this. Final answer: exclude", False)
        assert d.label == "exclude"
        assert d.confidence is None

    def test_case_insensitive(self):
        assert parse_decision("INCLUDE", False).label == "include"
        assert parse_decision("Exclude.", False).label == "exclude"

    def test_word_boundaries_respected(self):
        # "includes" and "excluded" are different words; neither counts.
        with pytest.raises(UnparseableResponse):
            parse_decision("This study includes mice so we excluded it.", False)

    def test_empty_output(self):
        with pytest.raises(UnparseableResponse, match="no include/exclude"):
            parse_decision("", False)

    def test_single_word(self):
        assert parse_decision("include", False).label == "include"


class TestParseDecisionJson:
    def test_fenced_json(self):
        text = '```json\n{"confidence": 0.95, "decision": "include"}\n```'
        d = parse_decision(text, True)
        assert d.label == "include"
        assert d.confidence == 0.95

    def test_prose_then_json(self):
        text = 'Thinking it over. {"confidence": 0.4, "decision": "exclude"}'
        d = parse_decision(text, True)
        assert (d.label, d.confidence) == ("exclude", 0.4)

    def test_first_object_wins(self):
        text = '{"confidence": 0.2, "decision": "exclude"} {"confidence": 0.9, "decision": "include"}'
        d = parse_decision(text, True)
        assert (d.label, d.confidence) == ("exclude", 0.2)

    def test_skips_brace_noise_before_object(self):
        text = '{not json at all} then {"confidence": 0.7, "decision": "include"}'
        d = parse_decision(text, True)
        assert (d.label, d.confidence) == ("include", 0.7)

    def test_no_json_at_all(self):
        with pytest.raises(UnparseableResponse, match="no JSON object"):
            parse_decision("I include this one.", True)

    def test_invalid_decision_field(self):
        with pytest.raises(UnparseableResponse, match="decision field invalid"):
            parse_decision('{"confidence": 0.9, "decision": "maybe"}', True)

    def test_missing_decision_field(self):
        with pytest.raises(UnparseableResponse, match="decision field invalid"):
            parse_decision('{"confidence": 0.9}', True)

    def test_prose_does_not_rescue_bad_json(self):
        # With confidence expected, only the JSON route counts.
        with pytest.raises(UnparseableResponse):
            parse_decision('Surely include. {"decision": "unsure"}', True)

    def test_decision_whitespace_and_case_normalized(self):
        d = parse_decision('{"decision": " Include ", "confidence": 0.5}', True)
        assert d.label == "include"

    def test_absent_confidence_is_none(self):
        d = parse_decision('{"decision": "exclude"}', True)
        assert d.label == "exclude"
        assert d.confidence is None

    @pytest.mark.parametrize("conf", [True, False, "0.9", None, float("nan")])
    def test_unusable_confidence_kept_as_none(self, conf):
        text = json.dumps({"decision": "include", "confidence": conf})
        d = parse_decision(text, True)
        assert d.label == "include"
        assert d.confidence is None

    def test_confidence_clamped(self):
        assert parse_decision('{"decision": "include", "confidence": 1.7}', True).confidence == 1.0
        assert parse_decision('{"decision": "include", "confidence": -0.2}', True).confidence == 0.0

    def test_integer_confidence(self):
        assert parse_decision('{"decision": "include", "confidence": 1}', True).confidence == 1.0


class TestValueObjects:
    def test_decision_label_validated(self):
        with pytest.raises(ValueError, match="bad decision label"):
            Decision(label="maybe")

    def test_decision_confidence_range(self):
        with pytest.raises(ValueError, match="outside"):
            Decision(label="include", confidence=1.5)

    def test_response_token_counts_nonnegative(self):
        with pytest.raises(ValueError):
            LlmResponse(text="x", prompt_tokens=-1, completion_tokens=0, model_id="m")

    def test_pricing_nonnegative(self):
        with pytest.raises(ValueError):
            ModelPricing(-0.1, 1.0)

    @pytest.mark.parametrize("price", [math.inf, -math.inf, math.nan])
    def test_pricing_finite(self, price):
        with pytest.raises(ValueError, match="not finite"):
            ModelPricing(price, 1.0)
        with pytest.raises(ValueError, match="not finite"):
            ModelPricing(1.0, price)


class TestEstimates:
    def test_four_chars_per_token(self):
        assert estimate_tokens("x" * 400) == 100
        assert estimate_tokens("x" * 401) == 101
        assert estimate_tokens("") == 0

    def test_estimate_cost_examples(self):
        # The dry run's dollar estimate is ModelPricing.cost on estimated tokens.
        pricing = ModelPricing(2.00, 8.00)
        assert pricing.cost(1_000_000, 0) == 2.00
        assert pricing.cost(0, 250_000) == 2.00
        assert pricing.cost(1_000_000, 125_000) == 3.00

    def test_stage1_pricing_sums_exactly(self):
        pricing = ModelPricing(0.40, 1.60)
        assert pricing.cost(1_000_000, 1_000_000) == 2.00


class TestCostLedger:
    def test_accumulation(self):
        ledger = CostLedger()
        ledger.record("m", 100, 20)
        ledger.record("m", 50, 10, attempts=2)
        e = ledger.entry("m")
        assert (e.prompt_tokens, e.completion_tokens, e.call_count) == (150, 30, 3)

    def test_usd_from_token_totals(self):
        ledger = CostLedger({"m": ModelPricing(2.00, 8.00)})
        for _ in range(1000):
            ledger.record("m", 1000, 125)
        # 1e6 prompt, 125e3 completion: no drift from summing per-call dollars.
        assert ledger.usd_for("m") == 2.00 + 1.00
        assert ledger.usd_total == 3.00

    def test_unknown_model_costs_nothing(self):
        ledger = CostLedger()
        assert ledger.usd_for("ghost") == 0.0
        ledger.record("m", 10, 10)
        assert ledger.usd_for("m") == 0.0  # no pricing registered

    def test_cache_hits_cost_nothing(self):
        ledger = CostLedger({"m": ModelPricing(2.00, 8.00)})
        ledger.record_cache_hit("m")
        assert ledger.entry("m").cache_hits == 1
        assert ledger.usd_for("m") == 0.0

    def test_entry_is_a_copy(self):
        ledger = CostLedger()
        ledger.record("m", 5, 5)
        e = ledger.entry("m")
        e.prompt_tokens = 999
        assert ledger.entry("m").prompt_tokens == 5

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["a", "b", "c"]),
                st.integers(0, 10_000),
                st.integers(0, 10_000),
                st.integers(1, 3),
            ),
            max_size=30,
        ),
        st.lists(
            st.tuples(
                st.sampled_from(["a", "b", "c"]),
                st.integers(0, 10_000),
                st.integers(0, 10_000),
                st.integers(1, 3),
            ),
            max_size=30,
        ),
    )
    def test_merge_is_componentwise_addition(self, rows_a, rows_b):
        left = CostLedger()
        right = CostLedger()
        combined = CostLedger()
        for model, p, c, n in rows_a:
            left.record(model, p, c, attempts=n)
            combined.record(model, p, c, attempts=n)
        for model, p, c, n in rows_b:
            right.record(model, p, c, attempts=n)
            combined.record(model, p, c, attempts=n)
        left.merge(right)
        assert left.models() == combined.models()
        for model in combined.models():
            assert left.entry(model) == combined.entry(model)

    def test_merge_adopts_pricing(self):
        left = CostLedger()
        right = CostLedger({"m": ModelPricing(1.0, 1.0)})
        right.record("m", 1_000_000, 0)
        left.merge(right)
        assert left.usd_for("m") == 1.0

    def test_to_dict_shape(self):
        ledger = CostLedger({"m": ModelPricing(2.00, 8.00)})
        ledger.record("m", 1_000_000, 0)
        ledger.record_cache_hit("m")
        assert ledger.to_dict() == {
            "m": {
                "prompt_tokens": 1_000_000,
                "completion_tokens": 0,
                "call_count": 1,
                "cache_hits": 1,
                "usd": 2.00,
            }
        }


class TestComplete:
    def test_success_records_usage(self):
        provider = ScriptedProvider("m", ["include"])
        ledger = CostLedger()
        resp = complete("p" * 40, provider, ledger)
        assert resp.text == "include"
        e = ledger.entry("m")
        assert e.prompt_tokens == 10
        assert e.completion_tokens == estimate_tokens("include")
        assert e.call_count == 1

    def test_usage_fallback_to_estimates(self):
        provider = ScriptedProvider("m", ["exclude"], report_usage=False)
        ledger = CostLedger()
        prompt = "q" * 41
        resp = complete(prompt, provider, ledger)
        assert resp.prompt_tokens == estimate_tokens(prompt) == 11
        assert resp.completion_tokens == estimate_tokens("exclude")

    def test_two_transients_then_success(self):
        provider = ScriptedProvider(
            "m",
            [TransientProviderError("429"), TransientProviderError("503"), "include"],
        )
        ledger = CostLedger()
        naps = []
        resp = complete("p", provider, ledger, sleep=naps.append)
        assert resp.text == "include"
        assert ledger.entry("m").call_count == 3
        assert naps == [1.0, 2.0]

    def test_exhausted_retries(self):
        provider = ScriptedProvider(
            "m", [TransientProviderError("x") for _ in range(3)]
        )
        ledger = CostLedger()
        naps = []
        with pytest.raises(ProviderError, match="failed after 3 attempts"):
            complete("p", provider, ledger, sleep=naps.append)
        e = ledger.entry("m")
        assert (e.call_count, e.prompt_tokens, e.completion_tokens) == (3, 0, 0)
        assert naps == [1.0, 2.0]  # no sleep after the last attempt

    def test_terminal_error_not_retried(self):
        provider = ScriptedProvider("m", [ProviderError("bad request"), "unreached"])
        ledger = CostLedger()
        with pytest.raises(ProviderError, match="bad request"):
            complete("p", provider, ledger, sleep=lambda s: None)
        assert len(provider.calls) == 1
        assert ledger.entry("m").call_count == 1

    def test_terminal_error_after_a_transient_one(self):
        terminal = ProviderError("bad request")
        provider = ScriptedProvider(
            "m", [TransientProviderError("503"), terminal, "unreached"])
        ledger = CostLedger()
        naps = []
        with pytest.raises(ProviderError) as info:
            complete("p", provider, ledger, sleep=naps.append)
        assert info.value is terminal
        e = ledger.entry("m")
        assert (e.call_count, e.prompt_tokens, e.completion_tokens) == (2, 0, 0)
        assert naps == [1.0]

    def test_exhausted_retries_name_the_last_error(self):
        provider = ScriptedProvider("m", [TransientProviderError(m) for m in
                                          ("429 first", "503 second", "timeout third")])
        with pytest.raises(ProviderError) as info:
            complete("p", provider, CostLedger(), sleep=lambda s: None)
        assert type(info.value) is ProviderError
        assert str(info.value) == "provider m failed after 3 attempts: timeout third"

    def test_tags_reach_provider(self):
        provider = ScriptedProvider("m", ["include"])
        complete("p", provider, CostLedger(), tags={"record_id": "r9"})
        assert provider.calls[0]["tags"] == {"record_id": "r9"}

    def test_cache_hit_skips_provider(self):
        provider = ScriptedProvider("m", ["include", "never sent"])
        ledger = CostLedger({"m": ModelPricing(2.0, 8.0)})
        cache = ResponseCache()
        first = complete("same prompt", provider, ledger, cache=cache)
        second = complete("same prompt", provider, ledger, cache=cache)
        assert second == first
        assert len(provider.calls) == 1
        e = ledger.entry("m")
        assert e.call_count == 1
        assert e.cache_hits == 1

    def test_temperature_scopes_cache_key(self):
        provider = ScriptedProvider("m", ["a", "b"])
        cache = ResponseCache()
        r0 = complete("p", provider, CostLedger(), temperature=0.0, cache=cache)
        r1 = complete("p", provider, CostLedger(), temperature=0.5, cache=cache)
        assert (r0.text, r1.text) == ("a", "b")


class TestResponseCache:
    def test_key_format(self):
        key = ResponseCache.key("hello", "m1", 0)
        digest, model, temp = key.rsplit(":", 2)
        assert len(digest) == 64 and set(digest) <= set("0123456789abcdef")
        assert model == "m1"
        assert temp == "0.0"

    def test_jsonl_round_trip(self, tmp_path):
        path = str(tmp_path / "responses.jsonl")
        resp = LlmResponse(text="include", prompt_tokens=7, completion_tokens=2, model_id="m")
        with closing(ResponseCache(path)) as first:
            first.put("k1", resp)
        again = ResponseCache(path)
        assert again.get("k1") == resp

    def test_put_idempotent(self, tmp_path):
        path = str(tmp_path / "responses.jsonl")
        resp = LlmResponse(text="x", prompt_tokens=1, completion_tokens=1, model_id="m")
        with closing(ResponseCache(path)) as cache:
            cache.put("k", resp)
            cache.put("k", resp)
        with open(path) as fh:
            assert len(fh.readlines()) == 1

    def test_missing_file_is_empty(self, tmp_path):
        cache = ResponseCache(str(tmp_path / "nope.jsonl"))
        assert cache.get("k") is None

    def test_concurrent_puts_write_whole_lines(self, tmp_path):
        path = str(tmp_path / "responses.jsonl")
        cache = ResponseCache(path)

        def response(t, i):
            return LlmResponse(f"answer {t}/{i} " + "x" * (i % 50), i, t, f"m{t}")

        def fill(t):
            for i in range(200):
                cache.put(f"k{t}-{i}", response(t, i))

        # Tiny switch interval: threads preempt each other between bytecodes.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=fill, args=(t,)) for t in range(8)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        cache.close()
        with open(path, "rb") as fh:
            lines = fh.read().split(b"\n")
        assert lines[-1] == b"" and len(lines) == 1601
        assert len({json.loads(line)["key"] for line in lines[:-1]}) == 1600
        again = ResponseCache(path)
        for t in range(8):
            for i in range(200):
                assert again.get(f"k{t}-{i}") == response(t, i)

    def test_repeated_key_writes_nothing(self, tmp_path):
        path = str(tmp_path / "responses.jsonl")
        resp = LlmResponse(text="x", prompt_tokens=1, completion_tokens=1, model_id="m")
        first = ResponseCache(path)
        first.put("k", resp)
        first.close()
        with open(path, "rb") as fh:
            before = fh.read()
        again = ResponseCache(path)
        again.put("k", LlmResponse(text="y", prompt_tokens=2, completion_tokens=2,
                                   model_id="m"))
        again.close()
        with open(path, "rb") as fh:
            assert fh.read() == before
        assert again.get("k") == resp

    def test_reopened_log_appends_after_existing_lines(self, tmp_path):
        path = str(tmp_path / "responses.jsonl")
        r1 = LlmResponse(text="one", prompt_tokens=1, completion_tokens=1, model_id="m")
        r2 = LlmResponse(text="two", prompt_tokens=2, completion_tokens=2, model_id="m")
        first = ResponseCache(path)
        first.put("k1", r1)
        first.close()
        first.close()  # closing twice is harmless
        second = ResponseCache(path)
        second.put("k2", r2)
        second.close()
        with open(path, encoding="utf-8") as fh:
            keys = [json.loads(line)["key"] for line in fh]
        assert keys == ["k1", "k2"]
        third = ResponseCache(path)
        assert (third.get("k1"), third.get("k2")) == (r1, r2)


class TestHttpChatProvider:
    def chat_body(self, content, usage=None):
        body = {"choices": [{"message": {"content": content}}]}
        if usage is not None:
            body["usage"] = usage
        return body

    def send(self, stub, *replies, api_key=None, max_tokens=None):
        stub.script.extend(replies)
        provider = gateway.HttpChatProvider("m", stub.url("/v1/chat/completions"), api_key)
        return provider.send("p", temperature=0.0, max_tokens=max_tokens, tags=None)

    def test_payload_shape(self, stub):
        stub.script.append(Reply(body=self.chat_body(
            "include", {"prompt_tokens": 5, "completion_tokens": 1})))
        provider = gateway.HttpChatProvider("gpt-mini", stub.url("/v1"), api_key="sk-x")
        text, p_tok, c_tok = provider.send("screen this", temperature=0.0, max_tokens=64, tags=None)
        assert (text, p_tok, c_tok) == ("include", 5, 1)
        [seen] = stub.received
        assert seen.path == "/v1"
        assert seen.body == {
            "model": "gpt-mini",
            "messages": [{"role": "user", "content": "screen this"}],
            "temperature": 0.0,
            "max_tokens": 64,
        }
        assert seen.headers["Authorization"] == "Bearer sk-x"
        assert seen.headers["Content-Type"] == "application/json"

    def test_max_tokens_omitted_when_unset(self, stub):
        self.send(stub, Reply(body=self.chat_body("x")))
        [seen] = stub.received
        assert "max_tokens" not in seen.body
        assert "Authorization" not in seen.headers

    def test_stub_answer_reports_usage(self, stub):
        text, p_tok, c_tok = self.send(stub)
        assert parse_decision(text, True).confidence is not None
        assert (p_tok, c_tok) == (0, len(text) // 4)

    def test_missing_usage_reports_none(self, stub):
        text, p_tok, c_tok = self.send(stub, Reply(body=self.chat_body("exclude")))
        assert (text, p_tok, c_tok) == ("exclude", None, None)

    @pytest.mark.parametrize("usage", [{"prompt_tokens": n, "completion_tokens": n}
                                       for n in (5.0, True, -1, "5", None)] + [[5, 1], "5"])
    def test_usage_that_is_no_count_reports_none(self, stub, usage):
        text, p_tok, c_tok = self.send(stub, Reply(body=self.chat_body("exclude", usage)))
        assert (text, p_tok, c_tok) == ("exclude", None, None)

    @pytest.mark.parametrize("content", [None, 5, ["include"]])
    def test_content_that_is_no_string_is_terminal(self, stub, content):
        with pytest.raises(ProviderError, match="malformed completion response") as err:
            self.send(stub, Reply(body=self.chat_body(content)))
        assert not isinstance(err.value, TransientProviderError)

    @pytest.mark.parametrize("status", [429, 500, 503])
    def test_retryable_statuses(self, stub, status):
        with pytest.raises(TransientProviderError, match=f"HTTP {status}"):
            self.send(stub, Reply(status=status, body=b"busy"))

    def test_client_error_is_terminal(self, stub):
        with pytest.raises(ProviderError, match="HTTP 400: bad request") as err:
            self.send(stub, Reply(status=400, body=b"bad request"))
        assert not isinstance(err.value, TransientProviderError)

    @pytest.mark.parametrize("status", [301, 302, 303, 307, 308])
    def test_redirect_is_terminal_and_not_followed(self, stub, status):
        # Following it would send the request, and its API key, somewhere else.
        moved = Reply(status=status, body=b"moved", headers={"Location": stub.url("/moved")})
        with pytest.raises(ProviderError, match=f"HTTP {status}: moved") as err:
            self.send(stub, moved, api_key="sk-x")
        assert not isinstance(err.value, TransientProviderError)
        assert [seen.path for seen in stub.received] == ["/v1/chat/completions"]

    def test_timeout_is_transient(self, stub, monkeypatch):
        monkeypatch.setattr(gateway, "DEFAULT_TIMEOUT", 0.2)
        with pytest.raises(TransientProviderError, match="timeout"):
            self.send(stub, Reply(delay=1.0))

    def test_closed_port_is_transient(self):
        provider = gateway.HttpChatProvider("m", closed_url("/v1"))
        with pytest.raises(TransientProviderError, match="transport error"):
            provider.send("p", temperature=0.0, max_tokens=None, tags=None)

    def test_malformed_body_is_terminal(self, stub):
        with pytest.raises(ProviderError, match="malformed"):
            self.send(stub, Reply(body={"choices": []}))

    def test_body_that_is_no_json_is_terminal(self, stub):
        with pytest.raises(ProviderError, match="malformed") as err:
            self.send(stub, Reply(body=b"<html>oops</html>"))
        assert not isinstance(err.value, TransientProviderError)

    def test_same_model_at_two_urls_shares_no_cache_entry(self, stub):
        stub.script.extend(Reply(body=self.chat_body(f"exclude, says {name}"))
                           for name in ("a", "b"))
        cache = ResponseCache()
        a = gateway.HttpChatProvider("m", stub.url("/a"), api_key="sk-a")
        b = gateway.HttpChatProvider("m", stub.url("/b"), api_key="sk-a")
        assert complete("p", a, CostLedger(), cache=cache).text == "exclude, says a"
        assert complete("p", b, CostLedger(), cache=cache).text == "exclude, says b"
        assert [seen.path for seen in stub.received] == ["/a", "/b"]
        assert [cache.get(ResponseCache.key("p", p.identity, 0.0)).text for p in (a, b)] == [
            "exclude, says a", "exclude, says b"]
        # The API key is a credential, not part of what answers.
        rekeyed = gateway.HttpChatProvider("m", stub.url("/a"), api_key="sk-other")
        assert complete("p", rekeyed, CostLedger(), cache=cache).text.endswith("says a")
        assert len(stub.received) == 2 and "sk-" not in a.identity


class TestOracleProvider:
    def gold(self, n=200):
        return {f"r{i:03d}": ("include" if i % 4 == 0 else "exclude") for i in range(n)}

    def send(self, provider, record_id):
        return provider.send("prompt", temperature=0.0, max_tokens=None, tags={"record_id": record_id})

    def test_deterministic_across_instances_and_calls(self):
        gold = self.gold()
        profile = OracleProfile(acc_hi=0.9, acc_lo=0.7, p_hi=0.8)
        a = oracle_provider(gold, profile, seed=42)
        b = oracle_provider(gold, profile, seed=42)
        for rid in list(gold)[:50]:
            assert self.send(a, rid) == self.send(b, rid) == self.send(a, rid)

    def test_seed_and_model_scope_the_stream(self):
        gold = self.gold()
        profile = OracleProfile(1.0, 1.0, 0.5)
        base = oracle_provider(gold, profile, seed=1)
        other_seed = oracle_provider(gold, profile, seed=2)
        other_model = oracle_provider(gold, profile, seed=1, model_id="oracle2")
        texts = lambda p: [self.send(p, rid)[0] for rid in list(gold)[:40]]
        assert texts(base) != texts(other_seed)
        assert texts(base) != texts(other_model)

    def test_confidence_bands(self):
        gold = self.gold(400)
        hi = oracle_provider(gold, OracleProfile(1.0, 1.0, 1.0), seed=3)
        lo = oracle_provider(gold, OracleProfile(1.0, 1.0, 0.0), seed=3)
        for rid in gold:
            c_hi = json.loads(self.send(hi, rid)[0])["confidence"]
            c_lo = json.loads(self.send(lo, rid)[0])["confidence"]
            assert 0.9 <= c_hi < 1.0
            assert 0.0 <= c_lo < 0.9

    def test_both_bands_occur_at_half(self):
        gold = self.gold(400)
        provider = oracle_provider(gold, OracleProfile(1.0, 1.0, 0.5), seed=9)
        bands = {json.loads(self.send(provider, rid)[0])["confidence"] >= 0.9 for rid in gold}
        assert bands == {True, False}

    def test_perfect_accuracy_matches_gold(self):
        gold = self.gold()
        provider = oracle_provider(gold, OracleProfile(1.0, 1.0, 0.5), seed=7)
        for rid, truth in gold.items():
            decision = json.loads(self.send(provider, rid)[0])["decision"]
            assert decision == truth

    def test_zero_accuracy_always_flips(self):
        gold = self.gold()
        provider = oracle_provider(gold, OracleProfile(0.0, 0.0, 0.5), seed=7)
        for rid, truth in gold.items():
            decision = json.loads(self.send(provider, rid)[0])["decision"]
            assert decision != truth

    def test_output_parses_as_confidence_decision(self):
        gold = self.gold(50)
        provider = oracle_provider(gold, OracleProfile(0.9, 0.6, 0.7), seed=11)
        for rid in gold:
            text, p_tok, c_tok = self.send(provider, rid)
            d = parse_decision(text, expects_confidence=True)
            assert d.label in ("include", "exclude")
            assert d.confidence is not None
            assert p_tok == estimate_tokens("prompt")
            assert c_tok == estimate_tokens(text)

    def test_missing_record_id_tag(self):
        provider = oracle_provider({"r": "include"}, OracleProfile(1, 1, 1), seed=0)
        with pytest.raises(ProviderError, match="record_id"):
            provider.send("p", temperature=0.0, max_tokens=None, tags=None)

    def test_unknown_record(self):
        provider = oracle_provider({"r": "include"}, OracleProfile(1, 1, 1), seed=0)
        with pytest.raises(ProviderError, match="no gold label"):
            self.send(provider, "ghost")

    def test_profile_validated(self):
        with pytest.raises(ValueError, match="p_hi"):
            OracleProfile(acc_hi=0.9, acc_lo=0.9, p_hi=1.5)


def test_confidence_never_rounded_to_band_edge():
    # A confident draw must stay strictly below 1.0 and at or above 0.9;
    # rounding could cross the routing threshold.
    gold = {f"r{i}": "exclude" for i in range(500)}
    provider = oracle_provider(gold, OracleProfile(1.0, 1.0, 1.0), seed=123)
    for rid in gold:
        text, _, _ = provider.send("p", temperature=0.0, max_tokens=None, tags={"record_id": rid})
        c = json.loads(text)["confidence"]
        assert 0.9 <= c < 1.0
        assert not math.isnan(c)
