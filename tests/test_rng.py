from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from dfscreen import synth
from dfscreen.rng import SplitMix64, derive_rng, fnv1a64

from test_synth import reference_texts

MASK = 2**64 - 1
GAMMA = 0x9E3779B97F4A7C15

# Published reference outputs for the seed-0 stream.
SPLITMIX64_SEED0 = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


def test_splitmix64_reference_vector():
    rng = SplitMix64(0)
    assert [rng.next_u64() for _ in range(3)] == SPLITMIX64_SEED0


def test_splitmix64_independent_reimplementation():
    # Transcribed afresh from the algorithm definition, kept deliberately
    # separate from the library code.
    def reference_stream(seed, count):
        mask = (1 << 64) - 1
        out = []
        x = seed & mask
        for _ in range(count):
            x = (x + 0x9E3779B97F4A7C15) & mask
            z = x
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
            out.append(z ^ (z >> 31))
        return out

    for seed in (0, 1, 42, 2**64 - 1, 123456789):
        rng = SplitMix64(seed)
        assert [rng.next_u64() for _ in range(20)] == reference_stream(seed, 20)


def test_random_unit_interval():
    rng = SplitMix64(7)
    values = [rng.random() for _ in range(10000)]
    assert all(0.0 <= v < 1.0 for v in values)
    mean = sum(values) / len(values)
    assert abs(mean - 0.5) < 0.02


def test_randrange_bounds_and_coverage():
    rng = SplitMix64(9)
    counts = Counter(rng.randrange(5) for _ in range(5000))
    assert set(counts) == {0, 1, 2, 3, 4}
    assert max(counts.values()) - min(counts.values()) < 500


def test_randrange_rejects_nonpositive():
    rng = SplitMix64(0)
    for bad in (0, -3):
        try:
            rng.randrange(bad)
        except ValueError:
            continue
        raise AssertionError("expected ValueError")


def test_sample_indices_distinct():
    rng = SplitMix64(5)
    out = rng.sample_indices(10, 10)
    assert sorted(out) == list(range(10))
    out = rng.sample_indices(100, 5)
    assert len(set(out)) == 5


def test_fnv1a64_reference_vectors():
    # Standard FNV-1a test values.
    assert fnv1a64("") == 0xCBF29CE484222325
    assert fnv1a64("a") == 0xAF63DC4C8601EC8C
    assert fnv1a64("foobar") == 0x85944171F73967E8
    assert fnv1a64(b"foobar") == fnv1a64("foobar")


@given(st.text(max_size=50), st.text(max_size=50))
def test_fnv1a64_distinguishes(a, b):
    if a != b:
        # Collisions exist in principle; none among short random pairs.
        assert fnv1a64(a) != fnv1a64(b) or a.encode() == b.encode()


def test_derive_rng_stable_and_distinct():
    a1 = derive_rng(42, "model", "rec-1").next_u64()
    a2 = derive_rng(42, "model", "rec-1").next_u64()
    b = derive_rng(42, "model", "rec-2").next_u64()
    c = derive_rng(43, "model", "rec-1").next_u64()
    assert a1 == a2
    assert len({a1, b, c}) == 3


@given(st.integers(0, MASK), st.integers(0, 300))
@example(0, 0)
@example(MASK, 0)
@example(MASK, 97)
@example(0, 3)
def test_block_matches_repeated_next_u64(seed, count):
    block, scalar = SplitMix64(seed), SplitMix64(seed)
    out = block.next_u64_array(count)
    assert out.dtype == np.uint64
    assert out.tolist() == [scalar.next_u64() for _ in range(count)]
    assert block.next_u64() == scalar.next_u64()


def state_before(output, ahead=0):
    """A state whose draw number ``ahead + 1`` returns ``output``.

    The output mix is a bijection: each xorshift is undone by iterating
    it, and each multiply by the odd constant's inverse mod 2**64.
    """
    def unshift(y, s):
        x = y
        for _ in range(64 // s + 1):
            x = y ^ (x >> s)
        return x

    z = unshift(output, 31)
    z = (z * pow(0x94D049BB133111EB, -1, 2**64)) & MASK
    z = unshift(z, 27)
    z = (z * pow(0xBF58476D1CE4E5B9, -1, 2**64)) & MASK
    return (unshift(z, 30) - (ahead + 1) * GAMMA) & MASK


def test_state_before_hits_the_output():
    for ahead in (0, 1, 70):
        rng = SplitMix64(state_before(MASK, ahead))
        assert [rng.next_u64() for _ in range(ahead + 1)][-1] == MASK


def test_randrange_redraws_a_rejected_output():
    # 2**64 - 1 lies above the largest multiple of 12 below 2**64.
    state = state_before(MASK)
    rng, after_two = SplitMix64(state), SplitMix64(state)
    value = rng.randrange(12)
    after_two.next_u64()
    assert value == after_two.next_u64() % 12
    assert rng.next_u64() == after_two.next_u64()


# Draw positions within a record: 0 is the topic, 5 and 6 the title's
# common words, 8 + 2j the abstract word after coin j.
@pytest.mark.parametrize("position", [0, 67 * 2, 67 + 5, 67 * 3 + 6, 67 + 8 + 2 * 11])
def test_rejected_draw_is_redrawn_in_place(position):
    k, n = 5, 4  # 2**64 % 5 == 1, so randrange(5) rejects 2**64 - 1
    state = state_before(MASK, position)
    if position % 67 >= 8:
        # The coin before a body word must pick the 12 common words.
        coin = SplitMix64(state)
        coin.next_u64_array(position - 1)
        assert coin.random() >= 0.7
    block, scalar = SplitMix64(state), SplitMix64(state)
    assert synth._texts(block, n, k) == reference_texts(scalar, n, k)
    # One draw per logical position plus the one rejected.
    skipped = SplitMix64(state)
    skipped.next_u64_array(n * 67 + 1)
    assert block.next_u64() == scalar.next_u64() == skipped.next_u64()


# The output whose random() is exactly 0.7 as a float.
COIN_EDGE = int(0.7 * 2**53) << 11


class ScriptedStream(SplitMix64):
    """Replays a fixed list of outputs through next_u64 and next_u64_array."""

    def __init__(self, outputs):
        super().__init__(0)
        self.outputs = list(outputs)

    def next_u64(self):
        return self.outputs.pop(0)

    def next_u64_array(self, count):
        out, self.outputs = self.outputs[:count], self.outputs[count:]
        return np.array(out, dtype=np.uint64)


@given(
    st.integers(1, 4),
    st.sampled_from([1, 3, 5, 7, 12]),
    st.lists(st.sampled_from([MASK, MASK - 1, MASK - 3, MASK - 4, 0, COIN_EDGE]),
             min_size=16, max_size=16),
    st.randoms(use_true_random=False),
)
def test_any_run_of_rejections_matches_reference(n, k, rejects, random):
    # Streams dense in outputs that randrange(12) or randrange(k) rejects,
    # at every kind of position and at times side by side, and in coins of
    # exactly 0.7; both paths must read them alike.
    stream = [random.getrandbits(64) for _ in range(n * 67 + 64)]
    for value in rejects:
        stream[random.randrange(len(stream) - 64)] = value
    block, scalar = ScriptedStream(stream), ScriptedStream(stream)
    assert synth._texts(block, n, k) == reference_texts(scalar, n, k)
    assert block.outputs == scalar.outputs
