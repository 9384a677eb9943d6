import random

import pytest

from nonnash import SplitMix64, derive_seed
from nonnash.game_core import PAYOFF_MAX, PAYOFF_MIN
from nonnash.rng import (
    _LANES, GOLDEN, MASK64, draw_streams, mix64, mix64_many,
)

from oracles import draws_referee


@pytest.mark.parametrize(
    "lo, hi", [(0, 99), (5, 5), (PAYOFF_MIN, PAYOFF_MAX)], ids=["0..99", "5..5", "widest"]
)
@pytest.mark.parametrize("count", [0, 1, 7, 100])
def test_batch_equals_repeated_draws(lo, hi, count):
    for seed in (0, 1, 2**64 - 1, derive_seed(3, 4)):
        one = SplitMix64(seed)
        drawn = next(draw_streams([(seed, count)], lo, hi))
        assert drawn == [one.next_in_range(lo, hi) for _ in range(count)]


def test_first_draws_are_pinned():
    # splitmix64's published outputs for seed 0; every seeded game and
    # sweep report follows from them
    rng = SplitMix64(0)
    assert [rng.next_u64() for _ in range(3)] == [
        0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F,
    ]
    assert next(draw_streams([(0, 1)], 0, MASK64)) == [0xE220A8397B1DCDAF]


EDGE_STATES = [0, 1, 2**63, MASK64, GOLDEN, (2 * GOLDEN) & MASK64, (-GOLDEN) & MASK64]


@pytest.mark.parametrize("lanes", [0, 1, 10_000])
def test_mix64_many_equals_mix64(lanes):
    rng = random.Random(lanes)
    states = [rng.choice(EDGE_STATES) if rng.random() < 0.2 else rng.getrandbits(64)
              for _ in range(lanes)]
    assert mix64_many(states) == [mix64(s) for s in states]


def test_mix64_many_edge_lanes():
    # every lane's high bits next to every other's: no slot may carry
    assert mix64_many(EDGE_STATES) == list(map(mix64, EDGE_STATES))
    for s in EDGE_STATES:
        assert mix64_many([s]) == [mix64(s)]
    multiples = [(t * GOLDEN) & MASK64 for t in range(1, 500)]
    assert mix64_many(multiples) == list(map(mix64, multiples))


@pytest.mark.parametrize(
    "lo, hi", [(0, 99), (PAYOFF_MIN, PAYOFF_MAX)], ids=["0..99", "widest"]
)
@pytest.mark.parametrize("count", [0, 1, 3, 1000, 2 * _LANES + 5])
def test_one_stream_equals_referee(lo, hi, count):
    for seed in (0, MASK64, 2**63, derive_seed(5, 6)):
        assert next(draw_streams([(seed, count)], lo, hi)) == draws_referee(seed, lo, hi, count)


def test_draw_streams_equals_scalar_loops(passes):
    # small streams that share passes, empty ones, and streams longer than
    # a pass, some starting with lanes of earlier streams still unmixed
    rng = random.Random(35)
    counts = [0, 3, 0, 1] + [rng.randint(1, 60) for _ in range(150)]
    counts += [_LANES, 1, 3 * _LANES + 2, 0, _LANES - 1, 2 * _LANES, 7]
    streams = [(rng.choice([rng.getrandbits(64), MASK64, -5]), c) for c in counts]
    for lo, hi in [(0, 99), (PAYOFF_MIN, PAYOFF_MAX), (0, MASK64)]:
        passes.clear()
        drawn = list(draw_streams(iter(streams), lo, hi))
        assert drawn == [draws_referee(seed, lo, hi, c) for seed, c in streams]
        assert sum(passes) == sum(counts)
        assert max(passes) <= _LANES
    assert list(draw_streams([], 0, 99)) == []


def test_draw_streams_mixes_lanes_only_as_streams_are_taken(passes):
    drawn = draw_streams([(1, 3), (2, 5 * _LANES)], 0, 99)
    assert next(drawn) == draws_referee(1, 0, 99, 3)
    assert passes == [_LANES]
    assert next(drawn) == draws_referee(2, 0, 99, 5 * _LANES)
    assert passes == [_LANES] * 5 + [3]


@pytest.mark.parametrize("master", [0, 7, MASK64, -3, 2**70 + 1])
def test_derive_seed_is_a_raw_draw_of_the_master_stream(master):
    # substream j's seed is draw j of the master stream, whatever j the
    # stream starts from
    for start, count in [(0, 0), (0, 1), (5, 64), (2**40, 3), (0, _LANES + 9)]:
        assert next(draw_streams([(master + start * GOLDEN, count)], 0, MASK64)) == [
            derive_seed(master, j) for j in range(start, start + count)
        ]

