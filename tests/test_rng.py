import pytest

from nonnash import SplitMix64, derive_seed
from nonnash.game_core import PAYOFF_MAX, PAYOFF_MIN


@pytest.mark.parametrize(
    "lo, hi", [(0, 99), (5, 5), (PAYOFF_MIN, PAYOFF_MAX)], ids=["0..99", "5..5", "widest"]
)
@pytest.mark.parametrize("count", [0, 1, 7, 100])
def test_batch_equals_repeated_draws(lo, hi, count):
    for seed in (0, 1, 2**64 - 1, derive_seed(3, 4)):
        one, batch = SplitMix64(seed), SplitMix64(seed)
        drawn = batch.next_many_in_range(lo, hi, count)
        assert drawn == [one.next_in_range(lo, hi) for _ in range(count)]
        assert batch.state == one.state
        # the stream goes on as if each value had been drawn alone
        assert batch.next_u64() == one.next_u64()


def test_first_draws_are_pinned():
    # splitmix64's published outputs for seed 0; every seeded game and
    # sweep report follows from them
    rng = SplitMix64(0)
    assert [rng.next_u64() for _ in range(3)] == [
        0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F,
    ]
    assert SplitMix64(0).next_many_in_range(0, 2**64 - 1, 1) == [0xE220A8397B1DCDAF]
