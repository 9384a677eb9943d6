"""Deterministic 64-bit pseudo-random stream (splitmix64).

All randomized parts of the library (game generation, sweep campaigns,
random deletion orders) draw from this generator so that identical seeds
produce identical results on every platform and under any worker count.

The stream advances its state by a fixed odd constant and finalizes each
new state with an xor-shift/multiply mix; everything is plain integer
arithmetic mod 2**64.

:func:`mix64_many` finalizes many states at once: each is a 64-bit lane
in its own 128-bit slot of one int, packed little-endian on every host,
so each step is one big-int operation over all lanes.  No slot carries:
a lane times a 64-bit multiplier stays below 2**128, and every shifted
and multiplied value is masked back to the low 64 bits of each slot.
:func:`draw_streams`, the one bulk draw, mixes ``_LANES`` lanes per pass,
so its memory is bounded.
"""

import struct
from itertools import chain, islice

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
# The two multipliers of the finalizer.
MIX1 = 0xBF58476D1CE4E5B9
MIX2 = 0x94D049BB133111EB
# Lanes per mix64_many pass of the bulk draws: few passes, little memory.
_LANES = 4096


def mix64(z: int) -> int:
    """Finalizer: scrambles a 64-bit value into a well-mixed output."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * MIX1) & MASK64
    z = ((z ^ (z >> 27)) * MIX2) & MASK64
    return z ^ (z >> 31)


def mix64_many(states) -> list[int]:
    """``[mix64(s) for s in states]`` for states in [0, 2**64), in one pass."""
    n = len(states)
    # one 64-bit word per half slot: the lanes in the even words, zeros in the odd
    fmt = f"<{2 * n}Q"
    words = [0] * (2 * n)
    words[::2] = states
    m = int.from_bytes(MASK64.to_bytes(16, "little") * n, "little")
    z = int.from_bytes(struct.pack(fmt, *words), "little")
    z = ((z ^ (z >> 30)) & m) * MIX1 & m
    z = ((z ^ (z >> 27)) & m) * MIX2 & m
    z ^= (z >> 31) & m
    return list(struct.unpack(fmt, z.to_bytes(16 * n, "little"))[::2])


class SplitMix64:
    """A splitmix64 stream seeded with a 64-bit integer."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & MASK64

    def next_u64(self) -> int:
        self.state = (self.state + GOLDEN) & MASK64
        return mix64(self.state)

    def next_in_range(self, lo: int, hi: int) -> int:
        """Draw from [lo, hi] by modular reduction of one 64-bit output.

        With r = hi - lo + 1, every value has probability floor(2**64 / r)
        or ceil(2**64 / r) in 2**64, so its relative bias from 1/r is below
        r / 2**64: about 5e-18 for the default payoffs 0..99, but about
        1/2 for the widest range the generators accept (r = 2**63 + 1),
        where the low values are drawn twice as often as the high ones.  The
        rule stays fixed anyway, since changing it would change every
        seeded game and sweep report.
        """
        return lo + self.next_u64() % (hi - lo + 1)


def draw_streams(streams, lo: int, hi: int):
    """Yield, per ``(seed, count)`` of `streams`, the first `count` draws of
    ``SplitMix64(seed).next_in_range(lo, hi)``, mixed ``_LANES`` at a time."""
    streams = list(streams)
    r = hi - lo + 1
    states = chain.from_iterable(
        [(seed + u * GOLDEN) & MASK64 for u in range(t, min(t + _LANES, count + 1))]
        for seed, count in streams
        for t in range(1, count + 1, _LANES)
    )
    # one pass per _LANES states, mixed and reduced only once a stream reaches it
    passes = iter(lambda: list(islice(states, _LANES)), [])
    values = chain.from_iterable([lo + z % r for z in mix64_many(lanes)] for lanes in passes)
    for _, count in streams:
        yield list(islice(values, count))


def derive_seed(master: int, index: int) -> int:
    """Seed for substream `index` split off a master seed.

    Defined as the `index`-th raw output of a splitmix64 stream seeded
    with `master`, which makes any substream addressable in O(1) and lets
    parallel workers reproduce exactly what a sequential run would draw.
    """
    return mix64((master + (index + 1) * GOLDEN) & MASK64)

