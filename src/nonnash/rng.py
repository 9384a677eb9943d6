"""Deterministic 64-bit pseudo-random stream (splitmix64).

All randomized parts of the library (game generation, sweep campaigns,
random deletion orders) draw from this generator so that identical seeds
produce identical results on every platform and under any worker count.

The stream advances its state by a fixed odd constant and finalizes each
new state with an xor-shift/multiply mix; everything is plain integer
arithmetic mod 2**64.

:func:`draw_streams`, the one bulk draw, finalizes many states at once:
each is a 64-bit lane in its own 128-bit slot of one int, packed
little-endian on every host, so each step is one big-int operation over
all lanes.  A pass holds up to ``_LANES`` lanes, so its memory is bounded.
Its states take one add: each stream's piece of the pass repeats one base
over its lanes, and the step table adds (o + 1) * GOLDEN mod 2**64 to lane
o.  No slot carries: the sum stays below 2**65 and is masked to 64 bits
before the first shift, a lane times a 64-bit multiplier stays below
2**128, and every shifted and multiplied value is masked back to the low
64 bits of each slot.
"""

import struct
from itertools import chain, islice

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
# The two multipliers of the finalizer.
MIX1 = 0xBF58476D1CE4E5B9
MIX2 = 0x94D049BB133111EB
# Lanes per pass of the bulk draw: few passes, little memory.
_LANES = 1024


def mix64(z: int) -> int:
    """Finalizer: scrambles a 64-bit value into a well-mixed output."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * MIX1) & MASK64
    z = ((z ^ (z >> 27)) * MIX2) & MASK64
    return z ^ (z >> 31)


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


def _slot_tables(lanes: int) -> tuple[int, int]:
    """MASK64, and the step (o + 1) * GOLDEN mod 2**64, in each slot o of
    at least `lanes` 128-bit slots, packed little-endian."""
    ones = ramp = n = 1  # 1, and o + 1, in each slot o of n slots, doubling n
    while n < lanes:
        ramp += (ramp + n * ones) << 128 * n
        ones += ones << 128 * n
        n *= 2
    return MASK64 * ones, GOLDEN * ramp & MASK64 * ones


_MASKS, _STEPS = _slot_tables(_LANES)


def _mix_pass(bases, n: int) -> list[int]:
    """mix64 of the `n` states of one pass: its packed `bases`, one 128-bit
    slot per lane, plus the step table's first `n` slots."""
    z = int.from_bytes(b"".join(bases), "little") + (_STEPS & ((1 << 128 * n) - 1))
    z &= _MASKS
    z = ((z ^ (z >> 30)) & _MASKS) * MIX1 & _MASKS
    z = ((z ^ (z >> 27)) & _MASKS) * MIX2 & _MASKS
    z ^= (z >> 31) & _MASKS
    return list(struct.unpack(f"<{2 * n}Q", z.to_bytes(16 * n, "little"))[::2])


def _passes(streams):
    """The mixed states of the draws of ``(seed, count)`` `streams`, one list
    per pass of up to ``_LANES`` lanes, filled stream after stream; a pass
    is mixed only once a stream reaches it."""
    bases, o = [], 0
    for seed, count in streams:
        # draw u sits in lane o + u - 1, whose step makes it seed + u * GOLDEN
        base = seed - o * GOLDEN
        while o + count >= _LANES:
            bases.append((base & MASK64).to_bytes(16, "little") * (_LANES - o))
            yield _mix_pass(bases, _LANES)
            bases, count, o, base = [], count - _LANES + o, 0, base + _LANES * GOLDEN
        if count:
            bases.append((base & MASK64).to_bytes(16, "little") * count)
            o += count
    if o:
        yield _mix_pass(bases, o)


def draw_streams(streams, lo: int, hi: int):
    """Yield, per ``(seed, count)`` of `streams`, the first `count` draws of
    ``SplitMix64(seed).next_in_range(lo, hi)``, mixed ``_LANES`` at a time."""
    streams = list(streams)
    r = hi - lo + 1
    values = chain.from_iterable([lo + z % r for z in zs] for zs in _passes(streams))
    for _, count in streams:
        yield list(islice(values, count))


def derive_seed(master: int, index: int) -> int:
    """Seed for substream `index` split off a master seed.

    Defined as the `index`-th raw output of a splitmix64 stream seeded
    with `master`, which makes any substream addressable in O(1) and lets
    parallel workers reproduce exactly what a sequential run would draw.
    """
    return mix64((master + (index + 1) * GOLDEN) & MASK64)

