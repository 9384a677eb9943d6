"""Deterministic 64-bit pseudo-random stream (splitmix64).

All randomized parts of the library (game generation, sweep campaigns,
random deletion orders) draw from this generator so that identical seeds
produce identical results on every platform and under any worker count.

The stream advances its state by a fixed odd constant and finalizes each
new state with an xor-shift/multiply mix; everything is plain integer
arithmetic mod 2**64.
"""

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
# The two multipliers of the finalizer.
MIX1 = 0xBF58476D1CE4E5B9
MIX2 = 0x94D049BB133111EB


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

    def next_many_in_range(self, lo: int, hi: int, count: int) -> list[int]:
        """`count` draws of :meth:`next_in_range` in one loop, same end state."""
        r = hi - lo + 1
        s = self.state
        out = []
        append = out.append
        for _ in range(count):
            s = (s + GOLDEN) & MASK64
            z = ((s ^ (s >> 30)) * MIX1) & MASK64
            z = ((z ^ (z >> 27)) * MIX2) & MASK64
            append(lo + (z ^ (z >> 31)) % r)
        self.state = s
        return out


def derive_seed(master: int, index: int) -> int:
    """Seed for substream `index` split off a master seed.

    Defined as the `index`-th raw output of a splitmix64 stream seeded
    with `master`, which makes any substream addressable in O(1) and lets
    parallel workers reproduce exactly what a sequential run would draw.
    """
    return mix64((master + (index + 1) * GOLDEN) & MASK64)
