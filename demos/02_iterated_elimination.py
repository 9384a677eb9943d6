"""
Iterated elimination of minimax-dominated strategies
====================================================

A strategy is minimax-dominated when another strategy's *worst* payoff
strictly beats its *best* payoff.  Even a player who believes the
opponent's choice is correlated with their own should never play such a
strategy.  Deleting dominated strategies shrinks the game; repeating
until nothing is dominated yields the minimax-rationalizable profiles.
"""

from nonnash import (
    check_ir_survives_round1,
    elimination_ladder,
    eliminate_round,
    full_sets,
    individually_rational_profiles,
    is_minimax_dominated,
    iterate_elimination,
    maximin_values,
    minimax_rationalizable_profiles,
    restrict,
)
from nonnash.game_io import format_round, format_survivors, matrix_lines

# A 3x3 symmetric game built so that the elimination takes two rounds.
g = elimination_ladder()
for line in matrix_lines(g):
    print(line)
print()

# Strategy C tops out at 3, while A never drops below 5 and B never below
# 4, so C is dominated (by A and by B) from the start.
dominated, witness = is_minimax_dominated(g, full_sets(g), 0, 2)
print("C dominated in the full game:", dominated, "- witness:", "AB"[witness])

# B only becomes dominated *after* C is gone: against {A, B} its best
# payoff is 7 while A then guarantees 8.
dominated, _ = is_minimax_dominated(g, full_sets(g), 0, 1)
print("B dominated in the full game:", dominated)
dominated, _ = is_minimax_dominated(g, ((0, 1), (0, 1)), 0, 1)
print("B dominated once C is gone:  ", dominated)
print()

# Rounds are batches: all dominated pairs are found against the current
# sets, then removed simultaneously, which keeps symmetric games
# symmetric after every round.
survivors = full_sets(g)
round_no = 0
while True:
    survivors_next, batch = eliminate_round(g, survivors)
    if not batch:
        break
    round_no += 1
    print(format_round(g, round_no, batch))
    survivors = survivors_next
    for line in matrix_lines(restrict(g, survivors)):
        print("   " + line)
print("final " + format_survivors(g, survivors))
print()

trace = iterate_elimination(g)
print("rationalizable profiles:", minimax_rationalizable_profiles(g))

# Individual rationality is a different filter: thresholds (5, 5) admit
# the four profiles over {A, B}.  The three besides (A, A) survive round
# 1 but die in round 2 - individual rationality guarantees one round of
# survival, never more.
print("maximin:", maximin_values(g))
print("individually rational:", individually_rational_profiles(g))

verdict = check_ir_survives_round1(g)
print(verdict.detail)
assert trace.total_deletions == 4
