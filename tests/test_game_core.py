import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nonnash.game_core
from nonnash import (
    DuplicateCell,
    DuplicateLabel,
    EmptySurvivorSet,
    Game,
    IndexOutOfRange,
    InvalidGame,
    InvalidLabel,
    MissingCell,
    PayoffOutOfRange,
    SizeGuardExceeded,
    eliminate_round,
    gen_random_game,
    gen_random_symmetric_game,
    is_minimax_dominated,
    is_symmetric,
    new_game,
    payoff,
    profiles,
    restrict,
)
from nonnash.game_core import _build_flat_game, full_sets
from nonnash.game_io import parse_game

from oracles import every_ordinal_type, symmetric_oracle


def single_cell_game():
    return new_game([["only"]], [((0,), (7,))])


class TestNewGame:
    def test_prisoners_dilemma_builds(self, pd):
        assert pd.n_players == 2
        assert pd.strategy_counts == (2, 2)
        assert pd.strategy_labels[0] == ("Defect", "Cooperate")

    def test_single_cell_game(self):
        g = single_cell_game()
        assert g.strategy_counts == (1,)
        assert g.payoffs == ((7,),)

    def test_duplicate_cell_names_profile(self):
        cells = [((0, 0), (1, 1)), ((0, 0), (1, 1)), ((0, 1), (3, 0)),
                 ((1, 0), (0, 3)), ((1, 1), (2, 2))]
        with pytest.raises(DuplicateCell, match=r"\(0, 0\)"):
            new_game([["D", "C"], ["D", "C"]], cells)

    def test_missing_cell_names_profile(self):
        cells = [((0, 0), (1, 1)), ((0, 1), (3, 0)), ((1, 0), (0, 3))]
        with pytest.raises(MissingCell, match=r"\(1, 1\)"):
            new_game([["D", "C"], ["D", "C"]], cells)

    def test_profile_index_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            new_game([["a"]], [((1,), (0,))])

    def test_profile_wrong_length(self):
        with pytest.raises(IndexOutOfRange):
            new_game([["a"]], [((0, 0), (0,))])

    def test_duplicate_label(self):
        with pytest.raises(DuplicateLabel, match="dup"):
            new_game([["dup", "dup"]], [((0,), (0,)), ((1,), (0,))])

    def test_label_alphabet_enforced(self):
        with pytest.raises(InvalidLabel):
            new_game([["has space"]], [((0,), (0,))])

    def test_no_players_rejected(self):
        with pytest.raises(InvalidGame):
            new_game([], [])

    def test_empty_strategy_list_rejected(self):
        with pytest.raises(InvalidGame):
            new_game([["a"], []], [])

    def test_wrong_payoff_vector_length(self):
        with pytest.raises(InvalidGame):
            new_game([["a"]], [((0,), (1, 2))])

    @pytest.mark.parametrize(
        "labels, cells, what",
        [
            ([["a"]], [((0,),)], r"cell \(\(0,\),\): expected a \(profile, payoffs\) pair"),
            ([["a"]], [((0,), (1,), (2,))], r"cell .*: expected a \(profile, payoffs\) pair"),
            ([["a"]], [(0, (1,))], r"cell \(0, \(1,\)\): expected a \(profile, payoffs\)"),
            ([["a"]], [((0,), 1)], r"cell \(\(0,\), 1\): expected a \(profile, payoffs\)"),
            ([["a"]], [5], r"cell 5: expected a \(profile, payoffs\) pair"),
            ([["a"]], 5, r"cells 5: expected \(profile, payoffs\) pairs"),
            (None, [], r"strategy labels None: expected one sequence per player"),
            ([3], [], r"strategy labels \[3\]: expected one sequence per player"),
        ],
        ids=["short-cell", "long-cell", "int-profile", "int-payoffs", "int-cell",
             "int-cells", "no-labels", "int-labels"],
    )
    def test_malformed_arguments_raise_invalid_game(self, labels, cells, what):
        with pytest.raises(InvalidGame, match=what):
            new_game(labels, cells)

    def test_payoff_bounds(self):
        new_game([["a"]], [((0,), (2**62,))])  # boundary is legal
        with pytest.raises(PayoffOutOfRange):
            new_game([["a"]], [((0,), (2**62 + 1,))])
        with pytest.raises(PayoffOutOfRange):
            new_game([["a"]], [((0,), (1.5,))])

    def test_size_guard(self):
        labels = [[f"s{i}" for i in range(100)]] * 2
        with pytest.raises(SizeGuardExceeded):
            new_game(labels, [], max_entries=1000)


BIG = 2**62 + 1
# An in-order prefix of a 2 x 2 table, then what follows it.
IN_ORDER = [((0, 0), (1, 1)), ((0, 1), (2, 2))]
AFTER_IN_ORDER = {
    "index-out-of-range": (
        [((0, 2), (3, 3)), ((0, 0), (BIG, 0))],
        IndexOutOfRange, r"profile \(0, 2\): strategy 2 out of range for player 1",
    ),
    "repeat-of-earlier-cell": (
        [((0, 0), (3, 3))], DuplicateCell, r"profile \(0, 0\) listed more than once",
    ),
    # the next cell in order breaks only the payoff rule; the bad cells
    # after it are never reached
    "in-order-payoff-out-of-range": (
        [((1, 0), (0, BIG)), ((1, 0), (0, 0)), ((5, 5), (0, 0))],
        PayoffOutOfRange, r"cell \(1, 0\): payoff 4611686018427387905 outside",
    ),
    # out of order, the index rule still comes before the payoff rule
    "out-of-order-index-and-payoff": (
        [((1, 1), (0, 0)), ((2, 0), (BIG, 0))],
        IndexOutOfRange, r"strategy 2 out of range for player 0",
    ),
    "extra-cell-after-full-run": (
        [((1, 0), (3, 3)), ((1, 1), (4, 4)), ((1, 1), (4, 4))],
        DuplicateCell, r"profile \(1, 1\) listed more than once",
    ),
    "truncated-run": ([((1, 0), (3, 3))], MissingCell, r"no payoffs for profile \(1, 1\)"),
}


def parse_cells(labels, cells):
    """parse_game of `cells` written as .gnf text, in the order given."""
    lines = ["gnf 1", f"players {len(labels)}"]
    lines += [f"strategies {i} " + " ".join(names) for i, names in enumerate(labels)]
    lines += ["payoffs", *(" ".join(map(str, p + u)) for p, u in cells), "end"]
    return parse_game("\n".join(lines) + "\n").game


class TestCellRules:
    """Cells after an in-order prefix name the first broken rule, through
    new_game and through the parser's cell-by-cell path alike."""

    LABELS = (("a", "b"), ("a", "b"))

    @pytest.mark.parametrize("build", [new_game, parse_cells], ids=["new_game", "parse_game"])
    @pytest.mark.parametrize(
        "rest, error, message", AFTER_IN_ORDER.values(), ids=list(AFTER_IN_ORDER)
    )
    def test_first_broken_rule_after_an_in_order_prefix(self, build, rest, error, message):
        with pytest.raises(error, match=message):
            build(self.LABELS, IN_ORDER + rest)

    @pytest.mark.parametrize(
        "cell, error, message",
        [
            # an index out of range comes before a payload of the wrong length
            (((0, 2), (1,)), IndexOutOfRange, r"strategy 2 out of range for player 1"),
            (((1, 0), (1,)), InvalidGame, r"cell \(1, 0\): expected 2 payoff values, got 1"),
            # each payoff in turn is checked for its type, then its range
            (((1, 0), (BIG, "x")), PayoffOutOfRange, r"payoff 4611686018427387905 outside"),
            (((1, 0), ("x", BIG)), PayoffOutOfRange, r"payoff 'x' is not an integer"),
        ],
        ids=["index-before-length", "length", "range-before-later-type", "type-before-later-range"],
    )
    def test_first_broken_rule_within_a_cell(self, cell, error, message):
        with pytest.raises(error, match=message):
            new_game(self.LABELS, IN_ORDER + [cell])

    @pytest.mark.parametrize("build", [new_game, parse_cells], ids=["new_game", "parse_game"])
    @pytest.mark.parametrize(
        "payoffs, named",
        [((-(2**62), 2**63), "9223372036854775808"), ((2**62, -(2**63)), "-9223372036854775808")],
        ids=["lowest-then-too-high", "highest-then-too-low"],
    )
    def test_both_payoff_bounds_are_legal(self, build, payoffs, named):
        # the bound comes first in the cell, so the entry after it is named
        with pytest.raises(PayoffOutOfRange, match=rf"cell \(0, 0\): payoff {named} outside"):
            build((("a",), ("a",)), [((0, 0), payoffs)])

    def test_bool_index_refused(self):
        # (0, False) == (0, 0), but a bool is not an index
        with pytest.raises(IndexOutOfRange, match="strategy False"):
            new_game(self.LABELS, [((0, False), (1, 1))])

    def test_any_order_builds_the_same_game(self, g3x3):
        cells = list(zip(profiles(g3x3), g3x3.payoffs))
        rng = random.Random(5)
        for cut in range(len(cells) + 1):
            # an in-order prefix, then the rest shuffled
            rest = cells[cut:]
            rng.shuffle(rest)
            assert new_game(g3x3.strategy_labels, cells[:cut] + rest) == g3x3

    @pytest.mark.parametrize("order", [1, -1], ids=["bulk", "out-of-order"])
    def test_labels_kept_as_given(self, g3x3, order):
        labels = g3x3.strategy_labels
        cells = list(zip(profiles(g3x3), g3x3.payoffs))[::order]
        g = _build_flat_game(labels, [v for p, u in cells for v in p + u])
        assert g == g3x3
        assert g.strategy_labels is labels


class TestPayoff:
    def test_pd_values(self, pd):
        assert payoff(pd, (0, 1), 0) == 3
        assert payoff(pd, (0, 1), 1) == 0

    def test_chicken_swerve_swerve(self, chicken_game):
        assert payoff(chicken_game, (1, 1), 0) == 2
        assert payoff(chicken_game, (1, 1), 1) == 2

    def test_single_cell(self):
        assert payoff(single_cell_game(), (0,), 0) == 7

    def test_bad_player(self, pd):
        with pytest.raises(IndexOutOfRange):
            payoff(pd, (0, 0), 2)

    def test_bad_profile(self, pd):
        with pytest.raises(IndexOutOfRange):
            payoff(pd, (0, 2), 0)


# Each call puts `v` where a player or strategy index of the prisoner's
# dilemma (2 players, 2 strategies each) belongs.
INDEX_CALLS = {
    "new_game": lambda g, v: new_game(g.strategy_labels, [((v, 0), (0, 0))]),
    "payoff-player": lambda g, v: payoff(g, (0, 0), v),
    "payoff-profile": lambda g, v: payoff(g, (0, v), 0),
    # next to a valid 1, so deduplication cannot hide 1.0 or True
    "restrict": lambda g, v: restrict(g, [(1, v), (0, 1)]),
    "eliminate_round": lambda g, v: eliminate_round(g, [(0, 1), (1, v)]),
    "minimax-player": lambda g, v: is_minimax_dominated(g, full_sets(g), v, 0),
    "minimax-strategy": lambda g, v: is_minimax_dominated(g, full_sets(g), 1, v),
}


class TestIndexRule:
    """An index is an int, not a bool, in [0, k): every entry point that
    takes one refuses the same values."""

    @pytest.mark.parametrize("bad", [-1, 2, 0.5, 1.0, True], ids=repr)
    @pytest.mark.parametrize("call", INDEX_CALLS)
    def test_bad_index_rejected(self, pd, call, bad):
        with pytest.raises(IndexOutOfRange):
            INDEX_CALLS[call](pd, bad)

    @pytest.mark.parametrize("profile", [(0,), (0, 0, 0)])
    def test_wrong_length_profile_rejected(self, pd, profile):
        with pytest.raises(IndexOutOfRange, match="entries for 2 players"):
            new_game(pd.strategy_labels, [(profile, (0, 0))])
        with pytest.raises(IndexOutOfRange, match="entries for 2 players"):
            payoff(pd, profile, 0)
        # one survivor set per entry of the profile
        sets = [(0,)] * len(profile)
        with pytest.raises(IndexOutOfRange, match=f"{len(sets)} survivor sets given for 2"):
            restrict(pd, sets)

    def test_new_game_message_names_player(self, pd):
        with pytest.raises(IndexOutOfRange) as raised:
            new_game(pd.strategy_labels, [((0, 0.5), (0, 0))])
        assert str(raised.value) == (
            "profile (0, 0.5): strategy 0.5 out of range for player 1"
        )


class TestProfiles:
    def test_pd_order(self, pd):
        assert list(profiles(pd)) == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_3x3_order(self, g3x3):
        ps = list(profiles(g3x3))
        assert len(ps) == 9
        assert ps[0] == (0, 0)
        assert ps[-1] == (2, 2)

    def test_three_player_count(self):
        g = gen_random_game(3, 2, 0, 9, seed=5)
        assert len(list(profiles(g))) == 8

    @given(st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=4))
    @settings(max_examples=50, deadline=None)
    def test_count_and_uniqueness(self, counts):
        g = gen_random_game(len(counts), counts, 0, 3, seed=11)
        ps = list(profiles(g))
        expected = 1
        for k in counts:
            expected *= k
        assert len(ps) == expected
        assert len(set(ps)) == expected


def equal_rows_game(n, k, f):
    """n players with k strategies each, where every player's payoff is
    f(own strategy, opponents' strategies in player order).  Every
    player then has the same own_rows; the game is symmetric only if f
    ignores the opponents' order."""
    cells = [
        (p, tuple(f(p[i], p[:i] + p[i + 1 :]) for i in range(n)))
        for p in itertools.product(range(k), repeat=n)
    ]
    return new_game([[f"s{v}" for v in range(k)]] * n, cells)


def _ascents(others):
    """Cyclic ascents: unchanged by rotating `others`, not by swapping two."""
    return sum(a < b for a, b in zip(others, others[1:] + others[:1]))


def _random_f(n, k, seed):
    rng = random.Random(seed)
    table = {
        (own, others): rng.randrange(100)
        for own in range(k)
        for others in itertools.product(range(k), repeat=n - 1)
    }
    return lambda own, others: table[own, others]


# (players, strategies, f): each f depends on the opponents' order.
ORDER_DEPENDENT = [
    pytest.param(3, 2, lambda own, x: 4 * own + 2 * x[0] + x[1], id="weighted-3p"),
    pytest.param(4, 2, lambda own, x: 4 * own + 2 * x[0] + x[1], id="weighted-4p"),
    # unchanged when the first two opponents swap, changed by a rotation
    pytest.param(
        4, 2, lambda own, x: 4 * own + x[0] + x[1] + 2 * x[2], id="last-weighted-4p"
    ),
    # unchanged by a rotation, changed when two opponents swap
    pytest.param(4, 3, lambda own, x: 4 * own + _ascents(x), id="cyclic-4p"),
    *(
        pytest.param(n, k, _random_f(n, k, seed), id=f"random-{n}p-k{k}")
        for seed, (n, k) in enumerate([(3, 2), (3, 3), (3, 4), (4, 2), (4, 3)])
    ),
]


class TestIsSymmetric:
    @pytest.mark.parametrize("n, k, f", ORDER_DEPENDENT)
    def test_equal_rows_are_not_enough(self, n, k, f):
        g = equal_rows_game(n, k, f)
        assert all(rows == g.own_rows[0] for rows in g.own_rows)
        assert not symmetric_oracle(g)
        assert not is_symmetric(g)
        # sorting the opponents makes f order-free and the game symmetric
        h = equal_rows_game(n, k, lambda own, others: f(own, tuple(sorted(others))))
        assert symmetric_oracle(h)
        assert is_symmetric(h)

    def test_canonical_games(self, pd, chicken_game, coordination_game, g3x3):
        for g in (pd, chicken_game, coordination_game, g3x3):
            assert is_symmetric(g)

    def test_broken_transposition(self, pd):
        # change u_1(Defect, Cooperate) from 0 to 2
        cells = [(p, pd.payoffs[pd.cell_index(p)]) for p in profiles(pd)]
        cells[1] = ((0, 1), (3, 2))
        g = new_game(pd.strategy_labels, cells)
        assert not is_symmetric(g)

    def test_one_player_always_symmetric(self):
        assert is_symmetric(single_cell_game())

    def test_label_sequences_must_match(self):
        g = new_game(
            [["a", "b"], ["b", "a"]],
            [((0, 0), (0, 0)), ((0, 1), (1, 1)), ((1, 0), (1, 1)), ((1, 1), (0, 0))],
        )
        assert not is_symmetric(g)

    @given(st.integers(min_value=0, max_value=2**63))
    @settings(max_examples=60, deadline=None)
    def test_matches_all_permutations_oracle_random(self, seed):
        g = gen_random_game(3, (2, 2, 2), 0, 2, seed=seed)
        assert is_symmetric(g) == symmetric_oracle(g)

    @given(st.integers(min_value=0, max_value=2**63))
    @settings(max_examples=20, deadline=None)
    def test_matches_all_permutations_oracle_four_players(self, seed):
        g = gen_random_game(4, (2, 2, 2, 2), 0, 1, seed=seed)
        assert is_symmetric(g) == symmetric_oracle(g)

    @given(st.integers(min_value=0, max_value=2**63))
    @settings(max_examples=40, deadline=None)
    def test_matches_oracle_on_symmetric_inputs(self, seed):
        for n in (2, 3, 4):
            g = gen_random_symmetric_game(n, 2, 0, 5, seed=seed)
            assert is_symmetric(g)
            assert symmetric_oracle(g)

    # Games built by _symmetric_game carry the fact and never run the scan,
    # so the tests below scan a fresh Game of the same table instead.
    @staticmethod
    def scan(g):
        return nonnash.game_core._symmetry_scan(Game(g.strategy_labels, g.columns))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_scan_matches_oracle_on_generated_games(self, n):
        for k in (1, 2, 3):
            for seed in range(4):
                g = gen_random_symmetric_game(n, k, 0, 3, seed=seed)
                assert (self.scan(g), symmetric_oracle(g)) == (True, True), g
                # a table of the same shape drawn cell by cell, symmetric
                # only by chance (or with one player or one strategy)
                h = gen_random_game(n, k, 0, 1, seed=seed)
                assert self.scan(h) == symmetric_oracle(h), h

    # 3 players with k = 5 and 6: f ignores the opponents' order except at
    # one pair of opponent strategies, the last two or the first and last.
    @pytest.mark.parametrize("k", [5, 6])
    @pytest.mark.parametrize("at_end", [True, False], ids=["last-two", "first-last"])
    def test_scan_finds_one_ordered_pair_at_three_players(self, k, at_end):
        pair = (k - 2, k - 1) if at_end else (0, k - 1)

        def order_free(own, others):
            return 100 * own + 10 * min(others) + max(others)

        h = equal_rows_game(3, k, order_free)
        assert (self.scan(h), symmetric_oracle(h)) == (True, True)
        g = equal_rows_game(3, k, lambda own, others: order_free(own, others) + (others == pair))
        assert all(rows == g.own_rows[0] for rows in g.own_rows)
        assert (self.scan(g), symmetric_oracle(g)) == (False, False)

    # 3 players, k = 5: f ignores the opponents' order except at one
    # ordered pair of opponent strategies, and there only for the last own
    # strategy.  The rotation check compares block d with every k-th entry
    # from d, so it meets each unordered pair in the blocks of both its
    # strategies; the pairs sit in the first block, in the last two blocks
    # and at a block's last entry, each in both orders.
    @pytest.mark.parametrize("pair", [(0, 1), (1, 0), (3, 4), (4, 3), (2, 4), (4, 2)], ids=repr)
    def test_scan_finds_the_only_asymmetric_pair(self, pair):
        k = 5

        def f(own, others):
            return 100 * own + 10 * min(others) + max(others) + ((own, others) == (k - 1, pair))

        g = equal_rows_game(3, k, f)
        assert all(rows == g.own_rows[0] for rows in g.own_rows)
        assert (self.scan(g), symmetric_oracle(g)) == (False, False)

    def test_scan_matches_oracle_on_catalog_games(
        self, pd, chicken_game, coordination_game, g3x3
    ):
        for g in (pd, chicken_game, coordination_game, g3x3):
            assert (self.scan(g), symmetric_oracle(g)) == (True, True), g

    @pytest.mark.parametrize("n, k", [(2, 2), (3, 2)], ids=["2p-k2", "3p-k2"])
    def test_scan_matches_oracle_on_every_ordinal_type(self, n, k):
        for g in every_ordinal_type(n, k):
            assert (self.scan(g), symmetric_oracle(g)) == (True, True), g

    def test_permutation_identity_holds(self, g3x3):
        # direct assertion: player perm[i] earns in the relabeled profile
        # what player i earned in the original, for every permutation
        for perm in itertools.permutations(range(2)):
            for p in profiles(g3x3):
                permuted = [0, 0]
                for i in range(2):
                    permuted[perm[i]] = p[i]
                for i in range(2):
                    assert payoff(g3x3, p, i) == payoff(g3x3, tuple(permuted), perm[i])


class TestRestrict:
    def test_upper_left_block(self, g3x3):
        r = restrict(g3x3, [(0, 1), (0, 1)])
        assert r.strategy_labels == (("A", "B"), ("A", "B"))
        assert r.payoffs == ((9, 9), (8, 6), (6, 8), (7, 7))

    def test_full_restriction_is_identity(self, pd, chicken_game, g3x3):
        for g in (pd, chicken_game, g3x3):
            assert restrict(g, full_sets(g)) == g

    @given(st.integers(min_value=0, max_value=2**63))
    @settings(max_examples=30, deadline=None)
    def test_full_restriction_identity_random(self, seed):
        g = gen_random_game(2, (3, 4), -5, 5, seed=seed)
        assert restrict(g, full_sets(g)) == g

    @pytest.mark.parametrize(
        "counts", [(3, 4), (2, 3, 2), (2, 2, 3, 2)], ids=["2p", "3p", "4p"]
    )
    def test_full_restriction_keeps_the_columns(self, counts):
        """restrict gathers each column at the kept cells, so keeping them
        all gives the game back; the payoffs view is the columns zipped."""
        g = gen_random_game(len(counts), counts, -5, 5, seed=7)
        assert restrict(g, full_sets(g)) == g
        assert g.payoffs == tuple(zip(*g.columns))

    def test_random_restriction_equals_per_cell_lookup(self):
        """The kept cells, built per player from strides, hold the payoffs
        a per-cell lookup of every kept profile gives, in cell order."""
        rng = random.Random(2017)
        for _ in range(200):
            counts = [rng.randint(1, 4) for _ in range(rng.randint(1, 4))]
            g = gen_random_game(len(counts), counts, -9, 9, seed=rng.getrandbits(64))
            s = [rng.sample(range(k), rng.randint(1, k)) for k in counts]
            kept = list(itertools.product(*map(sorted, s)))
            r = restrict(g, s)
            assert r.strategy_counts == tuple(map(len, s))
            assert r.payoffs == tuple(
                tuple(payoff(g, p, i) for i in range(g.n_players)) for p in kept
            )

    def test_single_survivor(self, g3x3):
        r = restrict(g3x3, [(0,), (0,)])
        assert r.payoffs == ((9, 9),)

    def test_empty_set_rejected(self, g3x3):
        with pytest.raises(EmptySurvivorSet):
            restrict(g3x3, [(0, 1), ()])

    def test_bad_index_rejected(self, g3x3):
        with pytest.raises(IndexOutOfRange):
            restrict(g3x3, [(0, 3), (0,)])
