"""Command-line interface.

Subcommands: analyze, eliminate, check, search, gen.  Results go to
standard output, diagnostics to standard error.  Exit codes: 0 = success
/ all checks passed, 1 = a property violation or counterexample was
found, 2 = usage, parse or I/O error.
"""

import argparse
import sys
from pathlib import Path

from .errors import GameError, NotSymmetric
from .game_core import Game, full_sets, remove_pairs, restrict
from .game_io import (
    GameDocument,
    format_profile,
    format_round,
    format_survivors,
    matrix_lines,
    parse_game,
    parse_int,
    render_report,
    render_sweep_report,
    serialize_game,
)
from .solvers import build_report, iterate_elimination
from .verify import (
    CHECKERS,
    IR_SURVIVES_ROUND_1,
    SweepConfig,
    gen_random_game,
    gen_random_symmetric_game,
    sweep,
)


def _load(path: str) -> Game:
    with open(path, encoding="utf-8") as handle:
        return parse_game(handle.read()).game


def _int(text: str) -> int:
    """argparse type of the integer flags: an integer as a .gnf file
    writes it, so neither "1_0" nor non-ASCII digits."""
    value = parse_int(text)
    if value is None:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return value


def _parse_range(text: str, what: str) -> tuple[int, int]:
    bounds = [parse_int(part) for part in text.split("..")]
    if len(bounds) > 2 or None in bounds:
        raise GameError(f"bad {what} {text!r}: expected N or LO..HI")
    return bounds[0], bounds[-1]


def cmd_analyze(args) -> int:
    report = build_report(_load(args.path), name=Path(args.path).stem)
    sys.stdout.write(render_report(report, args.format))
    return 0


def cmd_eliminate(args) -> int:
    g = _load(args.path)
    trace = iterate_elimination(g)
    survivors = full_sets(g)
    for round_no, batch in enumerate(trace.rounds, start=1):
        print(format_round(g, round_no, batch))
        if args.trace:
            survivors = remove_pairs(survivors, batch)
            for line in matrix_lines(restrict(g, survivors)):
                print("  " + line)
    if not trace.rounds:
        print("no strategies eliminated")
    print("survivors: " + format_survivors(g, trace.final_survivors))
    return 0


def cmd_check(args) -> int:
    report = build_report(_load(args.path))
    # Every verdict is computed before any is printed, so an input error
    # (such as --orders 0) leaves stdout empty.
    verdicts = {}
    for name, checker in CHECKERS.items():
        try:
            verdicts[name] = checker(report, args.orders, args.seed)
        except NotSymmetric:
            verdicts[name] = None
    ok = True
    for name, verdict in verdicts.items():
        if verdict is None:
            print(f"{name}: SKIPPED (asymmetric game)")
        elif verdict.passed:
            print(f"{name}: PASS")
            if name == IR_SURVIVES_ROUND_1 and verdict.detail:
                print(f"note: {verdict.detail}")
        else:
            ok = False
            print(f"{name}: FAIL ({verdict.detail})")
            print("counterexample:")
            sys.stdout.write(serialize_game(GameDocument(game=report.game)))
            if verdict.profile is not None:
                print("offending profile: " + format_profile(report.game, verdict.profile))
    return 0 if ok else 1


def cmd_search(args) -> int:
    lo, hi = _parse_range(args.payoff_range, "payoff range")
    k_min, k_max = _parse_range(args.strategies, "strategy count")
    properties = tuple(
        prop.strip() for prop in args.properties.split(",") if prop.strip()
    )
    config = SweepConfig(
        players=args.players,
        min_strategies=k_min,
        max_strategies=k_max,
        payoff_lo=lo,
        payoff_hi=hi,
        games=args.games,
        seed=args.seed,
        properties=properties,
        orders_per_game=args.orders,
    )
    report = sweep(config, workers=args.workers)
    sys.stdout.write(render_sweep_report(report, args.format))
    return 0 if report.passed else 1


def cmd_gen(args) -> int:
    lo, hi = _parse_range(args.payoff_range, "payoff range")
    if args.symmetric:
        g = gen_random_symmetric_game(args.players, args.strategies, lo, hi, args.seed)
    else:
        g = gen_random_game(args.players, args.strategies, lo, hi, args.seed)
    sys.stdout.write(serialize_game(GameDocument(game=g)))
    return 0


# argparse reads "-30..30" as an option, so a negative LO needs the = form.
_PAYOFF_RANGE_HELP = "LO..HI (default %(default)s); negative: --payoff-range=-5..5"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nonnash",
        description="Nashian and non-Nashian solution concepts for normal-form games.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full solution-concept report for a game file")
    p.add_argument("path", help="game file (.gnf)")
    p.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("eliminate", help="iterated minimax-dominance elimination")
    p.add_argument("path", help="game file (.gnf)")
    p.add_argument(
        "--trace", action="store_true", help="print the shrinking matrix after each round"
    )
    p.set_defaults(func=cmd_eliminate)

    p = sub.add_parser("check", help="run all property checks on a game file")
    p.add_argument("path", help="game file (.gnf)")
    p.add_argument(
        "--orders", type=_int, default=20, help="random deletion orders to try"
    )
    p.add_argument("--seed", type=_int, default=0, help="seed for the deletion orders")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("search", help="sweep random symmetric games for violations")
    p.add_argument("--players", type=_int, default=SweepConfig.players)
    p.add_argument(
        "--strategies",
        default=f"{SweepConfig.min_strategies}..{SweepConfig.max_strategies}",
        help="strategy count: N or LO..HI (default %(default)s)",
    )
    p.add_argument("--games", type=_int, default=SweepConfig.games)
    p.add_argument("--seed", type=_int, default=SweepConfig.seed)
    p.add_argument(
        "--payoff-range",
        default=f"{SweepConfig.payoff_lo}..{SweepConfig.payoff_hi}",
        help=_PAYOFF_RANGE_HELP,
    )
    p.add_argument(
        "--properties",
        default=",".join(SweepConfig.properties),
        help="comma-separated property names (default: all but order-independence)",
    )
    p.add_argument(
        "--orders",
        type=_int,
        default=SweepConfig.orders_per_game,
        help="deletion orders per game (order-independence)",
    )
    p.add_argument("--workers", type=_int, default=1, help="parallel worker processes")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("gen", help="emit a random game in canonical text form")
    p.add_argument("--players", type=_int, default=2)
    p.add_argument("--strategies", type=_int, default=2)
    p.add_argument("--seed", type=_int, default=0)
    p.add_argument("--symmetric", action="store_true")
    p.add_argument("--payoff-range", default="0..99", help=_PAYOFF_RANGE_HELP)
    p.set_defaults(func=cmd_gen)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (GameError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())
