"""The benchmark's workloads: inputs, the op a user runs, and output checks.

Each workload builds a pool of inputs from the workload seed, runs one op
per call (the same calls the ``nonnash`` CLI makes), and checks the op's
output.  The library is passed in as the module ``nn`` so the runner can
re-import it for every set-up.  Every call into the library goes through
its public names.

``run_op`` takes a ``span`` factory so the timed op and the traced op are
one code path; untraced runs pass ``NO_SPAN``.  ``after_traced_op`` does
the extra per-layer work of a traced run (the sweep replay, the analysis
breakdown) outside the op's timing.
"""

import hashlib
import random
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path


def NO_SPAN(name):
    return nullcontext()


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def draw_seeds(seed: int, tag: str, count: int) -> list[int]:
    """`count` input seeds derived from the workload seed.

    Seeding ``random.Random`` with a string and drawing with ``random()``
    are the parts of the stdlib generator that stay fixed across Python
    versions, so the inputs (and the pinned goldens) do too."""
    rng = random.Random(f"{tag}:{seed}")
    return [int(rng.random() * 2**53) for _ in range(count)]


@dataclass
class Item:
    """One pool entry: the op's input and what its output must satisfy."""

    index: int
    payload: object
    expect: dict = field(default_factory=dict)
    golden: dict | None = None


# Property name -> public checker, in the form a sweep applies them.
SWEEP_CHECKERS = {
    "hofstadter-rationalizable": "check_hofstadter_rationalizable",
    "hofstadter-individually-rational": "check_hofstadter_individually_rational",
    "ir-survives-round-1": "check_ir_survives_round1",
}

# Spans of the sweep replay; sweep's own bookkeeping is its time minus these.
REPLAY_LAYERS = (
    "verify.gen_random_symmetric_game",
    *(f"verify.{name}" for name in SWEEP_CHECKERS.values()),
    "verify.classify_regions",
    "verify.strict_inclusion_witnesses",
)


@dataclass
class SweepOut:
    report: object
    text: str


class Sweep2p:
    """`nonnash search`: one seeded batch of small 2-player games per op."""

    name = "sweep-2p"

    def __init__(self, games: int = 300, pool: int = 16):
        self.params = {"games": games, "pool": pool}
        self.games_per_op = games

    def inputs(self, nn, seed: int, workdir: Path, indices) -> list[Item]:
        seeds = draw_seeds(seed, self.name, self.params["pool"])
        return [
            Item(
                i,
                nn.SweepConfig(
                    players=2,
                    min_strategies=2,
                    max_strategies=6,
                    payoff_lo=0,
                    payoff_hi=99,
                    games=self.params["games"],
                    seed=seeds[i],
                ),
            )
            for i in indices
        ]

    def describe(self, pool: list[Item]) -> dict:
        return {**self.params, "players": 2, "strategies": "2..6", "payoffs": "0..99"}

    def run_op(self, nn, item: Item, span=NO_SPAN) -> SweepOut:
        with span("verify.sweep"):
            report = nn.sweep(item.payload, workers=1)
        with span("game_io.render_sweep_report"):
            text = nn.render_sweep_report(report, "text")
        return SweepOut(report, text)

    def digest(self, out: SweepOut) -> dict:
        # The elapsed line is the one part of the text that is not a pure
        # function of the config.
        stable = "\n".join(
            line for line in out.text.splitlines() if not line.startswith("elapsed: ")
        )
        return {
            "witnesses": [
                out.report.rationalizable_not_hofstadter,
                out.report.ir_not_hofstadter,
            ],
            "sha256": sha256(stable),
        }

    def check(self, nn, item: Item, out: SweepOut) -> list[str]:
        r = out.report
        problems = []
        if not r.passed:
            problems.append(f"{len(r.violations)} property violations")
        if r.games_checked != self.games_per_op or r.games_skipped != 0:
            problems.append(
                f"checked {r.games_checked} and skipped {r.games_skipped} "
                f"of {self.games_per_op} games"
            )
        return problems

    def after_traced_op(self, nn, item: Item, out: SweepOut, tracer, counts) -> list[str]:
        """Replay the batch game by game, in sweep order and with the same
        derived seeds, timing each layer call; the witness totals must
        match the sweep's exactly."""
        cfg = item.payload
        checkers = [
            (f"verify.{SWEEP_CHECKERS[p]}", getattr(nn, SWEEP_CHECKERS[p]))
            for p in cfg.properties
        ]
        problems = []
        rationalizable = rational = bitten = cells = 0
        with tracer.span("replay"):
            for j in range(cfg.games):
                stream = nn.SplitMix64(nn.derive_seed(cfg.seed, j))
                k = stream.next_in_range(cfg.min_strategies, cfg.max_strategies)
                game_seed = stream.next_u64()
                with tracer.span("verify.gen_random_symmetric_game"):
                    g = nn.gen_random_symmetric_game(
                        cfg.players, k, cfg.payoff_lo, cfg.payoff_hi, game_seed,
                        max_entries=cfg.max_entries,
                    )
                for span_name, checker in checkers:
                    with tracer.span(span_name):
                        verdict = checker(g)
                    if not verdict.passed:
                        problems.append(f"replay game {j}: {verdict.name} failed")
                with tracer.span("verify.classify_regions"):
                    tags = nn.classify_regions(g)
                with tracer.span("verify.strict_inclusion_witnesses"):
                    w_rationalizable, w_rational = nn.strict_inclusion_witnesses(tags)
                rationalizable += w_rationalizable
                rational += w_rational
                # A deleted strategy leaves every profile using it outside
                # the rationalizable region.
                bitten += not all(t.rationalizable for t in tags.values())
                cells += k**cfg.players
        totals = [out.report.rationalizable_not_hofstadter, out.report.ir_not_hofstadter]
        if [rationalizable, rational] != totals:
            problems.append(
                f"replay witness totals {[rationalizable, rational]} != sweep's {totals}"
            )
        counts["game_core.cells"].append(cells)
        counts["games"].append(cfg.games)
        counts["bitten"].append(bitten)
        return problems


@dataclass
class AnalyzeOut:
    text: str
    doc: object
    report: object
    rendered: str


class Analyze:
    """`nonnash analyze`: read one .gnf file, report every solution concept."""

    def describe(self, pool: list[Item]) -> dict:
        return {**self.params, "bytes": [item.payload.stat().st_size for item in pool]}

    def write(self, nn, game, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(nn.serialize_game(nn.GameDocument(game=game)), encoding="utf-8")

    def run_op(self, nn, item: Item, span=NO_SPAN) -> AnalyzeOut:
        with open(item.payload, encoding="utf-8") as handle:
            text = handle.read()
        with span("game_io.parse_game"):
            doc = nn.parse_game(text)
        with span("game_io.build_report"):
            report = nn.build_report(doc.game, name=item.payload.stem)
        with span("game_io.render_report"):
            rendered = nn.render_report(report, "text")
        return AnalyzeOut(text, doc, report, rendered)

    def digest(self, out: AnalyzeOut) -> dict:
        return {"sha256": sha256(out.rendered)}

    def check(self, nn, item: Item, out: AnalyzeOut) -> list[str]:
        r = out.report
        problems = []
        if nn.serialize_game(out.doc) != out.text:
            problems.append("serialize_game(parse_game(text)) != text")
        if not r.symmetric or r.regions is None or not r.hofstadter:
            problems.append("symmetric input reported without Hofstadter regions")
            return problems
        for p in r.hofstadter:
            tag = r.regions[p]
            if not (tag.hofstadter and tag.rationalizable and tag.individually_rational):
                problems.append(f"Hofstadter profile {p} tagged {tag}")
        return problems + self.check_game(item, r)

    def check_game(self, item: Item, report) -> list[str]:
        return []

    def after_traced_op(self, nn, item: Item, out: AnalyzeOut, tracer, counts) -> list[str]:
        """Time each solver on the op's game once more, one call at a time,
        and require the same answers the report gave."""
        g = out.doc.game
        n = len(g.strategy_labels)
        cells = [(p, tuple(nn.payoff(g, p, i) for i in range(n))) for p in nn.profiles(g)]
        with tracer.span("breakdown"):
            with tracer.span("game_core.new_game"):
                g = nn.new_game(g.strategy_labels, cells)
            with tracer.span("game_core.is_symmetric"):
                symmetric = nn.is_symmetric(g)
            with tracer.span("solvers.pure_nash"):
                nash = tuple(nn.pure_nash(g))
            with tracer.span("solvers.maximin_values"):
                maximin = nn.maximin_values(g)
            with tracer.span("solvers.individually_rational_profiles"):
                rational = tuple(nn.individually_rational_profiles(g))
            with tracer.span("solvers.hofstadter_equilibria"):
                hofstadter = tuple(nn.hofstadter_equilibria(g))
            with tracer.span("solvers.iterate_elimination"):
                trace = nn.iterate_elimination(g)
            with tracer.span("verify.classify_regions"):
                regions = nn.classify_regions(g)
            with tracer.span("game_io.serialize_game"):
                text = nn.serialize_game(nn.GameDocument(game=g))
        r = out.report
        answers = {
            "is_symmetric": (symmetric, r.symmetric),
            "pure_nash": (nash, r.nash),
            "maximin_values": (maximin, r.maximin),
            "individually_rational_profiles": (rational, r.individually_rational),
            "hofstadter_equilibria": (hofstadter, r.hofstadter),
            "iterate_elimination": (trace, r.trace),
            "classify_regions": (regions, r.regions),
            "serialize_game": (text, out.text),
        }
        counts["game_core.cells"].append(len(cells))
        counts["game_io.bytes"].append(len(out.text.encode("utf-8")))
        counts["solvers.elim_rounds"].append(len(trace.rounds))
        counts["games"].append(1)
        counts["bitten"].append(bool(trace.rounds))
        return [
            f"breakdown {name} disagrees with the report"
            for name, (mine, reported) in answers.items()
            if mine != reported
        ]


class AnalyzeRandom(Analyze):
    """A random symmetric 3-player game per op."""

    name = "analyze-random"

    def __init__(self, players: int = 3, strategies: int = 25, pool: int = 4):
        self.params = {"players": players, "strategies": strategies, "pool": pool}
        self.games_per_op = 1

    def inputs(self, nn, seed: int, workdir: Path, indices) -> list[Item]:
        seeds = draw_seeds(seed, self.name, self.params["pool"])
        items = []
        for i in indices:
            g = nn.gen_random_symmetric_game(
                self.params["players"], self.params["strategies"], 0, 99, seeds[i]
            )
            path = workdir / f"random-{i}.gnf"
            self.write(nn, g, path)
            items.append(Item(i, path))
        return items


def ladder_cells(k: int, rng: random.Random):
    """A 2-player symmetric game on which elimination deletes exactly one
    strategy per player in each of k - 1 rounds.

    Before relabelling, u_i(p) = (k - max(p)) * 2k + (k - p_i): strategy
    k - 1 pays at most 2k + 1 while strategy 0 always pays at least 3k, and
    no other strategy is dominated; removing the worst strategy repeats the
    pattern on the rest.  A seeded strictly increasing payoff relabelling
    and a seeded strategy permutation shared by both players hide the
    pattern without changing the ordinal game.  Returns the cells and
    `perm`, where strategy a of the pattern sits at index perm[a].
    """
    perm = sorted(range(k), key=lambda _: rng.random())
    raw = {(a, b): (k - max(a, b)) * 2 * k + (k - a) for a in range(k) for b in range(k)}
    relabel = {}
    level = 0
    for value in sorted(set(raw.values())):
        level += 1 + int(rng.random() * 1000)
        relabel[value] = level
    cells = [
        ((perm[a], perm[b]), (relabel[raw[a, b]], relabel[raw[b, a]]))
        for a in range(k)
        for b in range(k)
    ]
    return cells, perm


class AnalyzeLadder(Analyze):
    """A 2-player game on which elimination runs k - 1 rounds."""

    name = "analyze-ladder"

    def __init__(self, strategies: int = 120, pool: int = 4):
        self.params = {"strategies": strategies, "pool": pool}
        self.games_per_op = 1

    def inputs(self, nn, seed: int, workdir: Path, indices) -> list[Item]:
        k = self.params["strategies"]
        labels = [f"s{v}" for v in range(k)]
        items = []
        for i, game_seed in enumerate(draw_seeds(seed, self.name, self.params["pool"])):
            if i not in indices:
                continue
            cells, perm = ladder_cells(k, random.Random(game_seed))
            path = workdir / f"ladder-{i}.gnf"
            self.write(nn, nn.new_game([labels, labels], cells), path)
            expect = {
                "survivor": perm[0],
                "deleted": [perm[a] for a in range(k - 1, 0, -1)],
            }
            items.append(Item(i, path, expect))
        return items

    def check_game(self, item: Item, report) -> list[str]:
        s = item.expect["survivor"]
        rounds = tuple(((0, v), (1, v)) for v in item.expect["deleted"])
        problems = []
        if report.trace.rounds != rounds:
            problems.append(
                f"elimination ran {len(report.trace.rounds)} rounds, not the "
                f"{len(rounds)} single deletions per player of the ladder"
            )
        if report.trace.final_survivors != ((s,), (s,)):
            problems.append(f"survivors {report.trace.final_survivors}, expected {s}")
        if report.hofstadter != ((s, s),):
            problems.append(f"Hofstadter set {report.hofstadter}, expected {(s, s)}")
        return problems


WORKLOADS = {w.name: w for w in (Sweep2p, AnalyzeRandom, AnalyzeLadder)}
