"""Nashian and non-Nashian solution concepts for finite normal-form games.

The library computes pure Nash equilibria, Hofstadter (superrational)
equilibria of symmetric games, iterated minimax-dominance elimination and
the profiles surviving it, maximin values, and individually rational
profiles; reads and writes a canonical text format; and runs deterministic
randomized sweeps that cross-check the solvers against each other.
"""

from types import ModuleType as _ModuleType

from .catalog import chicken, coordination, elimination_ladder, prisoners_dilemma
from .errors import (
    BadRange,
    DeadStrategy,
    DuplicateCell,
    DuplicateLabel,
    EmptySurvivorSet,
    FormatError,
    GameError,
    GnfSyntaxError,
    IndexOutOfRange,
    InvalidGame,
    InvalidLabel,
    MissingCell,
    NotSymmetric,
    PayoffOutOfRange,
    SizeGuardExceeded,
    UnknownFormat,
    VersionUnsupported,
)
from .game_core import (
    MAX_ENTRIES,
    Game,
    Profile,
    Survivors,
    full_sets,
    is_symmetric,
    new_game,
    payoff,
    profiles,
    restrict,
)
from .game_io import (
    GameDocument,
    format_profile,
    parse_game,
    render_report,
    render_sweep_report,
    serialize_game,
)
from .rng import SplitMix64, derive_seed
from .solvers import (
    AnalysisReport,
    EliminationTrace,
    MaximinVector,
    RegionTag,
    build_report,
    eliminate_round,
    hofstadter_equilibria,
    individually_rational_profiles,
    is_minimax_dominated,
    iterate_elimination,
    maximin_values,
    minimax_rationalizable_profiles,
    pure_nash,
)
from .verify import (
    ALL_PROPERTIES,
    SweepConfig,
    SweepReport,
    Verdict,
    check_hofstadter_individually_rational,
    check_hofstadter_rationalizable,
    check_ir_survives_round1,
    check_order_independence,
    classify_regions,
    gen_random_game,
    gen_random_symmetric_game,
    strict_inclusion_witnesses,
    sweep,
)

__version__ = "0.1.0"

# The public API is the import list above: __all__ is every public name it
# binds, so no second list can drift from it, and the submodules those imports
# bind as attributes stay out of `from nonnash import *`.
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
