"""Domination game engine: residual-graph coloring, the greedy potential
strategy with its four-phase audit, exact minimax game values, and a
verification corpus runner."""

from .errors import (
    ClaimViolationError,
    ConfigError,
    DomGameError,
    IllegalMoveError,
    ParseError,
    ResourceLimitError,
)
from .graph import (
    Graph,
    enumerate_labeled_graphs,
    gen_caterpillar,
    gen_cycle,
    gen_gnp_isolate_free,
    gen_path,
    gen_random_tree,
    gen_star,
    parse_edge_list,
    philox_rng,
    write_edge_list,
)
from .phases import (
    CycleStatus,
    PhaseContext,
    XCycleRegistry,
    F_decrease,
    F_value,
    cycle_status,
    freeze_registry,
    maybe_advance,
    phase1_active,
    phase2_active,
    phase3_active,
    potential_decrease,
    shade_for_phase,
)
from .residual import (
    Color,
    ResidualState,
    apply_move,
    f_decrease,
    f_decreases,
    init_state,
    is_over,
    legal_moves,
    parse_snapshot,
    white_degree,
)
from .solver import (
    DEFAULT_SOLVER_CAP,
    GameValue,
    game_value,
    solve_game,
)
from .strategy import (
    DEFAULT_WORST_CASE_CAP,
    MoveRecord,
    Transcript,
    dominator_greedy,
    make_staller_random,
    play_game,
    staller_min_decrease,
    staller_worst_case,
)
from .verify import (
    AggregateReport,
    BOUND_CHECKS,
    CLAIM_IDS,
    Caps,
    ClaimReport,
    CorpusSpec,
    FamilySpec,
    TRANSCRIPT_CHECKS,
    Witness,
    builtin_spec,
    corpus_items,
    replay_states,
    run_corpus,
    spec_from_json,
    verify_bounds,
    verify_transcript,
)

__version__ = "0.1.0"
