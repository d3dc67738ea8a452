"""Shift-reduce constituent parsing with provably minimal dynamic oracles."""

from .evaluation import PRF, ArityTable, arity_breakdown, prf
from .model import ExplorationPolicy, Model, features, parse, parse_with_info, train
from .oracle import GoldReference, LossBreakdown, loss, optimal_transitions
from .transitions import (
    FINISH,
    IN_ORDER,
    REDUCE,
    SHIFT,
    TOP_DOWN,
    Configuration,
    Constituent,
    Transition,
    apply,
    initial_config,
    is_terminal,
    legal_transitions,
    nt,
    parse_transition,
)
from .trees import (
    ConstituentTree,
    constituent_set,
    enumerate_trees,
    gold_sequence,
    load_corpus,
    parse_bracketed,
    random_tree,
    save_corpus,
    serialize,
    synthetic_corpus,
)
from .verify import ConformanceReport, SearchBounds, brute_force_loss, sweep

__version__ = "0.1.0"
