import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import replay, trees, walk_configs
from oracle_lab.oracle import GoldReference
from oracle_lab.transitions import (
    FINISH,
    IN_ORDER,
    REDUCE,
    SHIFT,
    TOP_DOWN,
    Completed,
    Configuration,
    Constituent,
    OpenNT,
    _illegal_reason,
    _legal_columns,
    apply,
    fingerprint,
    initial_config,
    is_terminal,
    legal_transitions,
    move_table,
    nt,
    parse_transition,
    transition_order_key,
)
from oracle_lab.trees import enumerate_trees, gold_sequence, random_tree
from oracle_lab.verify import SearchBounds, _exhaustive_graph


def test_transition_names_round_trip():
    for t in (SHIFT, REDUCE, FINISH, nt("S"), nt("ADJP")):
        assert parse_transition(str(t)) == t


@pytest.mark.parametrize("text", ["XX", "NT_", "sh", ""])
def test_parse_transition_rejects_garbage(text):
    with pytest.raises(ValueError, match="unrecognized transition"):
        parse_transition(text)


def test_tie_break_order():
    moves = [nt("B"), SHIFT, FINISH, nt("A"), REDUCE]
    assert sorted(moves, key=transition_order_key) == [
        FINISH,
        REDUCE,
        SHIFT,
        nt("A"),
        nt("B"),
    ]


def test_initial_config_validation():
    with pytest.raises(ValueError, match="empty sentence"):
        initial_config((), TOP_DOWN)
    with pytest.raises(ValueError, match="unknown strategy"):
        initial_config(("a",), "bottom-up")


def test_top_down_initial_moves():
    c = initial_config(("a", "b"), TOP_DOWN)
    assert legal_transitions(c, ["X", "Y"]) == [nt("X"), nt("Y")]
    assert _illegal_reason(c, SHIFT) == "no open non-terminal to attach the word to"
    assert _illegal_reason(c, REDUCE) == "no open non-terminal"
    assert _illegal_reason(c, FINISH) == "finish is not part of the top-down system"


def test_top_down_guard_reasons():
    c = replay(("a", "b"), TOP_DOWN, "NT_X SH")
    assert _illegal_reason(c, REDUCE) == (
        "closing the last open non-terminal would strand buffer words"
    )
    c = apply(c, SHIFT)
    assert _illegal_reason(c, SHIFT) == "buffer exhausted"
    assert _illegal_reason(c, nt("Y")) == (
        "non-terminal opened on an empty buffer can never close"
    )
    assert legal_transitions(c, ["X", "Y"]) == [REDUCE]


def test_consecutive_nt_cap():
    c = initial_config(("a",), TOP_DOWN, max_consecutive_nt=2)
    c = apply(c, nt("X"))
    c = apply(c, nt("X"))
    assert _illegal_reason(c, nt("X")) == "consecutive non-terminal cap reached"
    c = apply(c, SHIFT)  # run resets
    assert c.nt_run == 0


def test_in_order_initial_moves():
    c = initial_config(("a", "b"), IN_ORDER)
    assert legal_transitions(c, ["X"]) == [SHIFT]
    assert _illegal_reason(c, nt("X")) == (
        "no completed item below to serve as first child"
    )
    assert _illegal_reason(c, REDUCE) == "no open non-terminal"
    assert _illegal_reason(c, FINISH) == "buffer not empty"


def test_in_order_shift_needs_an_open_nt():
    c = replay(("a", "b"), IN_ORDER, "SH")
    assert _illegal_reason(c, SHIFT) == (
        "a second unattachable item would strand the parse"
    )


def test_in_order_finish_guards():
    c = replay(("a", "b"), IN_ORDER, "SH NT_X SH")
    assert _illegal_reason(c, FINISH) == "stack is not a single completed constituent"
    c = apply(c, REDUCE)
    assert _illegal_reason(c, FINISH) is None
    done = apply(c, FINISH)
    assert is_terminal(done)
    assert _illegal_reason(done, SHIFT) == "configuration is terminal"


def test_finish_needs_full_span():
    c = Configuration(
        strategy=IN_ORDER,
        tokens=("a", "b"),
        stack=(Completed("X", 1, 2),),
        i=2,
    )
    assert _illegal_reason(c, FINISH) == "constituent does not span the sentence"


def test_bare_word_is_not_terminal():
    c = replay(("a",), IN_ORDER, "SH")
    assert not is_terminal(c)
    assert legal_transitions(c, ["X"]) == [nt("X")]


def test_top_down_terminal():
    c = replay(("a",), TOP_DOWN, "NT_X SH RE")
    assert is_terminal(c)
    assert legal_transitions(c, ["X"]) == []


def test_apply_rejects_illegal_moves():
    c = initial_config(("a",), TOP_DOWN)
    with pytest.raises(ValueError, match="illegal transition SH"):
        apply(c, SHIFT)


def test_reduce_gathers_children_top_down():
    c = replay(("a", "b"), TOP_DOWN, "NT_X SH SH RE")
    (item,) = c.stack
    assert (item.symbol, item.l, item.r) == ("X", 0, 2)
    assert list(c.built) == [("X", 0, 2)]


def test_reduce_takes_left_child_from_below_in_order():
    c = replay(("a", "b"), IN_ORDER, "SH NT_X SH RE")
    (item,) = c.stack
    assert (item.symbol, item.l, item.r) == ("X", 0, 2)


def test_fingerprint_ignores_built_and_history():
    c = replay(("a", "b"), TOP_DOWN, "NT_X SH SH RE")
    stripped = Configuration(
        strategy=c.strategy,
        tokens=c.tokens,
        stack=c.stack,
        i=c.i,
        finished=c.finished,
        nt_run=c.nt_run,
    )
    assert fingerprint(stripped) == fingerprint(c)
    assert c.built and not stripped.built


def test_history_keeps_last_two():
    c = replay(("a", "b"), TOP_DOWN, "NT_X SH SH")
    assert c.history == (SHIFT, SHIFT)


@given(trees(max_tokens=4), st.integers(0, 10**6), st.sampled_from(["top-down", "in-order"]))
def test_random_walks_never_strand(t, seed, strategy):
    rng = random.Random(seed)
    c = initial_config(t.tokens, strategy, max_consecutive_nt=3)
    for _ in range(60):
        if is_terminal(c):
            break
        moves = legal_transitions(c, ["X", "Y"])
        assert moves, f"dead non-terminal state {fingerprint(c)}"
        assert moves == sorted(moves, key=transition_order_key)
        c = apply(c, rng.choice(moves))
        assert 0 <= c.i <= c.n
        assert c.nt_run <= c.max_consecutive_nt
        if strategy == IN_ORDER:
            assert c.nt_run <= 1  # an in-order NT needs a completed item on top
    if is_terminal(c):
        assert legal_transitions(c, ["X", "Y"]) == []


@pytest.mark.parametrize("strategy", [TOP_DOWN, IN_ORDER])
def test_walks_build_named_items_of_the_right_types(strategy):
    """apply builds every item and configuration by tuple.__new__; a plain
    tuple, or an int where is_word's bool belongs, would still compare
    equal, so the types are checked one by one."""
    steps = 0
    for seed in range(40):
        rng = random.Random(f"{seed}|typed-walk")
        tokens = random_tree(rng.randint(1, 6), ["X", "Y"], seed).tokens
        c = initial_config(tokens, strategy, max_consecutive_nt=3)
        for _ in range(60):
            if is_terminal(c):
                break
            t = rng.choice(legal_transitions(c, ["X", "Y"]))
            nxt = apply(c, t)
            assert type(nxt) is Configuration
            for e in nxt.stack:
                assert type(e) in (OpenNT, Completed)
                if type(e) is Completed:
                    assert type(e.is_word) is bool
            assert all(type(b) is Constituent for b in nxt.built)
            assert nxt.history == (c.history + (t,))[-2:]
            assert nxt.nt_run == (c.nt_run + 1 if t.kind == "nt" else 0)
            assert (nxt.strategy, nxt.tokens, nxt.max_consecutive_nt) == (
                c.strategy,
                c.tokens,
                c.max_consecutive_nt,
            )
            c = nxt
            steps += 1
    assert steps > 300


@given(trees(max_tokens=5), st.sampled_from(["top-down", "in-order"]))
def test_gold_sequences_replay_to_terminal(t, strategy):
    seq = gold_sequence(t, strategy)
    alphabet = sorted({step.label for step in seq if step.kind == "nt"})
    c = initial_config(t.tokens, strategy)
    for step in seq:
        assert step in legal_transitions(c, alphabet)
        c = apply(c, step)
    assert is_terminal(c)


def test_legal_transitions_filters_by_alphabet():
    c = initial_config(("a",), TOP_DOWN)
    assert legal_transitions(c, ["B", "A"]) == [nt("A"), nt("B")]
    assert legal_transitions(c, []) == []


def test_one_move_table_per_alphabet():
    table = move_table(("A", "B", "C"))
    assert table == (FINISH, REDUCE, SHIFT, nt("A"), nt("B"), nt("C"))
    assert move_table(["A", "B", "C"]) is table
    assert list(table) == sorted(table, key=transition_order_key)
    assert move_table(("C", "A", "B")) == table
    c = replay(("a", "b"), TOP_DOWN, "NT_X")
    expected = [SHIFT, nt("A"), nt("B"), nt("C")]
    for alphabet in (("A", "B", "C"), ["A", "B", "C"], ("C", "A", "B"), ["B", "C", "A"]):
        assert legal_transitions(c, alphabet) == expected


LEGALITY_ALPHABETS = (("X",), ("D", "X", "Y", "Z"), tuple(f"L{k:02d}" for k in range(12)))


@pytest.mark.parametrize("strategy", [TOP_DOWN, IN_ORDER])
def test_legal_moves_come_from_the_verdicts_of_each_move(strategy):
    """On every class of the n <= 2 census and on seeded walks over
    10-14-token trees, legal_transitions is the part of the move table
    that _illegal_reason passes, and _legal_columns gives those moves'
    indexes in the table, for alphabets of 1, 4 and 12 labels.  Each
    call gives a new list."""
    bounds = SearchBounds(label_alphabet=("D", "X", "Y"))
    configs = []
    for t in [t for n in (1, 2) for t in enumerate_trees(n, ["X", "Y"])]:
        gold = GoldReference.from_tree(t, strategy)
        configs += _exhaustive_graph(t, gold, strategy, bounds)[1]
    census = len(configs)
    rng = random.Random(f"legality|{strategy}")
    for _ in range(20):
        t = random_tree(rng.randint(10, 14), ["X", "Y", "Z"], rng.randrange(1 << 30))
        for _ in range(3):
            configs += walk_configs(t, strategy, ("D", "X", "Y", "Z"), rng.randrange(1 << 30), 150)
    assert census > 500 and len(configs) > census + 1000
    for alphabet in LEGALITY_ALPHABETS:
        table = move_table(alphabet)
        legal_columns = _legal_columns(alphabet)
        assert len(legal_columns) == 16  # no two verdict masks share a key
        for c in configs:
            expected = [t for t in table if _illegal_reason(c, t) is None]
            got = legal_transitions(c, alphabet)
            assert got == expected, c
            assert got is not legal_transitions(c, alphabet)
            columns = legal_columns[(len(got), *got[:3])]
            assert [table[k] for k in columns] == expected
            assert list(columns) == sorted(columns)
        assert any(legal_transitions(c, alphabet) for c in configs)
        assert any(not legal_transitions(c, alphabet) for c in configs)


def test_a_caller_may_change_its_list_of_legal_moves():
    c = initial_config(("a", "b"), TOP_DOWN)
    moves = legal_transitions(c, ("X", "Y"))
    moves.clear()
    assert legal_transitions(c, ("X", "Y")) == [nt("X"), nt("Y")]
