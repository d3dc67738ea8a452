import random
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import trees
from oracle_lab.oracle import (
    GoldReference,
    LossBreakdown,
    _move_losses,
    loss,
    optimal_transitions,
)
from oracle_lab.transitions import (
    IN_ORDER,
    TOP_DOWN,
    Completed,
    OpenNT,
    apply,
    initial_config,
    is_terminal,
    legal_transitions,
    parse_transition,
)
from oracle_lab.trees import (
    TreeError,
    check_derivable,
    enumerate_trees,
    gold_sequence,
    parse_bracketed,
    random_tree,
)
from oracle_lab.verify import SearchBounds, _exhaustive_graph, brute_force_loss, sweep


def replay(tree, strategy, names):
    c = initial_config(tree.tokens, strategy)
    for name in names.split():
        c = apply(c, parse_transition(name))
    return c


def test_strategy_mismatch_is_rejected(example_tree):
    gold = GoldReference.from_tree(example_tree, IN_ORDER)
    c = initial_config(example_tree.tokens, TOP_DOWN)
    with pytest.raises(ValueError, match="strategy mismatch"):
        loss(c, gold)


def test_gold_prefixes_have_zero_loss(example_tree):
    for strategy in (TOP_DOWN, IN_ORDER):
        gold = GoldReference.from_tree(example_tree, strategy)
        c = initial_config(example_tree.tokens, strategy)
        assert loss(c, gold).total == 0
        for t in gold_sequence(example_tree, strategy):
            c = apply(c, t)
            lb = loss(c, gold)
            assert lb.columns() == (0, 0, 0, 0)
            assert lb.total == 0


def test_junk_wrap_is_one_false_open():
    t = parse_bracketed("(X w0 w1)")
    gold = GoldReference.from_tree(t, IN_ORDER)
    c = replay(t, IN_ORDER, "SH NT_Y")
    lb = loss(c, gold)
    assert (lb.unreachable, lb.false_constituents, lb.false_open_nts, lb.out_of_order) == (
        0,
        0,
        1,
        0,
    )
    assert lb.total == 1
    bounds = SearchBounds(label_alphabet=("X", "Y"))
    assert brute_force_loss(c, gold, bounds) == 1


def test_out_of_order_counts_inversions():
    t = parse_bracketed("(R (X (Y w0 w1) w2) w3)")
    gold = GoldReference.from_tree(t, TOP_DOWN)
    c = replay(t, TOP_DOWN, "NT_R NT_Y NT_X")
    lb = loss(c, gold)
    bounds = SearchBounds(label_alphabet=("R", "X", "Y"))
    assert lb.total == brute_force_loss(c, gold, bounds)
    # gold-ordered variant has no inversion
    c2 = replay(t, TOP_DOWN, "NT_R NT_X NT_Y")
    assert loss(c2, gold).total == 0


def test_wrong_constituent_is_a_sunk_cost():
    t = parse_bracketed("(X w0 w1)")
    gold = GoldReference.from_tree(t, IN_ORDER)
    c = replay(t, IN_ORDER, "SH NT_Y SH RE")
    lb = loss(c, gold)
    assert lb.false_constituents == 1
    assert lb.unreachable == 0  # X(0,2) can still wrap the junk
    assert lb.total == 1


def test_terminal_loss_is_symmetric_difference():
    t = parse_bracketed("(X w0 w1)")
    gold = GoldReference.from_tree(t, IN_ORDER)
    c = replay(t, IN_ORDER, "SH NT_Y SH RE FI")
    lb = loss(c, gold)
    assert (lb.unreachable, lb.false_constituents) == (1, 1)
    assert lb.total == 2


def _walk_configs(t, strategy, seed, steps=25):
    rng = random.Random(seed)
    c = initial_config(t.tokens, strategy, max_consecutive_nt=3)
    out = [c]
    for _ in range(steps):
        if is_terminal(c):
            break
        moves = legal_transitions(c, ["X", "Y"])
        kinds = sorted({m.kind for m in moves})
        pick = rng.choice(kinds)
        c = apply(c, rng.choice([m for m in moves if m.kind == pick]))
        out.append(c)
    return out


TD_LABELS = ("X", "Y")
TD_CAP = 3
TD_BOUNDS = SearchBounds(label_alphabet=TD_LABELS)


def _derivable_trees(seed, count, max_tokens=5):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        t = random_tree(rng.randint(1, max_tokens), list(TD_LABELS), rng.randrange(1 << 30))
        try:
            check_derivable(t, cap=TD_CAP)
        except TreeError:
            continue
        out.append(t)
    return out


def test_top_down_loss_with_opens_stacked_to_the_cap():
    rng = random.Random(7)
    stacked = 0
    for t in _derivable_trees(7, 40):
        gold = GoldReference.from_tree(t, TOP_DOWN)
        c = initial_config(t.tokens, TOP_DOWN, max_consecutive_nt=TD_CAP)
        seq = gold_sequence(t, TOP_DOWN)
        for g_t in seq[: rng.randrange(len(seq))]:
            c = apply(c, g_t)
        while True:
            pushes = [m for m in legal_transitions(c, TD_LABELS) if m.kind == "nt"]
            if not pushes:
                break
            c = apply(c, rng.choice(pushes))
        at_i = [e for e in c.stack if isinstance(e, OpenNT) and e.index == c.i]
        stacked += len(at_i) >= 2
        assert loss(c, gold).total == brute_force_loss(c, gold, TD_BOUNDS), c
    assert stacked >= 10


@pytest.mark.parametrize(
    "text",
    [
        "(X (X (X w0 w1 w2)))",
        "(X (X w0 w1) (X (X w2 w3)))",
        "(X (X w0 (X (X w1 w2))) w3)",
        "(Y (X (X w0 w1)) (X (X w2)) w3)",
    ],
)
def test_top_down_loss_with_repeated_gold_spans(text):
    t = parse_bracketed(text)
    gold = GoldReference.from_tree(t, TOP_DOWN)
    assert max(gold.count.values()) >= 2
    for seed in range(12):
        for c in _walk_configs(t, TOP_DOWN, seed, steps=40):
            assert loss(c, gold).total == brute_force_loss(c, gold, TD_BOUNDS), c


def test_top_down_loss_when_targets_may_end_at_i():
    """With a completed item on top, an open NT below it can still close
    right here, on a gold span ending at i."""
    checked = ends_at_i = 0
    for k, t in enumerate(_derivable_trees(3, 60)):
        gold = GoldReference.from_tree(t, TOP_DOWN)
        for c in _walk_configs(t, TOP_DOWN, k, steps=40):
            if is_terminal(c) or not c.stack or not isinstance(c.stack[-1], Completed):
                continue
            opens = [e for e in c.stack[1:] if isinstance(e, OpenNT)]
            if not opens:
                continue
            checked += 1
            ends_at_i += any(gold.count.get((e.label, e.index, c.i)) for e in opens)
            assert loss(c, gold).total == brute_force_loss(c, gold, TD_BOUNDS), c
    assert checked >= 100 and ends_at_i >= 10


def test_top_down_tie_goes_to_the_first_assignment():
    """Matching NT_Y to Y(1,3) loses X(1,4); closing it as junk costs the
    same.  Junk is tried first, so the tie keeps the junk split."""
    t = parse_bracketed("(X w0 (X (Y w1 w2) w3))")
    gold = GoldReference.from_tree(t, TOP_DOWN)
    c = replay(t, TOP_DOWN, "NT_Y SH NT_Y")
    assert loss(c, gold) == LossBreakdown(
        unreachable=1, false_constituents=0, false_open_nts=1, out_of_order=1, total=3
    )
    assert brute_force_loss(c, gold, TD_BOUNDS) == 3


def test_top_down_loss_is_exact_where_the_cap_cannot_derive_the_tree():
    """Under a cap of 1 most gold trees have some left end with more spans
    than the cap can open there; the surplus is lost, and the loss must
    count it at every position, not only at i."""
    census = list(enumerate_trees(4, ["X"]))
    assert len(census) == 176
    report = sweep(
        census, TOP_DOWN, SearchBounds(max_consecutive_nt=1), walk_policy="exhaustive"
    )
    assert report.passed, report.summary()
    assert report.configs_checked == 43_112


@given(trees(max_tokens=4, labels=("X", "Y")), st.integers(0, 999),
       st.sampled_from(["top-down", "in-order"]))
def test_loss_never_decreases_along_any_move(t, seed, strategy):
    gold = GoldReference.from_tree(t, strategy)
    for c in _walk_configs(t, strategy, seed, steps=12):
        base = loss(c, gold).total
        for m in legal_transitions(c, ["X", "Y"]):
            assert loss(apply(c, m), gold).total >= base


@given(trees(max_tokens=5), st.sampled_from(["top-down", "in-order"]))
def test_gold_move_is_always_optimal(t, strategy):
    gold = GoldReference.from_tree(t, strategy)
    c = initial_config(t.tokens, strategy)
    for g_t in gold_sequence(t, strategy):
        opt = optimal_transitions(c, gold)
        assert g_t in opt
        c = apply(c, g_t)


@given(trees(max_tokens=4, labels=("X", "Y")), st.integers(0, 999),
       st.sampled_from(["top-down", "in-order"]))
def test_optimal_moves_preserve_the_loss(t, seed, strategy):
    gold = GoldReference.from_tree(t, strategy)
    for c in _walk_configs(t, strategy, seed, steps=8):
        if is_terminal(c):
            continue
        base = loss(c, gold).total
        for m in optimal_transitions(c, gold, ["X", "Y"]):
            assert loss(apply(c, m), gold).total == base


def loss_preserving_moves(c, gold, alphabet):
    """The reference for optimal_transitions: every legal move applied,
    and kept when the successor's loss equals the configuration's."""
    base = loss(c, gold).total
    return [
        m for m in legal_transitions(c, alphabet) if loss(apply(c, m), gold).total == base
    ]


def assert_move_losses_match(c, gold, alphabet):
    """The optimal set, and also each move's successor loss as the oracle
    derives it without building the successor, against the reference."""
    moves = legal_transitions(c, alphabet)
    if not moves:  # terminal or finished: nothing to judge
        assert optimal_transitions(c, gold, alphabet) == []
        return
    want = [loss(apply(c, m), gold).total for m in moves]
    assert _move_losses(c, gold, moves) == (loss(c, gold).total, want), c.stack_summary()
    assert optimal_transitions(c, gold, alphabet) == loss_preserving_moves(c, gold, alphabet)


@pytest.mark.parametrize("cap", [1, 2, 3, 8])
@pytest.mark.parametrize("strategy", [TOP_DOWN, IN_ORDER])
def test_optimal_set_is_every_loss_preserving_move(strategy, cap):
    # optimal_transitions judges every move from one analysis of the
    # configuration; trying every legal move must agree
    rng = random.Random(f"optimal|{strategy}|{cap}")
    for _ in range(150):
        labels = rng.sample(["A", "B", "C"], rng.randint(1, 3))
        t = random_tree(rng.randint(1, 9), labels, rng.randrange(1 << 30))
        gold = GoldReference.from_tree(t, strategy)
        alphabet = sorted(labels + ["D", "E"])
        c = initial_config(t.tokens, strategy, max_consecutive_nt=cap)
        for _ in range(6 * c.n):
            moves = legal_transitions(c, alphabet)
            if not moves:
                break
            want = loss_preserving_moves(c, gold, alphabet)
            assert optimal_transitions(c, gold, alphabet) == want, (t, c.history)
            pick = rng.choice(sorted({m.kind for m in moves}))
            c = apply(c, rng.choice([m for m in moves if m.kind == pick]))


@pytest.mark.parametrize("cap", [1, 3])
@pytest.mark.parametrize("strategy", [TOP_DOWN, IN_ORDER])
def test_optimal_set_on_every_census_class(strategy, cap):
    """Every configuration the exhaustive policy reaches, one per class,
    for each tree over at most two tokens, with a distractor label."""
    alphabet = ("D", "X", "Y")
    bounds = SearchBounds(max_consecutive_nt=cap, label_alphabet=alphabet)
    checked = 0
    for t in [t for n in (1, 2) for t in enumerate_trees(n, ["X", "Y"])]:
        gold = GoldReference.from_tree(t, strategy)
        _, reps, _, _, _ = _exhaustive_graph(t, gold, strategy, bounds, alphabet)
        for c in reps:
            assert_move_losses_match(c, gold, alphabet)
            checked += 1
    assert checked >= 500


@pytest.mark.parametrize("cap", [2, 3])
def test_optimal_set_with_opens_stacked_to_the_cap(cap):
    """Top-down on 10-40 token trees, pushing NTs until the cap stops them,
    then shifting and reducing under the stacked opens.  Only here do an
    NT pushed over a completed item (its successor's pass ends earlier, at
    E = i + 1) and a reduce that keeps the layers below the popped open
    meet deep stacks with several opens sharing a left index."""
    rng = random.Random(f"stacked|{cap}")
    alphabet = ("D", "X", "Y")
    seen = Counter()
    for _ in range(30):
        t = random_tree(rng.randint(10, 40), ["X", "Y"], rng.randrange(1 << 30))
        gold = GoldReference.from_tree(t, TOP_DOWN)
        c = initial_config(t.tokens, TOP_DOWN, max_consecutive_nt=cap)
        seq = gold_sequence(t, TOP_DOWN)
        for g_t in seq[: rng.randrange(len(seq))]:
            if g_t not in legal_transitions(c, alphabet):
                break
            c = apply(c, g_t)
        for _ in range(8 * c.n):
            moves = legal_transitions(c, alphabet)
            if not moves:
                break
            assert_move_losses_match(c, gold, alphabet)
            stacked = Counter(e.index for e in c.stack if isinstance(e, OpenNT))
            if max(stacked.values(), default=0) >= 2:
                seen["open" if isinstance(c.stack[-1], OpenNT) else "completed"] += 1
            if c.nt_run == cap:
                seen["capped"] += 1
            nts = [m for m in moves if m.kind == "nt"]
            pick = rng.choice(nts if nts and rng.random() < 0.7 else moves)
            c = apply(c, pick)
    assert min(seen["open"], seen["completed"], seen["capped"]) >= 200, seen


def test_optimal_transitions_default_alphabet(example_tree):
    gold = GoldReference.from_tree(example_tree, TOP_DOWN)
    c = initial_config(example_tree.tokens, TOP_DOWN)
    opt = optimal_transitions(c, gold)
    assert all(t.kind == "nt" for t in opt)
    assert {t.label for t in opt} <= set(gold.labels)
