import hashlib
import random

import pytest

from conftest import replay, walk_configs
from oracle_lab import model
from oracle_lab.model import (
    ExplorationPolicy,
    Model,
    _Learner,
    _pick,
    _step_cap,
    _train_sentence,
    features,
    parse,
    parse_with_info,
    train,
)
from oracle_lab.oracle import GoldReference, loss, optimal_transitions
from oracle_lab.transitions import (
    IN_ORDER,
    SHIFT,
    TOP_DOWN,
    STRATEGIES,
    apply,
    initial_config,
    is_terminal,
    legal_transitions,
    move_table,
    nt,
    parse_transition,
)
from oracle_lab.trees import (
    ConstituentTree,
    Internal,
    constituent_set,
    forest_from_built,
    gold_sequence,
    parse_bracketed,
    random_tree,
    serialize,
    synthetic_corpus,
)


def dense(alphabet, weights):
    """A dense weight row over alphabet's move table from {move: weight}."""
    return [weights.get(t, 0.0) for t in move_table(alphabet)]


def columns_of(alphabet, moves):
    """The columns of moves in alphabet's move table."""
    return [move_table(alphabet).index(t) for t in moves]


def test_features_of_the_initial_config():
    c = initial_config(("a", "b"), TOP_DOWN)
    assert features(c) == [
        "bias",
        "s0=_",
        "s1=_",
        "s2=_",
        "b0=a",
        "b1=b",
        "h0=_",
        "h1=_",
        "open=0",
        "s0^b0=_^a",
        "s0^s1=_^_",
        "h0^s0=_^_",
    ]


def test_features_read_stack_buffer_and_history():
    c = replay(("a", "b"), TOP_DOWN, "NT_X SH")
    assert features(c)[1:9] == [
        "s0=C|a|1",
        "s1=O|X|1",  # open X pushed at 0, buffer now at 1
        "s2=_",
        "b0=b",
        "b1=_",
        "h0=SH",
        "h1=NT_X",
        "open=1",
    ]


# (strategy, tokens, moves replayed, the features of the configuration
# reached), written out: stacks of 1 to 4 items with an open or a completed
# top, histories of 1 and 2 moves, the buffer at its last word and past it.
# The initial configuration, with no stack and no history, is pinned above.
FEATURE_CASES = [
    (TOP_DOWN, "a b c", "NT_S", [
        "bias", "s0=O|S|0", "s1=_", "s2=_", "b0=a", "b1=b", "h0=NT_S", "h1=_",
        "open=1", "s0^b0=O|S|0^a", "s0^s1=O|S|0^_", "h0^s0=NT_S^O|S|0",
    ]),
    (TOP_DOWN, "a b c", "NT_S SH", [
        "bias", "s0=C|a|1", "s1=O|S|1", "s2=_", "b0=b", "b1=c", "h0=SH", "h1=NT_S",
        "open=1", "s0^b0=C|a|1^b", "s0^s1=C|a|1^O|S|1", "h0^s0=SH^C|a|1",
    ]),
    (TOP_DOWN, "a b c", "NT_S NT_X SH SH", [
        "bias", "s0=C|b|1", "s1=C|a|1", "s2=O|X|2", "b0=c", "b1=_", "h0=SH", "h1=SH",
        "open=2", "s0^b0=C|b|1^c", "s0^s1=C|b|1^C|a|1", "h0^s0=SH^C|b|1",
    ]),
    (TOP_DOWN, "a b c", "NT_S NT_X SH SH RE SH", [
        "bias", "s0=C|c|1", "s1=C|X|2", "s2=O|S|3", "b0=_", "b1=_", "h0=SH", "h1=RE",
        "open=1", "s0^b0=C|c|1^_", "s0^s1=C|c|1^C|X|2", "h0^s0=SH^C|c|1",
    ]),
    (IN_ORDER, "a b c", "SH", [
        "bias", "s0=C|a|1", "s1=_", "s2=_", "b0=b", "b1=c", "h0=SH", "h1=_",
        "open=0", "s0^b0=C|a|1^b", "s0^s1=C|a|1^_", "h0^s0=SH^C|a|1",
    ]),
    (IN_ORDER, "a b c", "SH NT_X", [
        "bias", "s0=O|X|0", "s1=C|a|1", "s2=_", "b0=b", "b1=c", "h0=NT_X", "h1=SH",
        "open=1", "s0^b0=O|X|0^b", "s0^s1=O|X|0^C|a|1", "h0^s0=NT_X^O|X|0",
    ]),
    (IN_ORDER, "a b c", "SH NT_X SH NT_Y", [
        "bias", "s0=O|Y|0", "s1=C|b|1", "s2=O|X|1", "b0=c", "b1=_", "h0=NT_Y", "h1=SH",
        "open=2", "s0^b0=O|Y|0^c", "s0^s1=O|Y|0^C|b|1", "h0^s0=NT_Y^O|Y|0",
    ]),
    (IN_ORDER, "a b", "SH NT_X SH RE FI", [
        "bias", "s0=C|X|2", "s1=_", "s2=_", "b0=_", "b1=_", "h0=FI", "h1=RE",
        "open=0", "s0^b0=C|X|2^_", "s0^s1=C|X|2^_", "h0^s0=FI^C|X|2",
    ]),
]


@pytest.mark.parametrize("strategy, tokens, names, expected", FEATURE_CASES)
def test_features_are_these_strings(strategy, tokens, names, expected):
    c = replay(tuple(tokens.split()), strategy, names)
    assert features(c) == expected


def test_history_touches_only_history_features():
    c = replay(("a", "b"), TOP_DOWN, "NT_X SH")
    bare = initial_config(("a", "b"), TOP_DOWN)
    c2 = type(c)(
        strategy=c.strategy,
        tokens=c.tokens,
        stack=c.stack,
        i=c.i,
        finished=c.finished,
        built=c.built,
        nt_run=c.nt_run,
        history=bare.history,
    )
    f1, f2 = features(c), features(c2)
    changed = [(a, b) for a, b in zip(f1, f2) if a != b]
    assert len(f1) == len(f2) and changed
    assert all(a.startswith("h") and b.startswith("h") for a, b in changed)


def test_exploration_policy_validation():
    ExplorationPolicy(p_explore=0.5)
    with pytest.raises(ValueError, match="p_explore"):
        ExplorationPolicy(p_explore=1.5)


def test_zero_weights_fall_back_to_tie_break_order():
    m = Model(weights={}, label_alphabet=("X", "Y"), strategy=TOP_DOWN)
    c = initial_config(("a", "b"), TOP_DOWN)
    moves = legal_transitions(c, m.label_alphabet)
    table = move_table(m.label_alphabet)
    best, _ = _pick(columns_of(m.label_alphabet, moves), m.weights, features(c), len(table))
    assert table[best] == moves[0]


def test_equal_nt_scores_pick_the_first_label():
    alphabet = ("Y", "X")  # unsorted: the rule is lexicographic, not alphabet order
    m = Model(
        weights={"bias": dense(alphabet, {SHIFT: 1.0, nt("X"): 2.0, nt("Y"): 2.0})},
        label_alphabet=alphabet,
        strategy=TOP_DOWN,
    )
    c = replay(("a", "b"), TOP_DOWN, "NT_X")
    moves = legal_transitions(c, alphabet)
    columns = columns_of(alphabet, moves)
    best, totals = _pick(columns, m.weights, features(c), len(move_table(alphabet)))
    assert {t: totals[k] for t, k in zip(moves, columns)} == {
        SHIFT: 1.0, nt("X"): 2.0, nt("Y"): 2.0
    }
    assert totals == dense(alphabet, {SHIFT: 1.0, nt("X"): 2.0, nt("Y"): 2.0})
    assert move_table(alphabet)[best] == nt("X")


def test_a_tie_between_shift_and_an_nt_gives_shift():
    alphabet = ("X", "Y")
    # the tie comes from two features' rows, summed
    m = Model(
        weights={
            "bias": dense(alphabet, {SHIFT: 1.5, nt("X"): 0.5, nt("Y"): 1.25}),
            "b0=b": dense(alphabet, {nt("X"): 1.0}),
        },
        label_alphabet=alphabet,
        strategy=TOP_DOWN,
    )
    c = replay(("a", "b"), TOP_DOWN, "NT_X SH")
    moves = legal_transitions(c, alphabet)
    columns = columns_of(alphabet, moves)
    best, totals = _pick(columns, m.weights, features(c), len(move_table(alphabet)))
    assert {t: totals[k] for t, k in zip(moves, columns)} == {
        SHIFT: 1.5, nt("X"): 1.5, nt("Y"): 1.25
    }
    assert move_table(alphabet)[best] == SHIFT


def test_dynamic_target_is_the_first_best_optimal_move():
    tree = parse_bracketed("(X (Y a))")
    gold = GoldReference.from_tree(tree, TOP_DOWN)
    alphabet = ("Y", "X", "D")
    c = initial_config(tree.tokens, TOP_DOWN)
    # either unary order rebuilds the gold spans
    assert optimal_transitions(c, gold, alphabet) == [nt("X"), nt("Y")]
    learner = _Learner(len(move_table(alphabet)))
    learner.w["bias"] = dense(alphabet, {nt("D"): 5.0, nt("X"): 2.0, nt("Y"): 2.0})
    learner.u["bias"] = dense(alphabet, {})
    seen = []
    _train_sentence(
        tree.tokens,
        gold,
        None,  # dynamic: the oracle gives the optimal moves
        alphabet,
        learner,
        lambda: False,
        lambda step, c, target, d: seen.append(
            (target, list(learner.w["bias"]), list(learner.u["bias"]))
        ),
    )
    # the guess, NT_D, is not optimal; NT_X and NT_Y tie at 2.0, and the
    # first update (at tick 1) moves NT_X up and NT_D down
    assert seen[0] == (
        nt("X"),
        dense(alphabet, {nt("D"): 4.0, nt("X"): 3.0, nt("Y"): 2.0}),
        dense(alphabet, {nt("D"): -1.0, nt("X"): 1.0}),
    )


@pytest.mark.parametrize("explored", [False, True])
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_dynamic_pass_asks_for_every_move_only_when_the_guess_loses(monkeypatch, strategy,
                                                                   explored):
    """A dynamic pass reads the initial configuration's loss once, then
    asks at each step for the guess's successor total alone, and for every
    legal move's total exactly on the steps where the guess loses loss.
    The total it carries, first the initial one and then the total of each
    move taken, is loss(c, gold).total at every step.  Seeded trees share
    one learner, so some guesses keep the loss and some lose it; the
    exploration coin says always or never."""
    queries = []  # (query, configuration, moves, answer) per oracle call

    def recorder(query, real):
        def recorded(c, gold, moves):
            answer = real(c, gold, moves)
            queries.append((query, c, tuple(moves), answer))
            return answer

        return recorded

    monkeypatch.setattr(model, "_move_losses", recorder("losses", model._move_losses))
    monkeypatch.setattr(model, "_move_totals", recorder("totals", model._move_totals))
    rng = random.Random(f"guess-first|{strategy}")
    alphabet = ("A", "B", "C", "D")
    learner = _Learner(len(move_table(alphabet)))
    kept = lost = raised = 0
    for _ in range(30):
        t = random_tree(rng.randint(1, 8), ["A", "B", "C"], rng.randrange(1 << 30))
        gold = GoldReference.from_tree(t, strategy)
        ref = GoldReference.from_tree(t, strategy)  # for the public calls
        queries.clear()
        _train_sentence(t.tokens, gold, None, alphabet, learner, lambda: explored, None)
        query, c, moves, (breakdown, _) = queries[0]
        assert (query, c, moves) == ("losses", initial_config(t.tokens, strategy), ())
        carried = breakdown.total
        k = 1
        while k < len(queries):
            query, c1, (guess,), (guessed,) = queries[k]
            assert query == "totals" and c1 is c
            assert carried == loss(c, ref).total
            asks_all = k + 1 < len(queries) and queries[k + 1][1] is c
            assert asks_all == (loss(apply(c, guess), ref).total != carried)
            if asks_all:
                query, _, moves, totals = queries[k + 1]
                assert query == "totals" and moves == tuple(legal_transitions(c, alphabet))
                lost += 1
                k += 2
            else:
                moves, totals = (guess,), [guessed]
                kept += 1
                k += 1
            if k < len(queries):  # the next step's configuration: carry its move's total
                nxt = queries[k][1]
                (total,) = [tot for m, tot in zip(moves, totals) if apply(c, m) == nxt]
                raised += total > carried
                c, carried = nxt, total
    assert kept and lost
    assert bool(raised) == explored


def test_learner_updates_two_columns_and_averages():
    alphabet = ("X",)
    learner = _Learner(len(move_table(alphabet)))
    for _ in range(3):
        learner.tick()
    shift, nt_x = columns_of(alphabet, [SHIFT, nt("X")])
    learner.update(["bias", "b0=a"], shift, nt_x)
    learner.tick()
    step = dense(alphabet, {SHIFT: 1.0, nt("X"): -1.0})
    assert learner.w == {"bias": step, "b0=a": step}
    assert learner.u == {f: [3 * v for v in step] for f in ("bias", "b0=a")}
    # each weight less u / t: 1 - 3/4
    avg = dense(alphabet, {SHIFT: 0.25, nt("X"): -0.25})
    assert learner.averaged() == {"bias": avg, "b0=a": avg}


def recorded_learners(monkeypatch):
    """The learners train makes from now on, each added to the returned
    list when its weights are averaged."""
    learners = []

    class Recorded(_Learner):
        def averaged(self):
            learners.append(self)
            return super().averaged()

    monkeypatch.setattr(model, "_Learner", Recorded)
    return learners


def reference_pick(moves, weights, feats, alphabet):
    """The first best of moves, each scored by adding its weight feature
    by feature in feature order (0.0 for a feature without a row)."""
    table = move_table(alphabet)
    scores = [
        sum(weights[f][table.index(t)] if f in weights else 0.0 for f in feats) for t in moves
    ]
    return moves[scores.index(max(scores))], scores


def reference_parse(m, tokens):
    """Greedy decoding with legal_transitions, reference_pick and apply,
    wrapped as parse_with_info wraps a decode that stops short."""
    c = initial_config(tokens, m.strategy)
    for _ in range(_step_cap(c.n, c.max_consecutive_nt)):
        moves = legal_transitions(c, m.label_alphabet)
        if not moves:
            break
        best, _ = reference_pick(moves, m.weights, features(c), m.label_alphabet)
        c = apply(c, best)
    forest = forest_from_built(c.tokens, c.built)
    if is_terminal(c):
        return ConstituentTree(c.tokens, forest[0])
    return ConstituentTree(c.tokens, Internal(m.label_alphabet[0], tuple(forest)))


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_the_column_pick_is_the_first_best_legal_move(monkeypatch, strategy):
    """On seeded walk configurations, _pick over the legal columns gives
    the move and the scores of reference_pick, for three kinds of rows:
    a learner's integer-valued weights after dynamic training, their
    average, and rows of 0s and 1s, where most steps tie."""
    learners = recorded_learners(monkeypatch)
    corpus = synthetic_corpus(30, ["A", "B", "C"], seed=11, min_tokens=2, max_tokens=10)
    m = train(corpus, strategy, ExplorationPolicy(0.2, seed=2), epochs=2)
    (learner,) = learners
    alphabet, averaged = m.label_alphabet, m.weights
    table = move_table(alphabet)
    rng = random.Random(f"ties|{strategy}")
    tied = {f: [float(rng.random() < 0.3) for _ in table] for f in learner.w}
    ties = 0
    for rows in (learner.w, averaged, tied):
        for k, tree in enumerate(corpus):
            for c in walk_configs(tree, strategy, alphabet, k, 60):
                moves = legal_transitions(c, alphabet)
                if not moves:
                    continue
                feats = features(c)
                columns = columns_of(alphabet, moves)
                best, totals = _pick(columns, rows, feats, len(table))
                expected, scores = reference_pick(moves, rows, feats, alphabet)
                assert table[best] == expected
                assert [totals[col] for col in columns] == scores
                ties += scores.count(max(scores)) > 1
    assert ties > 100


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_greedy_decode_matches_the_reference_decode(strategy):
    corpus = synthetic_corpus(40, ["A", "B", "C"], seed=12, min_tokens=2, max_tokens=10)
    held = synthetic_corpus(50, ["A", "B", "C"], seed=13, min_tokens=2, max_tokens=12)
    m = train(corpus, strategy, ExplorationPolicy(0.1, seed=4), epochs=2)
    for tree in held:
        assert parse(m, tree.tokens) == reference_parse(m, tree.tokens)


@pytest.mark.parametrize("p_explore", [0.0, 0.3])
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_averaging_is_the_dense_formula_bit_for_bit(monkeypatch, strategy, p_explore):
    """averaged() computes wv - uv / t only where uv is nonzero; after a
    seeded static or dynamic run every cell has the bits that formula
    gives, and a row that averages to all zeros is dropped: one never
    updated, and one whose only update came at the last tick."""
    learners = recorded_learners(monkeypatch)
    corpus = synthetic_corpus(20, ["A", "B", "C", "D"], seed=7, min_tokens=2, max_tokens=9)
    train(corpus, strategy, ExplorationPolicy(p_explore, seed=3), epochs=2, seed=5)
    (learner,) = learners
    t = learner.t
    width = learner.width
    learner.w["never"], learner.u["never"] = [0.0] * width, [0.0] * width
    learner.w["undone"], learner.u["undone"] = [0.0] * width, [0.0] * width
    learner.w["undone"][2], learner.u["undone"][2] = 1.0, float(t)  # 1 - t / t
    dense_rows = {
        f: [wv - uv / t for wv, uv in zip(row, learner.u[f])] for f, row in learner.w.items()
    }
    expected = {f: list(map(float.hex, row)) for f, row in dense_rows.items() if any(row)}
    got = {f: list(map(float.hex, row)) for f, row in learner.averaged().items()}
    assert got == expected
    assert "never" not in got and "undone" not in got
    assert sum(uv != 0 and uv % t != 0 for row in learner.u.values() for uv in row) > 100


def test_model_file_round_trip(tmp_path):
    m = Model(
        weights={
            "bias": dense(("X", "Y"), {SHIFT: 1.5}),
            "s0=_": dense(("X", "Y"), {nt("X"): -2.25}),
        },
        label_alphabet=("X", "Y"),
        strategy=IN_ORDER,
    )
    path = tmp_path / "m.model"
    m.save(path)
    first = path.read_text(encoding="utf-8").splitlines()
    assert first[0] == "oracle-lab-model v1 in-order"
    assert first[1] == "labels: X Y"
    back = Model.load(path)
    assert back.weights == m.weights
    assert back.label_alphabet == m.label_alphabet
    assert back.strategy == m.strategy


def test_model_load_errors(tmp_path):
    p = tmp_path / "bad.model"
    p.write_text("something else\n", encoding="utf-8")
    with pytest.raises(ValueError, match="not a oracle-lab-model v1 file"):
        Model.load(p)
    p.write_text("oracle-lab-model v1 top-down\nno labels here\n", encoding="utf-8")
    with pytest.raises(ValueError, match="missing labels header"):
        Model.load(p)
    p.write_text(
        "oracle-lab-model v1 top-down\nlabels: X\nbias\tSH\tnot-a-number\n",
        encoding="utf-8",
    )
    with pytest.raises(ValueError, match=rf"{p}:3: bad weight row"):
        Model.load(p)


@pytest.mark.parametrize("wtext", ["nan", "inf", "-inf"])
def test_model_load_rejects_non_finite_weights(tmp_path, wtext):
    p = tmp_path / "bad.model"
    p.write_text(
        f"oracle-lab-model v1 top-down\nlabels: X\nbias\tSH\t1.0\nbias\tRE\t{wtext}\n",
        encoding="utf-8",
    )
    with pytest.raises(ValueError, match=rf"{p}:4: bad weight row"):
        Model.load(p)


def test_model_load_rejects_a_row_with_no_column(tmp_path):
    p = tmp_path / "bad.model"
    p.write_text(
        "oracle-lab-model v1 top-down\nlabels: X\nbias\tNT_X\t1.0\nbias\tNT_Q\t1.0\n",
        encoding="utf-8",
    )
    with pytest.raises(ValueError, match=rf"{p}:4: bad weight row"):
        Model.load(p)


def test_model_load_rejects_repeated_labels(tmp_path):
    p = tmp_path / "bad.model"
    p.write_text("oracle-lab-model v1 top-down\nlabels: X Y X\n", encoding="utf-8")
    with pytest.raises(ValueError, match=rf"{p}: repeated label 'X'"):
        Model.load(p)


def test_model_load_rejects_repeated_rows(tmp_path):
    p = tmp_path / "bad.model"
    p.write_text(
        "oracle-lab-model v1 top-down\nlabels: X\n"
        "bias\tNT_X\t1.0\nb0=a\tNT_X\t2.0\nbias\tNT_X\t1.0\n",
        encoding="utf-8",
    )
    with pytest.raises(ValueError, match=rf"{p}:5: bad weight row"):
        Model.load(p)


def test_zero_weights_are_not_saved(tmp_path):
    m = Model(
        weights={"bias": dense(("X",), {SHIFT: 0.0}), "b0=a": dense(("X",), {SHIFT: 1.0})},
        label_alphabet=("X",),
        strategy=TOP_DOWN,
    )
    path = tmp_path / "m.model"
    m.save(path)
    assert Model.load(path).weights == {"b0=a": dense(("X",), {SHIFT: 1.0})}


def test_train_rejects_bad_input():
    with pytest.raises(ValueError, match="empty training corpus"):
        train([], TOP_DOWN, ExplorationPolicy())


@pytest.mark.parametrize("epochs", [0, -2])
def test_train_rejects_fewer_than_one_epoch(epochs):
    corpus = synthetic_corpus(2, ["X"], seed=1)
    with pytest.raises(ValueError, match=f"epochs must be at least 1, got {epochs}"):
        train(corpus, TOP_DOWN, ExplorationPolicy(), epochs=epochs)


def test_train_rejects_underivable_trees():
    chain = parse_bracketed("(A (B (C (D (E (F (G (H (J (X w0 w1))))))))))")
    with pytest.raises(
        ValueError,
        match="tree 0: top-down derivation needs 10 consecutive NT transitions,"
        " over the cap of 8",
    ):
        train([chain], TOP_DOWN, ExplorationPolicy(), epochs=1)
    # in-order never opens two NTs in a row, so the cap does not bind
    train([chain], IN_ORDER, ExplorationPolicy(), epochs=1)


def test_training_is_deterministic():
    corpus = synthetic_corpus(6, ["X", "Y"], seed=2)
    a = train(corpus, IN_ORDER, ExplorationPolicy(p_explore=0.2, seed=4), epochs=2)
    b = train(corpus, IN_ORDER, ExplorationPolicy(p_explore=0.2, seed=4), epochs=2)
    assert a.weights == b.weights
    assert a.label_alphabet == b.label_alphabet == ("X", "Y")


def test_dynamic_updates_never_target_loss_increasing_moves():
    corpus = synthetic_corpus(6, ["X", "Y"], seed=2)
    deltas = []
    train(
        corpus,
        IN_ORDER,
        ExplorationPolicy(p_explore=0.1, seed=9),
        epochs=2,
        audit=lambda s, step, c, target, d: deltas.append(d),
    )
    assert deltas
    assert set(deltas) == {0}


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_static_training_audits_every_gold_move(strategy):
    corpus = synthetic_corpus(5, ["X", "Y"], seed=3)
    seen = []
    train(
        corpus,
        strategy,
        ExplorationPolicy(),
        epochs=2,
        audit=lambda s, step, c, target, d: seen.append((s, step, target, d)),
    )
    golds = [gold_sequence(t, strategy) for t in corpus]
    assert len(seen) == 2 * sum(map(len, golds))
    # per sentence and epoch, one call per gold move, in order, targeting it
    runs = {}
    for s, step, target, d in seen:
        assert d == 0
        runs.setdefault(s, []).append((step, target))
    for s, got in runs.items():
        seq = list(enumerate(golds[s]))
        assert got == seq + seq


@pytest.mark.parametrize(
    "p_explore, audited, holders",
    [(0.3, False, 1), (0.0, True, 1), (0.0, False, 0)],
    ids=["dynamic", "static-audited", "static"],
)
def test_training_leaves_a_trie_on_one_gold_at_most(monkeypatch, p_explore, audited, holders):
    """A gold keeps its top-down trie only until another gold makes one,
    so training on many trees leaves a trie on one gold at most, the last
    whose oracle calls made one.  Dynamic training and static training's
    audit calls make tries; static training alone asks the oracle
    nothing."""
    made = []
    real = GoldReference.from_tree.__func__

    def recorded(cls, tree, strategy):
        made.append(real(cls, tree, strategy))
        return made[-1]

    monkeypatch.setattr(GoldReference, "from_tree", classmethod(recorded))
    corpus = synthetic_corpus(8, ["X", "Y"], seed=4, min_tokens=2, max_tokens=8)
    audit = (lambda *args: None) if audited else None
    policy = ExplorationPolicy(p_explore=p_explore, seed=1)
    train(corpus, TOP_DOWN, policy, epochs=2, audit=audit)
    assert len(made) == len(corpus)
    assert len([g for g in made if g._trie is not None]) == holders


def in_order_unary_chain(depth):
    """(X (X ... (X w0))), depth X nodes over one word."""
    text = "(X w0)"
    for _ in range(depth - 1):
        text = f"(X {text})"
    return parse_bracketed(text)


# the model file static training wrote on the 30-deep chain when it had a
# loop of its own, without a step cap
UNARY_CHAIN_SHA256 = "c643d5c397954d137fefb72b0289e783fab2488428af1a4e7d23b1094566c9a6"


def test_static_training_follows_the_whole_gold_sequence(tmp_path):
    chain = in_order_unary_chain(30)
    seq = gold_sequence(chain, IN_ORDER)
    # 62 gold moves, far past the step cap of one word
    assert len(seq) == 62 > _step_cap(1, 8)
    steps = []
    m = train(
        [chain],
        IN_ORDER,
        ExplorationPolicy(),
        epochs=3,
        audit=lambda s, step, c, target, d: steps.append((step, target)),
    )
    assert steps == 3 * list(enumerate(seq))
    path = tmp_path / "m.model"
    m.save(path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == UNARY_CHAIN_SHA256


def test_trained_model_parses_its_training_data():
    corpus = synthetic_corpus(10, ["X", "Y"], seed=5)
    m = train(corpus, TOP_DOWN, ExplorationPolicy(), epochs=4)
    hits = 0
    for t in corpus:
        p = parse(m, t.tokens)
        assert p.tokens == t.tokens
        hits += serialize(p) == serialize(t)
    assert hits >= 8


def test_parse_falls_back_when_the_cap_is_hit():
    m = Model(
        weights={"bias": dense(("X",), {nt("X"): 1.0})},
        label_alphabet=("X",),
        strategy=TOP_DOWN,
    )
    tree, info = parse_with_info(m, ("a", "b"))
    assert info["fallback"]
    assert info["wrap_label"] == "X"
    assert info["steps"] == _step_cap(2, 8)
    assert tree.tokens == ("a", "b")
    assert constituent_set(tree)[-1] == ("X", 0, 2)


def test_parse_rejects_empty_input():
    m = Model(weights={}, label_alphabet=("X",), strategy=TOP_DOWN)
    with pytest.raises(ValueError, match="empty sentence"):
        parse(m, ())


def test_step_cap_formula():
    assert _step_cap(6, 8) == 64
    assert _step_cap(1, 3) == 14


# sha256 of the model files these runs wrote when the weights were one flat
# {(feature, transition): weight} dict; storing them per feature must not
# change a byte
PARITY_SHA256 = {
    (TOP_DOWN, 0.0): "4bc367d4124a20a1e481b28ee392d00c2de74eb5bf85b4bc7b0673b45f946819",
    (TOP_DOWN, 0.3): "aca9a7e639dc62f883bcf9530250750b9033a88d8627ea34b2456badcb16eb90",
    (IN_ORDER, 0.0): "a4e9d1e5ee8262f0c3532f3cb06173d7b08272228cd206431ed1f4a406b56fd8",
    (IN_ORDER, 0.3): "3fd4a72c0f9a87083cdb397e3a408efde72a1883461af120b903f7d593d905a6",
}


@pytest.mark.parametrize("p_explore", [0.0, 0.3])
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_trained_model_file_and_scores_are_unchanged(tmp_path, strategy, p_explore):
    corpus = synthetic_corpus(12, ["A", "B", "C", "D"], seed=7, min_tokens=2, max_tokens=8)
    m = train(corpus, strategy, ExplorationPolicy(p_explore, seed=3), epochs=3, seed=5)
    path = tmp_path / "m.model"
    m.save(path)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == PARITY_SHA256[(strategy, p_explore)]
    # every greedy step's scores are the flat sums of the file's rows,
    # taken in feature order
    flat = {}
    for line in path.read_text(encoding="utf-8").splitlines()[2:]:
        f, tname, wtext = line.split("\t")
        flat[(f, parse_transition(tname))] = float(wtext)
    back = Model.load(path)
    table = move_table(back.label_alphabet)
    steps = 0
    for tree in corpus:
        c = initial_config(tree.tokens, strategy)
        for _ in range(_step_cap(c.n, c.max_consecutive_nt)):
            if is_terminal(c):
                break
            moves = legal_transitions(c, back.label_alphabet)
            feats = features(c)
            columns = columns_of(back.label_alphabet, moves)
            best, totals = _pick(columns, back.weights, feats, len(table))
            scores = {t: totals[k] for t, k in zip(moves, columns)}
            assert scores == {t: sum(flat.get((f, t), 0.0) for f in feats) for t in moves}
            # the first legal move with the highest score
            assert table[best] == max(moves, key=scores.__getitem__)
            c = apply(c, table[best])
            steps += 1
    assert steps > 100
