import random
from bisect import bisect_right
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import replay, trees, walk_configs
from oracle_lab import cli, model, oracle
from oracle_lab.oracle import (
    GoldReference,
    LossBreakdown,
    _innermost_labels,
    _missing_from,
    _move_losses,
    _move_totals,
    _tally,
    _td_targets,
    _top_down_analysis,
    loss,
    losses,
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
    move_table,
    nt,
)
from oracle_lab.trees import (
    TreeError,
    check_derivable,
    enumerate_trees,
    gold_sequence,
    parse_bracketed,
    random_tree,
)
from oracle_lab.verify import SearchBounds, _exhaustive_graph, _random_walk, brute_force_loss, sweep


def test_strategy_mismatch_is_rejected(example_tree):
    gold = GoldReference.from_tree(example_tree, IN_ORDER)
    c = initial_config(example_tree.tokens, TOP_DOWN)
    with pytest.raises(ValueError, match="strategy mismatch"):
        loss(c, gold)


@pytest.mark.parametrize("strategy, other", [(TOP_DOWN, IN_ORDER), (IN_ORDER, TOP_DOWN)])
def test_optimal_transitions_rejects_a_strategy_mismatch(example_tree, strategy, other):
    """On a configuration with legal moves and on a terminal one, which
    has none to judge."""
    gold = GoldReference.from_tree(example_tree, other)
    c = initial_config(example_tree.tokens, strategy)
    with pytest.raises(ValueError, match="strategy mismatch"):
        optimal_transitions(c, gold)
    for t in gold_sequence(example_tree, strategy):
        c = apply(c, t)
    assert is_terminal(c) and not legal_transitions(c, gold.labels)
    with pytest.raises(ValueError, match="strategy mismatch"):
        optimal_transitions(c, gold)


@pytest.mark.parametrize("strategy", [TOP_DOWN, IN_ORDER])
def test_move_losses_of_terminal_configurations(strategy):
    """A terminal configuration's query gives its loss and no moves, and
    that loss is the Hamming distance between the built multiset and the
    gold one: every terminal class of the n <= 2 census, with a
    distractor label, so that some of them built junk."""
    alphabet = ("D", "X", "Y")
    bounds = SearchBounds(label_alphabet=alphabet)
    totals = []
    for t in [t for n in (1, 2) for t in enumerate_trees(n, ["X", "Y"])]:
        gold = GoldReference.from_tree(t, strategy)
        for c in _exhaustive_graph(t, gold, strategy, bounds)[1]:
            if not is_terminal(c):
                continue
            built = Counter(c.built)
            hamming = sum((built - gold.count).values()) + sum((gold.count - built).values())
            assert _move_losses(c, gold, ()) == (loss(c, gold), [])
            assert loss(c, gold).total == hamming, c.built
            totals.append(hamming)
    assert 0 in totals and max(totals) > 1


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
    c = replay(t.tokens, IN_ORDER, "SH NT_Y")
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
    c = replay(t.tokens, TOP_DOWN, "NT_R NT_Y NT_X")
    lb = loss(c, gold)
    bounds = SearchBounds(label_alphabet=("R", "X", "Y"))
    assert lb.total == brute_force_loss(c, gold, bounds)
    # gold-ordered variant has no inversion
    c2 = replay(t.tokens, TOP_DOWN, "NT_R NT_X NT_Y")
    assert loss(c2, gold).total == 0


def test_wrong_constituent_is_a_sunk_cost():
    t = parse_bracketed("(X w0 w1)")
    gold = GoldReference.from_tree(t, IN_ORDER)
    c = replay(t.tokens, IN_ORDER, "SH NT_Y SH RE")
    lb = loss(c, gold)
    assert lb.false_constituents == 1
    assert lb.unreachable == 0  # X(0,2) can still wrap the junk
    assert lb.total == 1


def test_terminal_loss_is_symmetric_difference():
    t = parse_bracketed("(X w0 w1)")
    gold = GoldReference.from_tree(t, IN_ORDER)
    c = replay(t.tokens, IN_ORDER, "SH NT_Y SH RE FI")
    lb = loss(c, gold)
    assert (lb.unreachable, lb.false_constituents) == (1, 1)
    assert lb.total == 2


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
        for c in walk_configs(t, TOP_DOWN, ("X", "Y"), seed, steps=40):
            assert loss(c, gold).total == brute_force_loss(c, gold, TD_BOUNDS), c


def test_top_down_loss_when_targets_may_end_at_i():
    """With a completed item on top, an open NT below it can still close
    right here, on a gold span ending at i."""
    checked = ends_at_i = 0
    for k, t in enumerate(_derivable_trees(3, 60)):
        gold = GoldReference.from_tree(t, TOP_DOWN)
        for c in walk_configs(t, TOP_DOWN, ("X", "Y"), k, steps=40):
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
    c = replay(t.tokens, TOP_DOWN, "NT_Y SH NT_Y")
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


def _stacking_walk(c, alphabet, rng, steps, p_nt):
    """A seeded walk of at most steps moves over alphabet from c that
    stacks opens: each configuration is yielded before the move from it
    is drawn, an NT with probability p_nt when one is legal, else any
    legal move.  It stops after a configuration with no legal move."""
    for _ in range(steps):
        yield c
        moves = legal_transitions(c, alphabet)
        if not moves:
            return
        nts = [m for m in moves if m.kind == "nt"]
        c = apply(c, rng.choice(nts if nts and rng.random() < p_nt else moves))


def _most_opens_at_one_index(c):
    return max(Counter(e.index for e in c.stack if isinstance(e, OpenNT)).values(), default=0)


@pytest.mark.parametrize("strategy", [TOP_DOWN, IN_ORDER])
def test_losses_match_loss_one_by_one(strategy):
    """One `losses` batch per gold tree against one `loss` call per
    configuration, field for field: the exhaustive classes of every tree
    over at most two tokens and of every 27th three-token tree, under caps
    1-3 in one batch, and walks on 10-40 token trees that stack opens up
    to the cap."""
    alphabet = ("X", "Y")
    batches = []
    for t in [t for n in (1, 2, 3) for t in list(enumerate_trees(n, ["X", "Y"]))[:: 27 if n == 3 else 1]]:
        gold = GoldReference.from_tree(t, strategy)
        configs = []
        for cap in (1, 2, 3):
            bounds = SearchBounds(max_consecutive_nt=cap, label_alphabet=alphabet)
            configs += _exhaustive_graph(t, gold, strategy, bounds)[1]
        batches.append((gold, configs))
    census = sum(len(configs) for _, configs in batches)
    rng = random.Random(f"losses|{strategy}")
    stacked = 0
    for _ in range(16):
        t = random_tree(rng.randint(10, 40), ["X", "Y"], rng.randrange(1 << 30))
        gold = GoldReference.from_tree(t, strategy)
        configs = []
        for cap in (2, 3):
            c = initial_config(t.tokens, strategy, max_consecutive_nt=cap)
            for c in _stacking_walk(c, ("D",) + alphabet, rng, 6 * c.n, 0.6):
                configs.append(c)
                stacked += _most_opens_at_one_index(c) >= 2
        batches.append((gold, configs))
    for gold, configs in batches:
        assert losses(configs, gold) == [loss(c, gold) for c in configs]
    assert census >= (140_000 if strategy == TOP_DOWN else 18_000), census
    if strategy == TOP_DOWN:
        assert stacked >= 1_000, stacked


def test_losses_key_on_the_position_and_the_nt_headroom():
    """Configurations of one gold whose opens search the same targets.
    NT_X at i = 0 and NT_X SH NT_Y at i = 1, with one NT of headroom each,
    and NT_X SH NT_Y NT_Y at i = 1 with none (NT_Y is forced junk).  The
    open at i = 0 sits at i, so its node is in the root's sub-trie at 0;
    at i = 1 it is left of i and its targets end past i, so its node hangs
    from the root by its entry alone and its closes sit in that node's
    sub-trie at 1, one per headroom.  Each close gives its own (cost,
    junk), so a trie that merged the two nodes, or a node's closes at two
    positions or under two headrooms, would hand one configuration
    another's.  On the gold (X w0), NT_X at i = 0 sits at i and NT_X SH at
    i = 1 has its target end at i: the same entry in the sub-tries at 0
    and at 1, whose layers differ."""
    t = parse_bracketed("(X w0 (Z w1 w2))")
    gold = GoldReference.from_tree(t, TOP_DOWN)
    configs = [
        replay(t.tokens, TOP_DOWN, names, cap=2)
        for names in ("NT_X", "NT_X SH NT_Y", "NT_X SH NT_Y NT_Y")
    ]
    assert losses(configs, gold) == [loss(c, gold) for c in configs]
    assert [lb.total for lb in losses(configs, gold)] == [0, 1, 3]
    entry = ("X", 0, (3,), (1,))
    for c in configs:  # the three read the gold's trie, as in one `losses` call
        taken, sunk = _tally(c, gold)
        targets = _td_targets(gold, taken, c.stack, c.n, c.i, c.i + 1)
        assert targets[0] == [entry]
        _top_down_analysis(gold, targets, len(c.built) - sunk, c.n, 2, c.i, c.nt_run)
    root = gold._trie
    assert root[0][entry][None] != root[entry][None]
    # each close's (cost, junk), under the headroom max(0, 2 - nt_run)
    assert [root[0][entry][1], root[entry][1][1], root[entry][1][0]] == [(0, 0), (-1, 0), (0, 0)]

    t = parse_bracketed("(X w0)")
    gold = GoldReference.from_tree(t, TOP_DOWN)
    configs = [replay(t.tokens, TOP_DOWN, names) for names in ("NT_X", "NT_X SH")]
    for order in (configs, configs[::-1]):
        assert losses(order, gold) == [loss(c, gold) for c in order]
    entry = ("X", 0, (1,), (1,))
    for c in configs:
        taken, sunk = _tally(c, gold)
        targets = _td_targets(gold, taken, c.stack, c.n, c.i, c.i + 1)
        assert targets[0] == [entry]
        _top_down_analysis(gold, targets, len(c.built) - sunk, c.n, 8, c.i, c.nt_run)
    root = gold._trie
    assert set(root) == {None, 0, 1}
    assert root[0][entry][None] != root[1][entry][None]


def _layer_calls(monkeypatch):
    """The (i, target entry) of every `_td_layer` call from here on."""
    calls = []
    real = oracle._td_layer

    def counted(entry, i, layer, pl):
        calls.append((i, entry))
        return real(entry, i, layer, pl)

    monkeypatch.setattr(oracle, "_td_layer", counted)
    return calls


def _prefixes(c, gold):
    """The trie nodes whose layers `loss` reads on c, each as its path of
    keys from the root: an open left of i whose targets all end past i,
    with no open below it keyed by i, is keyed by its entry alone; the
    first other open is reached through the sub-trie at i, and it and
    every open above it are keyed by their entries within that sub-trie."""
    if is_terminal(c) or c.finished:
        return set()
    taken, _ = _tally(c, gold)
    E = c.i if c.stack and isinstance(c.stack[-1], Completed) else c.i + 1
    searched, _ = _td_targets(gold, taken, c.stack, c.n, c.i, E)
    path, nodes = [], set()
    for entry in searched:
        if c.i not in path and (entry[1] == c.i or entry[2][0] == c.i):
            path.append(c.i)
        path.append(entry)
        nodes.add(tuple(path))
    return nodes


def assert_each_layer_once(calls, nodes):
    """The calls compute the layers of exactly these nodes, each once: as
    many calls as nodes, with the same entries, and the layer of each node
    in a sub-trie at i computed at that i."""
    assert len(calls) == len(nodes)
    assert Counter(entry for _, entry in calls) == Counter(p[-1] for p in nodes)
    at_i = Counter((k, p[-1]) for p in nodes for k in p if type(k) is int)
    assert not at_i - Counter(calls)


def test_each_layer_is_computed_once_per_call(monkeypatch):
    """Within one `_move_losses` call and within one `losses` call, the
    layer of each distinct trie node is computed exactly once: the base,
    every successor and every configuration read one trie.  Along the
    gold derivation, the opens left of i keep their nodes from one
    position to the next."""
    t = parse_bracketed("(X (X (Y w0 w1) (X w2 w3)) (Y (X w4) w5))")
    gold = GoldReference.from_tree(t, TOP_DOWN)
    calls = _layer_calls(monkeypatch)
    # stacked opens, two of them at 0 with label X; the reduce builds
    # Y(0, 2) under them, and each NT label pushes its own open
    c = replay(t.tokens, TOP_DOWN, "NT_X NT_X NT_Y SH SH", cap=4)
    moves = legal_transitions(c, ("D", "X", "Y"))
    assert {m.kind for m in moves} == {"shift", "reduce", "nt"}
    want = loss(c, gold), [loss(apply(c, m), gold).total for m in moves]
    gold = GoldReference.from_tree(t, TOP_DOWN)  # no trie yet
    calls.clear()
    assert _move_losses(c, gold, moves) == want
    prefixes = _prefixes(c, gold).union(*(_prefixes(apply(c, m), gold) for m in moves))
    assert_each_layer_once(calls, prefixes)
    assert len(calls) < sum(len(_prefixes(apply(c, m), gold)) for m in moves)

    gold = GoldReference.from_tree(t, TOP_DOWN)
    configs = [initial_config(t.tokens, TOP_DOWN)]
    for g_t in gold_sequence(t, TOP_DOWN):
        configs.append(apply(configs[-1], g_t))
    calls.clear()
    assert [lb.total for lb in losses(configs, gold)] == [0] * len(configs)
    nodes = set().union(*(_prefixes(c, gold) for c in configs))
    assert_each_layer_once(calls, nodes)
    # a trie per position would compute each (i, target prefix) anew
    per_position = {
        (c.i, tuple(k for k in p if type(k) is not int)) for c in configs for p in _prefixes(c, gold)
    }
    assert len(calls) < len(per_position)


def _trie_positions(gold):
    """The positions of the sub-tries in the gold's trie.  A node keyed by
    entry alone holds its sub-tries under positions and its children
    under entries; a sub-trie is not entered."""
    positions = set()
    todo = [] if gold._trie is None else [gold._trie]
    while todo:
        node = todo.pop()
        for key, child in node.items():
            if type(key) is int:
                positions.add(key)
            elif key is not None:
                todo.append(child)
    return positions


def _holders(golds):
    """The golds that hold a trie."""
    return [g for g in golds if g._trie is not None]


def test_public_calls_on_one_gold_share_its_trie(monkeypatch):
    """A gold keeps its trie until another gold makes one.  So
    `optimal_transitions` after `loss` on one configuration computes none
    of that configuration's layers again, and a repeated call computes
    none at all.  A call on an in-order gold, which makes no trie, leaves
    it; a call on another top-down gold, public or a private query,
    drops it.  A `losses` batch that raises partway through leaves the
    layers it computed, and later calls read them exactly."""
    t = parse_bracketed("(X (X (Y w0 w1) (X w2 w3)) (Y (X w4) w5))")
    alphabet = ("D", "X", "Y")
    c = replay(t.tokens, TOP_DOWN, "NT_X NT_X NT_Y SH SH", cap=4)
    moves = legal_transitions(c, alphabet)
    configs = [initial_config(t.tokens, TOP_DOWN)]
    for g_t in gold_sequence(t, TOP_DOWN):
        configs.append(apply(configs[-1], g_t))
    ref = GoldReference.from_tree(t, TOP_DOWN)
    want = loss(c, ref), optimal_transitions(c, ref, alphabet), losses(configs, ref)
    assert ref._trie is not None
    gold = GoldReference.from_tree(t, TOP_DOWN)
    calls = _layer_calls(monkeypatch)
    assert loss(c, gold) == want[0]
    assert ref._trie is None
    assert optimal_transitions(c, gold, alphabet) == want[1]
    nodes = _prefixes(c, gold).union(*(_prefixes(apply(c, m), gold) for m in moves))
    assert_each_layer_once(calls, nodes)
    for call, answer in (
        (lambda: loss(c, gold), want[0]),
        (lambda: optimal_transitions(c, gold, alphabet), want[1]),
        (lambda: losses(configs, gold), want[2]),
    ):
        assert call() == answer
        computed = len(calls)
        assert call() == answer and len(calls) == computed
    calls.clear()
    root = gold._trie
    io_gold = GoldReference.from_tree(t, IN_ORDER)
    io = initial_config(t.tokens, IN_ORDER)
    loss(io, io_gold)
    losses([io], io_gold)
    optimal_transitions(io, io_gold, alphabet)
    assert io_gold._trie is None and gold._trie is root
    assert loss(c, gold) == want[0] and not calls

    other = GoldReference.from_tree(t, TOP_DOWN)
    with pytest.raises(ValueError, match="strategy mismatch"):
        losses(configs + [io] + configs, other)
    assert calls and gold._trie is None and other._trie is not None
    calls.clear()
    assert losses(configs, other) == want[2] and not calls
    assert (loss(c, other), optimal_transitions(c, other, alphabet)) == want[:2]

    after = [loss(apply(c, m), ref).total for m in moves]
    gold = GoldReference.from_tree(t, TOP_DOWN)
    assert _move_totals(c, gold, moves) == after
    assert _holders([ref, other, gold]) == [gold]
    assert _move_losses(c, other, ())[0] == want[0]
    assert _holders([ref, other, gold]) == [other]


@pytest.mark.parametrize("strategy", [TOP_DOWN, IN_ORDER])
def test_shared_tries_give_every_fresh_answer(strategy):
    """Seeded walks on two gold trees at once, advancing one or the other
    at random, with `loss`, `optimal_transitions` and a `losses` batch on
    each configuration reached: the top-down golds take turns holding a
    trie and share it across runs of calls, and every answer equals the
    one a gold no earlier call has read gives.  After every call at most
    one of the golds holds a trie."""
    rng = random.Random(f"shared|{strategy}")
    alphabet = ("D", "X", "Y")
    checked = 0
    for _ in range(30):
        walks = []
        golds = []  # every gold of this round
        for _ in range(2):
            t = random_tree(rng.randint(4, 20), ["X", "Y"], rng.randrange(1 << 30))
            c = initial_config(t.tokens, strategy, max_consecutive_nt=rng.randint(1, 3))
            walk = _random_walk(c, alphabet, rng, 4 * c.n)
            want = []
            for c in walk:
                fresh = [GoldReference.from_tree(t, strategy) for _ in range(2)]
                golds += fresh
                want.append((loss(c, fresh[0]), optimal_transitions(c, fresh[1], alphabet)))
                assert len(_holders(golds)) <= 1
            golds.append(GoldReference.from_tree(t, strategy))
            walks.append((golds[-1], walk, want, iter(range(len(walk)))))
        while walks:
            gold, walk, want, steps = rng.choice(walks)
            k = next(steps, None)
            if k is None:
                walks = [w for w in walks if w[0] is not gold]
                continue
            c = walk[k]
            assert loss(c, gold) == want[k][0], c
            assert len(_holders(golds)) <= 1
            assert optimal_transitions(c, gold, alphabet) == want[k][1], c
            assert len(_holders(golds)) <= 1
            lo = max(0, k - 3)
            assert losses(walk[lo : k + 1], gold) == [lb for lb, _ in want[lo : k + 1]]
            assert len(_holders(golds)) <= 1
            checked += 1
    assert checked >= 1_500, checked


def test_oracle_trace_computes_each_layer_once(monkeypatch, tmp_path, capsys):
    """`oracle-trace` on a top-down tree computes the layer of each
    distinct trie node along its derivation exactly once."""
    text = "(X (X (Y w0 w1) (X w2 w3)) (Y (X w4) w5))"
    path = tmp_path / "tree.txt"
    path.write_text(text + "\n", encoding="utf-8")
    seen = []  # (configuration, gold) of each row
    real = cli._move_losses

    def recorded(c, gold, moves):
        seen.append((c, gold))
        return real(c, gold, moves)

    monkeypatch.setattr(cli, "_move_losses", recorded)
    calls = _layer_calls(monkeypatch)
    assert cli.main(["oracle-trace", "--strategy", "top-down", str(path)]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert len(rows) == len(seen) == len(gold_sequence(parse_bracketed(text), TOP_DOWN))
    gold = seen[0][1]
    assert_each_layer_once(calls, set().union(*(_prefixes(c, gold) for c, _ in seen)))


def test_deep_oracle_trace_computes_layers_linear_in_the_depth(monkeypatch, tmp_path, capsys):
    """Top-down `oracle-trace` on a 300-deep right-branching tree, whose
    stack holds up to 300 opens, computes at most two layers per row: an
    open left of i whose target ends past i keeps its layer from one
    position to the next, so each SHIFT and NT adds one layer, and only
    at i = n, where every target ends at i, are the 300 opens' layers
    computed again.  A trie per position computed 45,750."""
    depth = 300
    text = f"(X w{depth - 1} w{depth})"
    for k in range(depth - 2, -1, -1):
        text = f"(X w{k} {text})"
    path = tmp_path / "right.txt"
    path.write_text(text + "\n", encoding="utf-8")
    calls = _layer_calls(monkeypatch)
    assert cli.main(["oracle-trace", "--strategy", "top-down", str(path)]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert len(rows) == 3 * depth + 1
    assert len(calls) <= 2 * len(rows), len(calls)


@pytest.mark.parametrize("explored", [False, True])
def test_each_layer_is_computed_once_per_path(monkeypatch, explored):
    """Along one dynamic training pass over a sentence, the layer of each
    distinct trie node is computed exactly once: every oracle call on the
    path reads the gold's trie.  The pass reads the initial
    configuration's loss once, with `_move_losses`, which finds no trie;
    every later call is a `_move_totals` query that finds the sub-trie at
    its i that the calls before built.  The pass leaves the trie on its
    gold, which keeps it until another gold makes one.  Without
    exploration the pass follows a zero-loss path; with it, every wrong
    guess is taken."""
    t = parse_bracketed("(X (X (Y w0 w1) (X w2 w3)) (Y (X w4) w5))")
    gold = GoldReference.from_tree(t, TOP_DOWN)
    alphabet = ("D", "X", "Y")
    steps = []  # (query, configuration, moves, whether its i had a trie) per call

    def recorder(query, real):
        def recorded(c, gold, moves):
            steps.append((query, c, moves, c.i in _trie_positions(gold)))
            return real(c, gold, moves)

        return recorded

    monkeypatch.setattr(model, "_move_losses", recorder("losses", model._move_losses))
    monkeypatch.setattr(model, "_move_totals", recorder("totals", model._move_totals))
    calls = _layer_calls(monkeypatch)
    learner = model._Learner(len(move_table(alphabet)))
    model._train_sentence(t.tokens, gold, None, alphabet, learner, lambda: explored, None)
    assert steps[0][:3] == ("losses", initial_config(t.tokens, TOP_DOWN), ())
    assert [(q, warm) for q, _, _, warm in steps] == (
        [("losses", False)] + [("totals", True)] * (len(steps) - 1)
    )
    assert gold._trie is not None
    # the layers each call reads: the first its configuration's, every
    # other its moves' successors'
    read = [_prefixes(steps[0][1], gold)] + [
        set().union(*(_prefixes(apply(c, m), gold) for m in moves)) for _, c, moves, _ in steps[1:]
    ]
    assert_each_layer_once(calls, set().union(*read))
    assert len(calls) < sum(map(len, read))  # a trie per call computes these
    totals = [lb.total for lb in losses([c for _, c, _, _ in steps], gold)]
    assert (max(totals) > 0) == explored
    other = GoldReference.from_tree(t, TOP_DOWN)
    loss(initial_config(t.tokens, TOP_DOWN), other)
    assert gold._trie is None and other._trie is not None


@pytest.mark.parametrize("cap", [1, 2, 3])
@pytest.mark.parametrize("strategy", [TOP_DOWN, IN_ORDER])
def test_one_memo_along_a_path_gives_every_optimal_set(strategy, cap):
    """The gold's trie read by `_move_losses` and `_move_totals` along a
    whole path, as a training pass reads it: at every step both queries
    give the same move totals, and the moves whose total keeps the
    configuration's are the set a fresh `optimal_transitions` call gives,
    and the loss-preserving moves.  The path is walked on its gold alone,
    so that every step reads the one trie the steps before built (for
    top-down, the same root throughout), and the fresh calls come after
    the walk, on a gold of their own, whose trie no path has shaped.
    The path takes random moves, about half of them optimal."""
    rng = random.Random(f"path|{strategy}|{cap}")
    for _ in range(60):
        labels = rng.sample(["A", "B", "C"], rng.randint(1, 3))
        t = random_tree(rng.randint(1, 12), labels, rng.randrange(1 << 30))
        gold = GoldReference.from_tree(t, strategy)
        alphabet = sorted(labels + ["D"])
        c = initial_config(t.tokens, strategy, max_consecutive_nt=cap)
        steps = []  # (configuration, the moves whose total keeps its own)
        path = []  # the moves taken
        for _ in range(8 * c.n + 2 * cap):
            moves = legal_transitions(c, alphabet)
            if not moves:
                break
            breakdown, totals = _move_losses(c, gold, moves)
            if not steps:
                root = gold._trie
                assert (root is not None) == (strategy == TOP_DOWN)
            assert _move_totals(c, gold, moves) == totals
            assert gold._trie is root
            got = [m for m, total in zip(moves, totals) if total == breakdown.total]
            steps.append((c, got))
            if rng.random() < 0.5:
                m = rng.choice(got)
            else:
                pick = rng.choice(sorted({m.kind for m in moves}))
                m = rng.choice([m for m in moves if m.kind == pick])
            path.append(str(m))
            c = apply(c, m)
        ref = GoldReference.from_tree(t, strategy)
        for k, (c, got) in enumerate(steps):
            fresh = optimal_transitions(c, ref, alphabet)
            assert got == fresh == loss_preserving_moves(c, ref, alphabet), (t, path[:k])


@given(trees(max_tokens=4, labels=("X", "Y")), st.integers(0, 999),
       st.sampled_from(["top-down", "in-order"]))
def test_loss_never_decreases_along_any_move(t, seed, strategy):
    gold = GoldReference.from_tree(t, strategy)
    for c in walk_configs(t, strategy, ("X", "Y"), seed, steps=12):
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
    for c in walk_configs(t, strategy, ("X", "Y"), seed, steps=8):
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
    """The optimal set, and also the configuration's whole loss breakdown
    and each move's successor loss as the oracle derives it without
    building the successor, against the reference."""
    moves = legal_transitions(c, alphabet)
    if not moves:  # terminal or finished: nothing to judge
        assert _move_losses(c, gold, moves) == (loss(c, gold), [])
        assert optimal_transitions(c, gold, alphabet) == []
        return
    want = [loss(apply(c, m), gold).total for m in moves]
    assert _move_losses(c, gold, moves) == (loss(c, gold), want), c.stack
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
        start = initial_config(t.tokens, strategy, max_consecutive_nt=cap)
        for c in _random_walk(start, alphabet, rng, 6 * start.n):
            want = loss_preserving_moves(c, gold, alphabet)
            assert optimal_transitions(c, gold, alphabet) == want, (t, c.history)


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
        _, reps, _, _, _ = _exhaustive_graph(t, gold, strategy, bounds)
        for c in reps:
            assert_move_losses_match(c, gold, alphabet)
            checked += 1
    assert checked >= 500


@pytest.mark.parametrize("cap", [2, 3])
def test_optimal_set_with_opens_stacked_to_the_cap(cap):
    """Top-down on 10-40 token trees, pushing NTs until the cap stops them,
    then shifting and reducing under the stacked opens.  Only here do an
    NT pushed over a completed item (its successor's opens search targets
    from E = i + 1) and a reduce under other opens with its (label, left
    index) meet deep stacks with several opens sharing a left index."""
    alphabet = ("D", "X", "Y")
    # the reduce builds X(0,1) under two more X opens at 0: the middle one
    # loses that target, and with X(0,2) the bottom one's it closes as
    # junk, so its layer differs though its (label, left index) does not
    t = parse_bracketed("(X (X w0) w1)")
    c = replay(t.tokens, TOP_DOWN, "NT_X NT_X NT_X SH", cap=3)
    assert_move_losses_match(c, GoldReference.from_tree(t, TOP_DOWN), alphabet)
    rng = random.Random(f"stacked|{cap}")
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
        for c in _stacking_walk(c, alphabet, rng, 8 * c.n, 0.7):
            if is_terminal(c):
                break
            assert_move_losses_match(c, gold, alphabet)
            if _most_opens_at_one_index(c) >= 2:
                seen["open" if isinstance(c.stack[-1], OpenNT) else "completed"] += 1
            if c.nt_run == cap:
                seen["capped"] += 1
    assert min(seen["open"], seen["completed"], seen["capped"]) >= 200, seen


def test_optimal_transitions_default_alphabet(example_tree):
    gold = GoldReference.from_tree(example_tree, TOP_DOWN)
    c = initial_config(example_tree.tokens, TOP_DOWN)
    opt = optimal_transitions(c, gold)
    assert all(t.kind == "nt" for t in opt)
    assert {t.label for t in opt} <= set(gold.labels)


def assert_index_matches_a_fresh_count(c, gold, alphabet):
    """Every quantity the analyses read from the gold index, against the
    same quantity counted from scratch: the gold multiset less what the
    configuration built."""
    rem = Counter(gold.count)
    for x in c.built:
        if rem[x] > 0:
            rem[x] -= 1
    rem = +rem
    taken, sunk = _tally(c, gold)
    matched = len(c.built) - sunk
    assert sum(rem.values()) == gold.size - matched
    i, n = c.i, c.n
    assert gold.left[i] - matched == sum(v for (_, l, _), v in rem.items() if l < i)
    at = gold.right_ends.get(i, ())
    assert list(at) == sorted(r for (_, l, r), v in rem.items() if l == i for _ in range(v))
    for rho in {i, n + 1, *at}:  # far[rho]: the spans at i ending past rho
        assert len(at) - bisect_right(at, rho) == sum(
            v for (_, l, r), v in rem.items() if l == i and r > rho
        )
    for cap in {1, 2, 3, c.max_consecutive_nt}:
        starts = Counter()
        for (_, l, _), v in rem.items():
            starts[l] += v
        assert gold.capped(i, cap) == sum(
            max(0, v - cap) for l, v in starts.items() if l > i
        )
    # each open's remaining ends, as the pre-pass reads them for either
    # earliest end, and the ends of the spans at i an NT pushed there reads.
    # Each strategy's gold holds only the index its analysis reads, so
    # both are read through a gold of each strategy over one multiset
    td, io = (
        gold if s == gold.strategy else GoldReference(s, list(gold.count.elements()))
        for s in (TOP_DOWN, IN_ORDER)
    )
    ends = {}
    for (lab, l, r), v in sorted(rem.items(), key=lambda kv: kv[0][2]):
        ends.setdefault((lab, l), []).append((r, v))
    opens = [e for e in c.stack if isinstance(e, OpenNT)]
    for E in (i, i + 1):
        want = []
        for k, e in enumerate(opens):  # the bottom open closes the sentence
            fresh = [(r, v) for r, v in ends.get((e.label, e.index), ()) if r >= (E if k else n)]
            if fresh:
                rs, ms = zip(*fresh)
                want.append((e.label, e.index, rs, ms))
        assert _td_targets(td, taken, c.stack, n, i, E) == (want, len(opens) - len(want))
    for lab in alphabet:
        row = td.targets.get((lab, i))
        rs, ms = row[0][2:] if row else ((), ())
        assert list(zip(rs, ms)) == ends.get((lab, i), [])
        rs, ms = io.ends.get((lab, i), ((), ()))
        assert list(zip(rs, ms)) == ends.get((lab, i), [])
    # the in-order pools at the left end of every item on the stack: how
    # many spans there end at or past i, the nearest end and its labels
    for b in {e.l for e in c.stack if isinstance(e, Completed)}:
        pool = sorted((r, lab) for (lab, l, r), v in rem.items() if l == b and r >= i for _ in range(v))
        nearest = pool[0][0] if pool else None
        assert _missing_from(io, taken, b, i) == (len(pool), nearest), b
        assert _innermost_labels(io, taken, b, i) == {lab for r, lab in pool if r == nearest}


@pytest.mark.parametrize("strategy", [TOP_DOWN, IN_ORDER])
def test_gold_index_matches_a_fresh_count(strategy):
    """The index GoldReference builds once, less the built constituents,
    on every census class of the trees over at most two tokens and on
    walks over 10-40 token trees that stack opens up to the cap."""
    alphabet = ("D", "X", "Y")
    census = walked = stacked = 0
    bounds = SearchBounds(label_alphabet=alphabet)
    for t in [t for n in (1, 2) for t in enumerate_trees(n, ["X", "Y"])]:
        gold = GoldReference.from_tree(t, strategy)
        _, reps, _, _, _ = _exhaustive_graph(t, gold, strategy, bounds)
        for c in reps:
            assert_index_matches_a_fresh_count(c, gold, alphabet)
            census += 1
    rng = random.Random(f"index|{strategy}")
    for _ in range(12):
        t = random_tree(rng.randint(10, 40), ["X", "Y"], rng.randrange(1 << 30))
        gold = GoldReference.from_tree(t, strategy)
        c = initial_config(t.tokens, strategy, max_consecutive_nt=rng.choice([2, 3]))
        for c in _stacking_walk(c, alphabet, rng, 6 * c.n, 0.6):
            assert_index_matches_a_fresh_count(c, gold, alphabet)
            walked += 1
            stacked += _most_opens_at_one_index(c) >= 2
    assert census >= 250 and walked >= 1000, (census, walked)
    if strategy == TOP_DOWN:
        assert stacked >= 100, stacked


def test_long_left_branching_chain_under_stacked_opens():
    """(X (X ... (X w0 w1) ...) w800) after 8 NT_X: each open can take any
    of 800 gold ends, and only 8 of the 800 spans can still be built."""
    text = "(X w0 w1)"
    for k in range(2, 801):
        text = f"(X {text} w{k})"
    t = parse_bracketed(text)
    gold = GoldReference.from_tree(t, TOP_DOWN)
    c = initial_config(t.tokens, TOP_DOWN)
    for _ in range(8):
        c = apply(c, nt("X"))
    assert loss(c, gold) == LossBreakdown(792, 0, 0, 0, 792)
    assert [str(m) for m in optimal_transitions(c, gold)] == ["SH"]
