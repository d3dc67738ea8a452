import gc
import hashlib
import heapq
import random
from collections import Counter

import pytest

from conftest import replay, walk_configs
from oracle_lab.oracle import GoldReference, loss
from oracle_lab.transitions import (
    IN_ORDER,
    TOP_DOWN,
    _construct,
    apply,
    fingerprint,
    initial_config,
    is_terminal,
    legal_transitions,
)
from oracle_lab.trees import (
    TreeError,
    check_derivable,
    enumerate_trees,
    parse_bracketed,
    random_tree,
    serialize,
)
from oracle_lab.verify import (
    ConformanceReport,
    SearchBounds,
    _Successors,
    _batch_future,
    _class_key,
    _exhaustive_graph,
    _future_bound,
    brute_force_loss,
    default_alphabet,
    sweep,
)
import oracle_lab.verify as verify_mod


def plain_min_loss(config, gold, bounds, alphabet):
    """Reference search with none of the production shortcuts: states keyed
    by raw fingerprint plus the missing-gold multiset, plain uniform-cost
    order, no lower bound, no label quotient."""
    rem0 = Counter(gold.count)
    sunk0 = 0
    for c in config.built:
        if rem0[c] > 0:
            rem0[c] -= 1
        else:
            sunk0 += 1
    rem0 = +rem0
    best = None
    seen = {}
    heap = [(0, 0, config, frozenset(rem0.items()))]
    tie = 0
    while heap:
        sunk, _, c, rkey = heapq.heappop(heap)
        if best is not None and sunk >= best:
            break
        key = (fingerprint(c), rkey)
        if seen.get(key, 1 << 30) < sunk:
            continue
        if is_terminal(c):
            cand = sunk + sum(n for _, n in rkey)
            if best is None or cand < best:
                best = cand
            continue
        rem = dict(rkey)
        for t in legal_transitions(c, alphabet):
            c2 = apply(c, t)
            sunk2 = sunk
            rem2 = rem
            if t.kind == "reduce":
                top = c2.stack[-1]
                made = (top.symbol, top.l, top.r)
                rem2 = dict(rem)
                if rem2.get(made, 0) > 0:
                    rem2[made] -= 1
                    if not rem2[made]:
                        del rem2[made]
                else:
                    sunk2 += 1
            k2 = (fingerprint(c2), frozenset(rem2.items()))
            if seen.get(k2, 1 << 30) <= sunk2:
                continue
            seen[k2] = sunk2
            tie += 1
            heapq.heappush(heap, (sunk2, tie, c2, frozenset(rem2.items())))
    assert best is not None, "reference search found no terminal"
    return sunk0 + best


def test_search_bounds_defaults_and_validation():
    b = SearchBounds()
    assert (b.max_tokens, b.max_consecutive_nt, b.max_steps) == (6, 3, 80)
    assert SearchBounds(max_tokens=4).max_steps == 60
    with pytest.raises(ValueError, match="positive"):
        SearchBounds(max_tokens=0)
    with pytest.raises(ValueError, match="positive"):
        SearchBounds(max_consecutive_nt=0)


def test_default_alphabet_adds_an_unused_distractor(example_tree):
    gold = GoldReference.from_tree(example_tree, TOP_DOWN)
    assert default_alphabet(gold) == ("ADJP", "ADVP", "NP", "S", "VP", "D")
    t = parse_bracketed("(D w0 w1)")
    assert default_alphabet(GoldReference.from_tree(t, TOP_DOWN)) == ("D", "E")


def test_default_alphabet_can_run_out():
    t = parse_bracketed("(D (E w0 w1) (F w2) (G w3) (H w4) (J w5))")
    gold = GoldReference.from_tree(t, TOP_DOWN)
    assert set(gold.labels) == set("DEFGHJ")
    with pytest.raises(ValueError, match="distractor"):
        default_alphabet(gold)


def test_brute_force_class_budget(monkeypatch):
    monkeypatch.setattr(verify_mod, "_CLASS_LIMIT", 2)
    t = random_tree(4, ["X", "Y"], 1)
    gold = GoldReference.from_tree(t, TOP_DOWN)
    c = initial_config(t.tokens, TOP_DOWN)
    want = rf"class budget exhausted: the search from \('top-down', .* \(verify._CLASS_LIMIT\)"
    with pytest.raises(ValueError, match=want):
        brute_force_loss(c, gold, SearchBounds(label_alphabet=("X", "Y")))


@pytest.mark.parametrize("strategy", [TOP_DOWN, IN_ORDER])
def test_brute_force_searches_the_tail_of_long_sentences(strategy):
    """A search's cost follows the tokens left and the opens on the stack,
    not the sentence length: seeded walks over 10-14 token trees with a
    distractor label, and every configuration on them at most two tokens
    from the end."""
    alphabet = ("D", "X", "Y")
    bounds = SearchBounds(label_alphabet=alphabet)
    rng = random.Random(f"tail|{strategy}")
    checked = 0
    for seed in range(40):
        tree = random_tree(rng.randint(10, 14), ["X", "Y"], rng.randrange(1 << 30))
        gold = GoldReference.from_tree(tree, strategy)
        for c in walk_configs(tree, strategy, alphabet, seed, steps=200):
            if c.n - c.i <= 2:
                assert brute_force_loss(c, gold, bounds) == loss(c, gold).total, fingerprint(c)
                checked += 1
    assert checked > 400


def test_check_config_on_a_gold_prefix(example_tree):
    gold = GoldReference.from_tree(example_tree, TOP_DOWN)
    c = replay(example_tree.tokens, TOP_DOWN, "NT_S NT_NP SH SH RE")
    assert loss(c, gold).total == brute_force_loss(c, gold, SearchBounds())


def test_brute_force_agrees_with_plain_reference_search():
    checked = 0
    for strategy in (TOP_DOWN, IN_ORDER):
        for tree in enumerate_trees(2, ["X", "Y"]):
            gold = GoldReference.from_tree(tree, strategy)
            alphabet = ("X", "Y")
            bounds = SearchBounds(label_alphabet=alphabet)
            for seed in range(3):
                for c in walk_configs(tree, strategy, alphabet, seed, steps=10):
                    got = brute_force_loss(c, gold, bounds)
                    want = plain_min_loss(c, gold, bounds, alphabet)
                    assert got == want, fingerprint(c)
                    checked += 1
        tree = random_tree(3, ["X", "Y"], 7)
        gold = GoldReference.from_tree(tree, strategy)
        bounds = SearchBounds(label_alphabet=("X", "Y"))
        for seed in range(4):
            for c in walk_configs(tree, strategy, ("X", "Y"), seed, steps=14):
                assert brute_force_loss(c, gold, bounds) == plain_min_loss(
                    c, gold, bounds, ("X", "Y")
                )
                checked += 1
    assert checked > 200


def _missing_and_sunk(config, gold):
    rem = Counter(gold.count)
    sunk = 0
    for x in config.built:
        if rem[x] > 0:
            rem[x] -= 1
        else:
            sunk += 1
    return dict(+rem), sunk


def test_incremental_class_keys_match_recomputation():
    for strategy in (TOP_DOWN, IN_ORDER):
        for tree in list(enumerate_trees(2, ["X", "Y"]))[:9]:
            gold = GoldReference.from_tree(tree, strategy)
            bounds = SearchBounds(label_alphabet=("X", "Y"))
            keys, reps, sunk_of, _, _ = _exhaustive_graph(tree, gold, strategy, bounds)
            assert len(set(keys)) == len(keys) == len(reps) == len(sunk_of)
            for key, c, sunk in zip(keys, reps, sunk_of):
                rem, want_sunk = _missing_and_sunk(c, gold)
                assert _class_key(c, rem) == key
                assert sunk == want_sunk


def _built_successors(c, rem, alphabet):
    """(move, class key, weight) per legal move of c, with the successor
    built and keyed from scratch."""
    for t in legal_transitions(c, alphabet):
        c2 = _construct(c, t)
        rem2 = dict(rem)
        w = 0
        if t.kind == "reduce":
            made = c2.built[-1]
            if made in rem2:
                rem2[made] -= 1
                rem2 = {k: v for k, v in rem2.items() if v}
            else:
                w = 1
        yield t, _class_key(c2, rem2), w


def _seeded_walks(trees=40, seeds=3, steps=40):
    """(strategy, gold, alphabet, config) over seeded random walks with a
    distractor label, so that junk is built and the missing multiset
    shrinks along the way."""
    alphabet = ("D", "X", "Y", "Z")
    for strategy in (TOP_DOWN, IN_ORDER):
        for s in range(trees):
            tree = random_tree(1 + s % 6, ["X", "Y", "Z"], s)
            gold = GoldReference.from_tree(tree, strategy)
            for seed in range(seeds):
                for c in walk_configs(tree, strategy, alphabet, seed, steps):
                    yield strategy, gold, alphabet, c


def test_every_edge_leads_to_the_class_of_the_built_successor():
    """Moves into a known class build no configuration, so a wrongly
    derived key would silently merge two classes.  Per census
    representative and legal move, the edge must reach the class of the
    successor built and keyed from scratch, with the search's weight; per
    walk configuration, brute_force_loss's input, the shared rule must
    give that key and weight."""
    alphabet = ("X", "Y")
    bounds = SearchBounds(label_alphabet=alphabet)
    sample = [t for n in (1, 2) for t in enumerate_trees(n, list(alphabet))]
    sample += list(enumerate_trees(3, list(alphabet)))[::27]
    edges = 0
    for strategy in (TOP_DOWN, IN_ORDER):
        for tree in sample:
            gold = GoldReference.from_tree(tree, strategy)
            keys, reps, _, back, term = _exhaustive_graph(tree, gold, strategy, bounds)
            ids = {k: a for a, k in enumerate(keys)}
            out = [Counter() for _ in keys]
            for b, preds in enumerate(back):
                for a, w in preds:
                    out[a][b, w] += 1
            for a, c in enumerate(reps):
                rem, _ = _missing_and_sunk(c, gold)
                want = Counter(
                    (ids[k2], w) for _, k2, w in _built_successors(c, rem, alphabet)
                )
                assert out[a] == want, fingerprint(c)
                edges += sum(want.values())
            assert sorted(a for a, _ in term) == [
                a for a, c in enumerate(reps) if is_terminal(c)
            ]
    assert edges > 150_000
    walk_edges = junk_built = shrunk = 0
    for strategy, gold, alphabet, c in _seeded_walks():
        rem, sunk = _missing_and_sunk(c, gold)
        junk_built += sunk > 0
        shrunk += rem != gold.count
        key = _class_key(c, rem)
        rule = _Successors(strategy, key[4])
        for t, k2, w in _built_successors(c, rem, alphabet):
            assert rule.move(key, c, t) == (k2, w), (fingerprint(c), t)
            walk_edges += 1
    assert walk_edges > 5_000 and junk_built > 500 and shrunk > 200


def test_future_bound_ignores_the_junk_label_collapse():
    """A junk open's label is None in the class key; no missing span has
    that label, so the bound must equal the bound on the same key with
    every open's own label."""
    collapsed = 0
    for strategy, gold, _, c in _seeded_walks():
        rem, _ = _missing_and_sunk(c, gold)
        key = _class_key(c, rem)
        raw = tuple(
            ("o", e.label, e.index) if it[0] == "o" else it
            for e, it in zip(c.stack, key[0])
        )
        collapsed += raw != key[0]
        assert _future_bound(key, strategy) == _future_bound(
            (raw,) + key[1:], strategy
        ), fingerprint(c)
    assert collapsed > 500


def test_future_bound_is_admissible_on_the_census():
    """The best-first search prunes by _future_bound, so it must never
    exceed a class's brute future: on every class of the census over at
    most two tokens and of every 27th three-token tree, for both
    strategies."""
    alphabet = ("X", "Y")
    bounds = SearchBounds(label_alphabet=alphabet)
    sample = [t for n in (1, 2) for t in enumerate_trees(n, list(alphabet))]
    sample += list(enumerate_trees(3, list(alphabet)))[::27]
    checked = positive = 0
    for strategy in (TOP_DOWN, IN_ORDER):
        for tree in sample:
            gold = GoldReference.from_tree(tree, strategy)
            keys, _, _, back, term = _exhaustive_graph(tree, gold, strategy, bounds)
            for key, fut in zip(keys, _batch_future(back, term)):
                bound = _future_bound(key, strategy)
                assert bound <= fut, (strategy, serialize(tree), key, bound, fut)
                checked += 1
                positive += bound > 0
    assert checked > 130_000 and positive > 100_000, (checked, positive)


def test_graph_futures_match_the_best_first_search():
    """The bucket-queue shortest paths and brute_force_loss are the two
    brute-force answers; they must agree on every class, with no call to
    the formula."""
    alphabet = ("X", "Y")
    bounds = SearchBounds(label_alphabet=alphabet)
    checked = 0
    for strategy in (TOP_DOWN, IN_ORDER):
        for tree in [t for n in (1, 2) for t in enumerate_trees(n, list(alphabet))]:
            gold = GoldReference.from_tree(tree, strategy)
            _, reps, sunk_of, back, term = _exhaustive_graph(tree, gold, strategy, bounds)
            future = _batch_future(back, term)
            for c, sunk, fut in zip(reps, sunk_of, future):
                assert sunk + fut == brute_force_loss(c, gold, bounds)
                checked += 1
    assert checked > 10_000


def test_batch_future_is_a_shortest_path_over_0_1_weights():
    # 0 <-1- 1 <-0- 2 (terminal, 3 missed); 0 <-1- 3 (terminal, 0 missed);
    # 4 reaches nothing
    back = [[], [(0, 1)], [(1, 0)], [(0, 1)], []]
    assert _batch_future(back, [(2, 3), (3, 0)]) == [1, 3, 3, 0, None]
    assert _batch_future(back, [(2, 0)]) == [1, 0, 0, None, None]
    assert _batch_future([[]], []) == [None]


@pytest.mark.parametrize("enabled", [True, False])
def test_exhaustive_sweep_restores_the_collector_state(monkeypatch, enabled):
    corpus = list(enumerate_trees(2, ["X"]))
    bounds = SearchBounds(max_tokens=2, label_alphabet=("X", "Y"))
    seen = []

    def failing_legal_transitions(config, alphabet):
        seen.append(gc.isenabled())
        raise RuntimeError("legality failed")

    was_enabled = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        assert sweep(corpus, IN_ORDER, bounds, walk_policy="exhaustive").passed
        assert gc.isenabled() is enabled
        monkeypatch.setattr(verify_mod, "legal_transitions", failing_legal_transitions)
        with pytest.raises(RuntimeError, match="legality failed"):
            sweep(corpus, IN_ORDER, bounds, walk_policy="exhaustive")
        assert gc.isenabled() is enabled
        assert seen == [False]  # paused while the graph was built
    finally:
        (gc.enable if was_enabled else gc.disable)()


def test_sweep_gold_prefix_policy(example_tree):
    report = sweep([example_tree], TOP_DOWN, walk_policy="gold-prefix")
    assert report.passed
    assert report.configs_checked == 17  # initial config plus 16 steps


def test_sweep_exhaustive_policy_small():
    corpus = list(enumerate_trees(2, ["X"]))
    for strategy in (TOP_DOWN, IN_ORDER):
        report = sweep(
            corpus,
            strategy,
            SearchBounds(max_tokens=2, label_alphabet=("X", "Y")),
            walk_policy="exhaustive",
        )
        assert report.passed
        assert report.configs_checked > len(corpus)
        assert report.classes == report.configs_checked
        assert report.edges >= report.classes - len(corpus)
        assert report.graph_s > 0 and report.formula_s > 0


def test_sweep_passes_with_a_gold_label_spelled_like_a_wildcard():
    """"*" is a label that reads back; a collapsed junk open must not be
    taken for an open that can still build a gold "*" span."""
    bounds = SearchBounds(label_alphabet=("*", "X", "Y"))
    for strategy in (TOP_DOWN, IN_ORDER):
        small = [t for n in (1, 2) for t in enumerate_trees(n, ["*", "X"])]
        report = sweep(small, strategy, bounds, walk_policy="exhaustive")
        assert report.passed, report.summary()
        walked = list(enumerate_trees(3, ["*", "X"]))[::5]
        report = sweep(walked, strategy, bounds, seed=1, walks=3)
        assert report.passed, report.summary()


@pytest.mark.parametrize("strategy", [TOP_DOWN, IN_ORDER])
def test_sweep_names_the_first_class_with_no_terminal(monkeypatch, strategy):
    """A class the backward search never reached is a dead state: the
    exhaustive policy raises and names the first such class."""
    tree = parse_bracketed("(X (Y w0 w1) w2)")
    bounds = SearchBounds(label_alphabet=("D", "X", "Y"))
    gold = GoldReference.from_tree(tree, strategy)
    reps = _exhaustive_graph(tree, gold, strategy, bounds)[1]
    dead = (len(reps) // 2, len(reps) - 1)
    real = verify_mod._batch_future

    def with_dead_classes(back, terminal_pen):
        future = real(back, terminal_pen)
        for k in dead:
            future[k] = None
        return future

    monkeypatch.setattr(verify_mod, "_batch_future", with_dead_classes)
    with pytest.raises(RuntimeError, match="the legality guards are suspect") as err:
        sweep([tree], strategy, bounds, walk_policy="exhaustive")
    assert str(fingerprint(reps[dead[0]])) in str(err.value)
    assert str(fingerprint(reps[dead[1]])) not in str(err.value)


def test_sweep_random_walks_are_deterministic():
    corpus = [random_tree(1 + s % 3, ["X", "Y"], s) for s in range(4)]
    a = sweep(corpus, IN_ORDER, seed=11, walks=2)
    b = sweep(corpus, IN_ORDER, seed=11, walks=2)
    assert a.passed and b.passed
    assert a.configs_checked == b.configs_checked


def _walk_digest(configs):
    h = hashlib.sha256()
    for c in configs:
        h.update(repr((fingerprint(c), c.built, c.history)).encode())
    return len(configs), h.hexdigest()[:16]


# (configurations, digest) of each family of walks below.  A walk that
# changes checks other configurations than before, so a change here is
# a decision to state, never a pin to refresh in passing.
WALK_PINS = {
    ("random-walk", TOP_DOWN): (12264, "d57f5b531ab9c233"),
    ("random-walk", IN_ORDER): (17130, "f45d80e476b3010f"),
    ("gold-prefix", TOP_DOWN): (1709, "2c3b79463b1acf82"),
    ("gold-prefix", IN_ORDER): (1905, "5bdbb1d185e36001"),
    "walk_configs": (4481, "eacad6de2dc90884"),
}


def test_walks_visit_the_pinned_configurations(monkeypatch):
    """The configurations of sweep's walk policies on criterion 1's trees
    (the gold prefixes only of those derivable under cap 3) and of
    conftest.walk_configs over fixed seeds, in order.  sweep's loss batch
    is replaced by a recorder that returns no totals, so nothing is
    searched."""
    seen = []
    monkeypatch.setattr(verify_mod, "losses", lambda configs, gold: seen.extend(configs) or [])
    trees = [random_tree(1 + s % 6, ["X", "Y", "Z"], s) for s in range(200)]
    derivable = []
    for t in trees:
        try:
            derivable.append(check_derivable(t, cap=3))
        except TreeError:
            pass
    bounds = SearchBounds(label_alphabet=("D", "X", "Y", "Z"))
    got = {}
    for policy, corpus in (("random-walk", trees), ("gold-prefix", derivable)):
        for strategy in (TOP_DOWN, IN_ORDER):
            seen.clear()
            report = sweep(corpus, strategy, bounds, walk_policy=policy, seed=7, walks=5)
            assert report.configs_checked == len(seen)
            got[policy, strategy] = _walk_digest(seen)
    walked = []
    for s in range(300):
        t = random_tree(1 + s % 6, ["X", "Y"], s)
        walked += walk_configs(t, (TOP_DOWN, IN_ORDER)[s % 2], ("D", "X", "Y"), s, steps=40)
    got["walk_configs"] = _walk_digest(walked)
    assert got == WALK_PINS


def test_sweep_rejects_unknown_policy(example_tree):
    with pytest.raises(ValueError, match="unknown policy"):
        sweep([example_tree], TOP_DOWN, walk_policy="dfs")


def test_report_summary_formats():
    r = ConformanceReport(configs_checked=5)
    assert r.passed
    assert r.summary().startswith("PASS: 5 configurations checked")
    assert len(r.summary().splitlines()) == 1
    r = ConformanceReport(
        configs_checked=5, classes=5, edges=7, graph_s=0.5, formula_s=0.25
    )
    first, second = r.summary().splitlines()
    assert first.startswith("PASS: 5 configurations checked")
    assert second == (
        "  state graph: 5 classes, 7 edges, graph 0.50s, formula 0.25s"
    )
    r.mismatches.append(("state", 1, 2))
    assert not r.passed
    assert "FAIL" in r.summary()
    assert "mismatch: formula=1 brute=2" in r.summary()
