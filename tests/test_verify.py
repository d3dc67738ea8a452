import heapq
import random
from collections import Counter

import pytest

from oracle_lab.oracle import GoldReference, loss
from oracle_lab.transitions import (
    IN_ORDER,
    TOP_DOWN,
    apply,
    fingerprint,
    initial_config,
    is_terminal,
    legal_transitions,
    parse_transition,
)
from oracle_lab.trees import enumerate_trees, gold_sequence, parse_bracketed, random_tree
from oracle_lab.verify import (
    ConformanceReport,
    SearchBounds,
    _class_key,
    _exhaustive_graph,
    brute_force_loss,
    default_alphabet,
    sweep,
)
import oracle_lab.verify as verify_mod


def replay(tree, strategy, names):
    c = initial_config(tree.tokens, strategy)
    for name in names.split():
        c = apply(c, parse_transition(name))
    return c


def plain_min_loss(config, gold, bounds, alphabet):
    """Reference search with none of the production shortcuts: states keyed
    by raw fingerprint plus the missing-gold multiset, plain uniform-cost
    order, no lower bound, no label quotient."""
    rem0 = Counter(gold.count)
    sunk0 = 0
    for c in config.built:
        if rem0[c.key] > 0:
            rem0[c.key] -= 1
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


def _walk_configs(tree, strategy, alphabet, seed, steps):
    rng = random.Random(seed)
    c = initial_config(tree.tokens, strategy, max_consecutive_nt=3)
    out = [c]
    for _ in range(steps):
        if is_terminal(c):
            break
        moves = legal_transitions(c, alphabet)
        kinds = sorted({m.kind for m in moves})
        pick = rng.choice(kinds)
        c = apply(c, rng.choice([m for m in moves if m.kind == pick]))
        out.append(c)
    return out


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


def test_brute_force_rejects_oversized_sentences():
    t = random_tree(5, ["X"], 0)
    gold = GoldReference.from_tree(t, TOP_DOWN)
    c = initial_config(t.tokens, TOP_DOWN)
    with pytest.raises(ValueError, match="max_tokens"):
        brute_force_loss(c, gold, SearchBounds(max_tokens=4))


def test_brute_force_pop_budget(monkeypatch):
    monkeypatch.setattr(verify_mod, "_POP_LIMIT", 2)
    t = random_tree(4, ["X", "Y"], 1)
    gold = GoldReference.from_tree(t, TOP_DOWN)
    c = initial_config(t.tokens, TOP_DOWN)
    with pytest.raises(RuntimeError, match="state budget exhausted"):
        brute_force_loss(c, gold, SearchBounds(label_alphabet=("X", "Y")))


def test_check_config_on_a_gold_prefix(example_tree):
    gold = GoldReference.from_tree(example_tree, TOP_DOWN)
    c = replay(example_tree, TOP_DOWN, "NT_S NT_NP SH SH RE")
    assert loss(c, gold).total == brute_force_loss(c, gold, SearchBounds())


def test_brute_force_agrees_with_plain_reference_search():
    checked = 0
    for strategy in (TOP_DOWN, IN_ORDER):
        for tree in enumerate_trees(2, ["X", "Y"]):
            gold = GoldReference.from_tree(tree, strategy)
            alphabet = ("X", "Y")
            bounds = SearchBounds(label_alphabet=alphabet)
            for seed in range(3):
                for c in _walk_configs(tree, strategy, alphabet, seed, steps=10):
                    got = brute_force_loss(c, gold, bounds)
                    want = plain_min_loss(c, gold, bounds, alphabet)
                    assert got == want, fingerprint(c)
                    checked += 1
        tree = random_tree(3, ["X", "Y"], 7)
        gold = GoldReference.from_tree(tree, strategy)
        bounds = SearchBounds(label_alphabet=("X", "Y"))
        for seed in range(4):
            for c in _walk_configs(tree, strategy, ("X", "Y"), seed, steps=14):
                assert brute_force_loss(c, gold, bounds) == plain_min_loss(
                    c, gold, bounds, ("X", "Y")
                )
                checked += 1
    assert checked > 200


def test_incremental_class_keys_match_recomputation():
    for strategy in (TOP_DOWN, IN_ORDER):
        for tree in list(enumerate_trees(2, ["X", "Y"]))[:9]:
            gold = GoldReference.from_tree(tree, strategy)
            bounds = SearchBounds(label_alphabet=("X", "Y"))
            reps, sunk_of, _, _ = _exhaustive_graph(
                tree, gold, strategy, bounds, ("X", "Y")
            )
            for key, c in reps.items():
                rem = Counter(gold.count)
                sunk = 0
                for x in c.built:
                    if rem[x.key] > 0:
                        rem[x.key] -= 1
                    else:
                        sunk += 1
                assert _class_key(c, dict(+rem)) == key
                assert sunk_of[key] == sunk


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


def test_sweep_random_walks_are_deterministic():
    corpus = [random_tree(1 + s % 3, ["X", "Y"], s) for s in range(4)]
    a = sweep(corpus, IN_ORDER, seed=11, walks=2)
    b = sweep(corpus, IN_ORDER, seed=11, walks=2)
    assert a.passed and b.passed
    assert a.configs_checked == b.configs_checked


def test_sweep_rejects_unknown_policy(example_tree):
    with pytest.raises(ValueError, match="unknown policy"):
        sweep([example_tree], TOP_DOWN, walk_policy="dfs")


def test_report_summary_formats():
    r = ConformanceReport(configs_checked=5)
    assert r.passed
    assert r.summary().startswith("PASS: 5 configurations checked")
    r.mismatches.append(("state", 1, 2))
    assert not r.passed
    assert "FAIL" in r.summary()
    assert "mismatch: formula=1 brute=2" in r.summary()
