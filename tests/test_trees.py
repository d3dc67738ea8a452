import random
from functools import lru_cache

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import EXAMPLE_TREE, EXAMPLE_IN_ORDER, EXAMPLE_TOP_DOWN, trees
from oracle_lab.transitions import (
    IN_ORDER,
    TOP_DOWN,
    Completed,
    apply,
    initial_config,
    is_terminal,
)
from oracle_lab.trees import (
    ConstituentTree,
    Internal,
    Leaf,
    TreeError,
    check_derivable,
    constituent_set,
    constituents_with_arity,
    enumerate_trees,
    forest_from_built,
    gold_sequence,
    load_corpus,
    parse_bracketed,
    random_tree,
    save_corpus,
    serialize,
    synthetic_corpus,
)


def assert_well_formed(t):
    """The leaf words spell the tokens and no internal node is childless."""
    words, todo = [], [t.root]
    while todo:
        node = todo.pop()
        if isinstance(node, Leaf):
            words.append(node.word)
        else:
            assert isinstance(node, Internal) and node.children, node
            todo.extend(reversed(node.children))
    assert tuple(words) == t.tokens


def test_parse_serialize_round_trip():
    assert serialize(parse_bracketed(EXAMPLE_TREE)) == EXAMPLE_TREE


def test_parse_escaped_parens():
    t = parse_bracketed("(X -LRB- w -RRB-)")
    assert t.tokens == ("(", "w", ")")
    assert serialize(t) == "(X -LRB- w -RRB-)"


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("(X w0", "unclosed parenthesis"),
        ("(X w0) junk", "trailing material"),
        ("", "empty input"),
        ("word", r"expected '\('"),
        ("(X)", "no children"),
        ("((X w0))", "empty or missing label"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(TreeError, match=fragment):
        parse_bracketed(text)


def test_preterminal_layer_folds_away():
    t = parse_bracketed("(S (DT the) (NN dog))")
    assert t.tokens == ("the", "dog")
    leaves = t.root.children
    assert [l.pos for l in leaves] == ["DT", "NN"]
    assert constituent_set(t) == [("S", 0, 2)]
    assert serialize(t) == "(S (DT the) (NN dog))"


def test_partial_wrap_is_a_constituent():
    t = parse_bracketed("(S (DT the) dog)")
    keys = set(constituent_set(t))
    assert keys == {("S", 0, 2), ("DT", 0, 1)}


def test_single_word_tree_does_not_fold():
    t = parse_bracketed("(X w0)")
    assert t.tokens == ("w0",)
    assert constituent_set(t) == [("X", 0, 1)]


def test_example_constituent_set(example_tree):
    got = set(constituent_set(example_tree))
    assert got == {
        ("S", 0, 6),
        ("NP", 0, 2),
        ("VP", 2, 5),
        ("ADVP", 3, 4),
        ("ADJP", 4, 5),
    }


def test_a_unary_chain_gives_its_span_once_per_node():
    t = parse_bracketed("(X (X w0 w1))")
    cs = constituent_set(t)
    assert cs == [("X", 0, 2), ("X", 0, 2)]


def test_arity_annotations(example_tree):
    arity = dict(constituents_with_arity(example_tree))
    assert arity == {
        ("S", 0, 6): 3,
        ("NP", 0, 2): 2,
        ("VP", 2, 5): 3,
        ("ADVP", 3, 4): 1,
        ("ADJP", 4, 5): 1,
    }


def test_gold_sequence_matches_worked_example(example_tree):
    td = [str(t) for t in gold_sequence(example_tree, TOP_DOWN)]
    io = [str(t) for t in gold_sequence(example_tree, IN_ORDER)]
    assert td == EXAMPLE_TOP_DOWN
    assert io == EXAMPLE_IN_ORDER


def _census(n, n_labels):
    # independent count of the enumeration space: any split into 2+ parts,
    # single-token parts bare or wrapped once, no unary chains
    @lru_cache(None)
    def part(w):
        if w == 1:
            return 1 + n_labels
        return node(w)

    @lru_cache(None)
    def node(w):
        total = 0
        for k in range(2, w + 1):
            for combo in _compositions(w, k):
                prod = 1
                for piece in combo:
                    prod *= part(piece)
                total += prod
        return n_labels * total

    if n == 1:
        return n_labels
    return node(n)


def _compositions(w, k):
    if k == 1:
        yield (w,)
        return
    for first in range(1, w - k + 2):
        for rest in _compositions(w - first, k - 1):
            yield (first,) + rest


@pytest.mark.parametrize("n, expected", [(1, 2), (2, 18), (3, 270)])
def test_enumerate_trees_counts(n, expected):
    forest = list(enumerate_trees(n, ["X", "Y"]))
    assert len(forest) == expected == _census(n, 2)
    assert len({serialize(t) for t in forest}) == expected
    for t in forest:
        assert_well_formed(t)


def test_random_tree_is_valid_and_deterministic():
    for seed in range(40):
        n = 1 + seed % 6
        t = random_tree(n, ["X", "Y"], seed)
        assert_well_formed(t)
        check_derivable(t)
        assert t.tokens == tuple(f"w{k}" for k in range(n))
        assert serialize(t) == serialize(random_tree(n, ["X", "Y"], seed))


def test_random_tree_rejects_bad_args():
    with pytest.raises(ValueError):
        random_tree(0, ["X"], 0)
    with pytest.raises(ValueError):
        random_tree(2, [], 0)


def test_synthetic_corpus_words_are_sentence_unique():
    corpus = synthetic_corpus(20, ["X", "Y"], seed=3)
    assert len(corpus) == 20
    seqs = [t.tokens for t in corpus]
    assert len(set(seqs)) == 20
    for i, t in enumerate(corpus):
        assert all(w.startswith(f"s{i}w") for w in t.tokens)
    with pytest.raises(ValueError):
        synthetic_corpus(5, ["X"], seed=0, min_tokens=3, max_tokens=2)


def test_corpus_file_round_trip(tmp_path):
    corpus = synthetic_corpus(10, ["X", "Y", "Z"], seed=5)
    path = tmp_path / "corpus.txt"
    save_corpus(corpus, path)
    back = load_corpus(path)
    assert [serialize(t) for t in back] == [serialize(t) for t in corpus]


def test_load_corpus_reports_file_and_line(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("(X w0)\n(Y w1\n", encoding="utf-8")
    with pytest.raises(TreeError) as err:
        load_corpus(path)
    assert str(err.value).startswith(f"{path}:2:")


def test_load_corpus_names_a_file_that_is_not_utf8(tmp_path):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"(X w0)\n(Y w\xff1)\n")
    with pytest.raises(ValueError) as err:
        load_corpus(path)
    assert str(err.value) == f"{path}: not UTF-8 text at byte 11"


def test_load_corpus_skips_blank_lines_and_reads_any_newline(tmp_path):
    path = tmp_path / "mixed.txt"
    path.write_bytes(b"  (X w0)\r\n\n\t\r(Y w1 w2)\r(Z w3)")
    assert [serialize(t) for t in load_corpus(path)] == ["(X w0)", "(Y w1 w2)", "(Z w3)"]


def test_check_derivable_rejects_deep_chains():
    text = "(A (B (C (D w0 w1))))"
    t = parse_bracketed(text)
    with pytest.raises(
        TreeError,
        match="top-down derivation needs 4 consecutive NT transitions,"
        " over the cap of 3",
    ):
        check_derivable(t, cap=3)
    assert check_derivable(t, cap=4) is t


@given(trees())
def test_serialization_round_trips(t):
    back = parse_bracketed(serialize(t))
    assert back.tokens == t.tokens
    assert sorted(constituent_set(back)) == sorted(constituent_set(t))


@given(trees())
def test_gold_sequence_shape(t):
    for strategy in (TOP_DOWN, IN_ORDER):
        seq = gold_sequence(t, strategy)
        kinds = [x.kind for x in seq]
        assert kinds.count("shift") == t.n
        assert kinds.count("nt") == kinds.count("reduce") == len(constituent_set(t))
        assert kinds.count("finish") == (1 if strategy == IN_ORDER else 0)


def test_from_root_collects_tokens(example_tree):
    rebuilt = ConstituentTree.from_root(example_tree.root)
    assert rebuilt.tokens == example_tree.tokens


def _wrap_in_chains(node, rng):
    # puts 0-2 unary wraps over each internal node: same-span chains
    if isinstance(node, Leaf):
        return node
    node = Internal(node.label, tuple(_wrap_in_chains(c, rng) for c in node.children))
    for _ in range(rng.choice((0, 0, 1, 2))):
        node = Internal(rng.choice("XY"), (node,))
    return node


def _chained_trees():
    out = [
        parse_bracketed(text)
        for text in (
            "(X w0)",
            "(X (Y w0))",
            "(X (X (X w0)))",
            "(X (X (Y w0 w1)))",
            "(S (A (A w0 w1)) (B (C (D w2))) w3)",
        )
    ]
    rng = random.Random("chains")
    for seed in range(80):
        base = random_tree(rng.randint(1, 5), ["X", "Y"], seed)
        tree = ConstituentTree(base.tokens, _wrap_in_chains(base.root, rng))
        try:
            out.append(check_derivable(tree))
        except TreeError:
            pass
    return out


def _span_symbols(forest):
    k = 0
    for node in forest:
        width = len(ConstituentTree.from_root(node).tokens)
        yield (node.label if isinstance(node, Internal) else node.word, k, k + width)
        k += width


def test_forest_from_built_follows_the_stack_and_ends_at_the_tree():
    chains = 0
    for tree in _chained_trees():
        keys = constituent_set(tree)
        chains += any(a[1:] == b[1:] for a, b in zip(keys, keys[1:]))
        for strategy in (TOP_DOWN, IN_ORDER):
            c = initial_config(tree.tokens, strategy)
            for t in [None] + gold_sequence(tree, strategy):
                if t is not None:
                    c = apply(c, t)
                forest = forest_from_built(c.tokens, c.built)
                done = [e for e in c.stack if isinstance(e, Completed)]
                assert list(_span_symbols(forest[: len(done)])) == [
                    (e.symbol, e.l, e.r) for e in done
                ]
                assert forest[len(done) :] == [Leaf(w) for w in c.tokens[c.i :]]
            assert is_terminal(c)
            assert forest == [tree.root]
    assert chains > 20
