"""Constituent trees: bracketed I/O, gold constituents, gold derivations,
and tree generators for testing.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass

from .transitions import (
    DEFAULT_NT_CAP,
    FINISH,
    IN_ORDER,
    REDUCE,
    SHIFT,
    TOP_DOWN,
    Constituent,
    nt,
)


class TreeError(ValueError):
    pass


@dataclass(frozen=True)
class Leaf:
    word: str
    pos: str | None = None  # folded preterminal label, if the input had one


@dataclass(frozen=True)
class Internal:
    label: str
    children: tuple  # of Leaf | Internal, nonempty


@dataclass(frozen=True)
class ConstituentTree:
    tokens: tuple
    root: object  # Leaf | Internal

    @classmethod
    def from_root(cls, root):
        words = []
        _collect_words(root, words)
        return cls(tuple(words), root)

    @property
    def n(self):
        return len(self.tokens)


def _collect_words(node, out):
    if isinstance(node, Leaf):
        out.append(node.word)
    else:
        for c in node.children:
            _collect_words(c, out)


def validate_tree(tree: ConstituentTree):
    """Raise TreeError if the leaves do not spell the token sequence or some
    internal node is childless."""
    words = []

    def walk(node):
        if isinstance(node, Leaf):
            words.append(node.word)
            return
        if not isinstance(node, Internal):
            raise TreeError(f"bad node type {type(node).__name__}")
        if not node.children:
            raise TreeError(f"internal node {node.label!r} has no children")
        for c in node.children:
            walk(c)

    walk(tree.root)
    if tuple(words) != tuple(tree.tokens):
        raise TreeError("leaf words do not match the token sequence")
    return tree


_TOKEN_RE = re.compile(r"[()]|[^\s()]+")


def _unescape(word):
    return word.replace("-LRB-", "(").replace("-RRB-", ")")


def _escape(word):
    return word.replace("(", "-LRB-").replace(")", "-RRB-")


def parse_bracketed(text: str) -> ConstituentTree:
    """Read one bracketed tree.

    A preterminal layer (every word the only child of its parent, sentence
    length at least 2) is folded away: the wrapper label becomes the leaf's
    pos annotation and produces no constituent.  Trees that wrap only some
    words keep those wrappers as ordinary single-token constituents.
    """
    toks = [(m.group(), m.start()) for m in _TOKEN_RE.finditer(text)]
    pos = 0

    def fail(msg, at):
        raise TreeError(f"{msg} at offset {at}")

    def parse_node():
        nonlocal pos
        tok, at = toks[pos]
        if tok != "(":
            fail(f"expected '(' but found {tok!r}", at)
        pos += 1
        if pos >= len(toks):
            fail("unclosed parenthesis", at)
        label, lab_at = toks[pos]
        if label in "()":
            fail("empty or missing label", lab_at)
        pos += 1
        children = []
        while pos < len(toks):
            tok, tok_at = toks[pos]
            if tok == ")":
                pos += 1
                if not children:
                    fail(f"node {label!r} has no children", at)
                return (label, children)
            if tok == "(":
                children.append(parse_node())
            else:
                children.append(_unescape(tok))
                pos += 1
        fail("unclosed parenthesis", at)

    if not toks:
        raise TreeError("empty input")
    root_raw = parse_node()
    if pos != len(toks):
        fail("trailing material after the tree", toks[pos][1])

    words = []

    def count_words(raw):
        if isinstance(raw, str):
            words.append(raw)
        else:
            for c in raw[1]:
                count_words(c)

    count_words(root_raw)

    def word_parents_unary(raw):
        # true iff every word is the single child of its parent node
        if isinstance(raw, str):
            return True
        label, children = raw
        for c in children:
            if isinstance(c, str) and len(children) != 1:
                return False
            if not isinstance(c, str) and not word_parents_unary(c):
                return False
        return True

    fold = len(words) >= 2 and word_parents_unary(root_raw)

    def build(raw):
        if isinstance(raw, str):
            return Leaf(raw)
        label, children = raw
        if fold and len(children) == 1 and isinstance(children[0], str):
            return Leaf(children[0], pos=label)
        return Internal(label, tuple(build(c) for c in children))

    root = build(root_raw)
    if isinstance(root, Leaf):
        raise TreeError("tree reduced to a bare word")
    return ConstituentTree(tuple(words), root)


def serialize(tree: ConstituentTree) -> str:
    """Inverse of parse_bracketed.  Leaves with a pos annotation are written
    as (pos word); round-trips for trees produced by parse_bracketed or the
    generators (folding is all-or-nothing, so hand-built trees mixing
    annotated and bare leaves will not survive a round trip)."""

    def s(node):
        if isinstance(node, Leaf):
            w = _escape(node.word)
            return f"({node.pos} {w})" if node.pos is not None else w
        inner = " ".join(s(c) for c in node.children)
        return f"({node.label} {inner})"

    return s(tree.root)


def constituent_set(tree: ConstituentTree):
    """All internal nodes as Constituents, in postorder.  Duplicate
    (label, l, r) triples get occ 0, 1, ... from the innermost out."""
    out = []
    counts = {}

    def walk(node, l):
        if isinstance(node, Leaf):
            return l + 1
        r = l
        for c in node.children:
            r = walk(c, r)
        key = (node.label, l, r)
        occ = counts.get(key, 0)
        counts[key] = occ + 1
        out.append(Constituent(node.label, l, r, occ))
        return r

    walk(tree.root, 0)
    return out


def constituents_with_arity(tree: ConstituentTree):
    """(Constituent, child count) pairs, postorder, for the arity scorer."""
    out = []
    counts = {}

    def walk(node, l):
        if isinstance(node, Leaf):
            return l + 1
        r = l
        for c in node.children:
            r = walk(c, r)
        key = (node.label, l, r)
        occ = counts.get(key, 0)
        counts[key] = occ + 1
        out.append((Constituent(node.label, l, r, occ), len(node.children)))
        return r

    walk(tree.root, 0)
    return out


def gold_sequence(tree: ConstituentTree, strategy):
    """The canonical derivation of the tree under the given strategy."""
    seq = []

    def walk(node):
        if isinstance(node, Leaf):
            seq.append(SHIFT)
            return
        if strategy == TOP_DOWN:
            seq.append(nt(node.label))
            for c in node.children:
                walk(c)
        else:
            walk(node.children[0])
            seq.append(nt(node.label))
            for c in node.children[1:]:
                walk(c)
        seq.append(REDUCE)

    walk(tree.root)
    if strategy == IN_ORDER:
        seq.append(FINISH)
    return seq


def max_nt_run(seq):
    best = run = 0
    for t in seq:
        run = run + 1 if t.kind == "nt" else 0
        best = max(best, run)
    return best


def check_derivable(tree: ConstituentTree, cap=DEFAULT_NT_CAP):
    """Reject trees whose gold derivation would exceed the consecutive-NT
    cap under either strategy."""
    for strategy in (TOP_DOWN, IN_ORDER):
        run = max_nt_run(gold_sequence(tree, strategy))
        if run > cap:
            raise TreeError(
                f"tree needs {run} consecutive non-terminal transitions"
                f" ({strategy}), cap is {cap}"
            )
    return tree


def random_tree(n: int, labels, seed: int) -> ConstituentTree:
    """Deterministic random tree over n tokens w0..w{n-1}.

    Single-token spans inside larger trees are always bare leaves so that
    serialization round-trips (a tree whose every word is wrapped is
    indistinguishable from a preterminal layer).  One unary wrap over a
    span of at least 2 may appear per tree.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    labels = list(labels)
    if not labels:
        raise ValueError("need at least one label")

    for attempt in range(20):
        rng = random.Random(f"tree|{n}|{','.join(labels)}|{seed + 1000003 * attempt}")
        tokens = [f"w{k}" for k in range(n)]
        if n == 1:
            root = Internal(rng.choice(labels), (Leaf(tokens[0]),))
            if rng.random() < 0.25:
                root = Internal(rng.choice(labels), (root,))
        else:
            budget = [1]

            def build(l, r):
                if r - l == 1:
                    return Leaf(tokens[l])
                k = rng.randint(2, min(4, r - l))
                cuts = sorted(rng.sample(range(l + 1, r), k - 1))
                bounds = [l] + cuts + [r]
                children = tuple(
                    build(a, b) for a, b in zip(bounds, bounds[1:])
                )
                node = Internal(rng.choice(labels), children)
                if budget[0] and rng.random() < 0.18:
                    budget[0] -= 1
                    node = Internal(rng.choice(labels), (node,))
                return node

            root = build(0, n)
        tree = ConstituentTree(tuple(tokens), root)
        try:
            return check_derivable(tree)
        except TreeError:
            continue
    raise TreeError(f"could not generate a derivable tree for n={n}, seed={seed}")


def _rename_leaves(node, mapper):
    if isinstance(node, Leaf):
        return Leaf(mapper(node.word), node.pos)
    return Internal(node.label, tuple(_rename_leaves(c, mapper) for c in node.children))


def synthetic_corpus(
    count: int,
    labels,
    seed: int,
    min_tokens: int = 1,
    max_tokens: int = 6,
) -> list:
    """count random trees with sentence-unique words (s<i>w<k>), so the
    corpus never assigns two parses to one token sequence and a trained
    parser has an unambiguous target."""
    if min_tokens < 1 or max_tokens < min_tokens:
        raise ValueError("bad token range")
    rng = random.Random(f"corpus|{seed}|{count}")
    out = []
    for i in range(count):
        n = rng.randint(min_tokens, max_tokens)
        t = random_tree(n, labels, seed=rng.randrange(1 << 30))
        root = _rename_leaves(t.root, lambda w, i=i: f"s{i}{w}")
        out.append(ConstituentTree.from_root(root))
    return out


def enumerate_trees(n: int, labels):
    """Every tree over n <= 3 tokens built from the given labels: any split
    into 2+ parts at each level, single-token parts either bare or wrapped
    once.  No unary chains, so the census stays finite and small."""
    labels = list(labels)
    tokens = tuple(f"w{k}" for k in range(n))

    def width1(pos):
        yield Leaf(tokens[pos])
        for lab in labels:
            yield Internal(lab, (Leaf(tokens[pos]),))

    def nodes(l, r):
        # internal nodes spanning [l, r), width >= 2
        width = r - l
        for k in range(2, width + 1):
            for cuts in _choose_cuts(l + 1, r, k - 1):
                bounds = [l] + list(cuts) + [r]
                spans = list(zip(bounds, bounds[1:]))
                for combo in _part_combos(spans, width1, nodes):
                    for lab in labels:
                        yield Internal(lab, combo)

    if n == 1:
        for lab in labels:
            yield ConstituentTree(tokens, Internal(lab, (Leaf(tokens[0]),)))
        return
    for root in nodes(0, n):
        yield ConstituentTree(tokens, root)


def _choose_cuts(lo, hi, k):
    # all strictly increasing k-tuples from range(lo, hi)
    if k == 0:
        yield ()
        return
    for first in range(lo, hi - k + 1):
        for rest in _choose_cuts(first + 1, hi, k - 1):
            yield (first,) + rest


def _part_combos(spans, width1, nodes):
    if not spans:
        yield ()
        return
    (a, b), rest = spans[0], spans[1:]
    parts = width1(a) if b - a == 1 else nodes(a, b)
    for part in parts:
        for tail in _part_combos(rest, width1, nodes):
            yield (part,) + tail


def load_corpus(path):
    trees = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                trees.append(parse_bracketed(line))
            except TreeError as e:
                raise TreeError(f"{path}:{lineno}: {e}") from e
    return trees


def save_corpus(trees, path):
    with open(path, "w", encoding="utf-8") as fh:
        for tree in trees:
            fh.write(serialize(tree) + "\n")
