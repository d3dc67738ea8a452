"""Constituent trees: bracketed I/O, gold constituents, gold derivations,
and tree generators for testing.
"""

from __future__ import annotations

import io
import random
import re
from collections import Counter
from dataclasses import dataclass
from itertools import combinations, product
from typing import NamedTuple

from .transitions import (
    DEFAULT_NT_CAP,
    FINISH,
    IN_ORDER,
    REDUCE,
    SHIFT,
    TOP_DOWN,
    Constituent,
    _new,
    nt,
)


class TreeError(ValueError):
    pass


class Leaf(NamedTuple):
    """A word of the tree.  Tree nodes are named tuples, as stack items
    are: a node equals and hashes as its fields' tuple, and the node
    builders (parse_bracketed, forest_from_built) make them with
    tuple.__new__.  A Leaf never equals an Internal, as pos is never a
    tuple."""

    word: str
    pos: str | None = None  # folded preterminal label, if the input had one


class Internal(NamedTuple):
    """A labelled node over its children, a nonempty tuple of Leaf and
    Internal nodes; a named tuple, as Leaf is."""

    label: str
    children: tuple


@dataclass(frozen=True)
class ConstituentTree:
    tokens: tuple
    root: object  # Leaf | Internal

    @classmethod
    def from_root(cls, root):
        return cls(tuple(n.word for n, _ in _events(root) if type(n) is Leaf), root)

    @property
    def n(self):
        return len(self.tokens)


_LEAVE = object()  # on the walk's stack, above the node to leave


def _events(root):
    """Depth-first walk without recursion: yields (node, leaving) pairs.
    A leaf, or any node that is not an Internal, gives one (node, False);
    an Internal gives (node, False) before its children and (node, True)
    after them."""
    todo = [root]
    while todo:
        node = todo.pop()
        if node is _LEAVE:
            yield todo.pop(), True
        else:
            yield node, False
            if type(node) is Internal:
                todo.append(node)
                todo.append(_LEAVE)
                todo.extend(node.children[::-1])


def _rebuild(root, leaf, internal):
    """Bottom-up copy of a tree: leaf(old leaf) and internal(old node, new
    children) make the new nodes."""
    made = [[]]
    for node, leaving in _events(root):
        if type(node) is not Internal:
            made[-1].append(leaf(node))
        elif not leaving:
            made.append([])
        else:
            children = tuple(made.pop())
            made[-1].append(internal(node, children))
    return made[0][0]


_TOKEN_RE = re.compile(r"[()]|[^\s()]+")
_LABEL_RE = re.compile(r"[^\s()]+")  # what reads back as one label


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

    def fail(msg, at):
        raise TreeError(f"{msg} at offset {at}")

    if not toks:
        raise TreeError("empty input")
    tok, at = toks[0]
    if tok != "(":
        fail(f"expected '(' but found {tok!r}", at)
    words = []
    unary_words = True  # every word so far is the only child of its parent
    frames = []  # open nodes: (label, offset of their '(', children so far)
    pos = 0
    while True:
        tok, at = toks[pos]
        pos += 1
        if tok == "(":
            if pos >= len(toks):
                fail("unclosed parenthesis", at)
            label, lab_at = toks[pos]
            if label in "()":
                fail("empty or missing label", lab_at)
            pos += 1
            frames.append((label, at, []))
        elif tok == ")":
            label, start, children = frames.pop()
            if not children:
                fail(f"node {label!r} has no children", start)
            if len(children) > 1 and any(type(c) is Leaf for c in children):
                unary_words = False
            node = _new(Internal, (label, tuple(children)))
            if not frames:
                break
            frames[-1][2].append(node)
        else:
            words.append(_unescape(tok))
            frames[-1][2].append(_new(Leaf, (words[-1], None)))
        if pos >= len(toks):
            fail("unclosed parenthesis", frames[-1][1])
    if pos != len(toks):
        fail("trailing material after the tree", toks[pos][1])

    if len(words) >= 2 and unary_words:
        node = _rebuild(node, lambda leaf: leaf, _fold_preterminal)
    return ConstituentTree(tuple(words), node)


def _fold_preterminal(node, children):
    if len(node.children) == 1 and type(node.children[0]) is Leaf:
        return Leaf(node.children[0].word, pos=node.label)
    return Internal(node.label, children)


def serialize(tree: ConstituentTree) -> str:
    """Inverse of parse_bracketed.  Leaves with a pos annotation are written
    as (pos word); round-trips for trees produced by parse_bracketed or the
    generators (folding is all-or-nothing, so hand-built trees mixing
    annotated and bare leaves will not survive a round trip)."""
    out = []
    sep = ""
    for node, leaving in _events(tree.root):
        if leaving:
            out.append(")")
        elif type(node) is Leaf:
            w = _escape(node.word)
            out.append(f"{sep}({node.pos} {w})" if node.pos is not None else sep + w)
        else:
            out.append(f"{sep}({node.label}")
        sep = " "
    return "".join(out)


def _spans(tree: ConstituentTree):
    """(Constituent, node) pairs for every internal node, in postorder."""
    lefts = []  # left ends of the entered, not yet left, internal nodes
    k = 0  # words passed so far
    for node, leaving in _events(tree.root):
        if type(node) is Leaf:
            k += 1
        elif not leaving:
            lefts.append(k)
        else:
            yield _new(Constituent, (node.label, lefts.pop(), k)), node


def constituent_set(tree: ConstituentTree):
    """All internal nodes as Constituents, in postorder; a span built
    twice, as in a unary chain, occurs twice."""
    return [c for c, _ in _spans(tree)]


def constituents_with_arity(tree: ConstituentTree):
    """(Constituent, child count) pairs, postorder, for the arity scorer."""
    return [(c, len(node.children)) for c, node in _spans(tree)]


def gold_sequence(tree: ConstituentTree, strategy):
    """The canonical derivation of the tree under the given strategy."""
    in_order = strategy == IN_ORDER
    seq = []
    # in-order: per entered node, its NT until its first child is complete
    waiting = []
    for node, leaving in _events(tree.root):
        if type(node) is Internal and not leaving:
            (waiting if in_order else seq).append(nt(node.label))
            continue
        if leaving and in_order:
            waiting.pop()
        seq.append(REDUCE if leaving else SHIFT)
        if waiting and waiting[-1] is not None:
            seq.append(waiting[-1])
            waiting[-1] = None
    if in_order:
        seq.append(FINISH)
    return seq


def forest_from_built(tokens, built):
    """The top-level nodes of a parse, left to right, rebuilt from its
    tokens and the constituents its reduces built.

    built is replayed in build order; each constituent wraps the run of
    top-level items over its span, so a chain of constituents over one span
    nests in the order it was built.  A terminal configuration gives
    [root]; any other gives one node per completed stack item followed by a
    Leaf per unshifted word.
    """
    items = {k: (k + 1, _new(Leaf, (w, None))) for k, w in enumerate(tokens)}  # l -> (r, node)
    for label, l, r in built:
        children = []
        k = l
        while k < r:
            k, node = items.pop(k)
            children.append(node)
        items[l] = (r, _new(Internal, (label, tuple(children))))
    forest = []
    k = 0
    while k < len(tokens):
        k, node = items[k]
        forest.append(node)
    return forest


def check_derivable(tree: ConstituentTree, cap=DEFAULT_NT_CAP):
    """Reject trees whose top-down gold derivation would exceed the
    consecutive-NT cap.  Top-down opens all gold spans with one left end
    back to back, so its longest NT run is the most spans sharing a left
    end.  An in-order derivation never has two NTs in a row, so the cap
    only binds top-down."""
    run = max(Counter(c.l for c in constituent_set(tree)).values(), default=0)
    if run > cap:
        raise TreeError(
            f"top-down derivation needs {run} consecutive NT transitions,"
            f" over the cap of {cap}"
        )
    return tree


def check_derivable_corpus(trees, strategy, cap=DEFAULT_NT_CAP):
    """check_derivable on every tree of a top-down corpus; the error names
    the first tree that fails by its index.  Only top-down needs it."""
    if strategy == TOP_DOWN:
        for idx, tree in enumerate(trees):
            try:
                check_derivable(tree, cap)
            except TreeError as e:
                raise TreeError(f"tree {idx}: {e}") from None


def _checked_labels(labels) -> list:
    """labels as a list; ValueError if none, if one would not read back,
    or if one repeats."""
    labels = list(labels)
    if not labels:
        raise ValueError("need at least one label")
    for k, lab in enumerate(labels):
        if _LABEL_RE.fullmatch(lab) is None:
            raise ValueError(
                f"bad label {lab!r}: labels must be non-empty, without"
                " whitespace or parentheses"
            )
        if lab in labels[:k]:
            raise ValueError(f"repeated label {lab!r}")
    return labels


def random_tree(n: int, labels, seed: int) -> ConstituentTree:
    """Deterministic random tree over n tokens w0..w{n-1}.

    Single-token spans inside larger trees are always bare leaves so that
    serialization round-trips (a tree whose every word is wrapped is
    indistinguishable from a preterminal layer).  One unary wrap over a
    span of at least 2 may appear per tree.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    labels = _checked_labels(labels)

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


def _rename_leaves(root, mapper):
    return _rebuild(
        root,
        lambda leaf: Leaf(mapper(leaf.word), leaf.pos),
        lambda node, children: Internal(node.label, children),
    )


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
    if count < 0:
        raise ValueError(f"tree count must not be negative, got {count}")
    if min_tokens < 1 or max_tokens < min_tokens:
        raise ValueError("bad token range")
    labels = _checked_labels(labels)
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

    def parts(l, r):
        # the nodes a part over [l, r) can be
        if r - l > 1:
            return nodes(l, r)
        word = Leaf(tokens[l])
        return [word] + [Internal(lab, (word,)) for lab in labels]

    def nodes(l, r):
        # internal nodes spanning [l, r), width >= 2
        for k in range(1, r - l):
            for cuts in combinations(range(l + 1, r), k):
                bounds = (l, *cuts, r)
                spans = zip(bounds, bounds[1:])
                for combo in product(*(parts(a, b) for a, b in spans)):
                    for lab in labels:
                        yield Internal(lab, combo)

    if n == 1:
        for lab in labels:
            yield ConstituentTree(tokens, Internal(lab, (Leaf(tokens[0]),)))
        return
    for root in nodes(0, n):
        yield ConstituentTree(tokens, root)


def open_text(path):
    """A UTF-8 text file's contents as a line-by-line readable stream,
    newlines translated as open() translates them; ValueError names the
    file and the byte offset if its bytes are not UTF-8."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return io.StringIO(data.decode("utf-8"), newline=None)
    except UnicodeDecodeError as e:
        raise ValueError(f"{path}: not UTF-8 text at byte {e.start}") from None


def read_lines(path, parse):
    """parse(line) for each non-blank line of a text file, stripped, in
    order; a TreeError from parse is re-raised naming path:line."""
    out = []
    for lineno, line in enumerate(open_text(path), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            out.append(parse(line))
        except TreeError as e:
            raise TreeError(f"{path}:{lineno}: {e}") from e
    return out


def load_corpus(path):
    return read_lines(path, parse_bracketed)


def save_corpus(trees, path):
    with open(path, "w", encoding="utf-8") as fh:
        for tree in trees:
            fh.write(serialize(tree) + "\n")
