"""Dynamic oracles: the exact decomposed loss and the set of
loss-preserving transitions.

The loss of a configuration is the minimum Hamming distance, over all
terminal configurations reachable from it, between the built constituent
multiset and the gold one.  It is computed exactly per strategy and
reported as four addends: gold constituents that can no longer be built,
wrong constituents already built, open non-terminals that cannot match any
buildable gold span, and open non-terminals that are individually fine but
stacked in an order that forfeits one gold constituent each.

For in-order each open NT is judged on its own, in closed form.  For
top-down the open NTs interact through the nesting of their target spans,
so the total is the wrong constituents already built plus the cheapest
assignment of the open NTs to gold targets or junk, found by one forward
pass over the stack, bottom to top (`_top_down_analysis`).  Both are exact
under any consecutive-NT cap, whether or not the cap can derive the gold
tree.  This loss is the only model of the future here: legality comes from
`transitions`, and `optimal_transitions` keeps the legal moves that leave
it unchanged.

The gold tree is read through an index that `GoldReference` builds once
per tree (its docstring lists the parts).  A call tallies only the
configuration's built constituents (`_tally`): `taken`, how often each gold
span has been built, and `sunk`, the wrong constituents.  Every built
constituent ends at or before the buffer position i, which fixes what the
tally can change.  Nothing built starts at or right of i, so the spans at
i and the spans the cap leaves unopened right of i are the gold ones.
Every matched span starts left of i, so the spans left of i that are
still missing are the gold count there less the matched ones.  Of the
right ends at or past i that an analysis reads, only those at i itself can
have been built.  So the cost of a call follows the stack and the built
constituents, not the size of the gold tree.

The oracle answers one query per configuration, `_move_losses`: the
configuration's `LossBreakdown` and, for each of the legal moves it is
given, the successor's loss total.  `loss` and `losses` ask it with no
moves; `optimal_transitions` keeps the moves whose total equals the
breakdown's.  A caller that already knows the configuration's total asks
`_move_totals`, the same query without the configuration's own analysis.
A dynamic training pass is such a caller: it carries its path's total,
since each step's successor total is the next configuration's, and asks
for the guess's total first and for every move's only when the guess
loses loss.  The query judges every move without building a successor or
calling `loss` per move (in the spirit of Goldberg & Nivre 2013, who
derive move costs without recomputing the loss).  The built constituents
are tallied once; each move's successor loss is then worked out from the
successor's stack, buffer position and NT run alone, which is all an
analysis reads besides the tally:

- FINISH leaves a finished configuration, whose loss is `sunk` plus the
  gold spans not yet built.
- REDUCE builds the one constituent `transitions._reduce_target` names: it
  adds one to `taken` if that span is missing, else one to `sunk`.  That
  delta is applied for the successor's analysis and undone after.
- SHIFT and NT leave the tally as it is; the strategy's analysis runs on
  the successor's fields.

In-order, the NT totals come from the configuration's own analysis.  The
pushed open's slot is the left end b of the completed item on top, whose
missing spans the own analysis already counts as free through its wrap
term, so the successor's lost spans and every other open's term are the
configuration's.  The pushed open adds one loss, unless its label is that
of the innermost missing span at b (`_innermost_labels`), so every NT
total is the configuration's total plus one, less that.

Every top-down total reads its pass from one memo, a trie that the gold's
`GoldReference` owns (its docstring gives the lifetime rule).  The pass
adds one layer per searched open, bottom to top, and layer k depends only
on the first k searched targets from `_td_targets` (for a fixed gold, and
so a fixed n) and on the buffer position i.  A target entry is the open's
label and left index with its ends and their multiplicities, so a reduce
that builds a span a lower open could still end on changes that open's
entry, and its layer is computed anew.  A layer reads i only through
whether the open sits at i (`left`, `credit`), whether its first target
end is i (the at-i arrivals) and whether an input state's bound is past i,
and a state's bound is n or a target end of an open below.  So an open
left of i whose targets all end past i, with no open below it keyed by i,
gives the same layer at every such i: its trie node hangs from its parent
under its entry alone, and SHIFT successors, whose opens move further left
of the new i, reuse it.  The first other open, one that sits at i or has a
target end at i, opens its parent's sub-trie at i, and it and every open
above it are keyed by entry within that sub-trie, as they read i itself.
The close reads the last layer, the gold spans at i and the NT headroom
max(0, cap - nt_run), so it sits in the sub-trie at i under the headroom.
The census checks hundreds of thousands of classes per tree with at most a
few hundred trie nodes, and a REDUCE or NT successor shares every layer of
the configuration's own pass below the first open whose entry differs.
The opens below an NT's pushed one search from E = i + 1, as the SHIFT
successor's do, so their targets are found once for every label.  The
entries themselves are interned: a top-down gold keeps each suffix of each
open's targets as one tuple, built when first read, so neither the
pre-pass nor a trie key builds one per call.  The matched spans, the gold
counts at i and past it and the forced junk are added per configuration.

So the configurations of one `losses` call share layers, and so do a
configuration and the successors `_move_losses` judges.  Every call on
one gold reads and extends the same trie: the steps of a path (a
dynamic training pass, `model._train_sentence`, or `oracle-trace`) share
layers from step to step, so a deep stack adds one layer per SHIFT or NT
rather than one per open, and `optimal_transitions` after `loss` on one
configuration computes none of that configuration's layers again.  One
rule bounds the memory by one gold, never the corpus: when a gold makes
a trie, the gold that made the one before drops it (`GoldReference`).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from itertools import accumulate
from typing import NamedTuple
from weakref import ref

from .transitions import (
    IN_ORDER,
    TOP_DOWN,
    Completed,
    Configuration,
    OpenNT,
    _new,
    _reduce_target,
    apply,  # noqa: F401 -- a module attribute the benchmark's tracer wraps
    is_terminal,
    legal_transitions,
)
from .trees import constituent_set

_UNSEEN = float("inf")  # a running minimum before its first arrival
_last_gold = None  # a weak reference to the gold that made the last trie


class GoldReference:
    """The gold constituent multiset of one tree under one strategy, and
    the index the loss analyses read it through.

    `count` is the multiset, keyed (label, l, r), and `labels` its labels.
    The index is built from it once, here, and holds only gold facts.
    Each strategy keeps only what its analysis reads:

    - `targets[(label, l)]` (top-down): the target entry (label, l, rs[k:],
      ms[k:]) of each suffix k of the distinct right ends rs of the gold
      spans with that label and left end, ascending, and their
      multiplicities ms.  Entry 0 is built here and each other entry when
      first read, so every analysis reads one interned tuple per suffix;
    - `ends[(label, l)]` (in-order): (rs, ms) as above;
    - `spans_at[l]` (in-order): (right end, label, count) for each gold
      span at left end l, ascending;
    - `right_ends[l]`: the right ends of the gold spans at left end l,
      ascending, one per occurrence;
    - `left[i]`: how many gold spans start left of i, for 0 <= i <= n;
    - `capped(i, cap)`: how many gold spans right of i the consecutive-NT
      cap can never open, memoised per cap.

    A loss call subtracts only the configuration's built constituents from
    this; the module docstring says why that is all it needs.

    It also owns the top-down memo: one trie of pass layers, which
    `_top_down_analysis` reads and extends.  Its nodes are keyed by each
    open's target entry and its relation to the buffer position, and the
    parts that read the position itself sit in sub-tries per position.
    The trie is exact for this gold whoever reads it, so its lifetime is
    a matter of memory alone, and one rule sets it: a gold keeps its trie
    until another gold makes one, whichever oracle call makes it.  So at
    most one gold holds a trie at a time, and in-order golds, which make
    none, never take its place.  The module holds the gold by a weak
    reference, so its trie dies with it.  This is not thread-safe, and
    gold tries never were.
    """

    def __init__(self, strategy, constituents):
        self.strategy = strategy
        self.count = count = Counter(map(tuple, constituents))
        self.labels = tuple(sorted({k[0] for k in count}))
        self.size = len(constituents)
        ends = {}
        spans_at = {}
        self.right_ends = right_ends = {}
        # one pass, by right end, so that every list comes out ascending
        rows = sorted([(r, lab, l, cnt) for (lab, l, r), cnt in count.items()])
        for r, lab, l, cnt in rows:
            rs, ms = ends.get((lab, l), ((), ()))
            ends[lab, l] = (rs + (r,), ms + (cnt,))
            if l in spans_at:
                spans_at[l].append((r, lab, cnt))
                right_ends[l] += [r] * cnt
            else:
                spans_at[l] = [(r, lab, cnt)]
                right_ends[l] = [r] * cnt
        n = rows[-1][0] if rows else 0  # the last right end
        starts = [0] * (n + 1)  # gold spans per left end
        for l, rs in right_ends.items():
            starts[l] = len(rs)
        self.left = list(accumulate(starts, initial=0))
        self._starts = starts
        self._capped = {}
        # each strategy keeps only what its analysis reads, and sets the
        # same attributes, so that every gold shares one attribute layout
        self.targets = self.ends = self.spans_at = None
        if strategy == TOP_DOWN:
            self.targets = {key: [key + e] + [None] * (len(e[0]) - 1) for key, e in ends.items()}
        else:
            self.ends = ends
            self.spans_at = spans_at
        self._trie = None  # the top-down trie's root, made when first read

    @classmethod
    def from_tree(cls, tree, strategy):
        return cls(strategy, constituent_set(tree))

    def capped(self, i, cap):
        """Gold spans right of i that the cap can never open: top-down opens
        the spans at each left end back to back, so past the first cap of
        them the rest are lost.  Nothing built starts right of i, so the
        gold count is the missing count there."""
        row = self._capped.get(cap)
        if row is None:
            row = self._capped[cap] = [0] * len(self._starts)
            surplus = 0  # of the left ends right of l
            for l in range(len(row) - 1, -1, -1):
                row[l] = surplus
                surplus += max(0, self._starts[l] - cap)
        return row[i]


class OracleViolation(Exception):
    """A loss total that breaks the equation the exact loss satisfies: at
    a configuration with moves, the least successor total is its own
    total, and at a terminal one, the total is the Hamming loss of what
    it built.  It is a defect of the program, not of its input, so it is
    no ValueError."""


class LossBreakdown(NamedTuple):
    """The loss of a configuration and its four addends, read by name.
    `_move_losses` builds one per query with tuple.__new__, as
    `transitions` builds its tuples, which skips the named tuple's own
    Python-level __new__."""

    unreachable: int
    false_constituents: int
    false_open_nts: int
    out_of_order: int
    total: int

    def columns(self):
        return (
            self.unreachable,
            self.false_constituents,
            self.false_open_nts,
            self.out_of_order,
        )


def _tally(config: Configuration, gold: GoldReference):
    """(taken, sunk): how often each gold span (label, l, r) has been built,
    up to its gold count, and how many built constituents are wrong.  Every
    oracle query starts here, so this is where it checks that config and
    gold share a strategy."""
    if config.strategy != gold.strategy:
        raise ValueError(
            f"strategy mismatch: configuration is {config.strategy},"
            f" gold is {gold.strategy}"
        )
    count = gold.count
    taken = {}
    sunk = 0
    for k in config.built:  # a Constituent is its own key (label, l, r)
        v = taken.get(k, 0)
        if v < count.get(k, 0):
            taken[k] = v + 1
        else:
            sunk += 1
    return taken, sunk


def _top_down_analysis(gold, targets, matched, n, cap, i, nt_run):
    """Minimum future loss for top-down, by one forward pass over the open
    NTs from the bottom of the stack to the top.  Returns (unreachable,
    forced junk, out-of-order junk) for a configuration at buffer position
    i with this NT run, over n tokens under the consecutive-NT cap, whose
    built constituents match matched gold spans and whose open NTs have
    these targets (the pre-pass, `_td_targets`).

    Each open NT closes either on a gold target span with its label and left
    index, or as junk (one loss) on a span that never crosses a kept gold
    span.  The bottom NT's target must cover the whole sentence; any other
    target must end inside [E, n], where E is the earliest point a reduce
    can still produce, and target ends never increase going up the stack.
    Gold spans left of i survive only as such targets.  Spans starting
    exactly at i can still be opened fresh, limited by the consecutive-NT
    headroom, but only those ending at or before rho, the innermost target
    end past i; the rest are lost.  Spans starting at some l right of i
    are all opened back to back at l, after the shift that reaches it and
    any reduces, so at most max_consecutive_nt of them can be built; the
    surplus is lost.

    Pre-pass: an open NT with no target span at all is junk whatever the
    others do.  It is counted up front, as a false open, and left out of
    the search.  The search gives each remaining open, bottom to top,
    either junk (one loss, counted as out of order) or a target end.  Its
    state after an open is (nesting bound, rho, plateau): the bound is the
    last target end, and the plateau is the labels matched at the bound
    with that open's left index, so a gold span occurring several times is
    never matched more often than it remains; an open with another left
    index starts from an empty plateau.  A match left of i saves that
    span's loss.  A match at i undercut by a later smaller end saves the
    loss of a span past rho, credited at that moment; the matches at i at
    the final rho are taken off the fresh pushes instead.

    The pass keeps, per state, the cost and junk count of the cheapest
    assignment of the opens so far.  Each state, in the dict's order, tries
    junk first, then target ends ascending; an arrival replaces a state's
    entry only if strictly cheaper, and then moves to the dict's end.  So
    the dict stays in the order of its assignments, read as sequences of
    those choices, and each entry is the first cheapest way into its state.
    The answer is the first state whose cost plus the terminal term is
    least: the first cheapest assignment in that order.  This fixes the
    split between unreachable spans and out-of-order junk.

    Each layer and close is read from the gold's trie (the module
    docstring says why its key is exact).  The root is made here, when
    the gold has none, and that is the moment the gold that made the
    trie before drops its own: `GoldReference`'s one lifetime rule.  Each
    node is a dict that holds its layer under None.  From the root, an
    open left of i whose targets all end past i, with no open below it
    keyed by i, is the child under its entry alone, and the node holds
    its sub-trie at each position p under p.  The first other open enters
    the sub-trie at i: a node with the same layer, whose children are
    keyed by entry and whose closes by headroom, as all of them read i
    itself.  Only what is missing is computed, by `_td_layer` and
    `_td_close`.
    """
    global _last_gold
    searched, forced_junk = targets
    node = gold._trie
    if node is None:
        last = _last_gold and _last_gold()
        if last is not None:
            last._trie = None
        _last_gold = ref(gold)
        node = gold._trie = {None: {(n, n + 1, ()): (0, 0)}}
    pl = None  # the left index of the open below
    pinned = False  # whether node is keyed by the position i
    for entry in searched:
        # an open left of i with no target end at i reads i only as
        # "left of it", while no open below it is keyed by i
        if not pinned and not entry[1] < i < entry[2][0]:
            node, pinned = _sub_trie(node, i), True
        child = node.get(entry)
        if child is None:
            child = node[entry] = {None: _td_layer(entry, i, node[None], pl)}
        node = child
        pl = entry[1]
    if not pinned:
        node = _sub_trie(node, i)
    avail = max(0, cap - nt_run)
    found = node.get(avail)
    if found is None:  # pl == i: the last searched open sits at i
        found = node[avail] = _td_close(node[None], pl == i, gold.right_ends.get(i, ()), avail)
    cost, junk = found
    lost = gold.left[i] - matched + gold.capped(i, cap)
    return lost + cost - junk, forced_junk, junk


def _td_targets(gold, taken, stack, n, i, E):
    """The pre-pass: (label, left index, target ends ascending, their
    multiplicities) for each open NT with a target, bottom to top, and the
    number without one.  The targets are the missing gold spans with the
    open's label and left index that end at or past E, or at n for the
    bottom open.  Built spans end at or before i, so only an end at i can
    have fewer missing than gold."""
    searched = []
    opens = 0
    targets = gold.targets
    for s in stack:
        if type(s) is not OpenNT:
            continue
        opens += 1
        row = targets.get(s)  # an open is its own key (label, index)
        if row is None:  # forced junk, in one lookup
            continue
        _, _, rs, ms = row[0]
        k = bisect_left(rs, n if opens == 1 else E)  # the bottom NT closes the sentence
        if k == len(rs):
            continue
        if rs[k] == i:
            m = ms[k] - taken.get(s + (i,), 0)
            if m < ms[k]:  # some of the spans at (label, index, i) are built
                if m:
                    searched.append(s + (rs[k:], (m,) + ms[k + 1 :]))
                    continue
                k += 1
                if k == len(rs):
                    continue
        entry = row[k]
        if entry is None:
            entry = row[k] = s + (rs[k:], ms[k:])
        searched.append(entry)
    return searched, opens - len(searched)


def _sub_trie(node, i):
    """node's sub-trie at position i, made on first use: a node with
    node's layer, whose children and closes are keyed by entry and
    headroom alone, as they all read i itself."""
    sub = node.get(i)
    if sub is None:
        sub = node[i] = {None: node[None]}
    return sub


def _td_layer(entry, i, layer, pl):
    """One step of the forward pass: the layer after the open with this
    target entry, from layer, the states after an open with left index pl
    (None before the first).  Each state is (bound, rho, plateau) -> (cost,
    junk), with cost relative to losing every remaining span left of i;
    each dict is in the order of its assignments.

    A state matches the open on an end r below its bound at one cost for
    every such r, and arrives at (r, r, (label,)); the end at i, which only
    an open left of i can have, keeps the state's rho.  An arrival that is
    not the first cheapest into its state changes nothing, so each end r
    past i is sent only by the first state with the least such cost among
    those whose bound is past r.  Those least costs are running minima over
    the sorted ends, taken from the top end down; they grow with r, so the
    ends a state sends are those from some point up to its bound.  The end
    at i keeps a running minimum per rho instead, in the states' order."""
    lab, idx, rs, ms = entry
    single = (lab,)
    left = idx < i  # a match left of i saves that span's loss
    keep = pl == idx  # the plateau carries over from the open below
    credit = keep and idx == i  # a match at i undercut here credits it
    top = len(rs)
    # each state with its bound's index in rs and its match cost; and
    # least[j], the least match cost of the states whose bound is past rs[j]
    least = [_UNSEEN] * top
    states = []
    for key, val in layer.items():
        hi = bisect_left(rs, key[0])  # rs[:hi] end below the bound
        v = val[0] - len(key[2]) if credit else val[0] - left
        if hi and v < least[hi - 1]:
            least[hi - 1] = v
        states.append((key, val, hi, v))
    for j in range(top - 2, -1, -1):
        if least[j + 1] < least[j]:
            least[j] = least[j + 1]
    k = 1 if left and rs[0] == i else 0  # targets end at or past i
    sent = {}  # match cost -> the ends below this index are sent at it
    at_i = {}  # rho -> the running minimum of the match cost at i
    nxt = {}
    get = nxt.get
    for (bound, rho, used), (cost, junk), hi, v in states:
        if not keep:
            used = ()
        # an arrival replaces only a dearer entry, and moves it to the
        # end; junk first, then the ends ascending
        state = (bound, rho, used)
        seen = get(state)
        if seen is None:
            nxt[state] = (cost + 1, junk + 1)
        elif cost + 1 < seen[0]:
            del nxt[state]
            nxt[state] = (cost + 1, junk + 1)
        arrivals = []
        if k and hi and v < at_i.get(rho, _UNSEEN):
            at_i[rho] = v
            arrivals.append(((i, rho, single), (v, junk)))
        s = sent.get(v, k)
        if hi > s:
            sent[v] = hi
            to = (v, junk)
            for r in rs[bisect_left(least, v, s, hi) : hi]:
                arrivals.append(((r, r, single), to))
        if hi < top and rs[hi] == bound and used.count(lab) < ms[hi]:
            plateau = tuple(sorted(used + single))
            arrivals.append(((bound, bound if bound > i else rho, plateau), (cost - left, junk)))
        for state, to in arrivals:
            seen = get(state)
            if seen is None:
                nxt[state] = to
            elif to[0] < seen[0]:
                del nxt[state]
                nxt[state] = to
    return nxt


def _td_close(layer, top_at_i, at, avail):
    """(cost, junk) of the first state in layer whose cost plus the
    terminal term is least.  The terminal term loses the spans at i
    ending past rho and the fresh pushes at i beyond the NT headroom
    avail; at is the right ends of the gold spans at i, ascending, and
    when the last searched open sits at i (top_at_i) its plateau's matches
    are not pushed again."""
    best = None
    for (_, rho, used), (cost, junk) in layer.items():
        kept = bisect_right(at, rho)  # the spans at i ending at or before rho
        pushes = kept - (len(used) if top_at_i else 0)
        cost += len(at) - kept
        if pushes > avail:
            cost += pushes - avail
        if best is None or cost < best[0]:
            best = (cost, junk)
    return best


def _missing_from(gold, taken, b, i):
    """(count, nearest): how many gold spans at left end b that end at or
    past i are missing, and the nearest right end among them, None if
    none.  Built spans end at or before i, so only those ending at i can
    have been built."""
    re = gold.right_ends.get(b, ())
    j = bisect_left(re, i)
    count = len(re) - j
    if count and re[j] == i and taken:
        built = sum(taken.get((lab, b, i), 0) for r, lab, _ in gold.spans_at[b] if r == i)
        count -= built
        if built == bisect_right(re, i, j) - j:  # every span at (b, i) is built
            j += built
    return count, re[j] if count else None


def _in_order_analysis(gold, taken, matched, stack, i):
    """Minimum future loss for in-order, for a configuration with this
    stack and buffer position i, whose built constituents match the gold
    spans counted in taken, matched of them in all.  Returns (unreachable,
    false opens, out-of-order opens).

    Each open NT will reduce into a span starting at the left end of the
    item directly below it; each such slot can host every remaining gold
    span with that left end and a right end not before i (outer ones are
    added by closing the NT and wrapping).  The NT itself costs nothing when
    its label is the innermost gold at its slot, one loss otherwise.  Gold
    spans starting at the top item's left end are free via wraps, spans at
    or right of i are untouched, and everything else is unbuildable.

    The consecutive-NT cap never binds: an NT needs a completed item on
    top and leaves an open one, so two NTs are never consecutive and
    nt_run never exceeds 1.  Items are read by index, as in `_td_targets`:
    an open is (label, index), a completed item (symbol, l, r, is_word).
    """
    lost = gold.left[i] - matched
    nearest = {}  # slot -> the innermost missing end there
    fa = ooo = 0
    for k, e in enumerate(stack):
        if type(e) is not OpenNT:
            continue
        b = stack[k - 1][1]  # the left end of the item directly below
        if b not in nearest:
            count, nearest[b] = _missing_from(gold, taken, b, i)
            lost -= count
        # the innermost missing end with the open's label
        rs, ms = gold.ends.get((e[0], b), ((), ()))
        j = bisect_left(rs, i)
        if j < len(rs) and rs[j] == i and ms[j] == taken.get((e[0], b, i), 0):
            j += 1
        if j == len(rs):
            fa += 1
        elif rs[j] != nearest[b]:
            ooo += 1
    # the spans at the top item's left end, when it is completed, are free
    # via wraps
    if stack and type(stack[-1]) is Completed and stack[-1][1] not in nearest:
        lost -= _missing_from(gold, taken, stack[-1][1], i)[0]
    return lost, fa, ooo


def loss(config: Configuration, gold: GoldReference) -> LossBreakdown:
    """Minimum achievable Hamming loss from this configuration, decomposed."""
    return _move_losses(config, gold, ())[0]


def losses(configs, gold: GoldReference) -> list:
    """The `LossBreakdown` of each configuration of one gold tree, in order.
    The top-down analyses share the gold's trie."""
    return [_move_losses(config, gold, ())[0] for config in configs]


def _top_down_move_losses(config, gold, taken, sunk, matched, moves, own):
    """The configuration's (unreachable, false opens, out of order), None
    unless own, and each move's successor total, for top-down:
    `_top_down_analysis` on each one's targets, buffer position, NT run
    and matched count."""
    stack, i, n = config.stack, config.i, config.n
    cap, nt_run = config.max_consecutive_nt, config.nt_run
    # E: i with a completed item on top, else i + 1
    E = i if stack and type(stack[-1]) is Completed else i + 1
    # later: the targets of the opens below a SHIFT or NT successor, at
    # E = i + 1, found when first needed.  With an open on top they are the
    # configuration's own, as nothing built ends past i.  Neither move is
    # legal at i = n
    parts = later = None
    if own:
        targets = _td_targets(gold, taken, stack, n, i, E)
        parts = _top_down_analysis(gold, targets, matched, n, cap, i, nt_run)
        if not moves:
            return parts, []
        if E > i:
            later = targets
    pushed = {}  # the pushed open's target entries -> the NT successor's total
    totals = []
    for t in moves:
        kind = t.kind
        if kind != "reduce" and later is None:
            later = _td_targets(gold, taken, stack, n, i, i + 1)
        if kind == "shift":
            total = sunk + sum(_top_down_analysis(gold, later, matched, n, cap, i + 1, 0))
        elif kind == "reduce":
            cut, lab, l, r = _reduce_target(stack, TOP_DOWN)
            key = (lab, l, r)
            had = taken.get(key, 0)
            v = gold.count.get(key, 0) - had  # still missing
            if v:
                taken[key] = had + 1
            # one more gold span matched, or one more junk built; a
            # completed item is on top, so E = i
            succ = _td_targets(gold, taken, stack[:cut], n, i, i)
            total = sunk + (not v)
            total += sum(_top_down_analysis(gold, succ, matched + bool(v), n, cap, i, 0))
            taken[key] = had
        else:  # nt
            # the pushed open's entry, as `_td_targets` would make it: the
            # gold spans at (label, i) from the earliest end it searches
            # (n for the bottom open, else E = i + 1), none of them built.
            # The labels without one (forced junk) share a total.
            key = (t.label, i)
            row = gold.targets.get(key)
            entry = None  # forced junk
            if row is not None:
                _, _, rs, ms = row[0]
                k = bisect_left(rs, i + 1 if later[0] or later[1] else n)
                if k < len(rs):
                    entry = row[k]
                    if entry is None:
                        entry = row[k] = key + (rs[k:], ms[k:])
            if entry not in pushed:
                succ = (later[0] + [entry], later[1]) if entry else (later[0], later[1] + 1)
                pushed[entry] = sunk + sum(
                    _top_down_analysis(gold, succ, matched, n, cap, i, nt_run + 1)
                )
            total = pushed[entry]
        totals.append(total)
    return parts, totals


def _in_order_move_losses(config, gold, taken, sunk, matched, moves, own):
    """The configuration's (unreachable, false opens, out of order), None
    unless own, and each move's successor total, for in-order; the module
    docstring says how the NT totals follow from the configuration's own
    analysis.  The successor's new item is built as
    `transitions._construct` builds it, with tuple.__new__."""
    stack, i = config.stack, config.i
    parts = _in_order_analysis(gold, taken, matched, stack, i) if own else None
    if not moves:
        return parts, []
    totals = []
    nt_junk = None  # the total with a pushed open that costs one
    for t in moves:
        kind = t.kind
        if kind == "finish":
            total = sunk + gold.size - matched
        elif kind == "shift":
            succ = stack + (_new(Completed, (config.tokens[i], i, i + 1, True)),)
            total = sunk + sum(_in_order_analysis(gold, taken, matched, succ, i + 1))
        elif kind == "reduce":
            cut, lab, l, r = _reduce_target(stack, IN_ORDER)
            key = (lab, l, r)
            had = taken.get(key, 0)
            v = gold.count.get(key, 0) - had  # still missing
            if v:
                taken[key] = had + 1
            succ = stack[:cut] + (_new(Completed, (lab, l, r, False)),)
            total = sunk + (not v)
            total += sum(_in_order_analysis(gold, taken, matched + bool(v), succ, i))
            taken[key] = had
        else:  # nt
            if nt_junk is None:
                innermost = _innermost_labels(gold, taken, stack[-1][1], i)
                base = parts if own else _in_order_analysis(gold, taken, matched, stack, i)
                nt_junk = sunk + sum(base) + 1
            total = nt_junk - (t.label in innermost)
        totals.append(total)
    return parts, totals


def _innermost_labels(gold, taken, b, i):
    """The labels of the missing gold spans at left end b whose right end
    is the nearest at or past i: the labels an in-order NT pushed over an
    item starting at b may carry at no cost."""
    _, nearest = _missing_from(gold, taken, b, i)
    return {
        lab
        for r, lab, cnt in gold.spans_at.get(b, ())
        if r == nearest and cnt > taken.get((lab, b, r), 0)
    }


def optimal_transitions(config: Configuration, gold: GoldReference, label_alphabet=None):
    """Legal transitions that keep the minimum achievable loss unchanged, in
    the fixed tie-break order.

    Every move is judged from one tally of the built constituents, with no
    successor configuration built and no call to `loss`; the module
    docstring gives each move's rule.  Each rule runs the analysis `loss`
    runs on the fields a built successor would have, so each move's
    successor loss is the one `loss(apply(config, move))` gives, and so is
    the verdict.  The NT labels share the analysis of everything below the
    pushed open: their successors differ only in its label.  The
    configuration's total and every move's come from one `_move_losses`
    query, which also checks the strategies.
    """
    if label_alphabet is None:
        label_alphabet = gold.labels
    moves = legal_transitions(config, label_alphabet)
    breakdown, totals = _move_losses(config, gold, moves)
    base = breakdown.total
    return [t for t, total in zip(moves, totals) if total == base]


def _move_losses(config, gold, moves):
    """(loss(config), [loss(apply(config, t)).total for t in moves]), for
    moves all legal in config: the oracle's one query per configuration.
    It tallies the built constituents once (`_tally`, which checks that
    config and gold share a strategy), for the configuration and every
    move; the strategy's analysis then runs on the configuration and on
    each move's successor fields.  A terminal or finished configuration
    has no legal moves, and its loss is the junk built plus the gold spans
    not built.  The top-down totals read and extend the gold's trie."""
    taken, sunk = _tally(config, gold)
    matched = len(config.built) - sunk
    if not moves and (is_terminal(config) or config.finished):
        parts, totals = (gold.size - matched, 0, 0), []
    elif config.strategy == TOP_DOWN:
        parts, totals = _top_down_move_losses(config, gold, taken, sunk, matched, moves, True)
    else:
        parts, totals = _in_order_move_losses(config, gold, taken, sunk, matched, moves, True)
    unreachable, fa, ooo = parts
    # unreachable, false constituents, false opens, out of order, total
    return _new(LossBreakdown, (unreachable, sunk, fa, ooo, unreachable + sunk + fa + ooo)), totals


def _move_totals(config, gold, moves):
    """[loss(apply(config, t)).total for t in moves], for moves all legal
    in config: `_move_losses` without the configuration's own analysis,
    for a caller that already knows its total, as a dynamic training pass
    does.  The successors are judged exactly as there, from the same tally
    and strategy functions, and read the gold's trie the same way."""
    taken, sunk = _tally(config, gold)
    matched = len(config.built) - sunk
    if config.strategy == TOP_DOWN:
        return _top_down_move_losses(config, gold, taken, sunk, matched, moves, False)[1]
    return _in_order_move_losses(config, gold, taken, sunk, matched, moves, False)[1]
