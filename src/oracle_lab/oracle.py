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
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass

from .transitions import (
    TOP_DOWN,
    Completed,
    Configuration,
    OpenNT,
    apply,
    is_terminal,
    legal_transitions,
)
from .trees import constituent_set


class GoldReference:
    """Gold constituent multiset for one tree under one strategy."""

    def __init__(self, strategy, constituents):
        self.strategy = strategy
        self.count = Counter(c.key for c in constituents)
        self.labels = tuple(sorted({c.label for c in constituents}))
        # (gold spans starting at l, l) for every left end l, most first;
        # top-down opens the spans at l back to back (_top_down_analysis)
        starts = Counter(c.l for c in constituents)
        self.starts = sorted(((k, l) for l, k in starts.items()), reverse=True)
        # left end -> labels of the gold spans starting there, built or not
        labels_at = {}
        for c in constituents:
            labels_at.setdefault(c.l, set()).add(c.label)
        self.labels_at = {l: frozenset(labs) for l, labs in labels_at.items()}

    @classmethod
    def from_tree(cls, tree, strategy):
        return cls(strategy, constituent_set(tree))


@dataclass(frozen=True)
class LossBreakdown:
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


def _check_strategies(config, gold):
    if config.strategy != gold.strategy:
        raise ValueError(
            f"strategy mismatch: configuration is {config.strategy},"
            f" gold is {gold.strategy}"
        )


def _rem_and_sunk(config: Configuration, gold: GoldReference):
    # rem keeps zero entries; every consumer tests the count
    rem = dict(gold.count)
    sunk = 0
    for c in config.built:
        k = (c.label, c.l, c.r)
        v = rem.get(k, 0)
        if v:
            rem[k] = v - 1
        else:
            sunk += 1
    return rem, sunk


def _top_down_analysis(config, gold, rem):
    """Minimum future loss for top-down, by one forward pass over the open
    NTs from the bottom of the stack to the top.

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
    """
    i, n = config.i, config.n
    stack = config.stack
    top_completed = bool(stack) and isinstance(stack[-1], Completed)
    E = i if top_completed else i + 1
    avail = max(0, config.max_consecutive_nt - config.nt_run)

    ends = {}  # (label, l) -> ends of remaining gold spans, for l <= i
    at_i = {}  # r -> remaining gold spans (l == i, r)
    left_of_i = 0
    for (lab, l, r), cnt in rem.items():
        if l > i or not cnt:
            continue
        if l < i:
            left_of_i += cnt
        else:
            at_i[r] = at_i.get(r, 0) + cnt
        ends.setdefault((lab, l), []).append(r)
    pending = sum(at_i.values())

    searched = []  # (label, left index, target ends ascending)
    far = {n + 1: 0}  # rho -> spans at i ending past it; n + 1 means none
    opens = 0
    for s in stack:
        if type(s) is not OpenNT:
            continue
        opens += 1
        rs = ends.get((s.label, s.index))
        if rs is None:
            continue
        if opens == 1:  # the bottom NT closes the whole sentence
            opts = [n] if n in rs else None
        else:
            rs.sort()
            opts = rs[bisect_left(rs, E):]
        if not opts:
            continue
        searched.append((s.label, s.index, opts))
        for r in opts:
            if r > i and r not in far:
                far[r] = sum(c for e, c in at_i.items() if e > r)
    forced_junk = opens - len(searched)

    # (bound, rho, plateau) -> (cost, junk) of the first cheapest assignment
    # of the opens so far, with cost relative to losing every remaining span
    # left of i; the dict is in the order of those assignments
    layer = {(n, n + 1, ()): (0, 0)}
    pl = None  # left index of the previous searched open
    for lab, idx, opts in searched:
        nxt = {}
        for (bound, rho, used), (cost, junk) in layer.items():
            if pl != idx:
                used = ()
            moves = [((bound, rho, used), cost + 1, junk + 1)]
            for r in opts:
                if r > bound:
                    break
                if r == bound:
                    if used.count(lab) >= rem[(lab, idx, r)]:
                        continue
                    plateau = tuple(sorted(used + (lab,)))
                    credit = 0
                else:
                    plateau = (lab,)
                    credit = len(used) if idx == i else 0
                state = (r, r if r > i else rho, plateau)
                moves.append((state, cost - credit - (idx < i), junk))
            for state, c, j in moves:
                seen = nxt.get(state)
                if seen is None or c < seen[0]:
                    nxt.pop(state, None)
                    nxt[state] = (c, j)
        layer = nxt
        pl = idx

    best = None
    for (_, rho, used), (cost, junk) in layer.items():
        pushes = pending - far[rho] - (len(used) if pl == i else 0)
        cost += far[rho] + max(0, pushes - avail)
        if best is None or cost < best[0]:
            best = (cost, junk)
    cost, junk = best
    # nothing built starts right of i, so all gold spans there remain
    cap = config.max_consecutive_nt
    capped = 0
    for k, l in gold.starts:
        if k <= cap:
            break
        if l > i:
            capped += k - cap
    return left_of_i + capped + cost - junk, forced_junk, junk


def _in_order_analysis(config, gold, rem):
    """Minimum future loss for in-order.

    Each open NT will reduce into a span starting at the left end of the
    item directly below it; each such slot can host every remaining gold
    span with that left end and a right end not before i (outer ones are
    added by closing the NT and wrapping).  The NT itself costs nothing when
    its label is the innermost gold at its slot, one loss otherwise.  Gold
    spans starting at the top item's left end are free via wraps, spans at
    or right of i are untouched, and everything else is unbuildable.

    The consecutive-NT cap never binds: an NT needs a completed item on
    top and leaves an open one, so two NTs are never consecutive and
    nt_run never exceeds 1.
    """
    i = config.i
    stack = config.stack
    # the left end of the item directly below each open NT, bottom to top
    slots = [
        (stack[k - 1].l, e.label) for k, e in enumerate(stack) if type(e) is OpenNT
    ]
    # the top item's left end, when it is completed
    beta = stack[-1].l if stack and type(stack[-1]) is Completed else None
    pools = {b: [] for b, _ in slots}
    lost = 0
    for (lab, l, r), cnt in rem.items():
        if cnt <= 0 or l >= i:
            continue
        if l in pools and r >= i:
            pools[l].append((r, lab))
        elif l == beta and r >= i:
            continue
        else:
            lost += cnt
    fa = ooo = 0
    for b, sig_label in slots:
        pool = pools[b]
        if not pool:
            fa += 1
            continue
        rmin = min(r for r, _ in pool)
        labels_at_min = {lab for r, lab in pool if r == rmin}
        if sig_label in labels_at_min:
            continue
        if any(lab == sig_label for _, lab in pool):
            ooo += 1
        else:
            fa += 1
    return lost, fa, ooo


def loss(config: Configuration, gold: GoldReference) -> LossBreakdown:
    """Minimum achievable Hamming loss from this configuration, decomposed."""
    _check_strategies(config, gold)
    rem, sunk = _rem_and_sunk(config, gold)
    if is_terminal(config) or config.finished:
        unreachable, fa, ooo = sum(rem.values()), 0, 0
    elif config.strategy == TOP_DOWN:
        unreachable, fa, ooo = _top_down_analysis(config, gold, rem)
    else:
        unreachable, fa, ooo = _in_order_analysis(config, gold, rem)
    return LossBreakdown(
        unreachable=unreachable,
        false_constituents=sunk,
        false_open_nts=fa,
        out_of_order=ooo,
        total=unreachable + sunk + fa + ooo,
    )


def _frontier(config: Configuration):
    """The left end of the span an NT pushed now would close on: the buffer
    position top-down, the left end of the top (completed) item in-order."""
    if config.strategy == TOP_DOWN:
        return config.i
    return config.stack[-1].l


def optimal_transitions(config: Configuration, gold: GoldReference, label_alphabet=None):
    """Legal transitions that keep the minimum achievable loss unchanged, in
    the fixed tie-break order.

    Every NT label with no gold span starting at the frontier (`_frontier`)
    leads to the same successor loss, so one of them is evaluated and its
    verdict stands for all.  Top-down, such an open has no target span, so
    `_top_down_analysis` counts it as forced junk and leaves it out of the
    search; in-order, its slot's pool holds no span with its label, so
    `_in_order_analysis` counts it as a false open.  Either way the label
    is never read again, and the rest of the successor (stack shape, buffer
    position, NT run, built constituents) does not depend on it.
    `gold.labels_at` lists the labels of every gold span, built or not, so
    it is a superset of the remaining spans and the rule stays exact.
    """
    _check_strategies(config, gold)
    if label_alphabet is None:
        label_alphabet = gold.labels
    base = loss(config, gold).total
    at_frontier = None
    shared = None  # the verdict for every NT label in no gold span there
    out = []
    for t in legal_transitions(config, label_alphabet):
        if t.kind == "nt":
            if at_frontier is None:
                at_frontier = gold.labels_at.get(_frontier(config), frozenset())
            if t.label not in at_frontier:
                if shared is None:
                    shared = loss(apply(config, t), gold).total == base
                if shared:
                    out.append(t)
                continue
        if loss(apply(config, t), gold).total == base:
            out.append(t)
    return out
