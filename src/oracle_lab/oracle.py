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

`optimal_transitions` judges every legal move from one analysis of the
configuration, without building a successor or calling `loss` per move
(in the spirit of Goldberg & Nivre 2013, who derive move costs without
recomputing the loss).  The gold spans still missing, `rem`, and the wrong
constituents built, `sunk`, are counted once; each move's successor loss
is then worked out from the successor's stack, buffer position and NT run
alone, which is all an analysis reads besides `rem`:

- FINISH leaves a finished configuration, whose loss is `sunk + sum(rem)`.
- REDUCE builds the one constituent `transitions._reduce_target` names: it
  takes one off `rem` if it is missing, else adds one to `sunk`.  That
  delta is applied for the successor's analysis and undone after.
- SHIFT and NT leave `rem` and `sunk` as they are; the strategy's analysis
  runs on the successor's fields.

In-order, the NT labels share one analysis.  The pushed open's slot is the
left end b of the completed item on top, right of every other slot, so its
pool is the missing spans at b and the other slots, and the spans counted
lost, are the same for every label.  The slot costs nothing for a label of
the innermost span in that pool (`_innermost_labels`) and one loss for any
other, so one analysis with one label gives every label's total.

Top-down also shares the analysis between moves where the pass would
redo the same work.  The pass's layers depend on the opens below and on
E, the earliest end a target may have, which is i with a completed item
on top and i + 1 otherwise:

- Every NT successor has an open on top, so E = i + 1.  One pass over the
  current opens with that E serves every NT label; when the top item is
  already open it is the configuration's own pass.  Each label then adds
  one layer for its open, and the terminal term with one less NT of
  headroom.  A label with no remaining gold span at (label, i) makes its
  open forced junk and adds no layer, so all such labels share a verdict.
- REDUCE needs a completed item on top, so E = i before and after it.
  When no lower open has the popped open's (label, left index), the
  constituent's delta touches nothing the lower layers read, and the
  successor's pass is the configuration's own pass stopped below the
  popped open.  Otherwise the successor is analysed afresh.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from typing import NamedTuple

from .transitions import (
    IN_ORDER,
    TOP_DOWN,
    Completed,
    Configuration,
    OpenNT,
    _reduce_target,
    apply,  # noqa: F401 -- a module attribute the benchmark's tracer wraps
    is_terminal,
    legal_transitions,
)
from .trees import constituent_set


class GoldReference:
    """Gold constituent multiset for one tree under one strategy."""

    def __init__(self, strategy, constituents):
        self.strategy = strategy
        # keyed (label, l, r), in order of left end, so that a scan of the
        # spans still missing can stop at the buffer position
        self.count = Counter(sorted((c.key for c in constituents), key=lambda k: k[1]))
        self.labels = tuple(sorted({c.label for c in constituents}))
        # (gold spans starting at l, l) for every left end l, most first;
        # top-down opens the spans at l back to back (_top_down_analysis)
        starts = Counter(c.l for c in constituents)
        self.starts = sorted(((k, l) for l, k in starts.items()), reverse=True)

    @classmethod
    def from_tree(cls, tree, strategy):
        return cls(strategy, constituent_set(tree))


class LossBreakdown(NamedTuple):
    """The loss of a configuration and its four addends.  A named tuple,
    so that building one, once per `loss` call, runs in C."""

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


def _top_down_analysis(gold, rem, n, cap, stack, i, nt_run):
    """Minimum future loss for top-down, by one forward pass over the open
    NTs from the bottom of the stack to the top.  Returns (unreachable,
    forced junk, out-of-order junk) for a configuration with this stack,
    buffer position i, NT run and missing gold spans rem, over n tokens
    under the consecutive-NT cap.

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
    ends, at_i, left_of_i = _td_spans(rem, i)
    top_completed = bool(stack) and type(stack[-1]) is Completed
    searched, forced_junk = _td_targets(stack, ends, n, i if top_completed else i + 1)
    layer = _td_pass(searched, rem, i, {(n, n + 1, ()): (0, 0)}, None)[-1]
    top_at_i = bool(searched) and searched[-1][1] == i
    far = {n + 1: 0}  # rho -> spans at i ending past it; n + 1 means none
    cost, junk = _td_close(
        layer, top_at_i, at_i, far, sum(at_i.values()), max(0, cap - nt_run)
    )
    return left_of_i + _capped(gold, i, cap) + cost - junk, forced_junk, junk


def _td_spans(rem, i):
    """The remaining gold spans as the top-down pass reads them at buffer
    position i: the ends of those starting at or left of i, per (label,
    left end); the count of those starting at i, per right end; and the
    count of those starting left of i."""
    ends = {}
    at_i = {}
    left_of_i = 0
    for (lab, l, r), cnt in rem.items():
        if l > i:
            break  # rem is in order of left end
        if not cnt:
            continue
        if l < i:
            left_of_i += cnt
        else:
            at_i[r] = at_i.get(r, 0) + cnt
        ends.setdefault((lab, l), []).append(r)
    return ends, at_i, left_of_i


def _td_targets(stack, ends, n, E):
    """The pre-pass: (label, left index, target ends ascending) for each
    open NT with a target, bottom to top, and the number without one."""
    searched = []
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
    return searched, opens - len(searched)


def _td_pass(searched, rem, i, layer, pl):
    """The forward pass: starting from layer, the states after an open with
    left index pl (None before the first), add one layer per searched open.
    Returns every layer, the given one first.  Each state is (bound, rho,
    plateau) -> (cost, junk), with cost relative to losing every remaining
    span left of i; each dict is in the order of its assignments."""
    layers = [layer]
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
        layers.append(layer)
        pl = idx
    return layers


def _td_close(layer, top_at_i, at_i, far, pending, avail):
    """(cost, junk) of the first state in layer whose cost plus the
    terminal term is least.  The terminal term loses the spans at i
    ending past rho, far[rho], and the fresh pushes at i beyond the NT
    headroom avail; pending spans start at i, and when the last searched
    open sits at i (top_at_i) its plateau's matches are not pushed again.
    far is filled on demand from at_i and may be shared between calls at
    the same i."""
    best = None
    for (_, rho, used), (cost, junk) in layer.items():
        f = far.get(rho)
        if f is None:
            f = far[rho] = sum(c for e, c in at_i.items() if e > rho)
        pushes = pending - f - (len(used) if top_at_i else 0)
        cost += f + max(0, pushes - avail)
        if best is None or cost < best[0]:
            best = (cost, junk)
    return best


def _capped(gold, i, cap):
    """Gold spans right of i that the cap can never open: nothing built
    starts there, so all of them remain."""
    capped = 0
    for k, l in gold.starts:
        if k <= cap:
            break
        if l > i:
            capped += k - cap
    return capped


def _in_order_analysis(stack, i, rem):
    """Minimum future loss for in-order, for a configuration with this
    stack, buffer position i and missing gold spans rem.  Returns
    (unreachable, false opens, out-of-order opens).

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
    # the left end of the item directly below each open NT, bottom to top
    slots = [
        (stack[k - 1].l, e.label) for k, e in enumerate(stack) if type(e) is OpenNT
    ]
    # the top item's left end, when it is completed
    beta = stack[-1].l if stack and type(stack[-1]) is Completed else None
    pools = {b: [] for b, _ in slots}
    lost = 0
    for (lab, l, r), cnt in rem.items():
        if l >= i:
            break  # rem is in order of left end
        if cnt <= 0:
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
        unreachable, fa, ooo = _top_down_analysis(
            gold,
            rem,
            config.n,
            config.max_consecutive_nt,
            config.stack,
            config.i,
            config.nt_run,
        )
    else:
        unreachable, fa, ooo = _in_order_analysis(config.stack, config.i, rem)
    # unreachable, false constituents, false opens, out of order, total
    return LossBreakdown(unreachable, sunk, fa, ooo, unreachable + sunk + fa + ooo)


def _top_down_move_losses(config, gold, rem, sunk, moves):
    """The configuration's loss total and each move's successor total, for
    top-down; the module docstring says how the moves share the pass."""
    stack, i, n = config.stack, config.i, config.n
    cap = config.max_consecutive_nt
    ends, at_i, left_of_i = _td_spans(rem, i)
    pending = sum(at_i.values())
    far = {n + 1: 0}

    def close(layer, pl, avail):
        # pl: the left index of the last searched open, None if none
        return _td_close(layer, pl == i, at_i, far, pending, avail)[0]

    # the terms NT leaves alone; REDUCE adds one to sunk, or takes one off
    # left_of_i when the span it builds (which starts left of i) is missing
    fixed = sunk + left_of_i + _capped(gold, i, cap)
    start = {(n, n + 1, ()): (0, 0)}
    top_completed = bool(stack) and type(stack[-1]) is Completed
    searched, forced = _td_targets(stack, ends, n, i if top_completed else i + 1)
    layers = _td_pass(searched, rem, i, start, None)
    pl = searched[-1][1] if searched else None
    base = fixed + forced + close(layers[-1], pl, max(0, cap - config.nt_run))

    totals = []
    nt_base = None
    for t in moves:
        kind = t.kind
        if kind == "shift":
            succ = stack + (Completed(config.tokens[i], i, i + 1, True),)
            total = sunk + sum(_top_down_analysis(gold, rem, n, cap, succ, i + 1, 0))
        elif kind == "reduce":
            cut, lab, l, r = _reduce_target(stack, TOP_DOWN)
            key = (lab, l, r)
            v = rem.get(key, 0)
            # the first child starts at the open's index, so the pass read
            # the popped open at (lab, l); junk leaves rem as it is
            if not v or all(
                type(s) is not OpenNT or s.label != lab or s.index != l
                for s in stack[:cut]
            ):
                popped = bool(searched) and searched[-1][:2] == (lab, l)
                k = len(searched) - popped
                below = searched[k - 1][1] if k else None
                # one more junk built, or one fewer gold span lost left of i
                total = fixed + (-1 if v else 1) + forced - (not popped)
                total += close(layers[k], below, cap)
            else:
                if v:
                    rem[key] = v - 1
                succ = stack[:cut] + (Completed(lab, l, r),)
                total = sunk + (not v)
                total += sum(_top_down_analysis(gold, rem, n, cap, succ, i, 0))
                if v:
                    rem[key] = v
        else:  # nt
            if nt_base is None:
                if top_completed:
                    nt_searched, nt_forced = _td_targets(stack, ends, n, i + 1)
                    nt_layer = _td_pass(nt_searched, rem, i, start, None)[-1]
                    nt_pl = nt_searched[-1][1] if nt_searched else None
                else:
                    nt_searched, nt_forced, nt_layer, nt_pl = searched, forced, layers[-1], pl
                bottom = not nt_searched and not nt_forced  # no open yet
                nt_avail = max(0, cap - config.nt_run - 1)
                nt_base = fixed + nt_forced
                junk_total = None
            rs = ends.get((t.label, i))
            if rs is not None and bottom:
                rs = [n] if n in rs else None
            if not rs:
                if junk_total is None:
                    junk_total = nt_base + 1 + close(nt_layer, nt_pl, nt_avail)
                total = junk_total
            else:
                rs.sort()  # every span at i ends at or past E = i + 1
                layer = _td_pass([(t.label, i, rs)], rem, i, nt_layer, nt_pl)[-1]
                total = nt_base + close(layer, i, nt_avail)
        totals.append(total)
    return base, totals


def _in_order_move_losses(config, gold, rem, sunk, moves):
    """The configuration's loss total and each move's successor total, for
    in-order; the module docstring says how the NT labels share one
    analysis."""
    stack, i = config.stack, config.i
    base = sunk + sum(_in_order_analysis(stack, i, rem))
    totals = []
    innermost = None
    for t in moves:
        kind = t.kind
        if kind == "finish":
            total = sunk + sum(rem.values())
        elif kind == "shift":
            succ = stack + (Completed(config.tokens[i], i, i + 1, True),)
            total = sunk + sum(_in_order_analysis(succ, i + 1, rem))
        elif kind == "reduce":
            cut, lab, l, r = _reduce_target(stack, IN_ORDER)
            key = (lab, l, r)
            v = rem.get(key, 0)
            if v:
                rem[key] = v - 1
            succ = stack[:cut] + (Completed(lab, l, r),)
            total = sunk + (not v) + sum(_in_order_analysis(succ, i, rem))
            if v:
                rem[key] = v
        else:  # nt
            if innermost is None:
                innermost = _innermost_labels(rem, stack[-1].l, i)
                succ = stack + (OpenNT(t.label, i),)
                # the total with a new open that costs one
                nt_junk = sunk + sum(_in_order_analysis(succ, i, rem))
                nt_junk += t.label in innermost
            total = nt_junk - (t.label in innermost)
        totals.append(total)
    return base, totals


def _innermost_labels(rem, b, i):
    """The labels of the missing gold spans at left end b whose right end
    is the nearest at or past i: the labels an in-order NT pushed over an
    item starting at b may carry at no cost."""
    best, labels = None, set()
    for (lab, l, r), cnt in rem.items():
        if l > b:
            break  # rem is in order of left end
        if l < b or not cnt or r < i:
            continue
        if best is None or r < best:
            best, labels = r, {lab}
        elif r == best:
            labels.add(lab)
    return labels


def optimal_transitions(config: Configuration, gold: GoldReference, label_alphabet=None):
    """Legal transitions that keep the minimum achievable loss unchanged, in
    the fixed tie-break order.

    Every move is judged from one count of the missing gold spans, with no
    successor configuration built and no call to `loss`; the module
    docstring gives each move's rule.  Each rule runs the analysis `loss`
    runs on the fields a built successor would have, or reuses the part of
    the configuration's own analysis that those fields leave unchanged, so
    each move's successor loss is the one `loss(apply(config, move))`
    gives, and so is the verdict.  The NT labels share one analysis: their
    successors differ only in the label of the open on top, which the
    analyses read in one place.
    """
    _check_strategies(config, gold)
    if label_alphabet is None:
        label_alphabet = gold.labels
    moves = legal_transitions(config, label_alphabet)
    if not moves:
        return []
    base, totals = _move_losses(config, gold, moves)
    return [t for t, total in zip(moves, totals) if total == base]


def _move_losses(config, gold, moves):
    """(loss(config).total, [loss(apply(config, t)).total for t in moves])
    for a configuration with legal moves, from one count of the missing
    gold spans."""
    rem, sunk = _rem_and_sunk(config, gold)
    if config.strategy == TOP_DOWN:
        return _top_down_move_losses(config, gold, rem, sunk, moves)
    return _in_order_move_losses(config, gold, rem, sunk, moves)
