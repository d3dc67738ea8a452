"""Brute-force minimum-loss search and conformance sweeps.

This module never consults the closed-form loss while searching; it only
plays the transition systems forward, so agreement between the two is
evidence, not circularity.
"""

from __future__ import annotations

import gc
import heapq
import math
import operator
import random
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from itertools import accumulate

from .oracle import GoldReference, OracleViolation, loss
from .transitions import (
    TOP_DOWN,
    Completed,
    _construct,
    _reduce_target,
    apply,
    fingerprint,
    initial_config,
    is_terminal,
    legal_transitions,
)
from .trees import gold_sequence, serialize

# the one budget of both searches, an input error (exit 2) when it runs
# out: the classes that one brute_force_loss search or one exhaustive state
# graph has found.  Memory follows the classes: about 0.7-0.9 kB a class
# in the search and 1.1 kB in the graph, so either stays near 1 GB.  The
# largest n = 4 top-down graph over X and Y measured has 428,811 classes.
_CLASS_LIMIT = 1_000_000

WALK_POLICIES = ("gold-prefix", "random-walk", "exhaustive")


@dataclass
class SearchBounds:
    max_tokens: int = 6
    max_consecutive_nt: int = 3
    label_alphabet: tuple | None = None

    def __post_init__(self):
        if self.max_tokens < 1 or self.max_consecutive_nt < 1:
            raise ValueError("bounds must be positive")

    @property
    def max_steps(self):
        # enough for any derivation plus a junk detour or two
        return 10 * self.max_tokens + 20


@dataclass
class ConformanceReport:
    configs_checked: int = 0
    mismatches: list = field(default_factory=list)
    elapsed: float = 0.0
    # exhaustive policy only: state-graph size, the time spent building it
    # and its shortest paths, and the time spent checking the formula
    classes: int = 0
    edges: int = 0
    graph_s: float = 0.0
    formula_s: float = 0.0

    @property
    def passed(self):
        return not self.mismatches

    def summary(self):
        status = "PASS" if self.passed else "FAIL"
        return f"{status}: {self._details()}"

    def _details(self):
        """The summary without its status: what was checked, in how long,
        and the first mismatches."""
        lines = [
            f"{self.configs_checked} configurations checked,"
            f" {len(self.mismatches)} mismatches, {self.elapsed:.2f}s"
        ]
        if self.classes:
            lines.append(
                f"  state graph: {self.classes} classes, {self.edges} edges,"
                f" graph {self.graph_s:.2f}s, formula {self.formula_s:.2f}s"
            )
        for fp, formula, brute in self.mismatches[:20]:
            lines.append(f"  mismatch: formula={formula} brute={brute} at {fp}")
        if len(self.mismatches) > 20:
            lines.append(f"  ... and {len(self.mismatches) - 20} more")
        return "\n".join(lines)


def default_alphabet(gold: GoldReference):
    """Gold labels plus one distractor that the tree never uses."""
    labels = set(gold.labels)
    for extra in "DEFGHJ":
        if extra not in labels:
            return tuple(sorted(labels)) + (extra,)
    raise ValueError("could not pick a distractor label")


def _future_bound(key, strategy):
    """Admissible lower bound on future loss, from the class key alone.

    Every open non-terminal reduces exactly once, and the left end of the
    constituent it will produce is already forced: for top-down it is the
    left end of whatever sits directly above it (for an open directly
    above, of the constituent that open will produce, recursively), or
    the current buffer position for the topmost element; for in-order it
    is the left end of the completed item directly below, which stays put
    until the open reduces.  So opens and missing gold items can be
    matched on (label, left end) before any search: surplus opens must
    close as junk.  A junk open's label is collapsed to None in the key,
    and no missing span has that label, so the collapse changes nothing
    here.  Top-down constituents opened later can only start at or after
    the current buffer position, so there a missing item left of the
    buffer with no matching open can also never be built (in-order wraps
    can reuse old left ends, so no such term is added).  The subtler
    interactions (right-end windows, nesting, the NT cap, ordering) are
    left to the search.
    """
    items, i, _, _, rkey = key
    opens = {}
    if strategy == TOP_DOWN:
        cur = i
        for e in reversed(items):
            if e[0] == "o":
                k = (e[1], cur)
                opens[k] = opens.get(k, 0) + 1
            else:
                cur = e[1]
    else:
        for p, e in enumerate(items):
            if e[0] == "o":
                k = (e[1], items[p - 1][1])
                opens[k] = opens.get(k, 0) + 1
    avail = {}
    for (lab, l, _), cnt in rkey:
        if l <= i:
            k = (lab, l)
            avail[k] = avail.get(k, 0) + cnt
    h = 0
    for k, m in opens.items():
        a = avail.get(k, 0)
        if m > a:
            h += m - a
    if strategy == TOP_DOWN:
        for k, a in avail.items():
            if k[1] < i:
                m = opens.get(k, 0)
                if a > m:
                    h += a - m
    return h


def brute_force_loss(config, gold: GoldReference, bounds: SearchBounds, cache=None):
    """Minimum Hamming loss over all terminal configurations reachable from
    config, found by best-first search over the classes of _class_key:
    stack shape with junk labels collapsed, buffer position and the
    multiset of gold constituents still missing; wrong constituents
    already built are a sunk cost added at the end.  Moves between classes
    follow _Successors, the rule the census graph moves by, and a class's
    configuration is built once, when the search first expands it.  The
    search itself never consults the closed-form loss; it orders classes
    by the mechanical bound of _future_bound, which only prunes, never
    decides.

    The search's cost follows the tokens left and the opens on the stack,
    not the sentence length, so any sentence is searched, and the budget
    is on memory: ValueError, naming config, once the search has found
    more than _CLASS_LIMIT classes.  Raises RuntimeError if no terminal
    configuration is reachable, which would mean the legality guards
    admit dead states.
    """
    alphabet = bounds.label_alphabet or default_alphabet(gold)
    rem0 = dict(gold.count)
    sunk0 = 0
    for c in config.built:  # a Constituent is its own key (label, l, r)
        if rem0.get(c, 0):
            rem0[c] -= 1
            if not rem0[c]:
                del rem0[c]
        else:
            sunk0 += 1

    start_key = _class_key(config, rem0)
    if cache is not None and start_key in cache:
        return sunk0 + cache[start_key]

    strategy = config.strategy
    rule = _Successors(strategy, start_key[4])
    step = rule.move
    # built output never constrains the future; drop it to keep reps small
    reps = {start_key: config._replace(built=(), history=())}
    dist = {start_key: 0}
    tie = 0
    heap = [(_future_bound(start_key, strategy), 0, 0, start_key)]
    best = math.inf
    while heap:
        f, _, d, key = heapq.heappop(heap)
        if f >= best:
            break
        if d > dist[key]:
            continue
        if len(dist) > _CLASS_LIMIT:
            raise ValueError(
                f"class budget exhausted: the search from {fingerprint(config)}"
                f" has found more than {_CLASS_LIMIT} classes (verify._CLASS_LIMIT)"
            )
        if cache is not None and key != start_key and key in cache:
            cand = d + cache[key]
            if cand < best:
                best = cand
            continue
        c = reps[key]
        if type(c) is tuple:  # a pending (parent, move), built on first expansion
            c = reps[key] = _construct(*c)
        moves = legal_transitions(c, alphabet)  # none if c is terminal
        if not moves and is_terminal(c):
            cand = d + sum(rule.missing[key[4]][1].values())
            if cand < best:
                best = cand
        # reversed: ties go to finish/reduce before yet another nonterminal
        for t in reversed(moves):
            k2, w = step(key, c, t)
            nd = d + w
            old = dist.get(k2)
            if old is None:
                reps[k2] = (c, t)
            elif nd >= old:
                continue
            dist[k2] = nd
            tie += 1
            heapq.heappush(heap, (nd + _future_bound(k2, strategy), tie, nd, k2))
    if math.isinf(best):
        raise RuntimeError(
            "search exhausted without reaching a terminal configuration;"
            " the legality guards are suspect"
        )
    if cache is not None:
        cache[start_key] = best
    return sunk0 + best


def _random_walk(config, alphabet, rng, steps):
    """config, then every configuration of a seeded random walk of at most
    steps moves over alphabet from it, stopping at a terminal one.  The
    move kind is drawn uniformly and a move drawn within it, so a
    label-rich alphabet does not drown the walk in consecutive junk
    opens."""
    out = [config]
    while steps and not is_terminal(config):
        moves = legal_transitions(config, alphabet)
        pick = rng.choice(sorted({t.kind for t in moves}))
        config = apply(config, rng.choice([t for t in moves if t.kind == pick]))
        out.append(config)
        steps -= 1
    return out


def _class_key(config, rem):
    """Equivalence class of a state for both brute-force searches.

    Future behavior never depends on the label of a completed stack item
    (the guards and apply only read its span, and for in-order its word
    flag), and an open non-terminal whose label no longer occurs in the
    missing multiset can only ever produce junk, whatever the label is.
    Junk labels therefore collapse to None, which is no label, and the
    class count stays manageable.  Top-down never consults the word flag
    (a bare word needs an open non-terminal below it, so it can never sit
    alone on the stack), so there a shifted word and a completed
    constituent with the same span collapse as well.

    rem must not contain zero counts.
    """
    word_kind = "c" if config.strategy == TOP_DOWN else "w"
    rem_labels = {k[0] for k in rem}
    items = []
    for e in config.stack:
        if type(e) is Completed:
            items.append((word_kind if e.is_word else "c", e.l, e.r))
        else:
            lab = e.label if e.label in rem_labels else None
            items.append(("o", lab, e.index))
    return (
        tuple(items),
        config.i,
        config.finished,
        config.nt_run,
        frozenset(rem.items()),
    )


class _Successors:
    """The one rule by which both brute-force searches move between
    classes.  move(key, config, t) takes a class key, a member
    configuration and a legal move and returns the successor's key,
    derived from the parent's key and the move alone (a reduce's
    constituent from transitions._reduce_target), and the move's weight:
    1 for a reduce that builds a constituent outside the missing
    multiset, else 0.  missing maps each missing multiset's frozenset to
    (that frozenset, its dict, the labels it holds), so that keys share
    one frozenset per multiset, and each gold reduce from a multiset is
    worked out once.
    """

    def __init__(self, strategy, rkey):
        self.strategy = strategy
        self.word_kind = "c" if strategy == TOP_DOWN else "w"
        self.missing = {rkey: (rkey, dict(rkey), frozenset(k[0] for k, _ in rkey))}
        self.gold_step = {}  # (missing frozenset, gold constituent) -> the one after

    def move(self, key, config, t):
        items, i, finished, nt_run, rkey = key
        kind = t.kind
        if kind == "shift":
            return (items + ((self.word_kind, i, i + 1),), i + 1, finished, 0, rkey), 0
        if kind == "nt":
            lab = t.label if t.label in self.missing[rkey][2] else None
            return (items + (("o", lab, i),), i, finished, nt_run + 1, rkey), 0
        if kind == "finish":
            return (items, i, True, 0, rkey), 0
        cut, label, l, r = _reduce_target(config.stack, self.strategy)
        items = items[:cut] + (("c", l, r),)
        made = (label, l, r)
        rem = self.missing[rkey][1]
        if made not in rem:
            return (items, i, finished, 0, rkey), 1
        edge = (rkey, made)
        rkey2 = self.gold_step.get(edge)
        if rkey2 is None:
            rem2 = {k: n - (k == made) for k, n in rem.items() if k != made or n > 1}
            new = frozenset(rem2.items())
            info = (new, rem2, frozenset(k[0] for k in rem2))
            rkey2 = self.gold_step[edge] = self.missing.setdefault(new, info)[0]
        labels = self.missing[rkey2][2]
        if label not in labels:
            items = tuple(
                it if it[0] != "o" or it[1] in labels else ("o", None, it[2])
                for it in items
            )
        return (items, i, finished, 0, rkey2), 0


def _exhaustive_graph(tree, gold, strategy, bounds):
    """All parser states reachable by the moves of bounds.label_alphabet,
    one representative per class of states with identical future behavior
    (see _class_key); class members differ beyond that only in junk
    already built, a sunk constant.

    Classes are numbered 0, 1, ... in breadth-first discovery order, class
    0 holding the initial configuration.  Returns (keys, reps, sunk_of,
    back, terminal_pen), the first four lists indexed by class id:
    keys[id] is the class key, reps[id] its first-found configuration,
    sunk_of[id] the junk that representative has built, and back[id] one
    (predecessor id, weight) pair per legal move into the class.
    terminal_pen lists (id, missed gold count) for every terminal class.

    Every edge's successor key and weight come from _Successors, the rule
    brute_force_loss moves by, so a move into a class already found
    builds nothing; _construct runs once per class, for its
    representative.  The cyclic collector is paused while the graph
    grows, since none of it is garbage, and restored as it was.  Raises
    ValueError, naming the tree, once more than _CLASS_LIMIT classes are
    found, the budget brute_force_loss keeps too.
    """
    start = initial_config(tree.tokens, strategy, bounds.max_consecutive_nt)
    key0 = _class_key(start, gold.count)
    rule = _Successors(strategy, key0[4])
    step, missing = rule.move, rule.missing
    alphabet = bounds.label_alphabet
    ids = {key0: 0}
    keys = [key0]
    reps = [start]
    sunk_of = [0]
    back = [[]]
    terminal_pen = []
    with _collector_paused():
        a = 0
        while a < len(keys):
            if len(keys) > _CLASS_LIMIT:
                raise ValueError(
                    f"class budget exhausted: the state graph of {serialize(tree)}"
                    f" has more than {_CLASS_LIMIT} classes (verify._CLASS_LIMIT)"
                )
            c = reps[a]
            key = keys[a]
            moves = legal_transitions(c, alphabet)  # none if c is terminal
            if not moves and is_terminal(c):
                terminal_pen.append((a, sum(missing[key[4]][1].values())))
            sunk = sunk_of[a]
            for t in moves:
                k2, w = step(key, c, t)
                b = ids.get(k2)
                if b is None:
                    b = ids[k2] = len(keys)
                    keys.append(k2)
                    reps.append(_construct(c, t))
                    sunk_of.append(sunk + w)
                    back.append([])
                back[b].append((a, w))
            a += 1
    return keys, reps, sunk_of, back, terminal_pen


@contextmanager
def _collector_paused():
    """Pause the cyclic collector and restore it as it was.  The census
    allocates millions of objects, none of them garbage, that it would
    otherwise walk again and again."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _batch_future(back, terminal_pen):
    """Minimum future cost (junk reduces plus missed gold) of every class at
    once: one backward shortest-path search over back, the reverse
    adjacency of _exhaustive_graph, seeded with the terminal classes'
    missed-gold counts.  Weights are 0 or 1 and the seeds small
    non-negative ints, so a bucket queue (Dial's algorithm) replaces a
    heap: bucket d holds classes found at cost d, a class is settled the
    first time it is taken out, and a 0-weight edge appends to the bucket
    being scanned.  Returns a list indexed by class id, None where no
    terminal class is reachable."""
    dist = [None] * len(back)
    buckets = []
    for k, p in terminal_pen:
        while len(buckets) <= p:
            buckets.append([])
        buckets[p].append(k)
    d = 0
    while d < len(buckets):
        bucket = buckets[d]
        for k in bucket:
            if dist[k] is not None:
                continue
            dist[k] = d
            for a, w in back[k]:
                if dist[a] is None:
                    if w:
                        if d + 1 == len(buckets):
                            buckets.append([])
                        buckets[d + 1].append(a)
                    else:
                        bucket.append(a)
        d += 1
    return dist


def _searches(tree, gold, configs, bounds):
    """brute_force_loss of each configuration in turn, through one cache.
    A search's error names its configuration alone, which cannot be
    searched again without the gold, so the gold tree is added to it."""
    cache = {}
    for c in configs:
        try:
            yield brute_force_loss(c, gold, bounds, cache)
        except ValueError as e:
            raise ValueError(f"{e}, in the gold tree {serialize(tree)}") from e


def sweep(
    corpus,
    strategy,
    bounds: SearchBounds | None = None,
    walk_policy: str = "random-walk",
    seed: int = 0,
    walks: int = 5,
) -> ConformanceReport:
    """Check formula loss against brute force on every visited configuration.

    Each policy gives a tree's configurations and their brute-force
    totals.  The exhaustive policy gives every class of the state graph,
    whose total is its representative's sunk junk plus the class's
    future (`_census`).  The walks give their configurations deepest
    first, and brute_force_loss searches each one, through one cache per
    tree, when the loop reaches it.  One loop compares every total with
    the formula's (`_compare`).

    The trees need not be derivable under bounds.max_consecutive_nt: the
    loss is exact under any cap, and a gold span the cap cannot build is
    lost on both sides.  Only the gold-prefix policy replays the gold
    derivation, so only it needs a derivable tree.

    A ValueError from a tree, such as a search that runs out of its
    class budget, is raised again with what was checked before it."""
    if walk_policy not in WALK_POLICIES:
        raise ValueError(f"unknown policy {walk_policy!r}")
    bounds = bounds or SearchBounds()
    report = ConformanceReport()
    t0 = time.perf_counter()
    try:
        for idx, tree in enumerate(corpus):
            gold = GoldReference.from_tree(tree, strategy)
            local = replace(bounds, label_alphabet=bounds.label_alphabet or default_alphabet(gold))
            if walk_policy == "exhaustive":
                # one pause per tree: the graph dies with the call, before the
                # collector resumes
                with _collector_paused():
                    _census(tree, gold, strategy, local, report)
                continue
            start = initial_config(tree.tokens, strategy, local.max_consecutive_nt)
            if walk_policy == "gold-prefix":
                configs = list(accumulate(gold_sequence(tree, strategy), apply, initial=start))
            else:
                configs = []
                for w in range(walks):
                    rng = random.Random(f"{seed}|walk|{idx}|{strategy}|{w}")
                    configs += _random_walk(start, local.label_alphabet, rng, local.max_steps)
            # deepest states first so shallower searches can reuse their answers
            configs.reverse()
            with _collector_paused():
                formulas = [loss(c, gold) for c in configs]
            _compare(report, configs, formulas, _searches(tree, gold, configs, local))
    except ValueError as e:
        report.elapsed = time.perf_counter() - t0
        raise ValueError(f"{e}\nbefore that: {report._details()}") from e
    report.elapsed = time.perf_counter() - t0
    return report


def _census(tree, gold, strategy, bounds, report):
    """The exhaustive policy on one tree: every class of its state graph,
    formula against sunk junk plus the class's future, added to report
    with the graph's size and the two phases' times."""
    t1 = time.perf_counter()
    _, configs, sunk_of, back, term = _exhaustive_graph(tree, gold, strategy, bounds)
    future = _batch_future(back, term)
    t2 = time.perf_counter()
    report.graph_s += t2 - t1
    report.classes += len(configs)
    report.edges += sum(map(len, back))
    if None in future:
        raise RuntimeError(
            "no terminal configuration reachable from"
            f" {fingerprint(configs[future.index(None)])};"
            " the legality guards are suspect"
        )
    formulas = [loss(c, gold) for c in configs]
    _compare(report, configs, formulas, map(operator.add, sunk_of, future))
    report.formula_s += time.perf_counter() - t2


def _compare(report, configs, formulas, brutes):
    """Add each configuration's formula total against its brute-force
    total to report, and count the configurations compared, also when a
    search raises.  Fewer formula or brute-force totals than
    configurations is a defect of the program: it raises
    `OracleViolation`, and the configurations left without a total are
    not counted."""
    done = 0
    try:
        for done, (c, lb, brute) in enumerate(zip(configs, formulas, brutes), 1):
            if lb.total != brute:
                report.mismatches.append((str(fingerprint(c)), lb.total, brute))
    finally:
        report.configs_checked += done
    if done < len(configs):
        raise OracleViolation(
            f"{len(configs) - done} of {len(configs)} configurations got no total to compare,"
            f" the first {fingerprint(configs[done])}"
        )
