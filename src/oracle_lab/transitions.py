"""Shift-reduce transition systems for constituent parsing.

Two strategies are supported: "top-down" pushes a non-terminal before any
of its children exist; "in-order" pushes it after its first child has been
completed.  Configurations are immutable; apply() returns a new one.
"""

from __future__ import annotations

from typing import NamedTuple

TOP_DOWN = "top-down"
IN_ORDER = "in-order"
STRATEGIES = (TOP_DOWN, IN_ORDER)

# The default cap on consecutive NT transitions.  Top-down train rejects a
# gold tree whose derivation needs more; random_tree never draws one.
DEFAULT_NT_CAP = 8


class Transition(NamedTuple):
    """A move: its kind and, for an NT, the label.  A named tuple, so that
    hashing and equality, which model scoring does millions of times per
    training run, run in C."""

    kind: str  # "shift" | "nt" | "reduce" | "finish"
    label: str | None = None

    def __str__(self):
        if self.kind == "shift":
            return "SH"
        if self.kind == "reduce":
            return "RE"
        if self.kind == "finish":
            return "FI"
        return f"NT_{self.label}"

    __repr__ = __str__


SHIFT = Transition("shift")
REDUCE = Transition("reduce")
FINISH = Transition("finish")


_NT_CACHE = {}


def nt(label: str) -> Transition:
    t = _NT_CACHE.get(label)
    if t is None:
        t = _NT_CACHE[label] = Transition("nt", label)
    return t


def parse_transition(text: str) -> Transition:
    """Inverse of str(transition): SH, RE, FI, or NT_<label>."""
    if text == "SH":
        return SHIFT
    if text == "RE":
        return REDUCE
    if text == "FI":
        return FINISH
    if text.startswith("NT_") and len(text) > 3:
        return nt(text[3:])
    raise ValueError(f"unrecognized transition {text!r}")


_KIND_ORDER = {"finish": 0, "reduce": 1, "shift": 2, "nt": 3}


def transition_order_key(t: Transition):
    """Fixed tie-break order: Finish < Reduce < Shift < NT (labels lexicographic)."""
    return (_KIND_ORDER[t.kind], t.label or "")


_MOVE_TABLES = {}


def move_table(label_alphabet) -> tuple:
    """Every move over label_alphabet in the fixed tie-break order:
    FINISH, REDUCE, SHIFT, then NT_<label> for each label in sorted order.
    Built once per alphabet and cached; a list and a tuple of the same
    labels share one table.  legal_transitions lists its moves in this
    order, and a model's weight columns are this table."""
    key = tuple(label_alphabet)
    table = _MOVE_TABLES.get(key)
    if table is None:
        moves = [FINISH, REDUCE, SHIFT] + [nt(lab) for lab in key]
        table = _MOVE_TABLES[key] = tuple(sorted(moves, key=transition_order_key))
    return table


class Constituent(NamedTuple):
    """Labeled span over the token sequence.  Constituents and stack items
    are named tuples: every reduce builds one of each, and a frozen
    dataclass takes two to three times as long to build.  A constituent
    equals and hashes as its key, so it looks up gold counts directly."""

    label: str
    l: int
    r: int

    @property
    def key(self):
        return (self.label, self.l, self.r)

    def __str__(self):
        return f"({self.label},{self.l},{self.r})"


class Completed(NamedTuple):
    """Stack element for a finished item over tokens [l, r): a shifted word
    or a reduced constituent.  The subtree itself is not kept; the
    configuration's built constituents are the parse's only record, and
    trees.forest_from_built rebuilds the nodes from them."""

    symbol: str  # the word itself, or the constituent label
    l: int
    r: int
    is_word: bool = False

    def summary(self):
        return f"{self.symbol}[{self.l},{self.r}]"


class OpenNT(NamedTuple):
    """Stack element for a pushed, not yet reduced non-terminal.  It
    equals and hashes as (label, index), so it looks up gold spans by
    label and left end directly."""

    label: str
    index: int  # buffer position at push time

    def summary(self):
        return f"{self.label}(open,{self.index})"


class Configuration(NamedTuple):
    """A parser state.  A named tuple: the brute-force searches build one per
    state class, and a frozen dataclass takes five times as long to build."""

    strategy: str
    tokens: tuple
    stack: tuple = ()
    i: int = 0
    finished: bool = False
    built: tuple = ()  # Constituents in build order
    nt_run: int = 0  # consecutive NT transitions ending here
    history: tuple = ()  # last two transitions
    max_consecutive_nt: int = DEFAULT_NT_CAP

    @property
    def n(self):
        return len(self.tokens)

    def stack_summary(self):
        return " ".join(e.summary() for e in self.stack)


def initial_config(tokens, strategy, max_consecutive_nt=DEFAULT_NT_CAP):
    if not tokens:
        raise ValueError("empty sentence")
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    return Configuration(
        strategy=strategy,
        tokens=tuple(tokens),
        max_consecutive_nt=max_consecutive_nt,
    )


def is_terminal(config: Configuration) -> bool:
    """One completed constituent covering the sentence, empty buffer, and
    (in-order only) the finish flag set.  A bare shifted word does not count
    as a finished parse."""
    if len(config.stack) != 1 or config.i != config.n:
        return False
    top = config.stack[0]
    if not isinstance(top, Completed) or top.is_word:
        return False
    if top.l != 0 or top.r != config.n:
        return False
    if config.strategy == IN_ORDER:
        return config.finished
    return True


def _move_flags(config: Configuration):
    """Why each of (finish, reduce, shift, nt) is illegal, in _KIND_ORDER's
    order: None for a legal move, else the name of the failed side
    condition.  One pass over the stack; NT legality never depends on the
    label."""
    if is_terminal(config):
        return ("configuration is terminal",) * 4
    if config.finished:
        return ("finish flag already set",) * 4
    stack = config.stack
    top = stack[-1] if stack else None
    opens = 0
    for e in stack:
        if type(e) is OpenNT:
            opens += 1
    top_done = type(top) is Completed
    i = config.i
    n = config.n
    nt_ok = None
    if config.nt_run >= config.max_consecutive_nt:
        nt_ok = "consecutive non-terminal cap reached"
    if config.strategy == TOP_DOWN:
        if i >= n:
            shift = "buffer exhausted"
            nt_ok = "non-terminal opened on an empty buffer can never close"
        elif opens:
            shift = None
        else:
            shift = "no open non-terminal to attach the word to"
        if not opens:
            red = "no open non-terminal"
        elif not top_done:
            red = "nothing above the open non-terminal to reduce"
        elif opens == 1 and i < n:
            red = "closing the last open non-terminal would strand buffer words"
        else:
            red = None
        fin = "finish is not part of the top-down system"
    else:
        if i >= n:
            shift = "buffer exhausted"
        elif stack and not opens:
            shift = "a second unattachable item would strand the parse"
        else:
            shift = None
        if not top_done:
            nt_ok = "no completed item below to serve as first child"
        red = None if opens else "no open non-terminal"
        if i < n:
            fin = "buffer not empty"
        elif len(stack) != 1 or not top_done or top.is_word:
            fin = "stack is not a single completed constituent"
        elif top.l != 0 or top.r != n:
            fin = "constituent does not span the sentence"
        else:
            fin = None
    return fin, red, shift, nt_ok


def _illegal_reason(config: Configuration, t: Transition):
    """None if t is legal, else the name of the failed side condition."""
    k = _KIND_ORDER.get(t.kind)
    if k is None:
        return f"unknown transition kind {t.kind!r}"
    return _move_flags(config)[k]


def legal_transitions(config: Configuration, label_alphabet):
    """All legal transitions, NT instantiated over label_alphabet, in the
    fixed tie-break order: the legal part of move_table(label_alphabet)."""
    fin, red, shift, nt_ok = _move_flags(config)
    out = []
    if fin is None:
        out.append(FINISH)
    if red is None:
        out.append(REDUCE)
    if shift is None:
        out.append(SHIFT)
    if nt_ok is None:
        out.extend(move_table(label_alphabet)[3:])  # the NTs, after FI, RE, SH
    return out


def apply(config: Configuration, t: Transition) -> Configuration:
    k = _KIND_ORDER.get(t.kind)
    if k is None or _move_flags(config)[k] is not None:
        raise ValueError(f"illegal transition {t}: {_illegal_reason(config, t)}")
    return _construct(config, t)


def _construct(config: Configuration, t: Transition) -> Configuration:
    """apply() minus the legality check, for callers that have already
    filtered through legal_transitions."""
    kind = t.kind
    stack, i, finished, built = config.stack, config.i, config.finished, config.built
    nt_run = 0
    if kind == "shift":
        stack += (Completed(config.tokens[i], i, i + 1, is_word=True),)
        i += 1
    elif kind == "nt":
        stack += (OpenNT(t.label, i),)
        nt_run = config.nt_run + 1
    elif kind == "finish":
        finished = True
    else:  # reduce
        cut, label, l, r = _reduce_target(stack, config.strategy)
        stack = stack[:cut] + (Completed(label, l, r),)
        built += (Constituent(label, l, r),)
    return Configuration(
        config.strategy,
        config.tokens,
        stack,
        i,
        finished,
        built,
        nt_run,
        (config.history + (t,))[-2:],
        config.max_consecutive_nt,
    )


def _reduce_target(stack, strategy):
    """What a reduce on stack builds: (cut, label, l, r).  The topmost open
    NT closes as a constituent labelled label over tokens [l, r), which
    replaces stack[cut:].  Legality is not checked: the stack must hold an
    open NT with its first child in place."""
    k = len(stack) - 1
    while type(stack[k]) is not OpenNT:
        k -= 1
    # the first child: below the open NT in-order, above it top-down
    if strategy == IN_ORDER:
        cut = k - 1
        l = stack[k - 1].l
    else:
        cut = k
        l = stack[k + 1].l
    # an in-order unary wrap has the open NT itself on top
    r = stack[-1].r if k < len(stack) - 1 else stack[k - 1].r
    return cut, stack[k].label, l, r


def fingerprint(config: Configuration):
    """Hashable identity of the parser state proper: stack shape, buffer
    position, finish flag and the current NT run.  Built constituents and
    history are excluded; past output never affects what is legal next."""
    items = tuple(
        ("w" if e.is_word else "c", e.symbol, e.l, e.r)
        if isinstance(e, Completed)
        else ("o", e.label, e.index)
        for e in config.stack
    )
    return (config.strategy, items, config.i, config.finished, config.nt_run)
