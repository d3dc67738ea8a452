"""Shift-reduce transition systems for constituent parsing.

Two strategies are supported: "top-down" pushes a non-terminal before any
of its children exist; "in-order" pushes it after its first child has been
completed.  Configurations are immutable; apply() returns a new one.

Moves, constituents, stack items and configurations are named tuples, so
code elsewhere reads their fields by name.  The per-step code
(_construct, _move_flags, is_terminal) reads them by unpacking or index
instead, and builds them with tuple.__new__: a NamedTuple's own __new__
is a Python-level function that takes about twice as long per item.
"""

from __future__ import annotations

from typing import NamedTuple

TOP_DOWN = "top-down"
IN_ORDER = "in-order"
STRATEGIES = (TOP_DOWN, IN_ORDER)

# The default cap on consecutive NT transitions.  Top-down train rejects a
# gold tree whose derivation needs more; random_tree never draws one.
DEFAULT_NT_CAP = 8

# builds a named tuple from a tuple of its fields, without its __new__
_new = tuple.__new__


class Transition(NamedTuple):
    """A move: its kind and, for an NT, the label.  It hashes and compares
    as the tuple (kind, label)."""

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
    labels share one table.  A move's index in the table is its column:
    a model's weight rows have one entry per column, and legal_transitions
    lists its moves in column order."""
    key = tuple(label_alphabet)
    table = _MOVE_TABLES.get(key)
    if table is None:
        moves = [FINISH, REDUCE, SHIFT] + [nt(lab) for lab in key]
        table = _MOVE_TABLES[key] = tuple(sorted(moves, key=transition_order_key))
    return table


_LEGAL_COLUMNS = {}


def _legal_columns(label_alphabet) -> dict:
    """The columns of each list legal_transitions can return over
    label_alphabet, keyed by (len(moves), *moves[:3]).

    One list per mask of _move_flags's four verdicts: FINISH, REDUCE and
    SHIFT as far as legal, then every NT or none, as NT legality never
    depends on the label.  So the key fixes the list: its first three
    moves show which of FINISH, REDUCE and SHIFT it holds, unless they
    are all three, and then its length says whether the NTs follow.
    Built once per alphabet and cached."""
    key = tuple(label_alphabet)
    found = _LEGAL_COLUMNS.get(key)
    if found is None:
        table = move_table(key)
        found = _LEGAL_COLUMNS[key] = {}
        for mask in range(16):  # bit k set: the moves _KIND_ORDER ranks k are legal
            columns = tuple(k for k, t in enumerate(table) if mask >> _KIND_ORDER[t.kind] & 1)
            found[(len(columns), *(table[k] for k in columns[:3]))] = columns
    return found


class Constituent(NamedTuple):
    """Labeled span over the token sequence.  A constituent equals and
    hashes as its (label, l, r) tuple, so it is its own key for gold
    counts."""

    label: str
    l: int
    r: int


class Completed(NamedTuple):
    """Stack element for a finished item over tokens [l, r): a shifted word
    or a reduced constituent.  The subtree itself is not kept; the
    configuration's built constituents are the parse's only record, and
    trees.forest_from_built rebuilds the nodes from them."""

    symbol: str  # the word itself, or the constituent label
    l: int
    r: int
    is_word: bool = False


class OpenNT(NamedTuple):
    """Stack element for a pushed, not yet reduced non-terminal.  It
    equals and hashes as (label, index), so it looks up gold spans by
    label and left end directly."""

    label: str
    index: int  # buffer position at push time


class Configuration(NamedTuple):
    """A parser state.  The step code unpacks it in field order, so a new
    field must be added to every such unpack."""

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
    stack = config.stack
    # most configurations fail here, so the rest is read only after
    if len(stack) != 1 or type(stack[0]) is not Completed:
        return False
    strategy, tokens, _, i, finished, _, _, _, _ = config
    _, l, r, is_word = stack[0]
    n = len(tokens)
    if is_word or l != 0 or r != n or i != n:
        return False
    return finished if strategy == IN_ORDER else True


def _move_flags(config: Configuration):
    """Why each of (finish, reduce, shift, nt) is illegal, in _KIND_ORDER's
    order: None for a legal move, else the name of the failed side
    condition.  One pass over the stack; NT legality never depends on the
    label."""
    if is_terminal(config):
        return ("configuration is terminal",) * 4
    strategy, tokens, stack, i, finished, _, nt_run, _, cap = config
    if finished:
        return ("finish flag already set",) * 4
    top = stack[-1] if stack else None
    opens = 0
    for e in stack:
        if type(e) is OpenNT:
            opens += 1
    top_done = type(top) is Completed
    n = len(tokens)
    nt_ok = None
    if nt_run >= cap:
        nt_ok = "consecutive non-terminal cap reached"
    if strategy == TOP_DOWN:
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
        elif len(stack) != 1 or not top_done or top[3]:  # is_word
            fin = "stack is not a single completed constituent"
        elif top[1] != 0 or top[2] != n:  # l, r
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
    fixed tie-break order: the legal part of move_table(label_alphabet),
    as a new list the caller may change.  _legal_columns gives the list's
    columns."""
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
    strategy, tokens, stack, i, finished, built, nt_run, history, cap = config
    kind, label = t
    if kind == "nt":
        stack += (_new(OpenNT, (label, i)),)
        nt_run += 1
    else:
        nt_run = 0
        if kind == "shift":
            stack += (_new(Completed, (tokens[i], i, i + 1, True)),)
            i += 1
        elif kind == "finish":
            finished = True
        else:  # reduce
            cut, label, l, r = _reduce_target(stack, strategy)
            stack = stack[:cut] + (_new(Completed, (label, l, r, False)),)
            built += (_new(Constituent, (label, l, r)),)
    return _new(
        Configuration,
        (strategy, tokens, stack, i, finished, built, nt_run, history[-1:] + (t,), cap),
    )


def _reduce_target(stack, strategy):
    """What a reduce on stack builds: (cut, label, l, r).  The topmost open
    NT closes as a constituent labelled label over tokens [l, r), which
    replaces stack[cut:].  Legality is not checked: the stack must hold an
    open NT with its first child in place.  Items are read by index: an
    open is (label, index), a completed item (symbol, l, r, is_word)."""
    k = len(stack) - 1
    while type(stack[k]) is not OpenNT:
        k -= 1
    # the first child: below the open NT in-order, above it top-down
    if strategy == IN_ORDER:
        cut = k - 1
        l = stack[k - 1][1]
    else:
        cut = k
        l = stack[k + 1][1]
    # an in-order unary wrap has the open NT itself on top
    r = stack[-1][2] if k < len(stack) - 1 else stack[k - 1][2]
    return cut, stack[k][0], l, r


def fingerprint(config: Configuration):
    """Hashable identity of the parser state proper: stack, buffer
    position, finish flag and the current NT run.  Stack items hash and
    compare as tuples, so they stand for themselves.  Built constituents
    and history are excluded; past output never affects what is legal
    next."""
    return (config.strategy, config.stack, config.i, config.finished, config.nt_run)
