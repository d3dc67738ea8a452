"""Linear model over symbolic features, trained with averaged online
updates against the oracle, plus greedy decoding.

Static and dynamic training run one loop and differ only in the optimal
moves they ask for; an audit hook sees every update opportunity of either.

Stands in for the neural scorer in the experiments: small, deterministic,
and it exercises the oracle through exactly the same interface.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass, field
from functools import partial

from .oracle import GoldReference, OracleViolation, _move_losses, _move_totals, loss
from .oracle import optimal_transitions  # noqa: F401 -- a module attribute the benchmark's tracer wraps
from .transitions import (
    OpenNT,
    _construct,
    _legal_columns,
    apply,
    initial_config,
    is_terminal,
    legal_transitions,
    move_table,
    parse_transition,
)
from .trees import (
    ConstituentTree,
    Internal,
    _checked_labels,
    check_derivable_corpus,
    constituent_set,
    forest_from_built,
    gold_sequence,
    open_text,
)

MODEL_FORMAT = "oracle-lab-model v1"


def _step_cap(n, nt_cap):
    return 8 * n + 2 * nt_cap


def features(config) -> list:
    """Symbolic features of a configuration, each present once, in a fixed
    order.

    Top 3 stack items (symbol, open/closed, width so far), next 2 buffer
    words, last 2 transitions, open-NT count, and a few conjunctions.
    Stack items are read by index: an open is (label, index), a completed
    item (symbol, l, r, is_word).
    """
    _, tokens, stack, i, _, _, _, history, _ = config
    s = ["_", "_", "_"]
    opens = 0
    for k, item in enumerate(reversed(stack)):
        if type(item) is OpenNT:
            opens += 1
            if k < 3:
                s[k] = f"O|{item[0]}|{i - item[1]}"
        elif k < 3:
            s[k] = f"C|{item[0]}|{item[2] - item[1]}"
    s0, s1, s2 = s
    n = len(tokens)
    b0 = tokens[i] if i < n else "_"
    b1 = tokens[i + 1] if i + 1 < n else "_"
    h0, h1 = _history_names(history)
    return [
        "bias",
        "s0=" + s0,
        "s1=" + s1,
        "s2=" + s2,
        "b0=" + b0,
        "b1=" + b1,
        "h0=" + h0,
        "h1=" + h1,
        f"open={opens}",
        f"s0^b0={s0}^{b0}",
        f"s0^s1={s0}^{s1}",
        f"h0^s0={h0}^{s0}",
    ]


_HISTORY_NAMES = {}


def _history_names(history):
    """The names of the last move and the one before, "_" where there is
    none; cached per history, since Transition.__str__ is Python code."""
    names = _HISTORY_NAMES.get(history)
    if names is None:
        names = _HISTORY_NAMES[history] = (
            str(history[-1]) if history else "_",
            str(history[-2]) if len(history) > 1 else "_",
        )
    return names


@dataclass(frozen=True)
class ExplorationPolicy:
    p_explore: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.p_explore <= 1.0:
            raise ValueError(f"p_explore must be in [0, 1], got {self.p_explore}")


def _columns(label_alphabet):
    """Each move's column in a dense weight row: its index in the
    alphabet's move table.  For reading moves named outside the step
    loop (a model file, a gold sequence); a step works in columns."""
    return {t: k for k, t in enumerate(move_table(label_alphabet))}


def _first_best(columns, totals):
    """The first of columns whose total is highest.  columns ascend, as
    legal columns do, so a tie goes to the move first in the move table."""
    return max(columns, key=totals.__getitem__)


def _pick(columns, weights, feats, width):
    """The best-scoring column and every column's score, as (best,
    totals): column k scores totals[k].

    weights maps a feature to its dense row, width weights long, one per
    column of the move table.  The rows of the features present are
    summed column by column, in feature order, so each score is the float
    that adding the move's weights one feature at a time gives: a weight
    the feature does not have is a 0.0, and x + 0.0 == x.  (From CPython
    3.12, sum() compensates float rounding, so there a score may differ
    from plain adds in its last bits.)  columns are the legal moves'
    columns, in tie-break order, so the best is the first one with the
    highest score."""
    rows = list(filter(None, map(weights.get, feats)))  # a row is never empty
    totals = list(map(sum, zip(*rows))) if rows else [0.0] * width
    return _first_best(columns, totals), totals


@dataclass
class Model:
    """A trained greedy parser.  weights maps a feature to its dense row:
    one float per column, that is per move of move_table(label_alphabet),
    in that order, 0.0 where the feature has no weight for the move."""

    weights: dict
    label_alphabet: tuple
    strategy: str

    def save(self, path):
        table = move_table(self.label_alphabet)
        rows = sorted(
            ((f, str(t), w) for f, row in self.weights.items() for t, w in zip(table, row) if w),
            key=lambda row: (row[0], row[1]),
        )
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"{MODEL_FORMAT} {self.strategy}\n")
            fh.write("labels: " + " ".join(self.label_alphabet) + "\n")
            for f, t, w in rows:
                fh.write(f"{f}\t{t}\t{w!r}\n")

    @classmethod
    def load(cls, path):
        with open_text(path) as fh:
            header = fh.readline().rstrip("\n")
            if not header.startswith(MODEL_FORMAT + " "):
                raise ValueError(f"{path}: not a {MODEL_FORMAT} file")
            strategy = header[len(MODEL_FORMAT) + 1 :]
            labels_line = fh.readline().rstrip("\n")
            if not labels_line.startswith("labels: "):
                raise ValueError(f"{path}: missing labels header")
            labels = tuple(labels_line[len("labels: ") :].split())
            try:
                _checked_labels(labels)
            except ValueError as e:
                raise ValueError(f"{path}: {e}") from None
            columns = _columns(labels)
            weights = {}
            seen = set()
            for lineno, line in enumerate(fh, start=3):
                line = line.rstrip("\n")
                if not line:
                    continue
                try:
                    feat, tname, wtext = line.split("\t")
                    k, w = columns[parse_transition(tname)], float(wtext)
                    if not math.isfinite(w) or (feat, k) in seen:
                        raise ValueError("non-finite or repeated weight")
                except (KeyError, ValueError) as exc:
                    raise ValueError(f"{path}:{lineno}: bad weight row") from exc
                seen.add((feat, k))
                row = weights.get(feat)
                if row is None:
                    row = weights[feat] = [0.0] * len(columns)
                row[k] = w
        return cls(weights=weights, label_alphabet=labels, strategy=strategy)


@dataclass
class _Learner:
    """Perceptron state during training; averaged() gives the final
    weights.  w and u map a feature to a dense row with one value per
    column, width long (a column is a move's index in the move table, as
    in Model): w holds the weights, u the same updates each scaled by the
    tick it was made at."""

    width: int
    w: dict = field(default_factory=dict)
    u: dict = field(default_factory=dict)
    t: int = 0

    def tick(self):
        self.t += 1

    def update(self, feats, toward, away):
        """Move each feature's weight for column toward up by one and for
        column away down by one."""
        t = self.t
        for f in feats:
            w = self.w.get(f)
            if w is None:
                w = self.w[f] = [0.0] * self.width
                u = self.u[f] = [0.0] * self.width
            else:
                u = self.u[f]
            w[toward] += 1
            w[away] -= 1
            u[toward] += t
            u[away] -= t

    def averaged(self):
        """Each weight less its tick-weighted updates over the tick count,
        wv - uv / t; rows left all zero are dropped.  Most cells were
        never updated, and where uv == 0 that is wv bit for bit (uv is
        then +0.0, and wv - 0.0 == wv even for wv == -0.0), so only the
        cells with a nonzero uv are computed."""
        t = self.t or 1  # before the first tick every u is 0
        out = {}
        for f, row in self.w.items():
            avg = row.copy()
            for k, uv in enumerate(self.u[f]):
                if uv:
                    avg[k] -= uv / t
            if any(avg):
                out[f] = avg
        return out


def train(
    corpus,
    strategy,
    policy: ExplorationPolicy,
    epochs: int = 10,
    seed: int = 0,
    audit=None,
) -> Model:
    """Train a greedy parser on gold trees.

    Static training (p_explore == 0) takes the next gold move as the only
    optimal one and follows the whole gold sequence.  Dynamic training asks
    the oracle and follows the model's own mistake with probability
    p_explore.  audit, if given, is called with (sentence, step, config,
    target, loss_delta) at every update opportunity, in either mode.
    """
    if not corpus:
        raise ValueError("empty training corpus")
    if epochs < 1:
        raise ValueError(f"epochs must be at least 1, got {epochs}")
    check_derivable_corpus(corpus, strategy)
    alphabet = tuple(sorted({c.label for t in corpus for c in constituent_set(t)}))
    columns = _columns(alphabet)
    learner = _Learner(len(columns))
    coin = random.Random(f"{policy.seed}|explore")

    def explore():
        return coin.random() < policy.p_explore

    golds = [GoldReference.from_tree(t, strategy) for t in corpus]
    static = policy.p_explore == 0
    seqs = [[columns[m] for m in gold_sequence(t, strategy)] if static else None for t in corpus]
    for epoch in range(epochs):
        order = list(range(len(corpus)))
        random.Random(f"{seed}|shuffle|{epoch}").shuffle(order)
        for s in order:
            note = None if audit is None else partial(audit, s)
            _train_sentence(
                corpus[s].tokens, golds[s], seqs[s], alphabet, learner, explore, note
            )
    return Model(
        weights=learner.averaged(),
        label_alphabet=alphabet,
        strategy=strategy,
    )


def _train_sentence(tokens, gold, seq, alphabet, learner, explore, audit):
    """One training pass over a sentence.

    The pass works in columns (a move's index in move_table(alphabet)):
    each step looks its legal moves' columns up in _legal_columns,
    scores, targets and updates by column, and looks a move up only to
    ask the oracle or to take it.

    With seq, the columns of its gold sequence, the target at step k is
    seq[k] and the pass takes every move of seq; without it the oracle
    judges the moves and the pass stops at the step cap.  Each step
    updates toward the target when the model's guess is not optimal,
    calls audit(step, config, target, loss_delta) if given (target as a
    move), and takes the target, or the non-optimal guess when explore()
    says so.

    Without seq the pass carries its path's loss total: the initial
    configuration's, read once, and then the successor total of each move
    taken, which the oracle gives exactly as `loss` would.  A target keeps
    the total, and an explored guess brings its own.  Each step asks
    `_move_totals` for the guess's total first.  If that keeps the path's
    total, the guess is optimal; as the first best-scoring legal move it
    is also the first best-scoring optimal move, and so the target, with
    no update and no coin toss.  Only otherwise does the step ask for
    every legal move's total, and the target is the first best-scoring
    move that keeps the path's total.  The least of those totals must be
    the path's, and a pass that ends at a terminal configuration must
    carry its Hamming loss, counted afresh from what it built; else the
    pass raises `OracleViolation`, naming the sentence and the moves
    taken.

    The oracle calls of one pass read and extend the gold's top-down
    trie, as the calls of one `losses` batch do: each step drops what
    the path has shifted past, and the pass drops the rest at its end
    (`GoldReference`'s rule).  With audit, each step's `loss` calls are
    public and leave the gold with no trie, so the next step starts from
    none."""
    c = initial_config(tokens, gold.strategy)
    if seq is None:
        cap = _step_cap(c.n, c.max_consecutive_nt)
        gold.forget_before(c.i)  # the path starts
        total = _move_losses(c, gold, ())[0].total  # the path's loss so far
    else:
        cap = len(seq)
    table = move_table(alphabet)
    legal_columns = _legal_columns(alphabet)
    width = len(table)
    path = []  # the moves taken
    for step in range(cap):
        moves = legal_transitions(c, alphabet)
        if not moves:  # only a terminal configuration has none
            break
        columns = legal_columns[(len(moves), *moves[:3])]
        feats = features(c)
        guess, scores = _pick(columns, learner.w, feats, width)
        if seq is not None:
            target = seq[step]
        else:
            guessed = _move_totals(c, gold, (table[guess],))[0]
            if guessed == total:
                target = guess
            else:
                after = _move_totals(c, gold, moves)
                if min(after) != total:
                    what = f"the least move total is {min(after)}, not {total}"
                    raise _violation(tokens, path, what)
                # the optimal moves' columns, in the tie-break order
                optimal = [k for k, a in zip(columns, after) if a == total]
                target = _first_best(optimal, scores)
        learner.tick()
        if guess != target:
            learner.update(feats, target, guess)
        if audit is not None:
            delta = loss(apply(c, table[target]), gold).total - loss(c, gold).total
            audit(step, c, table[target], delta)
        # both moves are legal in c (both are legal columns), so
        # _construct's precondition holds
        if guess != target and explore():
            move = table[guess]
            if seq is None:
                total = guessed
        else:
            move = table[target]
        c = _construct(c, move)
        path.append(move)
        gold.forget_before(c.i)
    gold.forget()
    if seq is None and is_terminal(c):
        built = Counter(map(tuple, c.built))  # keyed as gold.count is
        hamming = len(c.built) + gold.size - 2 * (built & gold.count).total()
        if hamming != total:
            what = f"the terminal total is {total}, not its Hamming loss {hamming}"
            raise _violation(tokens, path, what)


def _violation(tokens, path, what):
    """The error for an oracle violation on a training path."""
    return OracleViolation(
        f"oracle violation at step {len(path)} of the sentence {' '.join(tokens)!r},"
        f" after the moves {' '.join(map(str, path))!r}: {what}"
    )


def parse(model: Model, tokens) -> ConstituentTree:
    tree, _ = parse_with_info(model, tokens)
    return tree


def parse_with_info(model: Model, tokens):
    """Greedy decode.  Returns (tree, info); if the step cap is hit before
    a terminal configuration, remaining material is wrapped under a root
    label and info["fallback"] is set."""
    if not tokens:
        raise ValueError("cannot parse an empty sentence")
    c = initial_config(tuple(tokens), model.strategy)
    cap = _step_cap(c.n, c.max_consecutive_nt)
    steps = 0
    alphabet = model.label_alphabet
    table, legal_columns = move_table(alphabet), _legal_columns(alphabet)
    while steps < cap:
        moves = legal_transitions(c, alphabet)
        if not moves:  # only a terminal configuration has none
            break
        columns = legal_columns[(len(moves), *moves[:3])]
        best, _ = _pick(columns, model.weights, features(c), len(table))
        c = _construct(c, table[best])
        steps += 1
    info = {"steps": steps, "fallback": False, "wrap_label": None}
    forest = forest_from_built(c.tokens, c.built)
    if is_terminal(c):
        return ConstituentTree(c.tokens, forest[0]), info
    wrap = model.label_alphabet[0]
    info["fallback"] = True
    info["wrap_label"] = wrap
    return ConstituentTree(c.tokens, Internal(wrap, tuple(forest))), info
