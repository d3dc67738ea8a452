"""Linear model over symbolic features, trained with averaged online
updates against the oracle, plus greedy decoding.

Stands in for the neural scorer in the experiments: small, deterministic,
and it exercises the oracle through exactly the same interface.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from .oracle import GoldReference, loss, optimal_transitions
from .transitions import (
    Completed,
    DEFAULT_NT_CAP,
    OpenNT,
    TOP_DOWN,
    _construct,
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
    TreeError,
    check_derivable,
    constituent_set,
    forest_from_built,
    gold_sequence,
)

MODEL_FORMAT = "oracle-lab-model v1"


def _step_cap(n, nt_cap):
    return 8 * n + 2 * nt_cap


def features(config) -> list:
    """Symbolic features of a configuration, each present once, in a fixed
    order.

    Top 3 stack items (symbol, open/closed, width so far), next 2 buffer
    words, last 2 transitions, open-NT count, and a few conjunctions.
    """
    stack, i, tokens = config.stack, config.i, config.tokens
    s = []
    for k in (1, 2, 3):
        if k > len(stack):
            s.append("_")
            continue
        item = stack[-k]
        if type(item) is Completed:
            s.append(f"C|{item.symbol}|{item.r - item.l}")
        else:
            s.append(f"O|{item.label}|{i - item.index}")
    s0, s1, s2 = s
    n = len(tokens)
    b0 = tokens[i] if i < n else "_"
    b1 = tokens[i + 1] if i + 1 < n else "_"
    hist = config.history
    h0 = str(hist[-1]) if hist else "_"
    h1 = str(hist[-2]) if len(hist) > 1 else "_"
    opens = 0
    for e in stack:
        if type(e) is OpenNT:
            opens += 1
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


@dataclass(frozen=True)
class ExplorationPolicy:
    p_explore: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.p_explore <= 1.0:
            raise ValueError(f"p_explore must be in [0, 1], got {self.p_explore}")


def _columns(label_alphabet):
    """Each move's column in a dense weight row: its index in the
    alphabet's move table."""
    return {t: k for k, t in enumerate(move_table(label_alphabet))}


def _pick(moves, weights, feats, columns):
    """The best-scoring move and every move's score, {move: score}.

    weights maps a feature to its dense row, one weight per column, and
    columns maps a move to its column.  The rows of the features present
    are summed column by column, in feature order, so each score is the
    float that adding the move's weights one feature at a time gives: a
    weight the feature does not have is a 0.0, and x + 0.0 == x.  (From
    CPython 3.12, sum() compensates float rounding, so there a score may
    differ from plain adds in its last bits.)  moves come from
    legal_transitions, already in tie-break order, so the best move is the
    first one with the highest score."""
    rows = [row for row in map(weights.get, feats) if row is not None]
    if rows:
        totals = list(map(sum, zip(*rows)))
        scores = {t: totals[columns[t]] for t in moves}
    else:
        scores = dict.fromkeys(moves, 0.0)
    return max(moves, key=scores.__getitem__), scores


@dataclass
class Model:
    """A trained greedy parser.  weights maps a feature to its dense row:
    one float per move of move_table(label_alphabet), in that order, 0.0
    where the feature has no weight for the move."""

    weights: dict
    label_alphabet: tuple
    strategy: str
    columns: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.columns = _columns(self.label_alphabet)

    def predict(self, config):
        moves = legal_transitions(config, self.label_alphabet)
        best, _ = _pick(moves, self.weights, features(config), self.columns)
        return best

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
        with open(path, encoding="utf-8") as fh:
            header = fh.readline().rstrip("\n")
            if not header.startswith(MODEL_FORMAT + " "):
                raise ValueError(f"{path}: not a {MODEL_FORMAT} file")
            strategy = header[len(MODEL_FORMAT) + 1 :]
            labels_line = fh.readline().rstrip("\n")
            if not labels_line.startswith("labels: "):
                raise ValueError(f"{path}: missing labels header")
            labels = tuple(labels_line[len("labels: ") :].split())
            if not labels:
                raise ValueError(f"{path}: empty label set")
            if len(set(labels)) < len(labels):
                raise ValueError(f"{path}: repeated label in labels header")
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
    column (columns maps a move to its column, as in Model): w holds the
    weights, u the same updates each scaled by the tick it was made at."""

    columns: dict
    w: dict = field(default_factory=dict)
    u: dict = field(default_factory=dict)
    t: int = 0

    def tick(self):
        self.t += 1

    def update(self, feats, toward, away):
        i, j = self.columns[toward], self.columns[away]
        t = self.t
        for f in feats:
            w = self.w.get(f)
            if w is None:
                w = self.w[f] = [0.0] * len(self.columns)
                u = self.u[f] = [0.0] * len(self.columns)
            else:
                u = self.u[f]
            w[i] += 1
            w[j] -= 1
            u[i] += t
            u[j] -= t

    def averaged(self):
        """Each weight less its tick-weighted updates over the tick count;
        rows left all zero are dropped."""
        t = self.t or 1  # before the first tick every u is 0
        out = {}
        for f, row in self.w.items():
            avg = [wv - uv / t for wv, uv in zip(row, self.u[f])]
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

    With p_explore == 0 training is static: it follows the gold sequence.
    Otherwise it is dynamic: it consults the oracle at every visited
    configuration, updates toward its best-scoring optimal transition, and
    explores the model's own mistake with probability p_explore.  audit,
    if given, is called with (sentence, step, config, target, loss_delta)
    at every dynamic update opportunity.
    """
    if not corpus:
        raise ValueError("empty training corpus")
    if epochs < 1:
        raise ValueError(f"epochs must be at least 1, got {epochs}")
    nt_cap = DEFAULT_NT_CAP
    if strategy == TOP_DOWN:
        for idx, tree in enumerate(corpus):
            try:
                check_derivable(tree, nt_cap)
            except TreeError as e:
                raise TreeError(f"tree {idx}: {e}") from None
    alphabet = tuple(sorted({c.label for t in corpus for c in constituent_set(t)}))
    learner = _Learner(_columns(alphabet))
    coin = random.Random(f"{policy.seed}|explore")
    golds = [GoldReference.from_tree(t, strategy) for t in corpus]
    for epoch in range(epochs):
        order = list(range(len(corpus)))
        random.Random(f"{seed}|shuffle|{epoch}").shuffle(order)
        for s_idx in order:
            tree = corpus[s_idx]
            if policy.p_explore == 0:
                _static_pass(tree, strategy, alphabet, learner, nt_cap)
            else:
                _dynamic_pass(
                    tree,
                    golds[s_idx],
                    strategy,
                    alphabet,
                    learner,
                    policy,
                    coin,
                    nt_cap,
                    s_idx,
                    audit,
                )
    return Model(
        weights=learner.averaged(),
        label_alphabet=alphabet,
        strategy=strategy,
    )


def _static_pass(tree, strategy, alphabet, learner, nt_cap):
    c = initial_config(tree.tokens, strategy, nt_cap)
    for g_t in gold_sequence(tree, strategy):
        moves = legal_transitions(c, alphabet)
        feats = features(c)
        guess, _ = _pick(moves, learner.w, feats, learner.columns)
        learner.tick()
        if guess != g_t:
            learner.update(feats, g_t, guess)
        c = apply(c, g_t)


def _dynamic_pass(
    tree, gold, strategy, alphabet, learner, policy, coin, nt_cap, s_idx, audit
):
    c = initial_config(tree.tokens, strategy, nt_cap)
    cap = _step_cap(c.n, nt_cap)
    step = 0
    while not is_terminal(c) and step < cap:
        moves = legal_transitions(c, alphabet)
        feats = features(c)
        guess, scores = _pick(moves, learner.w, feats, learner.columns)
        optimal = optimal_transitions(c, gold, alphabet)
        # the first best-scoring optimal move: optimal keeps the tie-break order
        target = max(optimal, key=scores.__getitem__)
        learner.tick()
        if guess not in optimal:
            learner.update(feats, target, guess)
        if audit is not None:
            delta = loss(apply(c, target), gold).total - loss(c, gold).total
            audit(s_idx, step, c, target, delta)
        # both moves came from legal_transitions(c), so _construct's
        # precondition holds
        if guess not in optimal and coin.random() < policy.p_explore:
            c = _construct(c, guess)
        else:
            c = _construct(c, target)
        step += 1


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
    while not is_terminal(c) and steps < cap:
        c = _construct(c, model.predict(c))  # predict picks a legal move
        steps += 1
    info = {"steps": steps, "fallback": False, "wrap_label": None}
    forest = forest_from_built(c.tokens, c.built)
    if is_terminal(c):
        return ConstituentTree(c.tokens, forest[0]), info
    wrap = model.label_alphabet[0]
    info["fallback"] = True
    info["wrap_label"] = wrap
    return ConstituentTree(c.tokens, Internal(wrap, tuple(forest))), info
