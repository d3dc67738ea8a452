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
    TOP_DOWN,
    apply,
    initial_config,
    is_terminal,
    legal_transitions,
    parse_transition,
    transition_order_key,
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
    parts = {}
    stack = config.stack
    for k in range(3):
        if k < len(stack):
            item = stack[-1 - k]
            if isinstance(item, Completed):
                parts[f"s{k}"] = f"C|{item.symbol}|{item.r - item.l}"
            else:
                parts[f"s{k}"] = f"O|{item.label}|{config.i - item.index}"
        else:
            parts[f"s{k}"] = "_"
    for k in range(2):
        j = config.i + k
        parts[f"b{k}"] = config.tokens[j] if j < config.n else "_"
    hist = config.history
    for k in range(2):
        parts[f"h{k}"] = str(hist[-1 - k]) if k < len(hist) else "_"
    feats = ["bias"]
    feats += [f"{name}={value}" for name, value in parts.items()]
    feats.append(f"open={len(config.open_nts())}")
    feats.append(f"s0^b0={parts['s0']}^{parts['b0']}")
    feats.append(f"s0^s1={parts['s0']}^{parts['s1']}")
    feats.append(f"h0^s0={parts['h0']}^{parts['s0']}")
    return feats


@dataclass(frozen=True)
class ExplorationPolicy:
    p_explore: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.p_explore <= 1.0:
            raise ValueError(f"p_explore must be in [0, 1], got {self.p_explore}")


def _pick(moves, weights, feats):
    """The best-scoring move and every move's score.  weights maps a
    feature to its row, {transition: weight}; each feature in turn adds its
    row into the moves it covers, so a move's score sums its weights in
    feature order."""
    scores = dict.fromkeys(moves, 0.0)
    for f in feats:
        row = weights.get(f)
        if row:
            for t, w in row.items():
                if t in scores:
                    scores[t] += w
    best = min(moves, key=lambda t: (-scores[t], transition_order_key(t)))
    return best, scores


@dataclass
class Model:
    weights: dict  # feature -> {transition: weight}
    label_alphabet: tuple
    strategy: str

    def predict(self, config):
        moves = legal_transitions(config, self.label_alphabet)
        best, _ = _pick(moves, self.weights, features(config))
        return best

    def save(self, path):
        rows = sorted(
            ((f, str(t), w) for f, row in self.weights.items() for t, w in row.items() if w),
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
            weights = {}
            for lineno, line in enumerate(fh, start=3):
                line = line.rstrip("\n")
                if not line:
                    continue
                try:
                    feat, tname, wtext = line.split("\t")
                    t, w = parse_transition(tname), float(wtext)
                    row = weights.setdefault(feat, {})
                    if not math.isfinite(w) or t in row:
                        raise ValueError("non-finite or repeated weight")
                    row[t] = w
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: bad weight row") from exc
        return cls(weights=weights, label_alphabet=labels, strategy=strategy)


@dataclass
class _Learner:
    """Perceptron state during training; averaged() gives the final
    weights.  w and u map a feature to its row, {transition: value}."""

    w: dict = field(default_factory=dict)
    u: dict = field(default_factory=dict)
    t: int = 0

    def tick(self):
        self.t += 1

    def update(self, feats, toward, away):
        for f in feats:
            w = self.w.setdefault(f, {})
            u = self.u.setdefault(f, {})
            for t, sign in ((toward, 1), (away, -1)):
                w[t] = w.get(t, 0.0) + sign
                u[t] = u.get(t, 0.0) + self.t * sign

    def averaged(self):
        if not self.t:
            return {f: dict(row) for f, row in self.w.items()}
        out = {}
        for f, row in self.w.items():
            urow = self.u[f]
            avg = {}
            for t, wv in row.items():
                av = wv - urow[t] / self.t
                if av:
                    avg[t] = av
            if avg:
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
    nt_cap = DEFAULT_NT_CAP
    if strategy == TOP_DOWN:
        for idx, tree in enumerate(corpus):
            try:
                check_derivable(tree, nt_cap)
            except TreeError as e:
                raise TreeError(f"tree {idx}: {e}") from None
    alphabet = tuple(sorted({c.label for t in corpus for c in constituent_set(t)}))
    learner = _Learner()
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
        guess, _ = _pick(moves, learner.w, feats)
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
        guess, scores = _pick(moves, learner.w, feats)
        optimal = optimal_transitions(c, gold, alphabet)
        target = min(optimal, key=lambda t: (-scores[t], transition_order_key(t)))
        learner.tick()
        if guess not in optimal:
            learner.update(feats, target, guess)
        if audit is not None:
            delta = loss(apply(c, target), gold).total - loss(c, gold).total
            audit(s_idx, step, c, target, delta)
        if guess not in optimal and coin.random() < policy.p_explore:
            c = apply(c, guess)
        else:
            c = apply(c, target)
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
        c = apply(c, model.predict(c))
        steps += 1
    info = {"steps": steps, "fallback": False, "wrap_label": None}
    forest = forest_from_built(c.tokens, c.built)
    if is_terminal(c):
        return ConstituentTree(c.tokens, forest[0]), info
    wrap = model.label_alphabet[0]
    info["fallback"] = True
    info["wrap_label"] = wrap
    return ConstituentTree(c.tokens, Internal(wrap, tuple(forest))), info
