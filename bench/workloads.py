"""The benchmark's three workloads: inputs made from a seed, one timed pass,
and the correctness checks.

Every workload has a fixed core, whose outputs are checked against the
values recorded in expected.json, and a seeded part made from --seed, whose
outputs are checked against an independent computation.  The end-to-end
figures cover the core, whose cost no seed changes; the seeded part's rate
is a named metric.  All calls into the program go through module
attributes (``oracle.loss``, not a local alias), so a traced run sees them.

Each workload's end-to-end figures, by the generic names BENCHMARK.json
lists: ops_per_s, td_ops_per_s, io_ops_per_s, p50_us and p99_us.  What an
op is differs per workload; README.md has the table.
"""

from __future__ import annotations

import gc
import hashlib
import random
import statistics
from dataclasses import dataclass, field

from oracle_lab import evaluation, model, oracle, transitions, trees, verify
from speed import Speed
from tracer import percentile_us

TD, IO = transitions.TOP_DOWN, transitions.IN_ORDER
STRATEGIES = (TD, IO)
SHORT = {TD: "td", IO: "io"}

# Inputs no seed changes.  The recorded checks in expected.json depend on
# them; changing one means recording those values again.
CENSUS_LABELS = ("X", "Y")
WALK_LABELS = ("X", "Y", "Z")
WALK_ALPHABET = ("D", "X", "Y", "Z")  # the walk labels plus one distractor
POOL_SEED = "oracle-long-core"
TRAIN_LABELS = tuple(f"L{k:02d}" for k in range(12))
TRAIN_SEED = 101
HELD_SEED = 202
SHUFFLE_SEED = 5
EXPLORE_SEED = 3
EXPLORE_P = 0.1

SIZES = {
    "full": {
        # census blocks: (tokens, strategy, stride through enumerate_trees)
        "conformance": {
            "census": ((1, TD, 1), (1, IO, 1), (2, TD, 1), (2, IO, 1), (3, IO, 1), (3, TD, 54)),
            "walk_trees": 40,
            "walks": 3,
        },
        "oracle-long": {"core": 1500, "seeded": 500, "min_tokens": 10, "max_tokens": 40},
        "train-parse": {"train": 60, "epochs": 3, "held": 250, "seeded_held": 50, "max_tokens": 12},
    },
    "quick": {
        "conformance": {
            "census": ((1, TD, 1), (1, IO, 1), (2, IO, 1), (2, TD, 6)),
            "walk_trees": 2,
            "walks": 2,
        },
        "oracle-long": {"core": 12, "seeded": 8, "min_tokens": 10, "max_tokens": 16},
        "train-parse": {"train": 6, "epochs": 1, "held": 4, "seeded_held": 2, "max_tokens": 6},
    },
}


@dataclass
class Tally:
    """What a workload did.  Each unit of work (one tree swept, one
    configuration queried, one training run, one sentence parsed) runs once
    per pass and keeps its op count and its time in every pass, both as
    measured and at reference speed (speed.py); a metric takes each unit's
    median over the passes.  Also kept: latency samples per kind (per unit,
    the same way, at reference speed), ops attempted and failed, and the
    values the recorded checks compare."""

    speed: Speed = field(default_factory=Speed)
    units: dict = field(default_factory=dict)  # key -> (category, ops, [scaled ns], [wall ns])
    samples: dict = field(default_factory=dict)  # kind -> {key: [scaled us per pass]}
    attempted: int = 0
    failed: int = 0
    notes: list = field(default_factory=list)
    observed: dict = field(default_factory=dict)

    def add(self, category, key, ops, start, end):
        """Time one unit of work from two Speed readings."""
        unit = self.units.get(key)
        if unit is None:
            unit = self.units[key] = (category, ops, [], [])
        wall, scaled = self.speed.span(start, end)
        unit[2].append(scaled)
        unit[3].append(wall)

    def sample(self, kind, key, start, end):
        """A latency sample, in us at reference speed."""
        us = self.speed.span(start, end)[1] / 1e3
        self.samples.setdefault(kind, {}).setdefault(key, []).append(us)

    def latencies(self, kind):
        """Each unit's median latency of this kind."""
        return [statistics.median(xs) for xs in self.samples.get(kind, {}).values()]

    def op_latencies(self, *categories):
        """us per op of each unit of these categories, once per op, so that
        a unit of many ops weighs more."""
        out = []
        for category, ops, scaled, _ in self.units.values():
            if category in categories:
                out += [statistics.median(scaled) / 1e3 / ops] * ops
        return out

    def ops(self, *categories):
        return sum(u[1] for u in self.units.values() if u[0] in categories)

    def rate(self, *categories, wall=False):
        """Ops per second over the units of these categories, at reference
        speed, or as measured with wall=True."""
        col = 3 if wall else 2
        ns = sum(statistics.median(u[col]) for u in self.units.values() if u[0] in categories)
        return self.ops(*categories) * 1e9 / ns if ns else 0.0

    def fail(self, note, count=1):
        self.failed += count
        if len(self.notes) < 20:
            self.notes.append(note)

    def observe(self, key, value, expected):
        """Record a value a recorded check compares; the first pass sets it,
        later passes must reproduce it exactly."""
        if key not in self.observed:
            self.observed[key] = value
            want = expected.get(key)
            if want != value:
                self.fail(f"{key}: observed {value!r}, recorded {want!r}")
        elif self.observed[key] != value:
            self.fail(f"{key}: pass gave {value!r} after {self.observed[key]!r}")

    def merge(self, other):
        """Add another tally's checks (the warm-up's) to this one."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.notes.extend(other.notes[: max(0, 20 - len(self.notes))])


def _digest(lines):
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


class Conformance:
    """A scaled criterion 1: the exhaustive census (formula against the
    backward Dijkstra over the state graph) plus seeded random walks
    (formula against best-first brute_force_loss)."""

    name = "conformance"

    def setup(self, size, seed):
        cfg = SIZES[size][self.name]
        census = []
        for n, strategy, stride in cfg["census"]:
            chosen = list(trees.enumerate_trees(n, list(CENSUS_LABELS)))[::stride]
            census.append((f"census {strategy} n={n}", strategy, chosen))
        rng = random.Random(f"conformance|{seed}")
        walk_bounds = verify.SearchBounds(label_alphabet=WALK_ALPHABET)
        walk_trees = []
        while len(walk_trees) < cfg["walk_trees"]:
            tree = trees.random_tree(1 + len(walk_trees) % 6, list(WALK_LABELS), rng.randrange(1 << 30))
            # The loss is exact only when the gold derivation fits the
            # configuration's consecutive-NT cap.  random_tree guarantees
            # the load-time cap of 8; sweep runs its walks under the
            # tighter cap of its bounds and does not check it, so a tree
            # needing more (e.g. four NTs in a row at position 1 against a
            # cap of 3) would report formula/brute mismatches.
            try:
                trees.check_derivable(tree, cap=walk_bounds.max_consecutive_nt)
            except trees.TreeError:
                continue
            walk_trees.append(tree)
        walk_seed = rng.randrange(1 << 30)

        census_bounds = verify.SearchBounds(label_alphabet=CENSUS_LABELS)
        groups = {TD: [], IO: [], "walks": []}
        for block, strategy, chosen in census:
            for k, tree in enumerate(chosen):
                kwargs = {"bounds": census_bounds, "walk_policy": "exhaustive"}
                groups[strategy].append((f"{SHORT[strategy]}_census", (block, k), block, tree, strategy, kwargs))
        for k, tree in enumerate(walk_trees):
            for strategy in STRATEGIES:
                kwargs = {
                    "bounds": walk_bounds,
                    "walk_policy": "random-walk",
                    "seed": walk_seed + k,
                    "walks": cfg["walks"],
                }
                groups["walks"].append((f"{SHORT[strategy]}_walks", ("walks", strategy, k), None, tree, strategy, kwargs))
        # Spread each group evenly over the pass, in a fixed shuffled
        # order, so that every category samples the machine over the whole
        # run rather than over one stretch of it.
        placed = []
        order = random.Random("conformance-schedule")
        for g, units in enumerate(groups.values()):
            order.shuffle(units)
            placed += [((i + 0.5) / len(units), g, unit) for i, unit in enumerate(units)]
        return {"schedule": [unit for *_, unit in sorted(placed, key=lambda p: p[:2])]}

    def run_pass(self, inp, tally, expected):
        checked = {}
        for category, key, block, tree, strategy, kwargs in inp["schedule"]:
            gc.collect()  # each sweep starts from the same collector state
            t0 = tally.speed.now()
            report = verify.sweep([tree], strategy, **kwargs)
            self._account(tally, category, key, report, t0, tally.speed.now())
            if block is not None:
                checked[block] = checked.get(block, 0) + report.configs_checked
        for block, count in checked.items():
            tally.observe(f"configs_checked[{block}]", count, expected)

    @staticmethod
    def _account(tally, category, key, report, start, end):
        tally.add(category, key, report.configs_checked, start, end)
        tally.attempted += report.configs_checked
        for fp, formula, brute in report.mismatches:
            tally.fail(f"{category}: formula={formula} brute={brute} at {fp}")

    def finish(self, inp, tally, expected):
        pass  # every check runs inside the pass: sweep compares each pair

    def metrics(self, tally):
        # The walks' cost hangs on a few expensive searches whose number
        # the seed decides, so only the seed-independent census is gated.
        all_cats = ("td_census", "io_census", "td_walks", "io_walks")
        generic = {
            "ops_per_s": ("td_census", "io_census"),
            "td_ops_per_s": ("td_census",),
            "io_ops_per_s": ("io_census",),
        }
        named = {
            "configs_per_s": (tally.rate(*all_cats), "1/s"),
            "census_configs_per_s": (tally.rate(*generic["ops_per_s"]), "1/s"),
            "td_configs_per_s": (tally.rate("td_census"), "1/s"),
            "io_configs_per_s": (tally.rate("io_census"), "1/s"),
            "walk_configs_per_s": (tally.rate("td_walks", "io_walks"), "1/s"),
            "configs_per_pass": (tally.ops(*all_cats), "count"),
        }
        return generic, tally.op_latencies("td_census", "io_census"), named


def _walk_configs(tree, strategy, alphabet, rng, nt_weight, limit):
    """A random walk that draws the move kind first (NT weighted by
    nt_weight) and then the move, as verify's walks do."""
    c = transitions.initial_config(tree.tokens, strategy)
    out = []
    while not transitions.is_terminal(c) and len(out) < limit:
        moves = transitions.legal_transitions(c, alphabet)
        kinds = sorted({t.kind for t in moves})
        kind = rng.choices(kinds, [nt_weight if k == "nt" else 1.0 for k in kinds])[0]
        c = transitions.apply(c, rng.choice([t for t in moves if t.kind == kind]))
        out.append(c)
    return out


def _stacked_opens(tree, labels, rng):
    """Top-down configuration on a gold prefix followed by NT moves up to
    the consecutive-NT cap, so every pushed open shares one left end: the
    case that drives the top-down loss search hardest."""
    c = transitions.initial_config(tree.tokens, TD)
    seq = trees.gold_sequence(tree, TD)
    for t in seq[: rng.randrange(len(seq) // 2)]:
        c = transitions.apply(c, t)
    while c.i < c.n and c.nt_run < c.max_consecutive_nt:
        c = transitions.apply(c, transitions.nt(rng.choice(labels)))
    return c


def _oracle_pool(key, count, strategy, lo, hi):
    """count (config, gold, alphabet) triples from sentences of lo..hi
    tokens.  Half the trees use three labels plus a distractor and uniform
    move kinds; half use one or two labels and favour NT moves.  Top-down
    adds one stacked-opens configuration per 20."""
    rng = random.Random(f"{key}|{strategy}")
    out = []
    while len(out) < count:
        n = rng.randint(lo, hi)
        if strategy == TD and len(out) % 20 == 19:
            labels = list(CENSUS_LABELS[: rng.randint(1, 2)])
            tree = trees.random_tree(n, labels, rng.randrange(1 << 30))
            gold = oracle.GoldReference.from_tree(tree, strategy)
            out.append((_stacked_opens(tree, labels, rng), gold, tuple(labels)))
            continue
        if rng.random() < 0.5:
            labels, alphabet, nt_weight = list(WALK_LABELS), WALK_ALPHABET, 1.0
        else:
            labels = list(CENSUS_LABELS[: rng.randint(1, 2)])
            alphabet, nt_weight = tuple(labels), 1.5
        tree = trees.random_tree(n, labels, rng.randrange(1 << 30))
        gold = oracle.GoldReference.from_tree(tree, strategy)
        walk = _walk_configs(tree, strategy, alphabet, rng, nt_weight, 12 * n)
        for c in rng.sample(walk, min(8, len(walk), count - len(out))):
            out.append((c, gold, alphabet))
    return out


class OracleLong:
    """loss and optimal_transitions on configurations of 10-40 token
    sentences, as a dynamic-oracle trainer calls them."""

    name = "oracle-long"

    def setup(self, size, seed):
        cfg = SIZES[size][self.name]
        items = []
        for strategy in STRATEGIES:
            for key, count, core in ((POOL_SEED, cfg["core"], True), (f"seed{seed}", cfg["seeded"], False)):
                pool = _oracle_pool(key, count, strategy, cfg["min_tokens"], cfg["max_tokens"])
                items += [(strategy, c, g, a, core) for c, g, a in pool]
        order = list(range(len(items)))
        random.Random(f"oracle-long|{seed}").shuffle(order)
        return {"items": items, "order": order, "answers": [None] * len(items)}

    def run_pass(self, inp, tally, expected):
        items, answers = inp["items"], inp["answers"]
        now = tally.speed.now
        for idx in inp["order"]:
            strategy, c, gold, alphabet, core = items[idx]
            t0 = now()
            lo = oracle.loss(c, gold)
            t1 = now()
            opt = oracle.optimal_transitions(c, gold, alphabet)
            t2 = now()
            tally.attempted += 2
            if not core:
                tally.add(f"seeded.{SHORT[strategy]}", idx, 1, t0, t2)
            else:
                tally.add(SHORT[strategy], idx, 1, t0, t2)
                tally.sample("step_us", idx, t0, t2)
                tally.sample(f"loss_us.{strategy}", idx, t0, t1)
                tally.sample(f"optimal_us.{strategy}", idx, t1, t2)
            answer = (lo, tuple(opt))
            if answers[idx] is None:
                answers[idx] = answer
            elif answers[idx] != answer:
                tally.fail(f"item {idx}: answer changed between passes", 2)

    def finish(self, inp, tally, expected):
        """Outside the timed region: each optimal set against the loss of
        every successor, each total against its parts, and the digest of
        the core pool's totals against the recorded one."""
        totals = []
        for idx, (strategy, c, gold, alphabet, core) in enumerate(inp["items"]):
            lo, opt = inp["answers"][idx]
            if lo.total != sum(lo.columns()):
                tally.fail(f"item {idx}: loss total {lo.total} is not the sum of {lo.columns()}")
            want = tuple(
                t
                for t in transitions.legal_transitions(c, alphabet)
                if oracle.loss(transitions.apply(c, t), gold).total == lo.total
            )
            if opt != want:
                tally.fail(f"item {idx}: optimal {opt} but loss-preserving {want}")
            if core:
                totals.append(f"{strategy} {lo.total}")
        tally.observe("loss_digest", _digest(totals), expected)

    def metrics(self, tally):
        generic = {"ops_per_s": ("td", "io"), "td_ops_per_s": ("td",), "io_ops_per_s": ("io",)}
        named = {"queries_per_s": (2 * tally.rate("td", "io"), "1/s")}
        for kind in ("loss", "optimal"):
            for strategy in STRATEGIES:
                xs = tally.latencies(f"{kind}_us.{strategy}")
                for q in (50, 99):
                    named[f"{kind}_p{q}_us.{strategy}"] = (percentile_us(xs, q), "us", len(xs))
                named[f"{kind}_max_us.{strategy}"] = (max(xs, default=0.0), "us", len(xs))
        named["seeded_ops_per_s"] = (tally.rate("seeded.td", "seeded.io"), "1/s")
        named["configs_per_pass"] = (tally.ops("td", "io", "seeded.td", "seeded.io"), "count")
        return generic, tally.latencies("step_us"), named


class TrainParse:
    """Static and dynamic training for both strategies on a fixed corpus
    with a dozen labels, then the CLI parse -> eval path on held-out
    sentences: greedy parse, serialize, parse_bracketed, prf."""

    name = "train-parse"

    def setup(self, size, seed):
        cfg = SIZES[size][self.name]

        def corpus(count, s):
            return trees.synthetic_corpus(
                count, TRAIN_LABELS, seed=s, min_tokens=2, max_tokens=cfg["max_tokens"]
            )

        return {
            "train": corpus(cfg["train"], TRAIN_SEED),
            "epochs": cfg["epochs"],
            "held": corpus(cfg["held"], HELD_SEED),
            "seeded_held": corpus(cfg["seeded_held"], seed),
        }

    def run_pass(self, inp, tally, expected):
        gold_all, pred_all, texts = [], [], []
        for strategy in STRATEGIES:
            for mode, p in (("static", 0.0), ("dynamic", EXPLORE_P)):
                gc.collect()  # each training run starts from the same collector state
                t0 = tally.speed.now()
                m = model.train(
                    inp["train"],
                    strategy,
                    model.ExplorationPolicy(p, seed=EXPLORE_SEED),
                    epochs=inp["epochs"],
                    seed=SHUFFLE_SEED,
                )
                ops = len(inp["train"]) * inp["epochs"]
                tally.add(f"{mode}.{strategy}", (mode, strategy), ops, t0, tally.speed.now())
                tally.attempted += 1
                for part, recorded in (("held", True), ("seeded_held", False)):
                    held = inp[part]
                    key = (mode, strategy, part)
                    phase = "parse" if recorded else "seeded_parse"
                    preds, serialized = self._parse(m, held, key, phase, tally)
                    t0 = tally.speed.now()
                    score = evaluation.prf(held, preds)
                    tally.add(f"{phase}.{strategy}", key, 0, t0, tally.speed.now())
                    if recorded:
                        tally.observe(f"f1[{strategy} {mode}]", score.f1, expected)
                        gold_all += held
                        pred_all += preds
                        texts += serialized
        tally.observe("f1", evaluation.prf(gold_all, pred_all).f1, expected)
        tally.observe("tree_digest", _digest(texts), expected)

    @staticmethod
    def _parse(m, held, key, phase, tally):
        preds, texts = [], []
        for k, gold in enumerate(held):
            t0 = tally.speed.now()
            tree = model.parse(m, gold.tokens)
            text = trees.serialize(tree)
            back = trees.parse_bracketed(text)
            t1 = tally.speed.now()
            tally.add(f"{phase}.{m.strategy}", key + (k,), 1, t0, t1)
            tally.sample(f"{phase}_us", key + (k,), t0, t1)
            tally.attempted += 1
            if back != tree or back.tokens != gold.tokens:
                tally.fail(f"parse of {' '.join(gold.tokens)} does not round-trip")
            preds.append(back)
            texts.append(text)
        return preds, texts

    def finish(self, inp, tally, expected):
        pass  # checks run in the pass, outside each parse's timed span

    def metrics(self, tally):
        cats = {s: [f"{k}.{s}" for k in ("static", "dynamic", "parse")] for s in STRATEGIES}
        generic = {"ops_per_s": cats[TD] + cats[IO], "td_ops_per_s": cats[TD], "io_ops_per_s": cats[IO]}
        named = {
            "train_static_sents_per_s": (tally.rate("static." + TD, "static." + IO), "1/s"),
            "train_dynamic_sents_per_s": (tally.rate("dynamic." + TD, "dynamic." + IO), "1/s"),
            "parse_sents_per_s": (tally.rate("parse." + TD, "parse." + IO), "1/s"),
            "seeded_parse_sents_per_s": (tally.rate("seeded_parse." + TD, "seeded_parse." + IO), "1/s"),
        }
        named["f1"] = (tally.observed.get("f1", 0.0), "%")
        for strategy in STRATEGIES:
            for k in ("static", "dynamic", "parse"):
                named[f"{k}_sents_per_s.{strategy}"] = (tally.rate(f"{k}.{strategy}"), "1/s")
        return generic, tally.latencies("parse_us"), named


WORKLOADS = {w.name: w for w in (Conformance(), OracleLong(), TrainParse())}
