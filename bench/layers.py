"""Which program functions a traced run wraps, and the per-layer metrics
made from their spans.

Spans are named after the function called, ``<module>.<function>``, and
split by strategy where the call has one.  A function is wrapped under
every caller's module that looks it up, so ``loss`` is traced whether
``sweep``, ``optimal_transitions``, ``train`` or the benchmark calls it.
"""

from __future__ import annotations

import json

from oracle_lab import evaluation, model, oracle, trees, verify
from tracer import Tracer, percentile_us

TD, IO = "top-down", "in-order"
STRATEGIES = (TD, IO)


def _first_strategy(args):
    # a Configuration or a Model
    return args[0].strategy


def _arg_strategy(args):
    return args[1]


# (span name, strategy split, [modules whose attribute is wrapped], count_result)
TRACED = (
    ("oracle.loss", _first_strategy, (oracle, verify, model), False),
    ("oracle.optimal_transitions", _first_strategy, (oracle, model), True),
    ("transitions.legal_transitions", _first_strategy, (oracle, verify, model), False),
    ("transitions.apply", _first_strategy, (oracle, verify, model), False),
    ("verify.sweep", _arg_strategy, (verify,), False),
    ("verify.brute_force_loss", _first_strategy, (verify,), False),
    ("model.features", None, (model,), False),
    ("model._pick", None, (model,), False),
    ("model.train", _arg_strategy, (model,), False),
    ("model.parse", _first_strategy, (model,), False),
    ("trees.parse_bracketed", None, (trees,), False),
    ("trees.serialize", None, (trees,), False),
    ("trees.gold_sequence", None, (model,), False),
    ("trees.constituent_set", None, (oracle, model), False),
    ("evaluation.prf", None, (evaluation,), False),
)

FULL = (("calls", "count"), ("total_s", "s"), ("self_s", "s"), ("p50_us", "us"), ("p99_us", "us"), ("max_us", "us"))
BRIEF = FULL[:3]

# (span name, split by strategy, stats), in report order
REPORTED = (
    ("oracle.loss", True, FULL),
    ("oracle.optimal_transitions", True, FULL),
    ("transitions.legal_transitions", True, FULL),
    ("transitions.apply", True, FULL),
    ("verify.sweep", True, BRIEF),
    ("verify.brute_force_loss", True, FULL),
    ("model.features", False, FULL),
    ("model._pick", False, FULL),
    ("model.train", True, BRIEF),
    ("model.parse", True, FULL),
    ("trees.parse_bracketed", False, BRIEF),
    ("trees.serialize", False, BRIEF),
    ("trees.gold_sequence", False, BRIEF),
    ("trees.constituent_set", False, BRIEF),
    ("evaluation.prf", False, BRIEF),
)

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("td_ops_per_s", "1/s"),
    ("io_ops_per_s", "1/s"),
    ("p50_us", "us"),
    ("p99_us", "us"),
)


def install():
    """A Tracer holding a wrapper for every TRACED function; repatch() puts
    them in place and unpatch() takes them out."""
    tracer = Tracer()
    for name, split, modules, count_result in TRACED:
        attr = name.split(".")[1]
        for module in modules:
            tracer.patch(module, attr, name, split, count_result)
    return tracer


def _span_names():
    for name, split, stats in REPORTED:
        for span in [f"{name}.{s}" for s in STRATEGIES] if split else [name]:
            yield span, stats


def per_layer_units():
    units = {}
    for span, stats in _span_names():
        for stat, unit in stats:
            units[f"{span}.{stat}"] = unit
        if span.startswith("verify.sweep."):
            units[f"{span}.self_share"] = "ratio"
    units["oracle.optimal_transitions.loss_calls_per_call"] = "ratio"
    units["oracle.optimal_transitions.kept_ratio"] = "ratio"
    units["bench.trace.overhead_s"] = "s"
    units["bench.trace.overhead_share"] = "ratio"
    units["bench.trace.passes"] = "count"
    return units


def per_layer(tracer, overhead_s, overhead_share, passes):
    """Every per-layer metric, in the order BENCHMARK.json lists them.
    Times and counts cover the whole traced window (the warm-up and the
    traced passes); a layer the workload never calls shows its warm-up
    calls only."""
    rows = tracer.summary()
    empty = {"calls": 0, "total_ns": 0, "self_ns": 0, "us": []}
    values = {}
    for span, stats in _span_names():
        row = rows.get(span, empty)
        computed = {
            "calls": row["calls"],
            "total_s": row["total_ns"] / 1e9,
            "self_s": row["self_ns"] / 1e9,
            "p50_us": percentile_us(row["us"], 50),
            "p99_us": percentile_us(row["us"], 99),
            "max_us": max(row["us"], default=0.0),
        }
        for stat, _ in stats:
            values[f"{span}.{stat}"] = computed[stat]
    # graph building and search as a share of sweep time: everything the
    # sweep spends outside the loss calls it makes itself
    in_loss = tracer.child_totals("verify.sweep.", "oracle.loss.")
    for s in STRATEGIES:
        span = f"verify.sweep.{s}"
        total = rows.get(span, empty)["total_ns"]
        outside = total - in_loss.get(span, (0, 0))[1]
        values[f"{span}.self_share"] = outside / total if total else 0.0
    opt_calls = sum(rows.get(f"oracle.optimal_transitions.{s}", empty)["calls"] for s in STRATEGIES)
    loss_calls = sum(c for c, _ in tracer.child_totals("oracle.optimal_transitions.", "oracle.loss.").values())
    # one apply per legal transition tried
    legal = sum(c for c, _ in tracer.child_totals("oracle.optimal_transitions.", "transitions.apply.").values())
    kept = sum(tracer.result_sizes.values())
    values["oracle.optimal_transitions.loss_calls_per_call"] = loss_calls / opt_calls if opt_calls else 0.0
    values["oracle.optimal_transitions.kept_ratio"] = kept / legal if legal else 0.0
    values["bench.trace.overhead_s"] = overhead_s
    values["bench.trace.overhead_share"] = overhead_share
    values["bench.trace.passes"] = passes
    units = per_layer_units()
    return {k: {"value": values[k], "unit": units[k]} for k in units}


def check_benchmark_json(path):
    """Differences between BENCHMARK.json and the metrics this code prints."""
    with open(path, encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = []
    listed = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    if listed != list(END_TO_END):
        problems.append(f"end_to_end lists {listed}, the benchmark prints {list(END_TO_END)}")
    listed = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    if listed != list(per_layer_units().items()):
        problems.append("per_layer differs from the metrics the traced run prints")
    return problems
