"""The benchmark's traced mode wraps program functions by module and name
(bench/layers.py).  A renamed or moved function must fail here rather than
only when `bench/run.py --trace 1` runs."""

import ast
import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
SRC = Path(__file__).resolve().parent.parent / "src" / "oracle_lab"


def test_every_traced_function_exists_and_unpatch_restores_it(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    layers = importlib.import_module("layers")
    wired = [
        (module, name.split(".")[1])
        for name, _, modules, _ in layers.TRACED
        for module in modules
    ]
    missing = [f"{m.__name__}.{attr}" for m, attr in wired if not hasattr(m, attr)]
    assert not missing
    originals = {(m, attr): getattr(m, attr) for m, attr in wired}
    tracer = layers.install()
    tracer.repatch()
    try:
        for (m, attr), original in originals.items():
            assert getattr(m, attr) is not original, f"{m.__name__}.{attr}"
    finally:
        tracer.unpatch()
    for (m, attr), original in originals.items():
        assert getattr(m, attr) is original, f"{m.__name__}.{attr}"


def test_a_traced_train_and_parse_records_every_step_layer(monkeypatch):
    """Training and greedy parsing reach the step kernel through module
    attributes the tracer wraps; a call inlined or bound another way would
    leave its span empty and the per-layer metrics blind."""
    monkeypatch.syspath_prepend(str(BENCH))
    layers = importlib.import_module("layers")
    from oracle_lab import model, trees

    corpus = trees.synthetic_corpus(3, ["X", "Y"], seed=4, min_tokens=2, max_tokens=5)
    tracer = layers.install()
    tracer.repatch()
    try:
        for strategy in ("top-down", "in-order"):
            for p in (0.0, 0.5):
                m = model.train(corpus, strategy, model.ExplorationPolicy(p, seed=1), epochs=1)
                model.parse(m, corpus[0].tokens)
    finally:
        tracer.unpatch()
    calls = {name: row["calls"] for name, row in tracer.summary().items()}
    for strategy in ("top-down", "in-order"):
        for span in ("model.train", "model.parse", "transitions.legal_transitions"):
            assert calls.get(f"{span}.{strategy}", 0) > 0, f"{span}.{strategy}"
    for span in ("model.features", "model._pick"):
        assert calls.get(span, 0) > 0, span
        # seen inside training and inside parsing, not only one of them
        for outer in ("model.train.", "model.parse."):
            assert tracer.child_totals(outer, span), f"{span} under {outer}"


def test_a_traced_sweep_sees_one_loss_call_per_configuration(monkeypatch):
    """sweep asks `loss` about each configuration it checks through the
    attribute the tracer wraps, so every formula total is a span under
    the sweep's, and the sweep's self share holds only its graphs and
    searches: on a few 3-token trees, under a walk policy and the
    exhaustive one, for each strategy, with the NT cap at 1 to keep the
    top-down state graphs small."""
    monkeypatch.syspath_prepend(str(BENCH))
    layers = importlib.import_module("layers")
    from oracle_lab import trees, verify

    corpus = list(trees.enumerate_trees(3, ["X", "Y"]))[::40]
    assert len(corpus) >= 3
    bounds = verify.SearchBounds(max_consecutive_nt=1)
    for policy in ("random-walk", "exhaustive"):
        for strategy in ("top-down", "in-order"):
            tracer = layers.install()
            tracer.repatch()
            try:
                report = verify.sweep(corpus, strategy, bounds, walk_policy=policy, walks=2)
            finally:
                tracer.unpatch()
            assert report.passed and report.configs_checked > 0
            span = f"verify.sweep.{strategy}"
            (count, _), = tracer.child_totals(span, "oracle.loss.").values()
            assert count == report.configs_checked, (policy, strategy)


def _noqa_unused_imports(path):
    """(name, whether the module reads it elsewhere) for each name that
    the module at path imports on a line marked `# noqa: F401`."""
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source)
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [
        (alias.asname or alias.name, (alias.asname or alias.name) in read)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
        if "noqa: F401" in lines[alias.lineno - 1]
    ]


def test_every_unused_import_is_one_the_tracer_wraps(monkeypatch):
    """An import marked as unused (`# noqa: F401`) is there only so that
    the benchmark's tracer can wrap the name in that module: the name is
    one bench/layers.py wraps there, and the module reads it nowhere.  A
    marked name that the module calls, or that the tracer no longer
    wraps, has a stale marker."""
    monkeypatch.syspath_prepend(str(BENCH))
    layers = importlib.import_module("layers")
    wrapped = {
        (module.__name__.rsplit(".", 1)[1], name.split(".")[1])
        for name, _, modules, _ in layers.TRACED
        for module in modules
    }
    marked = set()
    for path in sorted(SRC.glob("*.py")):
        for name, is_read in _noqa_unused_imports(path):
            marked.add((path.stem, name))
            assert not is_read, f"{path.stem}.{name} is read, so its noqa: F401 marker is stale"
    assert marked <= wrapped, marked - wrapped
    assert {("oracle", "apply"), ("model", "optimal_transitions")} <= marked
