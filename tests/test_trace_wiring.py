"""The benchmark's traced mode wraps program functions by module and name
(bench/layers.py).  A renamed or moved function must fail here rather than
only when `bench/run.py --trace 1` runs."""

import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


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
