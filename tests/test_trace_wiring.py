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
