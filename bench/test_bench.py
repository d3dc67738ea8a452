"""The benchmark's own tests: quick mode passes every check, the command
refuses to run without the program's sources, and the tracer's self time
is a span's duration minus its children's."""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

from tracer import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run(cwd, *args):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=120
    )


def test_quick_mode_passes_every_check():
    done = run(ROOT, "--quick")
    assert done.returncode == 0, done.stdout + done.stderr
    assert "FAILED" not in done.stdout


def test_refuses_without_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = run(tmp_path, "--workload", "oracle-long", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert "correct" not in done.stdout


def test_self_time_subtracts_child_spans():
    tracer = Tracer()
    child = tracer.wrap(lambda: sum(range(20_000)), "child")

    def parent():
        sum(range(20_000))
        child()
        child()

    tracer.wrap(parent, "parent")()
    rows = tracer.summary()
    assert rows["child"]["calls"] == 2
    assert rows["parent"]["calls"] == 1
    parent_row = rows["parent"]
    assert parent_row["self_ns"] == parent_row["total_ns"] - rows["child"]["total_ns"]
    assert list(tracer.parent) == [-1, 0, 0]
