"""Benchmark for oracle-lab: conformance, long-sentence oracle queries, and
train + parse.

    python3 bench/run.py --workload conformance --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --quick

Run from the repository root.  The program is imported from ./src; nothing
is installed or built.  Each run sets up several times (inputs made from
--seed plus a warm-up that calls every traced layer once at quick size),
then repeats the workload's pass until --seconds have gone by, checks every
output, scales its end-to-end times to a reference machine speed measured
by a probe between units (speed.py), writes
bench/results/<workload>-trace<k>.json and prints one JSON line last:
end-to-end metrics with --trace 0, per-layer metrics from a traced run
with --trace 1.  --quick runs every workload once at small size
with every check on and exits 1 if any check fails.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

from tracer import percentile_us

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUPS = 5  # set-ups per run; setup_s is their median
RESULTS = BENCH / "results"


def import_program():
    """Import oracle_lab from ./src of this checkout, never an installed
    copy; exit 1 without a result when the sources are not there."""
    src = ROOT / "src"
    if not (src / "oracle_lab" / "__init__.py").is_file():
        sys.exit(f"error: no program sources at {src}/oracle_lab")
    sys.path.insert(0, str(src))
    import oracle_lab

    if Path(oracle_lab.__file__).resolve().parent != src / "oracle_lab":
        sys.exit(f"error: imported oracle_lab from {oracle_lab.__file__}, not {src}")


def commit():
    """HEAD of the checkout's git repository, read without running git;
    'unknown' where there is none."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine(seed):
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": commit(),
        "seed": seed,
    }


def load_expected():
    with open(BENCH / "expected.json", encoding="utf-8") as fh:
        return json.load(fh)


def smoke(expected):
    """Every workload once at quick size with its checks: the warm-up that
    fills lazy imports and caches in every layer, and the quick mode."""
    from workloads import WORKLOADS, Tally

    tallies = {}
    for name, w in WORKLOADS.items():
        tally = Tally()
        inp = w.setup("quick", 0)
        want = expected["quick"][name]
        w.run_pass(inp, tally, want)
        w.finish(inp, tally, want)
        tallies[name] = tally
    return tallies


def fits(walls, t_end):
    """Whether another round like the ones timed in walls, at least half of
    it, still fits before t_end; true before the first round."""
    return not walls or time.perf_counter() + statistics.median(walls) / 2 < t_end


def run_passes(w, inp, tally, expected, seconds):
    """Whole passes while they fit in seconds (at least one); returns the
    wall time of each."""
    walls = []
    # what exists now lives for the whole run: keep it out of the
    # collections that the program's own garbage triggers
    gc.collect()
    gc.freeze()
    t_end = time.perf_counter() + seconds
    while fits(walls, t_end):
        t0 = time.perf_counter()
        w.run_pass(inp, tally, expected)
        walls.append(time.perf_counter() - t0)
    return walls


def set_up(w, seed, expected, tally, times):
    """Make the workload's inputs and warm every layer; returns the inputs.
    Appends the set-up's (scaled, wall) seconds to times."""
    # the warm-up collects before each long unit, as the passes do: keep
    # what exists now out of those collections
    gc.collect()
    gc.freeze()
    t0 = tally.speed.now()
    for t in smoke(expected).values():
        tally.merge(t)
    inp = w.setup("full", seed)
    wall, scaled = tally.speed.span(t0, tally.speed.now())
    times.append((scaled / 1e9, wall / 1e9))
    return inp


def end_to_end(w, inp, tally, want, seconds, setup_s, result):
    walls = run_passes(w, inp, tally, want, seconds)
    w.finish(inp, tally, want)
    generic, lat, named = w.metrics(tally)
    metrics = {"setup_s": {"value": setup_s, "unit": "s"}}
    for key, categories in generic.items():
        metrics[key] = {"value": tally.rate(*categories), "unit": "1/s"}
        named[f"wall.{key}"] = (tally.rate(*categories, wall=True), "1/s")
    for q in (50, 99):
        metrics[f"p{q}_us"] = {"value": percentile_us(lat, q), "unit": "us"}
    probes = [ns / 1e3 for ns in tally.speed.probes]
    named["speed.probe_p50_us"] = (statistics.median(probes), "us", len(probes))
    result["passes"] = {"wall_s": walls}
    result["latency_samples"] = len(lat)
    result["named"] = {}
    for k, (value, unit, *samples) in named.items():
        result["named"][k] = {"value": value, "unit": unit}
        if samples:
            result["named"][k]["samples"] = samples[0]
        print(f"{w.name}\t{k}\t{value:.6g}\t{unit}")
    return metrics


def traced(w, inp, tally, want, seconds, expected, result):
    """Untraced and traced passes alternate, so both see the same machine;
    the tracing overhead is the difference of their median wall times."""
    from layers import install, per_layer

    untraced, walls, pairs = [], [], []
    tracer = install()
    t_end = time.perf_counter() + seconds
    while fits(pairs, t_end):
        t0 = time.perf_counter()
        untraced += run_passes(w, inp, tally, want, 0)
        tracer.repatch()
        try:
            if not walls:
                for t in smoke(expected).values():
                    tally.merge(t)
            walls += run_passes(w, inp, tally, want, 0)
        finally:
            tracer.unpatch()
        pairs.append(time.perf_counter() - t0)
    w.finish(inp, tally, want)
    base = statistics.median(untraced)
    overhead = statistics.median(walls) - base
    RESULTS.mkdir(exist_ok=True)
    tracer.write(RESULTS / f"{w.name}-spans.bin")
    result["passes"] = {"untraced_s": untraced, "traced_s": walls}
    result["spans"] = len(tracer)
    return per_layer(tracer, overhead, overhead / base, len(walls))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true", help="every workload once at small size, checks only")
    args = ap.parse_args(argv)

    import_program()
    expected = load_expected()
    if args.quick:
        return quick(expected)

    from workloads import WORKLOADS, Tally

    if args.workload not in WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    w = WORKLOADS[args.workload]
    want = expected["full"][w.name]
    facts = machine(args.seed)
    result = {"workload": w.name, "seconds": args.seconds, "trace": args.trace, "machine": facts}

    tally = Tally()
    setup_times = []
    if args.trace:
        # spans are wall-clock: no probes inside them
        inp = set_up(w, args.seed, expected, tally, setup_times)
        metrics = traced(w, inp, tally, want, args.seconds, expected, result)
    else:
        tally.speed.start()
        try:
            for _ in range(SETUPS):
                inp = set_up(w, args.seed, expected, tally, setup_times)
            setup_s = statistics.median(scaled for scaled, _ in setup_times)
            metrics = end_to_end(w, inp, tally, want, args.seconds, setup_s, result)
        finally:
            tally.speed.stop()
    result["setup_s"] = [scaled for scaled, _ in setup_times]
    result["wall_setup_s"] = [wall for _, wall in setup_times]

    line = {"correct": tally.failed == 0, "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}
    result.update(line, notes=tally.notes, observed=tally.observed)
    RESULTS.mkdir(exist_ok=True)
    with open(RESULTS / f"{w.name}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    print(f"{w.name}\tmachine\t{json.dumps(facts)}")
    for note in tally.notes:
        print(f"{w.name}\tFAILED\t{note}")
    for k, v in metrics.items():
        print(f"{w.name}\t{k}\t{v['value']:.6g}\t{v['unit']}")
    print(json.dumps(line))
    return 0


def quick(expected):
    from layers import check_benchmark_json

    ok = True
    for name, t in smoke(expected).items():
        print(f"{name}\tattempted={t.attempted}\tfailed={t.failed}\tobserved={json.dumps(t.observed)}")
        for note in t.notes:
            print(f"{name}\tFAILED\t{note}")
        ok = ok and t.failed == 0
    for problem in check_benchmark_json(ROOT / "BENCHMARK.json"):
        print(f"BENCHMARK.json\t{problem}")
        ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
