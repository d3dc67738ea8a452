"""Command-line entry point: oracle traces, conformance checks, training,
parsing, scoring, and corpus generation.

Exit codes: 0 success, 1 verification mismatch, 2 input error.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import nullcontext

from .evaluation import arity_breakdown, prf, render_report
from .model import ExplorationPolicy, Model, parse_with_info, train
from .oracle import GoldReference, OracleViolation, _move_losses
from .transitions import STRATEGIES, OpenNT, apply, initial_config
from .trees import (
    TreeError,
    check_derivable_corpus,
    gold_sequence,
    parse_bracketed,
    read_lines,
    save_corpus,
    serialize,
    synthetic_corpus,
)
from .verify import WALK_POLICIES, SearchBounds, sweep

TRACE_COLUMNS = "step transition stack-summary i loss-total U fc fa ooo".split()


def _add_strategy(p):
    p.add_argument(
        "--strategy",
        required=True,
        choices=STRATEGIES,
        help="transition system (required, never inferred from files)",
    )


def _output(args):
    """A context manager that yields the --out file, opened for writing and
    closed on exit, or stdout, left open."""
    if args.out:
        return open(args.out, "w", encoding="utf-8")
    return nullcontext(sys.stdout)


def _stack_column(stack, summaries):
    """The stack as the trace prints it: an open as label(open,index), a
    completed item as symbol[l,r].  Each item's text is kept in
    summaries: a row of a deep derivation repeats every item of the row
    before."""
    parts = []
    for e in stack:
        s = summaries.get(e)
        if s is None:  # an open is (label, index), a completed item (symbol, l, r, ...)
            s = summaries[e] = "%s(open,%d)" % e if type(e) is OpenNT else "%s[%d,%d]" % e[:3]
        parts.append(s)
    return " ".join(parts)


def cmd_oracle_trace(args):
    trees = _read_items(args.trees, "trees to trace")
    # every tree, before the first row is written
    check_derivable_corpus(trees, args.strategy)
    with _output(args) as out:
        for idx, tree in enumerate(trees):
            if idx:
                out.write("\n")
            gold = GoldReference.from_tree(tree, args.strategy)
            summaries = {}  # stack item -> its summary, for this tree
            c = initial_config(tree.tokens, args.strategy)
            for step, t in enumerate(gold_sequence(tree, args.strategy), start=1):
                c = apply(c, t)
                lb = _move_losses(c, gold, ())[0]
                out.write(
                    f"{step}\t{t}\t{_stack_column(c.stack, summaries)}\t{c.i}\t{lb.total}"
                    f"\t{lb.unreachable}\t{lb.false_constituents}"
                    f"\t{lb.false_open_nts}\t{lb.out_of_order}\n"
                )
    return 0


def _read_items(path, what, parse=parse_bracketed):
    """What parse reads from each non-blank line of a file, by default
    the trees of a corpus file; a file that holds none is an input error
    that names it, as "no <what>"."""
    items = read_lines(path, parse)
    if not items:
        raise ValueError(f"{path}: no {what}")
    return items


def _check_corpus(args):
    if args.generate is not None:
        if args.trees is not None:
            raise ValueError("give a corpus file or --generate, not both")
        if args.generate < 1:
            raise ValueError(f"--generate needs at least 1 tree, got {args.generate}")
        labels = args.labels.split(",")
        return synthetic_corpus(args.generate, labels, seed=args.seed, max_tokens=args.max_tokens)
    if args.trees is None:
        raise ValueError("need a corpus file or --generate N")
    return _read_items(args.trees, "trees to check")


def cmd_check(args):
    # before any tree is drawn, so that a bad bound is named as such
    bounds = SearchBounds(
        max_tokens=args.max_tokens,
        max_consecutive_nt=args.max_consecutive_nt,
    )
    trees = _check_corpus(args)
    for idx, tree in enumerate(trees):
        if len(tree.tokens) > bounds.max_tokens:
            raise ValueError(
                f"tree {idx}: {len(tree.tokens)} tokens exceeds"
                f" --max-tokens {bounds.max_tokens}"
            )
    # only the gold-prefix policy replays the gold derivation (sweep)
    if args.policy == "gold-prefix":
        check_derivable_corpus(trees, args.strategy, bounds.max_consecutive_nt)
    report = sweep(
        trees,
        args.strategy,
        bounds,
        walk_policy=args.policy,
        seed=args.seed,
    )
    print(report.summary())
    return 0 if report.passed else 1


def _check_out(path):
    """An input error that names path, before any work, when no file can be
    written there: its directory is missing or not writable, or it is a
    directory.  Nothing is created, so a file already there survives a
    run that fails later."""
    folder = os.path.dirname(path) or "."
    if os.path.isdir(path):
        raise ValueError(f"{path}: is a directory")
    if not os.path.isdir(folder):
        raise ValueError(f"{path}: no such directory {folder}")
    if not os.access(path if os.path.exists(path) else folder, os.W_OK):
        raise ValueError(f"{path}: not writable")


def cmd_train(args):
    corpus = _read_items(args.trees, "trees to train on")
    _check_out(args.out)
    policy = ExplorationPolicy(p_explore=args.explore_p, seed=args.seed)
    model = train(
        corpus,
        args.strategy,
        policy,
        epochs=args.epochs,
        seed=args.seed,
    )
    model.save(args.out)
    print(
        f"trained {args.strategy} model on {len(corpus)} trees"
        f" ({args.epochs} epochs, p={args.explore_p}), wrote {args.out}"
    )
    return 0


def _sentence_tokens(line):
    """A sentence file's line is a bracketed tree or plain tokens."""
    return parse_bracketed(line).tokens if line.startswith("(") else tuple(line.split())


def cmd_parse(args):
    model = Model.load(args.model)
    if model.strategy != args.strategy:
        raise ValueError(
            f"--strategy {args.strategy} does not match model"
            f" strategy {model.strategy}"
        )
    sentences = _read_items(args.sentences, "sentences to parse", _sentence_tokens)
    with _output(args) as out:
        for idx, tokens in enumerate(sentences):
            tree, info = parse_with_info(model, tokens)
            out.write(serialize(tree) + "\n")
            if info["fallback"]:
                print(
                    f"sentence {idx}: step cap hit after {info['steps']}"
                    f" steps, wrapped under {info['wrap_label']}",
                    file=sys.stderr,
                )
    return 0


def cmd_eval(args):
    gold = _read_items(args.gold, "trees to score")
    pred = _read_items(args.pred, "trees to score")
    overall = prf(gold, pred)
    table = arity_breakdown(gold, pred)
    print(render_report(overall, table, tsv=args.tsv))
    return 0


def cmd_gen(args):
    labels = args.labels.split(",")
    trees = synthetic_corpus(
        args.count,
        labels,
        seed=args.seed,
        max_tokens=args.max_tokens,
    )
    save_corpus(trees, args.out)
    print(f"wrote {len(trees)} trees to {args.out}")
    return 0


def build_parser():
    p = argparse.ArgumentParser(
        prog="oracle-lab",
        description="transition-system oracles, conformance checks, and a"
        " small trainable parser",
    )
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser(
        "oracle-trace",
        help="replay gold derivations with per-step loss columns: "
        + " ".join(TRACE_COLUMNS),
    )
    _add_strategy(t)
    t.add_argument("trees", help="corpus file, one bracketed tree per line")
    t.add_argument("--out", help="write TSV here instead of stdout")
    t.set_defaults(func=cmd_oracle_trace)

    c = sub.add_parser("check", help="formula loss vs brute-force search")
    _add_strategy(c)
    c.add_argument("trees", nargs="?", help="corpus file (or use --generate)")
    c.add_argument("--generate", type=int, metavar="N", help="random trees instead")
    c.add_argument("--labels", default="X,Y,Z", help="labels for --generate")
    c.add_argument("--policy", default="random-walk", choices=list(WALK_POLICIES))
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--max-tokens", type=int, default=6)
    c.add_argument("--max-consecutive-nt", type=int, default=3)
    c.set_defaults(func=cmd_check)

    tr = sub.add_parser("train", help="train a greedy parser against the oracle")
    _add_strategy(tr)
    tr.add_argument("trees", help="training corpus file")
    tr.add_argument("--out", required=True, help="model file to write")
    tr.add_argument("--explore-p", type=float, default=0.0)
    tr.add_argument("--epochs", type=int, default=10)
    tr.add_argument("--seed", type=int, default=0)
    tr.set_defaults(func=cmd_train)

    pa = sub.add_parser("parse", help="greedy parse with a trained model")
    _add_strategy(pa)
    pa.add_argument("model", help="model file from train")
    pa.add_argument(
        "sentences", help="file of token lines or bracketed trees (one per line)"
    )
    pa.add_argument("--out", help="write trees here instead of stdout")
    pa.set_defaults(func=cmd_parse)

    e = sub.add_parser("eval", help="labeled bracketing P/R/F1 and arity table")
    e.add_argument("gold", help="gold corpus file")
    e.add_argument("pred", help="predicted corpus file")
    e.add_argument("--tsv", action="store_true", help="machine-readable output")
    e.set_defaults(func=cmd_eval)

    g = sub.add_parser("gen", help="write a synthetic corpus")
    g.add_argument("count", type=int, help="number of trees")
    g.add_argument("--out", required=True, help="corpus file to write")
    g.add_argument("--labels", default="X,Y,Z")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--max-tokens", type=int, default=6)
    g.set_defaults(func=cmd_gen)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except OracleViolation as e:  # a verification mismatch
        print(f"oracle-lab: {e}", file=sys.stderr)
        return 1
    except (TreeError, ValueError, OSError) as e:
        print(f"oracle-lab: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
