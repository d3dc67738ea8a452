import contextlib
import importlib
import io
import os
import re
import shlex
import shutil
import string
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import EXAMPLE_TREE, EXAMPLE_IN_ORDER, EXAMPLE_TOP_DOWN
import oracle_lab.cli
from oracle_lab.cli import build_parser, main
from oracle_lab.oracle import OracleViolation
from oracle_lab.trees import load_corpus, parse_bracketed, serialize, synthetic_corpus
from oracle_lab.verify import SearchBounds, sweep

ROOT = Path(__file__).resolve().parent.parent
SMOKE_ARGS = ["check", "--strategy", "in-order", "--generate", "2", "--max-tokens", "3"]


@pytest.fixture
def example_corpus(tmp_path):
    path = tmp_path / "example.txt"
    path.write_text(EXAMPLE_TREE + "\n", encoding="utf-8")
    return str(path)


def trace_rows(text):
    return [line.split("\t") for line in text.splitlines() if line]


def test_oracle_trace_top_down(example_corpus, capsys):
    assert main(["oracle-trace", "--strategy", "top-down", example_corpus]) == 0
    rows = trace_rows(capsys.readouterr().out)
    assert len(rows) == 16
    assert [r[1] for r in rows] == EXAMPLE_TOP_DOWN
    assert [r[0] for r in rows] == [str(k) for k in range(1, 17)]
    assert all(r[4] == "0" for r in rows)  # gold prefixes lose nothing
    assert rows[-1][2] == "S[0,6]"
    assert rows[-1][3] == "6"


def test_oracle_trace_in_order(example_corpus, capsys):
    assert main(["oracle-trace", "--strategy", "in-order", example_corpus]) == 0
    rows = trace_rows(capsys.readouterr().out)
    assert len(rows) == 17
    assert [r[1] for r in rows] == EXAMPLE_IN_ORDER
    assert all(r[4:] == ["0", "0", "0", "0", "0"] for r in rows)


def test_oracle_trace_separates_trees_and_writes_files(tmp_path, capsys):
    corpus = tmp_path / "two.txt"
    corpus.write_text("(X w0)\n(Y w0 w1)\n", encoding="utf-8")
    out = tmp_path / "trace.tsv"
    assert main(
        ["oracle-trace", "--strategy", "top-down", str(corpus), "--out", str(out)]
    ) == 0
    assert capsys.readouterr().out == ""
    blocks = out.read_text(encoding="utf-8").split("\n\n")
    assert len(blocks) == 2
    assert len(blocks[0].splitlines()) == 3  # NT SH RE
    assert len(blocks[1].splitlines()) == 4  # NT SH SH RE


def test_strategy_flag_is_required(example_corpus, capsys):
    with pytest.raises(SystemExit):
        main(["oracle-trace", example_corpus])
    assert "--strategy" in capsys.readouterr().err


def test_check_generated_corpus(capsys):
    code = main(
        [
            "check",
            "--strategy",
            "in-order",
            "--generate",
            "4",
            "--max-tokens",
            "4",
            "--seed",
            "3",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("PASS:")
    assert "0 mismatches" in out


def test_check_exhaustive_policy(capsys):
    code = main(
        [
            "check",
            "--strategy",
            "top-down",
            "--generate",
            "3",
            "--max-tokens",
            "2",
            "--policy",
            "exhaustive",
        ]
    )
    assert code == 0
    assert capsys.readouterr().out.startswith("PASS:")


@pytest.mark.parametrize("policy", ["gold-prefix", "random-walk", "exhaustive"])
@pytest.mark.parametrize("strategy", ["top-down", "in-order"])
def test_check_exits_1_on_a_mismatch(tmp_path, monkeypatch, capsys, strategy, policy):
    """A formula one off everywhere fails every configuration checked,
    under every policy, and each mismatch names the state's fingerprint."""
    real = oracle_lab.verify.losses

    def one_off(configs, gold):
        return [lb._replace(total=lb.total + 1) for lb in real(configs, gold)]

    monkeypatch.setattr(oracle_lab.verify, "losses", one_off)
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("(X (Y w0 w1) w2)\n(Y w0)\n", encoding="utf-8")
    args = ["check", "--strategy", strategy, str(corpus), "--policy", policy]
    assert main(args) == 1
    lines = capsys.readouterr().out.splitlines()
    head = re.fullmatch(r"FAIL: (\d+) configurations checked, (\d+) mismatches, .*s", lines[0])
    checked = int(head.group(1))
    assert int(head.group(2)) == checked > 0
    shown = [line for line in lines if line.startswith("  mismatch: ")]
    assert len(shown) == min(checked, 20)
    for line in shown:
        m = re.fullmatch(rf"  mismatch: formula=(\d+) brute=(\d+) at \('{strategy}', \(.*\)",
                         line)
        assert m and int(m.group(1)) == int(m.group(2)) + 1, line
    if checked > 20:
        assert lines[-1] == f"  ... and {checked - 20} more"


@pytest.mark.parametrize(
    "policy, message",
    [
        ("random-walk", "class budget exhausted: the search from ("),
        ("exhaustive", "class budget exhausted: the state graph of ("),
    ],
    ids=["random-walk", "exhaustive"],
)
@pytest.mark.parametrize("strategy", ["top-down", "in-order"])
def test_check_exits_2_when_a_search_budget_runs_out(monkeypatch, capsys, strategy, policy,
                                                     message):
    """A search that outgrows its budget ends in an input error that names
    the budget and the gold tree, not in a traceback: the brute-force
    search and the state graph share one class budget, patched down to 2.
    The first tree's search is the first to run out.  The error's second
    line says what was checked before it."""
    monkeypatch.setattr(oracle_lab.verify, "_CLASS_LIMIT", 2)
    args = ["check", "--strategy", strategy, "--generate", "3", "--max-tokens", "4",
            "--policy", policy]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"oracle-lab: {message}")
    assert "(verify._CLASS_LIMIT)" in captured.err
    first = serialize(synthetic_corpus(3, ["X", "Y", "Z"], seed=0, max_tokens=4)[0])
    assert first in captured.err
    error, before = captured.err.splitlines()
    if policy == "random-walk":
        assert error.endswith(f", in the gold tree {first}")
    assert re.fullmatch(r"before that: \d+ configurations checked, 0 mismatches, .*s", before)


@pytest.mark.parametrize(
    "strategy, policy, limit",
    [("top-down", "random-walk", 20), ("in-order", "random-walk", 10), ("in-order", "exhaustive", 40)],
)
def test_check_names_what_it_checked_before_a_search_budget_runs_out(
    tmp_path, monkeypatch, capsys, strategy, policy, limit
):
    """A later tree whose search outgrows the class budget, after an
    earlier tree fit in it, still exits 2, and the error goes on to say
    what was checked before it: every configuration of the earlier tree,
    and under a walk policy those of the later tree whose searches fit,
    with every mismatch found among them.  The formula is one off
    everywhere, so every configuration checked is a mismatch."""
    small, big = "(X w0 w1)", "(X (Y w0 w1) (X w2 w3) w4)"
    monkeypatch.setattr(oracle_lab.verify, "_CLASS_LIMIT", limit)
    first = sweep([parse_bracketed(small)], strategy, walk_policy=policy).configs_checked
    real = oracle_lab.verify.losses

    def one_off(configs, gold):
        return [lb._replace(total=lb.total + 1) for lb in real(configs, gold)]

    monkeypatch.setattr(oracle_lab.verify, "losses", one_off)
    corpus = tmp_path / "corpus.txt"
    corpus.write_text(f"{small}\n{big}\n", encoding="utf-8")
    assert main(["check", "--strategy", strategy, str(corpus), "--policy", policy]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert lines[0].startswith("oracle-lab: class budget exhausted: ")
    assert big in lines[0] and "(verify._CLASS_LIMIT)" in lines[0]
    head = re.fullmatch(r"before that: (\d+) configurations checked, (\d+) mismatches, .*s", lines[1])
    checked = int(head.group(1))
    assert int(head.group(2)) == checked >= first > 0
    if policy == "exhaustive":
        assert checked == first
    shown = [line for line in lines if line.startswith("  mismatch: formula=")]
    assert len(shown) == min(checked, 20)


def test_check_rejects_conflicting_sources(example_corpus, capsys):
    assert main(["check", "--strategy", "top-down", example_corpus, "--generate", "2"]) == 2
    assert "not both" in capsys.readouterr().err


@pytest.mark.parametrize("count", ["0", "-3"])
def test_check_rejects_fewer_than_one_generated_tree(capsys, count):
    assert main(["check", "--strategy", "in-order", "--generate", count]) == 2
    captured = capsys.readouterr()
    assert f"--generate needs at least 1 tree, got {count}" in captured.err
    assert captured.out == ""


def test_check_names_a_bad_bound_before_drawing_trees(capsys):
    args = ["check", "--strategy", "top-down", "--generate", "1", "--max-tokens", "0"]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.err == "oracle-lab: bounds must be positive\n"
    assert captured.out == ""


@pytest.mark.parametrize("labels", ["A B,Y", "", "X(,Y", "X,Y)", "X,,Y", "X,X"])
def test_check_rejects_labels_that_cannot_be_written_out(capsys, labels):
    args = ["check", "--strategy", "in-order", "--generate", "1", "--labels", labels]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert ("repeated label 'X'" if labels == "X,X" else "bad label") in captured.err
    assert captured.out == ""


def test_check_rejects_deep_chains(tmp_path, capsys):
    corpus = tmp_path / "deep.txt"
    corpus.write_text("(A (B (C (D (E w0 w1)))))\n", encoding="utf-8")
    assert main(["check", "--strategy", "top-down", str(corpus), "--policy", "gold-prefix"]) == 2
    assert capsys.readouterr().err == (
        "oracle-lab: tree 0: top-down derivation needs 5 consecutive NT"
        " transitions, over the cap of 3\n"
    )


@pytest.mark.parametrize("text", ["", "\n  \n\t\n"])
def test_check_rejects_a_corpus_with_no_trees(tmp_path, capsys, text):
    corpus = tmp_path / "empty.txt"
    corpus.write_text(text, encoding="utf-8")
    assert main(["check", "--strategy", "top-down", str(corpus)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"oracle-lab: {corpus}: no trees to check\n"
    assert captured.out == ""


@pytest.mark.parametrize("text", ["", "\n  \n\t\n"])
def test_train_rejects_a_corpus_with_no_trees(tmp_path, capsys, text):
    corpus = tmp_path / "empty.txt"
    corpus.write_text(text, encoding="utf-8")
    model = tmp_path / "m.model"
    assert main(["train", "--strategy", "top-down", str(corpus), "--out", str(model)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"oracle-lab: {corpus}: no trees to train on\n"
    assert captured.out == ""
    assert not model.exists()


@pytest.mark.parametrize("out", [False, True])
@pytest.mark.parametrize("text", ["", "\n  \n\t\n"])
def test_oracle_trace_rejects_a_corpus_with_no_trees(tmp_path, capsys, text, out):
    corpus = tmp_path / "empty.txt"
    corpus.write_text(text, encoding="utf-8")
    args = ["oracle-trace", "--strategy", "top-down", str(corpus)]
    out_path = tmp_path / "trace.tsv"
    if out:
        args += ["--out", str(out_path)]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.err == f"oracle-lab: {corpus}: no trees to trace\n"
    assert captured.out == ""
    assert not out_path.exists()


@pytest.mark.parametrize("empty_side", ["gold", "pred", "both"])
def test_eval_rejects_a_corpus_with_no_trees(tmp_path, capsys, empty_side):
    full = tmp_path / "full.txt"
    full.write_text(EXAMPLE_TREE + "\n", encoding="utf-8")
    empty = tmp_path / "empty.txt"
    empty.write_text("\n", encoding="utf-8")
    gold = full if empty_side == "pred" else empty
    pred = full if empty_side == "gold" else empty
    assert main(["eval", str(gold), str(pred)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"oracle-lab: {empty}: no trees to score\n"
    assert captured.out == ""


@pytest.mark.parametrize("out", [False, True])
def test_oracle_trace_checks_the_nt_cap_before_writing(tmp_path, capsys, out):
    deep = "(X w0 w1)"
    for _ in range(9):
        deep = f"(X {deep})"
    corpus = tmp_path / "deep.txt"
    # a derivable tree first: nothing of it is written either
    corpus.write_text(EXAMPLE_TREE + "\n" + deep + "\n", encoding="utf-8")
    args = ["oracle-trace", "--strategy", "top-down", str(corpus)]
    out_path = tmp_path / "trace.tsv"
    if out:
        args += ["--out", str(out_path)]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        "oracle-lab: tree 1: top-down derivation needs 10 consecutive NT"
        " transitions, over the cap of 8\n"
    )
    assert captured.out == ""
    assert not out_path.exists()
    # in-order never opens two NTs in a row
    assert main(["oracle-trace", "--strategy", "in-order", str(corpus)]) == 0


def test_only_gold_prefix_needs_a_derivable_tree(tmp_path, capsys):
    """Two spans start at 0, so a cap of 1 cannot derive the tree; the
    loss stays exact under any cap, so the walks still check it."""
    corpus = tmp_path / "two-at-0.txt"
    corpus.write_text("(X (Y w0 w1) w2)\n", encoding="utf-8")
    args = ["check", "--strategy", "top-down", str(corpus), "--max-consecutive-nt", "1"]
    for policy in ("random-walk", "exhaustive"):
        assert main(args + ["--policy", policy]) == 0
        assert capsys.readouterr().out.startswith("PASS:")
    assert main(args + ["--policy", "gold-prefix"]) == 2
    assert capsys.readouterr().err == (
        "oracle-lab: tree 0: top-down derivation needs 2 consecutive NT"
        " transitions, over the cap of 1\n"
    )


def test_deep_trees_do_not_crash(tmp_path, capsys):
    depth = 1100  # past Python's default recursion limit
    left = "(X w0 w1)"  # (X (X ... (X w0 w1) w2) ...): in-order NT run of 1
    for k in range(2, depth + 1):
        left = f"(X {left} w{k})"
    right = f"(X w{depth - 1} w{depth})"  # (X w0 (X w1 ...)): top-down NT run of 1
    for k in range(depth - 2, -1, -1):
        right = f"(X w{k} {right})"
    left_path, right_path = tmp_path / "left.txt", tmp_path / "right.txt"
    left_path.write_text(left + "\n", encoding="utf-8")
    right_path.write_text(right + "\n", encoding="utf-8")

    assert main(["eval", str(left_path), str(left_path), "--tsv"]) == 0
    overall = capsys.readouterr().out.splitlines()[1].split("\t")
    assert overall[:4] == ["overall", "100.00", "100.00", "100.00"]

    assert main(["oracle-trace", "--strategy", "in-order", str(left_path)]) == 0
    rows = trace_rows(capsys.readouterr().out)
    assert len(rows) == 3 * depth + 2
    assert all(r[4] == "0" for r in rows)

    # the top-down derivation opens all 1100 NTs in a row, over the cap of 8
    assert main(["oracle-trace", "--strategy", "top-down", str(left_path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        f"oracle-lab: tree 0: top-down derivation needs {depth} consecutive NT"
        " transitions, over the cap of 8\n"
    )
    assert captured.out == ""

    # 1100 opens on the stack at once, one per left end
    assert main(["oracle-trace", "--strategy", "top-down", str(right_path)]) == 0
    rows = trace_rows(capsys.readouterr().out)
    assert len(rows) == 3 * depth + 1
    assert all(r[4] == "0" for r in rows)


def test_readme_commands_parse():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    commands = [line for line in text.splitlines() if line.startswith("oracle-lab ")]
    assert len(commands) >= 7
    for line in commands:
        try:
            build_parser().parse_args(shlex.split(line)[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {line}")


def test_missing_file_is_an_input_error(tmp_path, capsys):
    missing = str(tmp_path / "nope.txt")
    assert main(["oracle-trace", "--strategy", "top-down", missing]) == 2
    assert capsys.readouterr().err.startswith("oracle-lab: ")


def test_gen_train_parse_eval_pipeline(tmp_path, capsys):
    corpus = tmp_path / "corpus.txt"
    model = tmp_path / "m.model"
    pred = tmp_path / "pred.txt"

    assert main(
        ["gen", "10", "--out", str(corpus), "--labels", "X,Y", "--max-tokens", "4",
         "--seed", "2"]
    ) == 0
    assert len(load_corpus(corpus)) == 10

    assert main(
        ["train", "--strategy", "in-order", str(corpus), "--out", str(model),
         "--epochs", "4", "--seed", "2"]
    ) == 0
    assert model.read_text(encoding="utf-8").startswith("oracle-lab-model v1 in-order")

    assert main(
        ["parse", "--strategy", "in-order", str(model), str(corpus), "--out", str(pred)]
    ) == 0
    trees = load_corpus(pred)
    assert len(trees) == 10
    gold = load_corpus(corpus)
    assert [t.tokens for t in trees] == [t.tokens for t in gold]

    capsys.readouterr()
    assert main(["eval", str(corpus), str(pred)]) == 0
    out = capsys.readouterr().out
    assert "overall" in out
    assert main(["eval", str(corpus), str(pred), "--tsv"]) == 0
    assert capsys.readouterr().out.startswith("section\t")


def test_parse_reads_plain_token_lines(tmp_path):
    corpus = tmp_path / "corpus.txt"
    model = tmp_path / "m.model"
    sents = tmp_path / "sents.txt"
    pred = tmp_path / "pred.txt"
    main(["gen", "6", "--out", str(corpus), "--max-tokens", "3", "--seed", "5"])
    main(["train", "--strategy", "top-down", str(corpus), "--out", str(model),
          "--epochs", "3"])
    gold = load_corpus(corpus)
    sents.write_text(
        "".join(" ".join(t.tokens) + "\n" for t in gold), encoding="utf-8"
    )
    assert main(
        ["parse", "--strategy", "top-down", str(model), str(sents), "--out", str(pred)]
    ) == 0
    assert [t.tokens for t in load_corpus(pred)] == [t.tokens for t in gold]


def test_parse_strategy_must_match_the_model(tmp_path, capsys):
    corpus = tmp_path / "corpus.txt"
    model = tmp_path / "m.model"
    main(["gen", "4", "--out", str(corpus), "--max-tokens", "3"])
    main(["train", "--strategy", "top-down", str(corpus), "--out", str(model),
          "--epochs", "1"])
    capsys.readouterr()
    assert main(
        ["parse", "--strategy", "in-order", str(model), str(corpus)]
    ) == 2
    assert "does not match model" in capsys.readouterr().err


def test_parse_rejects_a_model_with_no_labels(tmp_path, capsys):
    model = tmp_path / "m.model"
    model.write_text("oracle-lab-model v1 top-down\nlabels: \n", encoding="utf-8")
    sents = tmp_path / "sents.txt"
    sents.write_text("w0 w1\n", encoding="utf-8")
    assert main(["parse", "--strategy", "top-down", str(model), str(sents)]) == 2
    assert f"{model}: need at least one label" in capsys.readouterr().err


@pytest.mark.parametrize(
    "rows",
    ["bias\tSH\tnan\n", "bias\tSH\t1.0\nbias\tSH\t2.0\n", "bias\tNT_Q\t1.0\n"],
    ids=["nan", "repeated", "no-column"],
)
def test_parse_rejects_bad_weight_rows(tmp_path, capsys, rows):
    model = tmp_path / "m.model"
    model.write_text(f"oracle-lab-model v1 top-down\nlabels: X\n{rows}", encoding="utf-8")
    sents = tmp_path / "sents.txt"
    sents.write_text("w0 w1\n", encoding="utf-8")
    assert main(["parse", "--strategy", "top-down", str(model), str(sents)]) == 2
    lineno = len(rows.splitlines()) + 2
    assert f"{model}:{lineno}: bad weight row" in capsys.readouterr().err


def test_parse_rejects_repeated_labels(tmp_path, capsys):
    model = tmp_path / "m.model"
    model.write_text("oracle-lab-model v1 top-down\nlabels: X X\n", encoding="utf-8")
    sents = tmp_path / "sents.txt"
    sents.write_text("w0 w1\n", encoding="utf-8")
    assert main(["parse", "--strategy", "top-down", str(model), str(sents)]) == 2
    assert f"{model}: repeated label 'X'" in capsys.readouterr().err


@pytest.mark.parametrize("labels", ["X (", "X(", ")"])
def test_parse_rejects_a_model_label_that_cannot_be_written_out(tmp_path, capsys, labels):
    model = tmp_path / "m.model"
    model.write_text(f"oracle-lab-model v1 top-down\nlabels: {labels}\n", encoding="utf-8")
    sents = tmp_path / "sents.txt"
    sents.write_text("w0 w1\n", encoding="utf-8")
    assert main(["parse", "--strategy", "top-down", str(model), str(sents)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"oracle-lab: {model}: bad label ")
    assert "parentheses" in captured.err
    assert captured.out == ""


@settings(max_examples=40)
@example(labels=["X", "("])
@given(labels=st.lists(st.text(string.printable, max_size=3), min_size=1, max_size=3,
                       unique=True))
def test_parse_writes_only_trees_that_read_back(labels):
    """Whatever labels a model file lists, it is rejected, or every tree
    parse writes with it reads back with the sentence's tokens."""
    sentences = [("w0", "w1", "w2"), ("w0",), ("w1", "w0")]
    rows = "".join(f"b0=w{k}\tNT_{lab}\t1.0\n" for k, lab in enumerate(labels))
    with tempfile.TemporaryDirectory() as tmp:
        model, sents, pred = (Path(tmp, name) for name in ("m.model", "s.txt", "p.txt"))
        sents.write_text("".join(" ".join(t) + "\n" for t in sentences), encoding="utf-8")
        for strategy in ("top-down", "in-order"):
            model.write_text(
                f"oracle-lab-model v1 {strategy}\nlabels: {' '.join(labels)}\n{rows}",
                encoding="utf-8",
            )
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main(["parse", "--strategy", strategy, str(model), str(sents),
                             "--out", str(pred)])
            if code == 2:
                assert err.getvalue().startswith(f"oracle-lab: {model}")
                continue
            assert code == 0
            assert [t.tokens for t in load_corpus(pred)] == sentences


def test_parse_names_the_line_of_a_malformed_tree(tmp_path, capsys):
    model = tmp_path / "m.model"
    model.write_text("oracle-lab-model v1 top-down\nlabels: X\n", encoding="utf-8")
    sents = tmp_path / "sents.txt"
    sents.write_text("w0 w1\n\n(X w0 w1)\n(X w0\n", encoding="utf-8")
    out = tmp_path / "pred.txt"
    args = ["parse", "--strategy", "top-down", str(model), str(sents), "--out", str(out)]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.err == f"oracle-lab: {sents}:4: unclosed parenthesis at offset 0\n"
    assert not out.exists()


@pytest.mark.parametrize("out", [False, True])
@pytest.mark.parametrize("text", ["", "\n  \n\t\n"])
def test_parse_rejects_a_sentence_file_with_no_sentences(tmp_path, capsys, text, out):
    model = tmp_path / "m.model"
    model.write_text("oracle-lab-model v1 top-down\nlabels: X\n", encoding="utf-8")
    sents = tmp_path / "empty.txt"
    sents.write_text(text, encoding="utf-8")
    args = ["parse", "--strategy", "top-down", str(model), str(sents)]
    out_path = tmp_path / "pred.txt"
    if out:
        args += ["--out", str(out_path)]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.err == f"oracle-lab: {sents}: no sentences to parse\n"
    assert captured.out == ""
    assert not out_path.exists()


def test_check_generate_checks_the_trees_gen_draws(monkeypatch, capsys):
    seen = []

    def recording_sweep(trees, *args, **kwargs):
        seen.append(trees)
        return sweep(trees, *args, **kwargs)

    monkeypatch.setattr(oracle_lab.cli, "sweep", recording_sweep)
    args = ["check", "--strategy", "top-down", "--generate", "5", "--seed", "9",
            "--max-tokens", "4", "--labels", "A,B"]
    assert main(args) == 0
    expected = synthetic_corpus(5, ["A", "B"], seed=9, max_tokens=4)
    assert [serialize(t) for t in seen[0]] == [serialize(t) for t in expected]
    report = sweep(expected, "top-down", SearchBounds(max_tokens=4, max_consecutive_nt=3),
                   walk_policy="random-walk", seed=9)
    assert capsys.readouterr().out.startswith(
        f"PASS: {report.configs_checked} configurations checked, 0 mismatches,"
    )


MODEL_HEAD = b"oracle-lab-model v1 top-down\nlabels: X\n"
CORPUS = b"(X w0 w1)\n"

# Each file argument of each subcommand; {bad} is the file under test.
FILE_ARGUMENTS = {
    "oracle-trace": ["oracle-trace", "--strategy", "top-down", "{bad}"],
    "check": ["check", "--strategy", "top-down", "{bad}"],
    "train": ["train", "--strategy", "top-down", "{bad}", "--out", "{out}"],
    "parse-model": ["parse", "--strategy", "top-down", "{bad}", "{corpus}"],
    "parse-sentences": ["parse", "--strategy", "top-down", "{model}", "{bad}"],
    "eval-gold": ["eval", "{bad}", "{corpus}"],
    "eval-pred": ["eval", "{corpus}", "{bad}"],
}

# file contents per kind of file: None is a missing file
BAD_INPUTS = {
    "missing": {"corpus": None, "model": None},
    "empty": {"corpus": b"", "model": b""},
    "malformed": {"corpus": CORPUS + b"(X w0\n", "model": MODEL_HEAD + b"bias\tSH\n"},
    "not-utf8": {"corpus": CORPUS + b"(X w\xff0)\n", "model": MODEL_HEAD + b"b\xff\tSH\t1.0\n"},
}


@pytest.mark.parametrize("bad_input", list(BAD_INPUTS))
@pytest.mark.parametrize("argument", list(FILE_ARGUMENTS))
def test_every_file_argument_keeps_the_exit_code_contract(tmp_path, capsys, argument, bad_input):
    """A missing, empty, malformed or non-UTF-8 file exits 2 with one
    line that names it, and writes nothing."""
    files = {"corpus": tmp_path / "corpus.txt", "model": tmp_path / "m.model",
             "bad": tmp_path / "bad.txt", "out": tmp_path / "out.model"}
    files["corpus"].write_bytes(CORPUS)
    files["model"].write_bytes(MODEL_HEAD)
    content = BAD_INPUTS[bad_input]["model" if argument == "parse-model" else "corpus"]
    if content is not None:
        files["bad"].write_bytes(content)
    args = [a.format(**files) for a in FILE_ARGUMENTS[argument]]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("oracle-lab: ")
    assert str(files["bad"]) in captured.err
    assert "Traceback" not in captured.err
    assert not files["out"].exists()


@pytest.mark.parametrize("epochs", ["0", "-1"])
def test_train_rejects_fewer_than_one_epoch(tmp_path, capsys, epochs):
    corpus = tmp_path / "corpus.txt"
    model = tmp_path / "m.model"
    main(["gen", "3", "--out", str(corpus), "--max-tokens", "3"])
    capsys.readouterr()
    assert main(
        ["train", "--strategy", "top-down", str(corpus), "--out", str(model),
         "--epochs", epochs]
    ) == 2
    assert f"epochs must be at least 1, got {epochs}" in capsys.readouterr().err
    assert not model.exists()


@pytest.mark.parametrize(
    "out, reason",
    [("nodir/m.model", "no such directory {dir}"), ("", "is a directory")],
)
def test_train_checks_out_before_training(tmp_path, capsys, monkeypatch, out, reason):
    """An --out that cannot be written exits 2, naming it, before the
    first epoch."""
    corpus = tmp_path / "corpus.txt"
    corpus.write_bytes(CORPUS)
    path = tmp_path / out
    monkeypatch.setattr(oracle_lab.cli, "train", lambda *a, **k: pytest.fail("trained"))
    assert main(["train", "--strategy", "top-down", str(corpus), "--out", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"oracle-lab: {path}: {reason.format(dir=path.parent)}\n"
    assert captured.out == ""
    assert not (tmp_path / "nodir").exists()


def test_train_keeps_an_existing_model_when_it_fails(tmp_path, capsys):
    corpus = tmp_path / "corpus.txt"
    corpus.write_bytes(CORPUS)
    model = tmp_path / "m.model"
    model.write_bytes(MODEL_HEAD)
    args = ["train", "--strategy", "top-down", str(corpus), "--out", str(model)]
    assert main(args + ["--epochs", "0"]) == 2
    assert "epochs must be at least 1" in capsys.readouterr().err
    assert model.read_bytes() == MODEL_HEAD


@pytest.mark.parametrize("strategy", ["top-down", "in-order"])
def test_train_names_an_oracle_violation(tmp_path, capsys, monkeypatch, strategy):
    """An oracle that breaks its own equation during dynamic training is
    a verification mismatch, not an input error: exit 1, naming the
    sentence and the moves taken, with no model written.  With every move
    total one too high, the least of them is not the path's total at the
    first step.  With the initial total one too high as well, every step
    agrees with the one before, and only the terminal configuration,
    against its Hamming loss counted afresh, shows it."""
    assert not issubclass(OracleViolation, ValueError)
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("(X (Y w0 w1) w2)\n", encoding="utf-8")
    out = tmp_path / "m.model"
    args = ["train", "--strategy", strategy, str(corpus), "--out", str(out), "--explore-p", "0.1"]
    real_totals, real_losses = oracle_lab.model._move_totals, oracle_lab.model._move_losses
    monkeypatch.setattr(
        oracle_lab.model, "_move_totals", lambda c, g, m: [t + 1 for t in real_totals(c, g, m)]
    )
    assert main(args) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        "oracle-lab: oracle violation at step 0 of the sentence 'w0 w1 w2', after the"
        " moves '': the least move total is 1, not 0\n"
    )
    assert captured.out == "" and not out.exists()

    def one_too_high(c, g, m):
        breakdown, totals = real_losses(c, g, m)
        return breakdown._replace(total=breakdown.total + 1), totals

    monkeypatch.setattr(oracle_lab.model, "_move_losses", one_too_high)
    assert main(args) == 1
    err = capsys.readouterr().err
    path = {"top-down": "NT_X NT_Y SH SH RE SH RE", "in-order": "SH NT_Y SH RE NT_X SH RE FI"}
    assert err == (
        f"oracle-lab: oracle violation at step {len(path[strategy].split())} of the sentence"
        f" 'w0 w1 w2', after the moves '{path[strategy]}': the terminal total is 1, not its"
        " Hamming loss 0\n"
    )
    assert not out.exists()


def test_gen_rejects_a_negative_count(tmp_path, capsys):
    corpus = tmp_path / "corpus.txt"
    assert main(["gen", "-3", "--out", str(corpus)]) == 2
    assert "tree count must not be negative, got -3" in capsys.readouterr().err
    assert not corpus.exists()


@pytest.mark.parametrize("labels", ["A B,Y", "", "X(,Y", "X,Y)", "X,,Y", "X,X"])
def test_gen_rejects_labels_that_cannot_be_written_out(tmp_path, capsys, labels):
    corpus = tmp_path / "corpus.txt"
    error = "repeated label 'X'" if labels == "X,X" else "bad label"
    for count in ("0", "3"):  # a count of 0 draws no tree, but still checks
        assert main(["gen", count, "--labels", labels, "--out", str(corpus)]) == 2
        assert error in capsys.readouterr().err
        assert not corpus.exists()


def parse_scripts_table(text):
    """The ``[project.scripts]`` table of a pyproject.toml, without tomllib.

    Python 3.10 has no tomllib. The table holds only ``name = "module:attr"``
    lines, so this reads those and nothing else.
    """
    scripts, inside = {}, False
    for line in text.splitlines():
        header = re.match(r"\s*\[([^\]]*)\]", line)
        if header:
            inside = header.group(1).strip() == "project.scripts"
            continue
        entry = re.match(r'\s*([\w.-]+)\s*=\s*"([^"]*)"', line)
        if inside and entry:
            scripts[entry.group(1)] = entry.group(2)
    return scripts


def declared_scripts():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    try:
        import tomllib
    except ModuleNotFoundError:
        return parse_scripts_table(text)
    return tomllib.loads(text)["project"]["scripts"]


def run_script(command, tmp_path):
    """Run a console script from outside the checkout, importing ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [*command, *SMOKE_ARGS],
        capture_output=True,
        text=True,
        timeout=120,
        cwd=tmp_path,
        env=env,
    )
    shown = f"stderr:\n{done.stderr}\nstdout:\n{done.stdout}"
    assert done.returncode == 0, f"{command} exited {done.returncode}\n{shown}"
    assert done.stdout.startswith("PASS:"), shown


def test_scripts_table_parse_matches_tomllib():
    tomllib = pytest.importorskip("tomllib")
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert parse_scripts_table(text) == tomllib.loads(text)["project"]["scripts"]


def test_console_script_smoke(tmp_path):
    target = declared_scripts()["oracle-lab"]
    module, _, name = target.partition(":")
    func = getattr(importlib.import_module(module), name, None)
    assert func is main, f"oracle-lab = {target!r} is not oracle_lab.cli.main"

    # The same two lines pip writes into the oracle-lab wrapper.
    run_script(
        [sys.executable, "-c",
         f"import sys; from {module} import {name}; sys.exit({name}())"],
        tmp_path,
    )

    installed = shutil.which("oracle-lab")
    if installed:
        run_script([installed], tmp_path)


def test_runtime_imports_only_the_standard_library():
    """The package and its CLI load no module outside the standard
    library.  -S keeps site hooks, which load modules of their own, out of
    the count."""
    code = (
        "import sys, oracle_lab, oracle_lab.cli;"
        " print(sorted({m.partition('.')[0] for m in sys.modules}"
        " - set(sys.stdlib_module_names) - {'oracle_lab', '__main__'}))"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"
