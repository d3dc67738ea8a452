import importlib
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import EXAMPLE_TREE, EXAMPLE_IN_ORDER, EXAMPLE_TOP_DOWN
from oracle_lab.cli import main
from oracle_lab.trees import load_corpus, parse_bracketed, serialize

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


def test_check_rejects_conflicting_sources(example_corpus, capsys):
    assert main(["check", "--strategy", "top-down", example_corpus, "--generate", "2"]) == 2
    assert "not both" in capsys.readouterr().err


@pytest.mark.parametrize("count", ["0", "-3"])
def test_check_rejects_fewer_than_one_generated_tree(capsys, count):
    assert main(["check", "--strategy", "in-order", "--generate", count]) == 2
    captured = capsys.readouterr()
    assert f"--generate needs at least 1 tree, got {count}" in captured.err
    assert captured.out == ""


def test_check_rejects_deep_chains(tmp_path, capsys):
    corpus = tmp_path / "deep.txt"
    corpus.write_text("(A (B (C (D (E w0 w1)))))\n", encoding="utf-8")
    assert main(["check", "--strategy", "top-down", str(corpus), "--policy", "gold-prefix"]) == 2
    assert capsys.readouterr().err == (
        "oracle-lab: tree 0: top-down derivation needs 5 consecutive NT"
        " transitions, over the cap of 3\n"
    )


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
    assert "consecutive non-terminal cap" in capsys.readouterr().err

    # 1100 opens on the stack at once, one per left end
    assert main(["oracle-trace", "--strategy", "top-down", str(right_path)]) == 0
    rows = trace_rows(capsys.readouterr().out)
    assert len(rows) == 3 * depth + 1
    assert all(r[4] == "0" for r in rows)


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
    assert f"{model}: empty label set" in capsys.readouterr().err


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
    assert f"{model}: repeated label in labels header" in capsys.readouterr().err


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


def test_gen_rejects_a_negative_count(tmp_path, capsys):
    corpus = tmp_path / "corpus.txt"
    assert main(["gen", "-3", "--out", str(corpus)]) == 2
    assert "tree count must not be negative, got -3" in capsys.readouterr().err
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
