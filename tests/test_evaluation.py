import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import EXAMPLE_TREE, trees
from oracle_lab.evaluation import (
    ARITY_BUCKETS,
    PRF,
    arity_breakdown,
    prf,
    render_report,
)
from oracle_lab.trees import constituent_set, parse_bracketed, random_tree


def test_identical_trees_score_100(example_tree):
    r = prf([example_tree], [example_tree])
    assert (r.precision, r.recall, r.f1) == (100.0, 100.0, 100.0)
    assert (r.matched, r.predicted, r.gold) == (5, 5, 5)


def test_one_substituted_label_scores_80(example_tree):
    pred = parse_bracketed("(S (NP The public) (VP is (ADJP still) (ADJP cautious)) .)")
    r = prf([example_tree], [pred])
    assert r.matched == 4
    assert (r.precision, r.recall, r.f1) == (80.0, 80.0, 80.0)


def test_empty_prediction_scores_zero_by_convention():
    r = PRF.from_counts(0, 0, 5)
    assert (r.precision, r.recall, r.f1) == (0.0, 0.0, 0.0)
    assert PRF.from_counts(0, 5, 0).f1 == 0.0


def test_example_arity_buckets(example_tree):
    table = arity_breakdown([example_tree], [example_tree])
    matched = {b: table.rows[b].matched for b in ARITY_BUCKETS}
    assert matched == {1: 2, 2: 1, 3: 2, 4: 0, 5: 0}
    assert prf([example_tree], [example_tree]).matched == sum(matched.values())
    for b in ARITY_BUCKETS:
        row = table.rows[b]
        assert row.f1 == (100.0 if row.gold else 0.0)


def test_missing_wrapper_halves_arity_one_recall(example_tree):
    pred = parse_bracketed("(S (NP The public) (VP is still (ADJP cautious)) .)")
    table = arity_breakdown([example_tree], [pred])
    assert table.rows[1].recall == 50.0
    assert table.rows[1].precision == 100.0
    overall = prf([example_tree], [pred])
    assert overall.matched == 4
    assert overall.recall == 80.0
    assert overall.f1 == pytest.approx(2 * 100 * 80 / 180)


def test_arity_disagreement_counts_in_no_bucket():
    gold = parse_bracketed("(X (Y w0 w1) w2)")
    pred = parse_bracketed("(X w0 w1 w2)")
    table = arity_breakdown([gold], [pred])
    assert prf([gold], [pred]).matched == 1  # the (X,0,3) span
    assert sum(r.matched for r in table.rows.values()) == 0


def test_report_shows_the_cross_arity_matches():
    """The arity rows and the cross-arity row add up to the overall
    matches, in both formats."""
    gold = parse_bracketed("(X (Y w0 w1) w2)")
    pred = parse_bracketed("(X w0 w1 w2)")
    overall, table = prf([gold], [pred]), arity_breakdown([gold], [pred])
    tsv = render_report(overall, table, tsv=True).splitlines()
    assert len(tsv) == 1 + 1 + len(ARITY_BUCKETS) + 1
    assert tsv[-1] == "cross-arity\t-\t-\t-\t1\t-\t-"
    assert sum(int(line.split("\t")[4]) for line in tsv[2:]) == overall.matched
    fixed = render_report(overall, table).splitlines()
    assert fixed[-1].split() == ["cross-arity", "-", "-", "-", "1", "-", "-"]
    assert len({len(line) for line in fixed}) == 1  # the columns line up


def test_misaligned_corpora_are_rejected(example_tree):
    with pytest.raises(ValueError, match="corpus length mismatch"):
        prf([example_tree], [])
    other = parse_bracketed("(X w0)")
    with pytest.raises(ValueError, match="sentence 0: token sequences differ"):
        prf([example_tree], [other])


def test_duplicate_spans_match_by_multiplicity():
    doubled = parse_bracketed("(X (X w0 w1))")
    single = parse_bracketed("(X w0 w1)")
    r = prf([doubled], [single])
    assert (r.matched, r.predicted, r.gold) == (1, 1, 2)
    assert r.recall == 50.0


@given(trees())
def test_prf_is_perfect_on_itself(t):
    r = prf([t], [t])
    assert (r.precision, r.recall, r.f1) == (100.0, 100.0, 100.0)
    assert r.gold == len(constituent_set(t))


@given(st.integers(1, 5), st.integers(0, 500), st.integers(0, 500))
def test_prf_swap_symmetry(n, seed_a, seed_b):
    a = random_tree(n, ["X", "Y"], seed_a)
    b = random_tree(n, ["X", "Y"], seed_b)
    ab, ba = prf([a], [b]), prf([b], [a])
    assert ab.precision == ba.recall
    assert ab.recall == ba.precision
    assert ab.f1 == ba.f1


@given(st.integers(1, 5), st.integers(0, 500), st.integers(0, 500))
def test_arity_buckets_partition_both_sides(n, seed_a, seed_b):
    a = random_tree(n, ["X", "Y"], seed_a)
    b = random_tree(n, ["X", "Y"], seed_b)
    table = arity_breakdown([a], [b])
    assert sum(r.gold for r in table.rows.values()) == len(constituent_set(a))
    assert sum(r.predicted for r in table.rows.values()) == len(constituent_set(b))
    assert sum(r.matched for r in table.rows.values()) <= prf([a], [b]).matched


@given(st.lists(st.tuples(st.integers(1, 6), st.integers(0, 500), st.integers(0, 500)),
                min_size=1, max_size=4))
def test_arity_table_and_prf_share_one_span_count(pairs):
    gold = [random_tree(n, ["X", "Y"], a) for n, a, _ in pairs]
    pred = [random_tree(n, ["X", "Y"], b) for n, _, b in pairs]
    overall, table = prf(gold, pred), arity_breakdown(gold, pred)
    assert sum(r.gold for r in table.rows.values()) == overall.gold
    assert sum(r.predicted for r in table.rows.values()) == overall.predicted
    assert sum(r.matched for r in table.rows.values()) <= overall.matched


def test_render_report_formats(example_tree):
    overall = prf([example_tree], [example_tree])
    table = arity_breakdown([example_tree], [example_tree])
    tsv = render_report(overall, table, tsv=True)
    lines = tsv.splitlines()
    assert lines[0] == "section\tprecision\trecall\tf1\tmatched\tpredicted\tgold"
    assert lines[1].startswith("overall\t100.00\t100.00\t100.00\t5\t5\t5")
    assert len(lines) == 1 + 1 + len(ARITY_BUCKETS)
    fixed = render_report(overall, table)
    assert "overall" in fixed
    assert "arity 5+" in fixed
    assert render_report(overall).count("\n") == 1  # header plus overall only
