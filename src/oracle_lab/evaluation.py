"""Labeled bracketing precision/recall/F1 and a per-arity breakdown.

Simplifications relative to canonical evalb runs on treebank data: exact
label match, no punctuation or label-equivalence parameter file.  The
corpora here are synthetic, so none of that machinery earns its keep.

prf counts the matched spans; the arity table counts them again only per
arity bucket, so the matches the two sides bucket differently are prf's
matches less the table's.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .trees import constituent_set, constituents_with_arity

ARITY_BUCKETS = (1, 2, 3, 4, 5)  # bucket 5 holds arity >= 5


def _bucket(arity: int) -> int:
    return min(arity, ARITY_BUCKETS[-1])


@dataclass(frozen=True)
class PRF:
    precision: float
    recall: float
    f1: float
    matched: int
    predicted: int
    gold: int

    @classmethod
    def from_counts(cls, matched, predicted, gold):
        # empty prediction (or gold) side scores 0, not an error
        p = 100.0 * matched / predicted if predicted else 0.0
        r = 100.0 * matched / gold if gold else 0.0
        f1 = 2 * p * r / (p + r) if p + r else 0.0
        return cls(p, r, f1, matched, predicted, gold)


@dataclass(frozen=True)
class ArityTable:
    """Per-arity PRF rows; a pair counts for a row only when both sides put
    the constituent in that row, so some matches may count for no row."""

    rows: dict


def _check_aligned(gold, pred):
    if len(gold) != len(pred):
        raise ValueError(
            f"corpus length mismatch: {len(gold)} gold vs {len(pred)} predicted"
        )
    for idx, (g, p) in enumerate(zip(gold, pred)):
        if tuple(g.tokens) != tuple(p.tokens):
            raise ValueError(f"sentence {idx}: token sequences differ")


def prf(gold, pred) -> PRF:
    """Micro-averaged labeled bracketing score over parallel corpora.

    Constituents are (label, l, r) triples with multiplicity; preterminals
    never enter the constituent set so they are excluded by construction.
    """
    _check_aligned(gold, pred)
    matched = predicted = gold_total = 0
    for g, p in zip(gold, pred):
        # a Constituent is its own (label, l, r) key
        gc, pc = Counter(constituent_set(g)), Counter(constituent_set(p))
        matched += sum((gc & pc).values())
        predicted += sum(pc.values())
        gold_total += sum(gc.values())
    return PRF.from_counts(matched, predicted, gold_total)


def arity_breakdown(gold, pred) -> ArityTable:
    """PRF restricted to each child-count bucket, arity taken from each
    side's own tree.  Matches where the two sides disagree on arity count
    toward no bucket; `render_report` shows them as a cross-arity row."""
    _check_aligned(gold, pred)
    counts = Counter()  # (field, bucket) -> spans
    for g, p in zip(gold, pred):
        gc, pc = (  # one (arity bucket, Constituent) counter per side
            Counter((_bucket(a), c) for c, a in constituents_with_arity(t)) for t in (g, p)
        )
        for field, spans in (("matched", gc & pc), ("predicted", pc), ("gold", gc)):
            for (b, _), k in spans.items():
                counts[field, b] += k
    rows = {
        b: PRF.from_counts(counts["matched", b], counts["predicted", b], counts["gold", b])
        for b in ARITY_BUCKETS
    }
    return ArityTable(rows=rows)


def _row_name(b):
    return f"arity {b}+" if b == ARITY_BUCKETS[-1] else f"arity {b}"


def _cells(r):
    return (
        f"{r.precision:.2f}", f"{r.recall:.2f}", f"{r.f1:.2f}",
        str(r.matched), str(r.predicted), str(r.gold),
    )


def render_report(overall: PRF, arities: ArityTable | None = None, tsv=False) -> str:
    """Overall score plus the arity table, fixed-width or TSV.  When some
    matched spans have a different arity bucket on the two sides, a
    cross-arity row counts them: they are among the overall row's matches
    and in no arity row's."""
    rows = [("overall", _cells(overall))]
    if arities is not None:
        rows += [(_row_name(b), _cells(arities.rows[b])) for b in ARITY_BUCKETS]
        cross = overall.matched - sum(r.matched for r in arities.rows.values())
        if cross:
            rows.append(("cross-arity", ("-", "-", "-", str(cross), "-", "-")))
    if tsv:
        lines = ["section\tprecision\trecall\tf1\tmatched\tpredicted\tgold"]
        lines += ["\t".join((name,) + cells) for name, cells in rows]
    else:
        width = max(10, *(len(name) for name, _ in rows))
        lines = [f"{'':{width}s}{'P':>8s}{'R':>8s}{'F1':>8s}{'match':>7s}{'pred':>7s}{'gold':>7s}"]
        for name, (p, r, f1, matched, pred, gold) in rows:
            lines.append(
                f"{name:{width}s}{p:>8s}{r:>8s}{f1:>8s}{matched:>7s}{pred:>7s}{gold:>7s}"
            )
    return "\n".join(lines)
