"""Clause-matching evaluation with best-alignment search.

A DRS decomposes into a multiset of clauses; predicted and gold variables
and box ids are alignment-subject symbols while labels and constants are
fixed. The score searches for the injective, sort-respecting symbol map
that maximizes matched clauses, then reports precision, recall and F1,
plus a four-way category breakdown under the fixed best alignment. The
search policy is fixed: hill climbing from a greedy start plus 19 random
starts seeded with 0, keeping the best, so a pair always gets one score.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .drs import OPERATORS, Drs, box_clauses, variable_sort
from .errors import DataError

Clause = tuple

CATEGORIES = ("operators", "non_lexical_unary", "non_lexical_binary", "lexical")
RESTARTS = 20  # climbs per pair: the greedy start, then random starts
SEED = 0


@dataclass(frozen=True)
class ClauseSet:
    clauses: tuple[Clause, ...]
    sorts: "dict[str, str]"  # alignment-subject symbol -> sort (x/e/t/s/b)

    def __len__(self) -> int:
        return len(self.clauses)


@dataclass(frozen=True)
class Alignment:
    mapping: "dict[str, str]"  # predicted symbol -> gold symbol, injective

    def __post_init__(self):
        values = list(self.mapping.values())
        if len(set(values)) != len(values):
            raise DataError("alignment must be injective")


@dataclass
class ScoreReport:
    matched: int
    n_predicted: int
    n_gold: int
    per_category: "dict[str, ScoreReport]" = field(default_factory=dict)

    @property
    def precision(self) -> float:
        if self.n_predicted == 0:
            return 1.0 if self.n_gold == 0 else 0.0
        return self.matched / self.n_predicted

    @property
    def recall(self) -> float:
        if self.n_gold == 0:
            return 1.0 if self.n_predicted == 0 else 0.0
        return self.matched / self.n_gold

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        if p + r == 0.0:
            return 0.0
        return 2.0 * p * r / (p + r)


def to_clauses(d: Drs) -> ClauseSet:
    """Deterministic clause decomposition: the clauses the file format
    writes, one per referent, condition and discourse relation."""
    clauses: list[Clause] = []
    sorts: dict[str, str] = {}
    for b in d.boxes:
        sorts[b.id] = "b"
        sorts.update((v, variable_sort(v)) for v in b.referents)
        clauses.extend(box_clauses(b))
    clauses.extend(("REL", *r) for r in d.relations)
    return ClauseSet(clauses=tuple(clauses), sorts=sorts)


def rename_clause(clause: Clause, sorts: dict[str, str], mapping: dict[str, str]) -> Clause:
    """Apply a (possibly partial) symbol map; unmapped symbols become
    placeholders that can never match a gold token."""
    out = []
    for tok in clause:
        if tok in sorts:
            out.append(mapping.get(tok, ("?", tok)))
        else:
            out.append(tok)
    return tuple(out)


def count_matches(pred: ClauseSet, gold: ClauseSet, mapping: dict[str, str]) -> int:
    return _count_against(pred, Counter(gold.clauses), mapping)


def _count_against(pred: ClauseSet, gold_counts: Counter, mapping: dict[str, str]) -> int:
    renamed = Counter(rename_clause(c, pred.sorts, mapping) for c in pred.clauses)
    return sum(min(n, gold_counts[c]) for c, n in renamed.items() if c in gold_counts)


def _clause_signature(clause: Clause, sorts: dict[str, str]) -> tuple:
    return tuple(("SYM", sorts[tok]) if tok in sorts else tok for tok in clause)


def _by_sort(sorts: dict[str, str]) -> dict[str, list[str]]:
    out: dict[str, list[str]] = {}
    for s, sort in sorted(sorts.items()):
        out.setdefault(sort, []).append(s)
    return out


def _smart_init(pred: ClauseSet, gold: ClauseSet) -> dict[str, str]:
    """Greedy seed: vote for symbol pairs implied by clauses whose fixed
    parts already agree. Equal signatures pair symbols of one sort."""
    gold_by_sig: dict[tuple, list[Clause]] = {}
    for c in gold.clauses:
        gold_by_sig.setdefault(_clause_signature(c, gold.sorts), []).append(c)
    votes: Counter = Counter()
    for pc in pred.clauses:
        sig = _clause_signature(pc, pred.sorts)
        for gc in gold_by_sig.get(sig, ()):
            for ptok, gtok in zip(pc, gc):
                if ptok in pred.sorts:
                    votes[(ptok, gtok)] += 1
    mapping: dict[str, str] = {}
    used_gold: set[str] = set()
    for (p, g), _n in sorted(votes.items(), key=lambda kv: (-kv[1], kv[0])):
        if p not in mapping and g not in used_gold:
            mapping[p] = g
            used_gold.add(g)
    return mapping


def _random_init(pred_by_sort: dict[str, list[str]], gold_by_sort: dict[str, list[str]],
                 rng: np.random.Generator) -> dict[str, str]:
    mapping: dict[str, str] = {}
    for sort, psyms in pred_by_sort.items():
        gsyms = list(gold_by_sort.get(sort, ()))
        rng.shuffle(gsyms)
        mapping.update(zip(psyms, gsyms))
    return mapping


def _climb(pred: ClauseSet, gold_counts: Counter, mapping: dict[str, str],
           pred_by_sort: dict[str, list[str]],
           gold_by_sort: dict[str, list[str]]) -> tuple[dict[str, str], int]:
    """Steepest ascent: apply the single reassignment, unmapping or swap
    with the largest gain until none gains. Each step matches at least one
    more clause, so a climb ends within ``len(pred)`` steps."""
    current = dict(mapping)
    score = _count_against(pred, gold_counts, current)
    psyms = sorted(pred.sorts)
    while True:
        best_gain, best_map = 0, None
        used = set(current.values())
        for p in psyms:
            sort = pred.sorts[p]
            image = current.get(p)
            # reassign p to a free gold symbol, unmap it, or swap images
            # with a later predicted symbol of its sort; None unmaps
            changes = [{p: g} for g in gold_by_sort.get(sort, ()) if g not in used]
            if image is not None:
                changes.append({p: None})
            changes += [{p: current.get(q), q: image} for q in pred_by_sort[sort]
                        if q > p and current.get(q) != image]
            for change in changes:
                cand = dict(current)
                for s, g in change.items():
                    if g is None:
                        del cand[s]
                    else:
                        cand[s] = g
                gain = _count_against(pred, gold_counts, cand) - score
                if gain > best_gain:
                    best_gain, best_map = gain, cand
        if best_map is None:
            return current, score
        current = best_map
        score += best_gain


def best_alignment(pred: ClauseSet, gold: ClauseSet) -> tuple[Alignment, int]:
    """Search for the symbol alignment maximizing matched clauses.

    The returned count is a lower bound on the true optimum; on small
    symbol sets the greedy start plus random restarts reach it.
    """
    gold_counts = Counter(gold.clauses)
    pred_by_sort, gold_by_sort = _by_sort(pred.sorts), _by_sort(gold.sorts)
    rng = np.random.default_rng(SEED)
    best_map, best_score = _climb(pred, gold_counts, _smart_init(pred, gold),
                                  pred_by_sort, gold_by_sort)
    for _ in range(RESTARTS - 1):
        start = _random_init(pred_by_sort, gold_by_sort, rng)
        mapping, score = _climb(pred, gold_counts, start, pred_by_sort, gold_by_sort)
        if score > best_score:
            best_map, best_score = mapping, score
    return Alignment(mapping=best_map), best_score


def score(pred: Drs, gold: Drs, lexical_labels: frozenset[str] | None = None) -> ScoreReport:
    pred_cs, gold_cs = to_clauses(pred), to_clauses(gold)
    alignment, matched = best_alignment(pred_cs, gold_cs)
    report = ScoreReport(matched=matched, n_predicted=len(pred_cs), n_gold=len(gold_cs))
    if lexical_labels is not None:
        report.per_category = category_breakdown(pred_cs, gold_cs, alignment, lexical_labels)
    return report


def micro_average(reports: list[ScoreReport]) -> ScoreReport:
    """Corpus-level score: summed counts, not averaged ratios."""
    total = _summed(reports)
    for c in sorted({c for r in reports for c in r.per_category}):
        total.per_category[c] = _summed([r.per_category[c] for r in reports
                                         if c in r.per_category])
    return total


def _summed(reports: list[ScoreReport]) -> ScoreReport:
    return ScoreReport(matched=sum(r.matched for r in reports),
                       n_predicted=sum(r.n_predicted for r in reports),
                       n_gold=sum(r.n_gold for r in reports))


def categorize_clause(clause: Clause, sorts: dict[str, str],
                      lexical_labels: frozenset[str]) -> str:
    """Bucket for the error analysis: logic operators and discourse
    relations / non-lexical unary (incl. referent declarations) /
    non-lexical binary roles / lexical predicates."""
    if clause[0] == "REL":
        return "operators"
    if len(clause) >= 3 and clause[1] in OPERATORS \
            and all(tok in sorts and sorts[tok] == "b" for tok in clause[2:]):
        return "operators"
    if clause[1] == "REF":
        return "non_lexical_unary"
    if len(clause) == 4:
        return "non_lexical_binary"
    return "lexical" if clause[1] in lexical_labels else "non_lexical_unary"


def category_breakdown(pred: ClauseSet, gold: ClauseSet, alignment: Alignment,
                       lexical_labels: frozenset[str]) -> dict[str, ScoreReport]:
    """Per-category scores under one alignment fixed on the full clause sets."""
    out: dict[str, ScoreReport] = {}
    for cat in CATEGORIES:
        pred_sub = ClauseSet(
            clauses=tuple(c for c in pred.clauses
                          if categorize_clause(c, pred.sorts, lexical_labels) == cat),
            sorts=pred.sorts)
        gold_sub = [c for c in gold.clauses
                    if categorize_clause(c, gold.sorts, lexical_labels) == cat]
        matched = _count_against(pred_sub, Counter(gold_sub), alignment.mapping)
        out[cat] = ScoreReport(matched=matched, n_predicted=len(pred_sub),
                               n_gold=len(gold_sub))
    return out
