"""Clause-matching evaluation with best-alignment search.

A DRS decomposes into a multiset of clauses; predicted and gold variables
and box ids are alignment-subject symbols while labels and constants are
fixed. The score searches for the injective, sort-respecting symbol map
that maximizes matched clauses, then reports precision, recall and F1,
plus a four-way category breakdown under the fixed best alignment. The
search policy is fixed: hill climbing from a greedy start plus 19 random
starts seeded with 0, keeping the best, so a pair always gets one score.

The search works on exact integer keys, not on renamed clause tuples. One
index per pair codes every token, ``_UNMAPPED`` as 0, and keys a clause by
one digit per position in a base above every code, plus a length digit
above the longest clause; so two clauses have equal keys exactly when they
are equal tuples (``rename_clause`` is the definition the keys are tested
against). A predicted clause's key is then a fixed part plus, for each
symbol it holds, a weight times the code of the symbol's image.

A climb has one move: a predicted symbol ``p`` takes another image ``b``
of its sort, and if a predicted symbol ``q`` held ``b``, ``q`` takes
``p``'s old image ``a``. So a reassignment is a swap with a free gold
symbol. A move is scored by its delta: it adds
``weight * (code(b) - code(a))`` to the key of each clause that holds
``p``, subtracts the same from the key of each clause that holds ``q``,
and changes no other key. A map that renames clauses holds every symbol
of its side, with ``_UNMAPPED`` as the image of an unmapped one; no clause
holds it, so unmapping a symbol can never gain and is not a move. A report
carries the search statistics: the moves applied and the moves scored.

A climb's path depends on nothing but the mapping it stands at, so a climb
that starts at, or steps onto, a mapping an earlier climb of the same pair
passed is not run again: it takes that climb's outcome from a memo. The
memo lives for one ``best_alignment`` call and is never shared across
pairs or documents. A recalled climb still counts the moves it would have
applied and scored, so the statistics and the result are those of 20 climbs
run in full.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .drs import Drs, _is_keyword, clauses, variable_sort
from .errors import DataError

Clause = tuple

CATEGORIES = ("operators", "non_lexical_unary", "non_lexical_binary", "lexical")
RESTARTS = 20  # climbs per pair: the greedy start, then random starts
SEED = 0
_UNMAPPED = object()  # the image of an unmapped symbol, equal to no token
# the categories of a category's report: one shared read-only empty map, not
# an empty dict in each of the four reports that every scored pair keeps
_NO_CATEGORIES = MappingProxyType({})


@dataclass(frozen=True)
class ClauseSet:
    clauses: tuple[Clause, ...]
    sorts: "dict[str, str]"  # alignment-subject symbol -> sort (x/e/t/s/b)

    def __len__(self) -> int:
        return len(self.clauses)


@dataclass(frozen=True)
class Alignment:
    mapping: "dict[str, str]"  # predicted symbol -> gold symbol, injective
    climb_steps: int = 0  # moves applied, over every climb of the search
    evaluations: int = 0  # moves scored, over every climb of the search

    def __post_init__(self):
        m = self.mapping
        if (type(m) is not dict or not all(type(s) is str for s in (*m, *m.values()))
                or len(set(m.values())) != len(m)):
            raise DataError(f"an alignment maps str to str injectively, not {m!r}")


@dataclass(slots=True)
class ScoreReport:
    matched: int
    n_predicted: int
    n_gold: int
    per_category: "dict[str, ScoreReport]" = field(default_factory=dict)
    climb_steps: int = 0  # search statistics of best_alignment
    evaluations: int = 0

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
    """The lines ``format_clauses`` writes, as ``drs.clauses`` yields them:
    one per referent, condition and relation, a relation at its host, the
    top (``("b1", "CONTINUATION", "b2", "b3")``). Box ids and referents are
    the symbols. ``d`` is not validated, so that a prediction with
    relations dropped still scores."""
    sorts: dict[str, str] = {}
    for b in d.boxes:
        sorts[b.id] = "b"
        sorts.update((v, variable_sort(v)) for v in b.referents)
    return ClauseSet(clauses=tuple(clauses(d)), sorts=sorts)


def rename_clause(clause: Clause, mapping: dict) -> Clause:
    """Rename ``clause`` through a symbol map that holds every symbol of its
    side: a symbol becomes its image, and a label or constant, which the map
    does not hold, stays as it is. A partial map, such as
    ``Alignment.mapping``, leaves an unmapped symbol as it is, so that it
    may match a clause of the other side that spells it alike."""
    out = []
    for tok in clause:
        out.append(mapping.get(tok, tok))
    return tuple(out)


def _by_sort(sorts: dict[str, str]) -> dict[str, list[str]]:
    out: dict[str, list[str]] = {}
    for s, sort in sorted(sorts.items()):
        out.setdefault(sort, []).append(s)
    return out


def _smart_init(index: _PairIndex) -> dict[str, str]:
    """Greedy seed: vote for symbol pairs implied by clauses whose fixed
    parts already agree. Equal signature keys, the clauses with each symbol
    coded as its sort, pair symbols of one sort."""
    pred, gold = index.pred, index.gold
    gold_by_sig: dict[int, list[Clause]] = {}
    for sig, c in zip(index.gold_sigs, gold.clauses):
        gold_by_sig.setdefault(sig, []).append(c)
    votes: Counter = Counter()
    for sig, pc in zip(index.pred_sigs, pred.clauses):
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


class _PairIndex:
    """One pair's clauses as exact integer keys, built once per
    ``best_alignment`` call.

    ``code`` numbers the tokens a renamed predicted clause or a gold clause
    can hold: 0 for ``_UNMAPPED``, then the gold symbols and tokens and the
    predicted labels and constants, one code per string, so a predicted
    token spelled like a gold one shares its code. Sorts get codes above
    those. A key has one digit per position in base ``base``, the largest
    code + 1, and the clause's length as a digit at ``top``, one place above
    the longest clause. So a clause ending in ``_UNMAPPED`` (digit 0) keeps
    a key apart from the shorter clause without it, however many boxes an
    unvalidated operator holds.

    ``fixed`` keys the predicted clauses with digit 0 for every symbol, and
    ``occurrences[p]`` lists ``(clause index, weight)`` for each clause that
    holds ``p``, the weight summing ``base ** position`` over its places.
    Signature keys code each symbol as its sort.
    """

    __slots__ = ("pred", "gold", "code", "base", "top", "fixed", "occurrences",
                 "gold_counts", "pred_sigs", "gold_sigs", "pred_by_sort", "gold_by_sort")

    def __init__(self, pred: ClauseSet, gold: ClauseSet):
        self.pred, self.gold = pred, gold
        code = self.code = {_UNMAPPED: 0}
        for tok in (*gold.sorts, *(t for c in gold.clauses for t in c),
                    *(t for c in pred.clauses for t in c if t not in pred.sorts)):
            code.setdefault(tok, len(code))
        sort_code = {sort: len(code) + k for k, sort in
                     enumerate(sorted({*pred.sorts.values(), *gold.sorts.values()}))}
        self.base = len(code) + len(sort_code)
        self.top = self.base ** max(map(len, (*pred.clauses, *gold.clauses)), default=0)
        self.fixed = [self._digits([0 if t in pred.sorts else code[t] for t in c])
                      for c in pred.clauses]
        held: dict[str, dict[int, int]] = {s: {} for s in pred.sorts}
        for i, c in enumerate(pred.clauses):
            for j, t in enumerate(c):
                if t in held:
                    held[t][i] = held[t].get(i, 0) + self.base ** j
        self.occurrences = {s: list(by_clause.items()) for s, by_clause in held.items()}
        self.gold_counts = Counter(map(self.encode, gold.clauses))
        self.pred_sigs = self.keys(pred.sorts, sort_code)
        self.gold_sigs = [self._digits([sort_code[gold.sorts[t]] if t in gold.sorts
                                        else code[t] for t in c]) for c in gold.clauses]
        self.pred_by_sort, self.gold_by_sort = _by_sort(pred.sorts), _by_sort(gold.sorts)

    def _digits(self, codes: list[int]) -> int:
        key, place = len(codes) * self.top, 1
        for c in codes:
            key += c * place
            place *= self.base
        return key

    def encode(self, clause: Clause) -> int:
        """The key of a clause whose every token has a code, such as a
        predicted clause renamed through a total map."""
        return self._digits([self.code[t] for t in clause])

    def keys(self, mapping: dict, codes: dict) -> list[int]:
        """The key of every predicted clause with each symbol ``p`` coded as
        ``codes[mapping[p]]``."""
        keys = list(self.fixed)
        for p, held in self.occurrences.items():
            c = codes[mapping[p]]
            for i, w in held:
                keys[i] += w * c
        return keys


def _climb(index: _PairIndex, mapping: dict[str, str],
           memo: dict) -> tuple[dict[str, str], int, int, int]:
    """Steepest ascent: apply the move with the largest gain until none
    gains; the first of equal gains wins. Each step matches at least one
    more clause, so a climb ends within ``len(pred)`` steps. Returns the
    mapping, its matched count, the steps taken and the moves scored.

    The climb keeps the key of every predicted clause under the current
    mapping (see ``_PairIndex``) and a running count of those keys. Each
    predicted symbol ``p`` in sorted order has one list of moves: it takes
    each free gold symbol of its sort in turn, then the image of each later
    predicted symbol ``q`` of its sort whose image differs, and ``q`` takes
    ``p``'s. Moving ``p`` from image ``a`` to ``b`` adds
    ``weight * (code(b) - code(a))`` to the key of each clause in
    ``occurrences[p]``, and moving ``q`` from ``b`` to ``a`` subtracts the
    same for ``occurrences[q]``. A move's gain is the change in matched
    clauses from removing the moved clauses' old keys from the count and
    adding their new ones. A move that gives no clause a gold key cannot
    gain, so its gain is not worked out. Only an applied move is written
    back. Every predicted symbol is a key of the mapping, ``_UNMAPPED`` if
    unmapped. Unmapping a symbol alone is never proposed: its clauses would
    hold ``_UNMAPPED``, which matches no gold clause, so it cannot gain.

    A state, the images of the predicted symbols in the order of
    ``pred.sorts``, fixes the rest of the climb. So ``memo`` maps each state
    passed to the climb's outcome from it: the final mapping and count, and
    the steps and moves scored from there on. A climb that starts or
    arrives at a state in ``memo`` takes that outcome, adding its steps and
    moves to its own, and on ending fills in every state it passed.
    """
    sorts, code, occurrences = index.pred.sorts, index.code, index.occurrences
    gold_counts, gold_keys = index.gold_counts, index.gold_counts.keys()
    pred_by_sort, gold_by_sort = index.pred_by_sort, index.gold_by_sort
    current = dict.fromkeys(sorts, _UNMAPPED)
    current.update(mapping)
    # a tuple of a dict view is allocated once at its size; one grown from a
    # generator, at every step of every climb, leaves the heap fragmented
    state = tuple(current.values())
    if state in memo:
        return memo[state]
    keys = index.keys(current, code)
    counts = Counter(keys)
    score = sum(min(n, gold_counts[k]) for k, n in counts.items())
    path = []  # (state, moves scored there) for each state a step left

    def gain_of(moved: dict[int, int]) -> int:
        # the change in matched clauses when clause i takes the key moved[i];
        # 0 for a move that gives no clause a gold key, which cannot gain and
        # so never beats the best gain (>= 0)
        if gold_keys.isdisjoint(moved.values()):
            return 0
        delta: dict[int, int] = {}  # net change per key that gold holds
        for i, new in moved.items():
            old = keys[i]
            if old in gold_counts:
                delta[old] = delta.get(old, 0) - 1
            if new in gold_counts:
                delta[new] = delta.get(new, 0) + 1
        gain = 0
        for k, d in delta.items():
            n, g = counts[k], gold_counts[k]
            gain += min(n + d, g) - min(n, g)
        return gain

    psyms = sorted(sorts)
    while True:
        best_gain, best_move = 0, None
        used = set(current.values())
        scored = 0  # moves scored at this state
        for p in psyms:
            sort = sorts[p]
            image = current[p]
            held, a = occurrences[p], code[image]
            # p takes image b, held by no predicted symbol (q None) or by a
            # later predicted symbol q of its sort, which takes p's image;
            # either image may be _UNMAPPED
            moves = [(g, None) for g in gold_by_sort.get(sort, ()) if g not in used]
            moves += [(current[q], q) for q in pred_by_sort[sort] if q > p and current[q] != image]
            scored += len(moves)
            for b, q in moves:
                d = code[b] - a
                moved = {i: keys[i] + w * d for i, w in held}
                if q is not None:
                    for i, w in occurrences[q]:
                        moved[i] = moved.get(i, keys[i]) - w * d
                gain = gain_of(moved)
                if gain > best_gain:
                    best_gain, best_move = gain, (p, b, q, moved)
        if best_move is None:
            outcome = memo[state] = current, score, 0, scored
            break
        path.append((state, scored))
        p, b, q, moved = best_move
        if q is not None:
            current[q] = current[p]
        current[p] = b
        for i, new in moved.items():
            counts[keys[i]] -= 1
            counts[new] += 1
            keys[i] = new
        score += best_gain
        state = tuple(current.values())
        if state in memo:
            outcome = memo[state]
            break
    final, final_score, steps, evaluations = outcome
    for passed, scored in reversed(path):
        steps, evaluations = steps + 1, evaluations + scored
        memo[passed] = final, final_score, steps, evaluations
    return final, final_score, steps, evaluations


def best_alignment(pred: ClauseSet, gold: ClauseSet) -> tuple[Alignment, int]:
    """Search for the symbol alignment maximizing matched clauses.

    The returned count is a lower bound on the true optimum, and it can
    fall short on small pairs too (ROADMAP item 18): when a sort has more
    predicted than gold symbols, every random start maps the same predicted
    symbols, and a match that needs two symbols moved at once is a plateau
    for the climb's single moves. The alignment carries the search
    statistics summed over all climbs.

    One ``_PairIndex`` serves the whole search: it codes the pair's tokens,
    keys every clause exactly, and holds the signature keys the greedy
    start reads and each symbol's clauses and weights the climbs move
    keys by. A climb that repeats part of an earlier one is recalled from a
    memo of climb states. The index and the memo live for this one call
    and so are never shared across pairs or documents; a recalled climb
    counts the steps and moves it would have made, so the statistics are
    those of every climb run in full.
    """
    index = _PairIndex(pred, gold)
    rng = np.random.default_rng(SEED)
    memo: dict = {}  # climb state -> outcome, see _climb
    best_map, best_score, steps, evaluations = {}, -1, 0, 0
    for restart in range(RESTARTS):
        start = (_random_init(index.pred_by_sort, index.gold_by_sort, rng) if restart
                 else _smart_init(index))
        mapping, score, n_steps, n_evaluations = _climb(index, start, memo)
        steps += n_steps
        evaluations += n_evaluations
        if score > best_score:
            best_map, best_score = mapping, score
    return Alignment(mapping={p: g for p, g in best_map.items() if g is not _UNMAPPED},
                     climb_steps=steps, evaluations=evaluations), best_score


def score(pred: Drs, gold: Drs, lexical_labels: frozenset[str] | None = None) -> ScoreReport:
    pred_cs, gold_cs = to_clauses(pred), to_clauses(gold)
    alignment, matched = best_alignment(pred_cs, gold_cs)
    report = ScoreReport(matched=matched, n_predicted=len(pred_cs), n_gold=len(gold_cs),
                         climb_steps=alignment.climb_steps,
                         evaluations=alignment.evaluations)
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
                       n_gold=sum(r.n_gold for r in reports),
                       climb_steps=sum(r.climb_steps for r in reports),
                       evaluations=sum(r.evaluations for r in reports))


def categorize_clause(clause: Clause, sorts: dict[str, str],
                      lexical_labels: frozenset[str]) -> str:
    """Bucket for the error analysis: logic operators and discourse
    relations / non-lexical unary (incl. referent declarations) /
    non-lexical binary roles / lexical predicates. A clause is an operator
    or relation when its label is a keyword other than REF and its
    arguments are all boxes."""
    if clause[1] == "REF":
        return "non_lexical_unary"
    if _is_keyword(clause[1]) and all(sorts.get(tok) == "b" for tok in clause[2:]):
        return "operators"
    if len(clause) == 4:
        return "non_lexical_binary"
    return "lexical" if clause[1] in lexical_labels else "non_lexical_unary"


def category_breakdown(pred: ClauseSet, gold: ClauseSet, alignment: Alignment,
                       lexical_labels: frozenset[str]) -> dict[str, ScoreReport]:
    """Scores per ``categorize_clause`` category under one alignment fixed on
    the full clause sets. A predicted clause renamed under ``alignment``
    matches an equal gold clause of its category, each gold clause once at
    most; a sort-respecting alignment gives both one category, so the four
    counts sum to the pair's."""
    pred_cats = [categorize_clause(c, pred.sorts, lexical_labels) for c in pred.clauses]
    gold_cats = [categorize_clause(c, gold.sorts, lexical_labels) for c in gold.clauses]
    mapping = {s: alignment.mapping.get(s, _UNMAPPED) for s in pred.sorts}
    renamed = Counter(zip(pred_cats, (rename_clause(c, mapping) for c in pred.clauses)))
    gold_counts = Counter(zip(gold_cats, gold.clauses))
    matched = Counter()
    for (cat, c), n in renamed.items():
        matched[cat] += min(n, gold_counts[cat, c])
    return {cat: ScoreReport(matched=matched[cat], n_predicted=pred_cats.count(cat),
                             n_gold=gold_cats.count(cat), per_category=_NO_CATEGORIES)
            for cat in CATEGORIES}
