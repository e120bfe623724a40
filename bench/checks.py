"""Correctness checks, each computed apart from the program under test.

Every check returns a list of failure messages; an empty list is a pass.
The inputs are plain values, so ``corrupt.py`` can feed each check a
deliberately broken output and show that it fails.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import permutations, product

import numpy as np

from gen import ConvertDoc, ScorePair, signature

BRUTE_FORCE_MAX_SYMBOLS = 7


# ---------------------------------------------------------------------------
# score


def brute_force_matches(pair: ScorePair) -> int:
    """Best match count over every injective, sort-respecting symbol map.

    Mapping one more symbol never loses a match (an unmapped symbol matches
    nothing), so only maps that are full on the smaller side of each sort
    are tried.
    """
    sorts = sorted(set(pair.pred_sorts.values()) | set(pair.gold_sorts.values()))
    per_sort = []
    for s in sorts:
        ps = sorted(k for k, v in pair.pred_sorts.items() if v == s)
        gs = sorted(k for k, v in pair.gold_sorts.items() if v == s)
        if len(ps) <= len(gs):
            per_sort.append([dict(zip(ps, perm)) for perm in permutations(gs, len(ps))])
        else:
            per_sort.append([dict(zip(perm, gs)) for perm in permutations(ps, len(gs))])
    gold = Counter(pair.gold_clauses)
    best = 0
    for combo in product(*per_sort):
        mapping = {k: v for m in combo for k, v in m.items()}
        renamed = Counter(tuple(mapping.get(t, ("?", t)) if t in pair.pred_sorts else t
                                for t in c) for c in pair.pred_clauses)
        best = max(best, sum(min(n, gold[c]) for c, n in renamed.items()))
    return best


def brute_force_applies(pair: ScorePair) -> bool:
    return max(len(pair.pred_sorts), len(pair.gold_sorts)) <= BRUTE_FORCE_MAX_SYMBOLS


def check_score(pair: ScorePair, matched: int, n_pred: int, n_gold: int, f1: float,
                per_category: dict, brute_force: int | None) -> list[str]:
    """``per_category`` maps a category to (matched, n_pred, n_gold)."""
    out = []
    if (n_pred, n_gold) != (pair.n_pred, pair.n_gold):
        out.append(f"clause counts {n_pred}/{n_gold}, generator wrote "
                   f"{pair.n_pred}/{pair.n_gold}")
    if matched > min(n_pred, n_gold):
        out.append(f"matched {matched} exceeds min(n_pred, n_gold)")
    if matched < pair.planted:
        out.append(f"matched {matched} below the planted renaming's {pair.planted}")
    if pair.exact and f1 != 1.0:
        out.append(f"exact renamed copy scored F1 {f1}")
    sums = tuple(sum(v[i] for v in per_category.values()) for i in range(3))
    if sums != (matched, n_pred, n_gold):
        out.append(f"per-category sums {sums} != totals {(matched, n_pred, n_gold)}")
    if brute_force is not None and matched != brute_force:
        out.append(f"matched {matched} != brute-force optimum {brute_force}")
    return out


def check_micro(docs: list[tuple[int, int, int, dict]], micro: tuple[int, int, int, dict]
                ) -> list[str]:
    """Each doc and the micro-average as (matched, n_pred, n_gold, per_category)."""
    totals = tuple(sum(d[i] for d in docs) for i in range(3))
    out = []
    if totals != micro[:3]:
        out.append(f"micro-average {micro[:3]} != summed documents {totals}")
    cats: dict = {}
    for d in docs:
        for cat, v in d[3].items():
            cats[cat] = tuple(a + b for a, b in zip(cats.get(cat, (0, 0, 0)), v))
    if cats != micro[3]:
        out.append("micro-average per-category counts differ from summed documents")
    return out


# ---------------------------------------------------------------------------
# convert


def drs_clauses(d) -> list[tuple]:
    """Clause tuples of a ``boxparse`` Drs, read off its fields."""
    out = [("REL",) + tuple(r) for r in d.relations]
    for b in d.boxes:
        out.extend((b.id, "REF", v) for v in b.referents)
        for c in b.conditions:
            if hasattr(c, "predicate"):
                out.append((b.id, c.predicate, c.argument))
            elif hasattr(c, "role"):
                out.append((b.id, c.role, c.first, c.second))
            else:
                out.append((b.id, c.op) + tuple(c.boxes))
    return out


def check_convert(doc: ConvertDoc, trees_equal: bool, out_drs, n_tokens: int,
                  text: str, reformatted: str) -> list[str]:
    out = []
    if not trees_equal:
        out.append("delinearize(linearize(t)) != t")
    if len(out_drs.boxes) != doc.n_boxes:
        out.append(f"{len(out_drs.boxes)} boxes, generator built {doc.n_boxes}")
    refs = dict(Counter(v[0] for b in out_drs.boxes for v in b.referents))
    if refs != doc.refs_per_sort:
        out.append(f"referents per sort {refs} != {doc.refs_per_sort}")
    if Counter(signature(c) for c in drs_clauses(out_drs)) != doc.signatures:
        out.append("clause signatures differ from the generator's")
    if n_tokens != doc.n_tokens:
        out.append(f"{n_tokens} tokens, closed form gives {doc.n_tokens}")
    # Compared as sorted lines: parse orders boxes by first mention and
    # format_clauses writes them in stored order, so the blocks can move
    # (FORMAT_PROBE in run.py shows it), but no line may change.
    if sorted(reformatted.splitlines()) != sorted(text.splitlines()):
        out.append("formatting the re-parsed output changed its lines")
    return out


# ---------------------------------------------------------------------------
# train


def check_losses(losses: list[float]) -> list[str]:
    bad = [i for i, v in enumerate(losses) if not math.isfinite(v)]
    return [f"non-finite loss at steps {bad[:5]}"] if bad else []


def check_fixed_batch(before: float, after: float) -> list[str]:
    if not after < before:
        return [f"fixed-batch loss did not fall: {before:.4f} -> {after:.4f}"]
    return []


def central_difference(loss_fn, params: dict, analytic: dict, rng: np.random.Generator,
                       per_param: int = 4, h: float = 1e-5, tolerance: float = 1e-5
                       ) -> list[str]:
    """Compare ``analytic`` gradients with central differences of ``loss_fn``.

    Entries are sampled from those with a nonzero analytic gradient, plus one
    with a zero gradient. The relative error of an entry is divided by the
    largest of its two values and the parameter's gradient scale (its largest
    analytic entry), so a gradient wrong by a constant factor fails however
    small the gradients are.
    """
    out = []
    for name, p in params.items():
        g = analytic[name].reshape(-1)
        scale = float(np.abs(g).max())
        nonzero = np.flatnonzero(g)
        zero = np.flatnonzero(g == 0)
        picks = list(rng.choice(nonzero, size=min(per_param, nonzero.size), replace=False))
        if zero.size:
            picks.append(int(rng.choice(zero)))
        flat = p.data.reshape(-1)
        for i in picks:
            orig = flat[i]
            flat[i] = orig + h
            up = loss_fn()
            flat[i] = orig - h
            down = loss_fn()
            flat[i] = orig
            numeric = (up - down) / (2.0 * h)
            a = float(g[i])
            rel = abs(a - numeric) / max(abs(a), abs(numeric), scale, 1e-300)
            if rel > tolerance:
                out.append(f"{name}[{int(i)}] analytic={a:.6g} numeric={numeric:.6g} "
                           f"rel={rel:.2g}")
    return out
