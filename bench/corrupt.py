#!/usr/bin/env python3
"""Show that every correctness check of the benchmark fails on a corrupted output.

Run from the repository root:

    python3 bench/corrupt.py

Each case takes a real output of the program on a generated input, breaks
one thing in it, and passes it to the check that should notice. It prints
one line per case and exits 1 if any check let its corruption through.
"""

from __future__ import annotations

import dataclasses
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import numpy as np  # noqa: E402

import checks  # noqa: E402
import gen  # noqa: E402
import model  # noqa: E402
from boxparse import autodiff as ad  # noqa: E402
from boxparse import drs, evaluate, tree  # noqa: E402

results: list[tuple[str, bool]] = []


def expect(case: str, failures: list[str], needle: str) -> None:
    hits = [f for f in failures if needle in f]
    results.append((case, bool(hits)))
    print(f"{'caught' if hits else 'MISSED'}  {case}: {hits[0] if hits else failures}")


def scored(pair: gen.ScorePair):
    gold = drs.strip_senses(drs.merge_presuppositions(drs.parse_clauses(pair.gold_text)))
    pred = drs.strip_senses(drs.merge_presuppositions(drs.parse_clauses(pair.pred_text)))
    rep = evaluate.score(pred, gold, lexical_labels=gen.LEXICAL_LABELS)
    cats = {c: (r.matched, r.n_predicted, r.n_gold) for c, r in rep.per_category.items()}
    return rep, cats


def score_cases() -> None:
    pool = gen.score_pool(1, 40, 10)
    small = next(p for p in pool if not p.exact and checks.brute_force_applies(p))
    exact = next(p for p in pool if p.exact)
    rep, cats = scored(small)
    brute = checks.brute_force_matches(small)
    args = (rep.matched, rep.n_predicted, rep.n_gold, rep.f1, cats, brute)
    assert checks.check_score(small, *args) == [], "uncorrupted output must pass"

    def check(**kw):
        a = dict(zip(("matched", "n_pred", "n_gold", "f1", "per_category", "brute_force"),
                     args))
        a.update(kw)
        return checks.check_score(small, **a)

    expect("score: n_gold off by one", check(n_gold=rep.n_gold + 1), "clause counts")
    expect("score: matched above min(n_pred, n_gold)",
           check(matched=min(rep.n_predicted, rep.n_gold) + 1), "exceeds")
    expect("score: matched below the planted renaming",
           check(matched=small.planted - 1), "planted")
    first = sorted(cats)[0]
    bumped = dict(cats, **{first: (cats[first][0] + 1,) + cats[first][1:]})
    expect("score: per-category matched off by one", check(per_category=bumped),
           "per-category")
    expect("score: matched differs from the brute-force optimum",
           check(matched=brute - 1), "brute-force")
    erep, ecats = scored(exact)
    expect("score: exact copy below F1 1.0",
           checks.check_score(exact, erep.matched, erep.n_predicted, erep.n_gold, 0.9,
                              ecats, None), "exact")

    docs = [(r.matched, r.n_predicted, r.n_gold, c) for r, c in (scored(p) for p in pool)]
    micro = evaluate.micro_average([scored(p)[0] for p in pool])
    mcats = {c: (r.matched, r.n_predicted, r.n_gold) for c, r in micro.per_category.items()}
    assert checks.check_micro(docs, (micro.matched, micro.n_predicted, micro.n_gold,
                                     mcats)) == []
    expect("score: micro-average matched off by one",
           checks.check_micro(docs, (micro.matched + 1, micro.n_predicted, micro.n_gold,
                                     mcats)), "micro-average (")
    wrong = dict(mcats, lexical=(0, 0, 0))
    expect("score: micro-average per-category counts",
           checks.check_micro(docs, (micro.matched, micro.n_predicted, micro.n_gold, wrong)),
           "per-category")


def convert_cases() -> None:
    doc = gen.convert_pool(1, (200,), 1)[0]
    merged = drs.strip_senses(drs.merge_presuppositions(drs.parse_clauses(doc.text)))
    t = tree.to_tree(merged)
    seq = tree.linearize(t)
    back = tree.delinearize(seq)
    out = tree.from_tree(back)
    text = drs.format_clauses(out)
    reformatted = drs.format_clauses(drs.parse_clauses(text))
    good = (back == t, out, len(seq.tokens), text, reformatted)
    assert checks.check_convert(doc, *good) == [], "uncorrupted output must pass"

    def check(i, value):
        a = list(good)
        a[i] = value
        return checks.check_convert(doc, *a)

    pruned = tree.DrsTree(dataclasses.replace(back.root, children=back.root.children[:-1]))
    expect("convert: delinearize drops a subtree", check(0, pruned == t), "delinearize")
    expect("convert: a box lost",
           check(1, dataclasses.replace(out, boxes=out.boxes[:-1] if not out.relations
                                        else out.boxes[:1] + out.boxes[2:])), "boxes")
    box = next(b for b in out.boxes if b.referents)
    resorted = dataclasses.replace(box, referents=("s999",) + box.referents[1:])
    expect("convert: a referent changes sort",
           check(1, dataclasses.replace(out, boxes=tuple(resorted if b is box else b
                                                          for b in out.boxes))),
           "referents per sort")
    box = next(b for b in out.boxes if any(isinstance(c, drs.Unary) for c in b.conditions))
    conds = list(box.conditions)
    k = next(i for i, c in enumerate(conds) if isinstance(c, drs.Unary))
    conds[k] = dataclasses.replace(conds[k], predicate="zebra")
    relabelled = dataclasses.replace(box, conditions=tuple(conds))
    expect("convert: a predicate relabelled",
           check(1, dataclasses.replace(out, boxes=tuple(relabelled if b is box else b
                                                          for b in out.boxes))),
           "signatures")
    expect("convert: token count off by one", check(2, len(seq.tokens) + 1), "tokens")
    lines = reformatted.splitlines()
    lines[-1] = lines[-1] + "x"
    expect("convert: re-formatting changes a line", check(4, "\n".join(lines) + "\n"),
           "changed its lines")


def train_cases() -> None:
    expect("train: a NaN loss", checks.check_losses([2.0, float("nan"), 1.0]), "non-finite")
    expect("train: fixed-batch loss does not fall", checks.check_fixed_batch(1.5, 1.5),
           "did not fall")

    rng = np.random.default_rng(0)
    net = model.Seq2Seq(ad, 12, 16, 8, rng)
    src, tgt = [3, 5, 7], [4, 9, 2, 11]
    for p in net.params.values():
        p.zero_grad()
    ad.backward(net.loss(src, tgt))
    analytic = {k: p.grad.copy() for k, p in net.params.items()}

    def loss():
        return float(net.loss(src, tgt).data)

    assert checks.central_difference(loss, net.params, analytic,
                                     np.random.default_rng(1)) == []
    # Halve the gradient of the parameter whose gradients are smallest.
    name = min(analytic, key=lambda k: np.abs(analytic[k]).max())
    halved = dict(analytic, **{name: analytic[name] * 0.5})
    expect(f"train: {name} gradient halved",
           checks.central_difference(loss, {name: net.params[name]}, halved,
                                     np.random.default_rng(1)), "rel=")


def main() -> int:
    score_cases()
    convert_cases()
    train_cases()
    missed = [c for c, ok in results if not ok]
    print(f"{len(results) - len(missed)} of {len(results)} corruptions caught")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
