"""Seeded input generators for the three benchmark workloads.

Documents are built here as plain Python structures and written out as
clause text; the program under test only ever sees that text (and, for
``train``, token lists). Everything a correctness check compares against
is derived from these structures, never from ``boxparse``:

* the merged, sense-stripped clause multiset of each document, with
  presupposed boxes folded into the box that consumes their referents;
* for ``score`` pairs, the count of clauses the planted symbol renaming
  matches, which lower-bounds the best alignment;
* for ``convert`` documents, box and referent counts, clause signatures
  and the closed-form length of the linearized tree.

Each pool draws from two random streams. The shape stream is fixed per
workload: it decides how documents are built (nesting, operators, how many
referents, which pairs are exact copies, how much noise). The word stream
comes from the seed: it picks every label, name and constant, the symbol
renaming and where the noise falls. So the same seed gives the same inputs,
and every seed gives inputs that cost about the same to process.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field

NOUNS = ("dog", "cat", "man", "woman", "book", "car", "house", "tree", "city",
         "door", "letter", "teacher", "child", "garden", "river", "song", "table",
         "window", "bird", "horse", "apple", "laptop", "student", "doctor")
VERBS = ("chase", "see", "give", "read", "open", "write", "run", "sleep", "eat",
         "buy", "find", "take", "sing", "build", "watch", "close", "visit", "love")
ADJECTIVES = ("big", "small", "red", "old", "new", "happy", "dark", "quiet")
NAMES = ('"tom"', '"mary"', '"paris"', '"anna"', '"boston"', '"kim"')
CONSTANTS = ('"speaker"', '"hearer"', '"now"')
AGENT_ROLES = ("Agent", "Experiencer", "Causer")
THEME_ROLES = ("Theme", "Patient", "Stimulus", "Recipient")
OTHER_ROLES = ("Owner", "Location", "Attribute", "PartOf", "Source", "Destination")
RELATIONS = ("CONTINUATION", "NARRATION", "CONTRAST", "RESULT", "EXPLANATION",
             "ELABORATION")
UNARY_OPS = ("NOT", "POS", "NEC")
BINARY_OPS = ("IMP", "DIS", "DUP")

LEXICAL_LABELS = frozenset(NOUNS + VERBS + ADJECTIVES + ("time",))
ROLE_POOL = AGENT_ROLES + THEME_ROLES + OTHER_ROLES + ("Time", "Before", "Name")


def strip_sense(label: str) -> str:
    parts = label.split(".")
    return parts[0] if len(parts) == 3 else label


def sort_of(symbol: str) -> str:
    return "b" if symbol[0] in "bp" else symbol[0]


@dataclass
class GBox:
    id: str
    refs: list = field(default_factory=list)
    # ('U', label, arg) | ('B', role, arg1, arg2) | ('O', op, box...)
    conds: list = field(default_factory=list)
    target: str | None = None  # presupposed boxes: the box that consumes them


@dataclass
class GDoc:
    top: str
    boxes: dict  # id -> GBox, insertion order; presupposed boxes have a target
    relations: list = field(default_factory=list)

    def text(self) -> str:
        """Clause text: relations, then the top box, then the other boxes.

        Presupposed boxes go last, because the parser takes the first
        mentioned box as the top.
        """
        lines = [f"{self.top} {label} {a} {b}" for label, a, b in self.relations]
        order = [self.top] + [b for b in self.boxes if b != self.top]
        order.sort(key=lambda b: self.boxes[b].target is not None)
        for bid in order:
            box = self.boxes[bid]
            lines.extend(f"{bid} REF {v}" for v in box.refs)
            for c in box.conds:
                lines.append(" ".join((bid,) + c[1:]))
        return "\n".join(lines) + "\n"

    def n_lines(self) -> int:
        return len(self.relations) + sum(len(b.refs) + len(b.conds)
                                         for b in self.boxes.values())

    def merged_clauses(self) -> list:
        """Clauses as scored: presupposed hosts replaced by their consumer,
        sense suffixes stripped, relations as ('REL', label, a, b)."""
        out = [("REL",) + tuple(r) for r in self.relations]
        for bid, box in self.boxes.items():
            host = box.target or bid
            out.extend((host, "REF", v) for v in box.refs)
            for c in box.conds:
                if c[0] == "U":
                    out.append((host, strip_sense(c[1]), c[2]))
                else:
                    out.append((host,) + c[1:])
        return out

    def symbols(self) -> list:
        """Alignable symbols after merging: kept boxes and all referents."""
        out = [bid for bid, box in self.boxes.items() if box.target is None]
        for box in self.boxes.values():
            out.extend(box.refs)
        return out


class _Builder:
    """Grows one scope-correct document; every variable a condition uses is
    declared in its box, an ancestor, an IMP/DUP antecedent, or a presupposed
    box that this box alone consumes."""

    def __init__(self, shape: random.Random, words: random.Random):
        self.shape = shape
        self.words = words
        self.counters = Counter()
        self.boxes: dict[str, GBox] = {}

    def var(self, sort: str) -> str:
        self.counters[sort] += 1
        return f"{sort}{self.counters[sort]}"

    def box(self, kind: str = "b", target: str | None = None) -> GBox:
        self.counters[kind] += 1
        b = GBox(id=f"{kind}{self.counters[kind]}", target=target)
        self.boxes[b.id] = b
        return b

    def sense(self, word: str, pos: str) -> str:
        return f"{word}.{pos}.0{self.words.randint(1, 3)}"

    def entity(self, box: GBox, scope: list) -> str:
        """An entity for ``box``: reuse one in scope, declare a new one, or
        take it from a fresh presupposed box consumed by ``box``."""
        r = self.shape.random()
        if scope and r < 0.3:
            return self.shape.choice(scope)
        if r < 0.6:
            x = self.var("x")
            box.refs.append(x)
            box.conds.append(("U", self.sense(self.words.choice(NOUNS), "n"), x))
            if self.shape.random() < 0.3:
                box.conds.append(("U", self.sense(self.words.choice(ADJECTIVES), "a"), x))
            scope.append(x)
            return x
        p = self.box("p", target=box.id)
        x = self.var("x")
        p.refs.append(x)
        if self.shape.random() < 0.4:
            p.conds.append(("B", "Name", x, self.words.choice(NAMES)))
        else:
            p.conds.append(("U", self.sense(self.words.choice(NOUNS), "n"), x))
        return x

    def event(self, box: GBox, scope: list, timed: bool = True) -> str:
        e = self.var("e")
        box.refs.append(e)
        box.conds.append(("U", self.sense(self.words.choice(VERBS), "v"), e))
        box.conds.append(("B", self.words.choice(AGENT_ROLES), e, self.entity(box, scope)))
        if self.shape.random() < 0.7:
            box.conds.append(("B", self.words.choice(THEME_ROLES), e, self.entity(box, scope)))
        if self.shape.random() < 0.2:
            box.conds.append(("B", "Owner", self.entity(box, scope), self.words.choice(CONSTANTS)))
        if timed:
            t = self.var("t")
            box.refs.append(t)
            box.conds.append(("U", "time.n.08", t))
            box.conds.append(("B", "Before", t, '"now"'))
            box.conds.append(("B", "Time", e, t))
        return e

    def nest(self, box: GBox, scope: list, op: str) -> tuple[GBox, list]:
        """Embed a new box under ``op`` in ``box``; returns the box the chain
        continues in and its scope."""
        if op in UNARY_OPS:
            child = self.box()
            box.conds.append(("O", op, child.id))
            return child, list(scope)
        first, second = self.box(), self.box()
        box.conds.append(("O", op, first.id, second.id))
        x = self.var("x")
        first.refs.append(x)
        first.conds.append(("U", self.sense(self.words.choice(NOUNS), "n"), x))
        first_scope = list(scope) + [x]
        if op in ("IMP", "DUP"):
            return second, first_scope  # the consequent sees the antecedent
        return second, list(scope)

    def segment(self, box: GBox, scope: list, depth: int, p_op: float) -> None:
        """One sentence in ``box``: an event, possibly under nested operators."""
        while depth > 0 and self.shape.random() < p_op:
            op = self.shape.choice(UNARY_OPS + BINARY_OPS)
            box, scope = self.nest(box, scope, op)
            depth -= 1
        self.event(box, scope, timed=self.shape.random() < 0.6)

    def doc(self, top: GBox, relations: list | None = None) -> GDoc:
        return GDoc(top=top.id, boxes=self.boxes, relations=relations or [])


def short_doc(shape: random.Random, words: random.Random) -> GDoc:
    """A PMB-style sentence or two: 5-30 clauses."""
    b = _Builder(shape, words)
    top = b.box()
    if shape.random() < 0.75:
        b.segment(top, [], depth=1, p_op=0.3)
        return b.doc(top)
    scope: list = []
    top.refs.append(b.var("x"))
    top.conds.append(("B", "Name", top.refs[0], words.choice(NAMES)))
    scope.append(top.refs[0])
    k1, k2 = b.box(), b.box()
    b.segment(k1, list(scope), depth=1, p_op=0.2)
    b.segment(k2, list(scope), depth=0, p_op=0.0)
    return b.doc(top, [(words.choice(RELATIONS), k1.id, k2.id)])


def chain_doc(shape: random.Random, words: random.Random, depth: int) -> GDoc:
    """A long nested document: ``depth`` NOT/IMP links, one event per level,
    each level reusing referents from the levels above."""
    b = _Builder(shape, words)
    top = b.box()
    box, scope = top, []
    for level in range(depth + 1):
        b.event(box, scope, timed=level % 2 == 0)
        if level < depth:
            box, scope = b.nest(box, scope, shape.choice(("NOT", "NOT", "IMP")))
    return b.doc(top)


def large_doc(shape: random.Random, words: random.Random, n_clauses: int) -> GDoc:
    """A discourse of sentence boxes under one top box, linked by a chain of
    relations, with presupposed boxes and nested operators, grown until it
    has at least ``n_clauses`` clause lines."""
    b = _Builder(shape, words)
    top = b.box()
    x = b.var("x")
    top.refs.append(x)
    top.conds.append(("B", "Name", x, words.choice(NAMES)))
    constituents: list[str] = []
    relations: list = []
    n = 2
    while n < n_clauses or len(constituents) < 2:
        before = sum(len(bx.refs) + len(bx.conds) for bx in b.boxes.values())
        k = b.box()
        b.segment(k, [x], depth=3, p_op=0.35)
        if constituents:
            relations.append((words.choice(RELATIONS), constituents[-1], k.id))
        constituents.append(k.id)
        n += sum(len(bx.refs) + len(bx.conds) for bx in b.boxes.values()) - before + 1
    return b.doc(top, relations)


# ---------------------------------------------------------------------------
# score: gold/pred pairs


@dataclass
class ScorePair:
    gold_text: str
    pred_text: str
    n_gold: int
    n_pred: int
    planted: int  # clauses matched under the planted renaming
    exact: bool   # pred is a renamed copy of gold
    # merged clause lists and symbol sorts, kept for the brute-force check
    gold_clauses: list
    gold_sorts: dict
    pred_clauses: list
    pred_sorts: dict


def _renamed(doc: GDoc, rng: random.Random) -> tuple[GDoc, dict]:
    """A copy of ``doc`` with every box id and referent renamed within its
    sort (and b/p kind); returns the copy and the gold -> pred map."""
    by_kind: dict[str, list[str]] = {}
    for bid, box in doc.boxes.items():
        by_kind.setdefault(bid[0], []).append(bid)
        for v in box.refs:
            by_kind.setdefault(v[0], []).append(v)
    mapping = {}
    for kind, names in by_kind.items():
        numbers = list(range(1, len(names) + 1))
        rng.shuffle(numbers)
        mapping.update({n: f"{kind}{k}" for n, k in zip(names, numbers)})

    def ren(tok: str) -> str:
        return mapping.get(tok, tok)

    boxes = {}
    for bid, box in doc.boxes.items():
        conds = [c[:2] + tuple(ren(a) for a in c[2:]) for c in box.conds]
        boxes[ren(bid)] = GBox(id=ren(bid), refs=[ren(v) for v in box.refs], conds=conds,
                               target=ren(box.target) if box.target else None)
    relations = [(label, ren(a), ren(bb)) for label, a, bb in doc.relations]
    return GDoc(top=ren(doc.top), boxes=boxes, relations=relations), mapping


def _perturb(doc: GDoc, rng: random.Random, n_delete: int, n_substitute: int) -> None:
    """Delete and relabel conditions in place without changing scope.

    Only unary and binary conditions are touched. A condition that links a
    box to a presupposed referent is never deleted, so every presupposed box
    keeps its consumer and merges where the generator says it does.
    """
    presupposed = {v for box in doc.boxes.values() if box.target for v in box.refs}
    slots = [(bid, i) for bid, box in doc.boxes.items()
             for i, c in enumerate(box.conds) if c[0] in "UB"]
    rng.shuffle(slots)
    deleted = set()
    for bid, i in slots:
        if len(deleted) == n_delete:
            break
        c = doc.boxes[bid].conds[i]
        if doc.boxes[bid].target is None and presupposed.intersection(c[2:]):
            continue
        deleted.add((bid, i))
    substituted = 0
    for bid, i in slots:
        if substituted == n_substitute:
            break
        if (bid, i) in deleted:
            continue
        c = doc.boxes[bid].conds[i]
        if c[0] == "U":
            word, pos, _ = c[1].split(".")
            pool = {"n": NOUNS, "v": VERBS, "a": ADJECTIVES}.get(pos, NOUNS)
            new = rng.choice([w for w in pool if w != word])
            doc.boxes[bid].conds[i] = ("U", f"{new}.{pos}.01", c[2])
        elif c[1] == "Name":
            continue
        else:
            new = rng.choice([r for r in ROLE_POOL if r != c[1] and r != "Name"])
            doc.boxes[bid].conds[i] = ("B", new) + c[2:]
        substituted += 1
    for bid, box in doc.boxes.items():
        box.conds = [c for i, c in enumerate(box.conds) if (bid, i) not in deleted]


def planted_matches(pred_clauses: list, gold_clauses: list, pred_to_gold: dict) -> int:
    renamed = Counter(tuple(pred_to_gold.get(t, t) for t in c) for c in pred_clauses)
    gold = Counter(gold_clauses)
    return sum(min(n, gold[c]) for c, n in renamed.items())


def _sorts(doc: GDoc) -> dict:
    return {s: sort_of(s) for s in doc.symbols()}


def score_pair(shape: random.Random, words: random.Random, long: bool) -> ScorePair:
    gold = chain_doc(shape, words, depth=2) if long else short_doc(shape, words)
    pred, g2p = _renamed(gold, words)
    exact = shape.random() < 0.25
    if not exact:
        n = gold.n_lines()
        _perturb(pred, words, n_delete=shape.randint(0, max(1, n // 8)),
                 n_substitute=shape.randint(1, max(1, n // 8)))
    p2g = {p: g for g, p in g2p.items()}
    gold_clauses, pred_clauses = gold.merged_clauses(), pred.merged_clauses()
    return ScorePair(
        gold_text=gold.text(), pred_text=pred.text(),
        n_gold=gold.n_lines(), n_pred=pred.n_lines(),
        planted=planted_matches(pred_clauses, gold_clauses, p2g),
        exact=exact,
        gold_clauses=gold_clauses, gold_sorts=_sorts(gold),
        pred_clauses=pred_clauses, pred_sorts=_sorts(pred))


def score_pool(seed: int, n_short: int, long_every: int) -> list[ScorePair]:
    """``n_short`` short pairs with one long pair after every ``long_every``
    of them, so that any stretch of the pool has the same mix."""
    shape, words = random.Random("score"), random.Random(seed)
    pool = []
    for i in range(n_short):
        pool.append(score_pair(shape, words, long=False))
        if i % long_every == long_every - 1:
            pool.append(score_pair(shape, words, long=True))
    return pool


# ---------------------------------------------------------------------------
# convert: large gold documents


@dataclass
class ConvertDoc:
    text: str
    n_boxes: int          # after merging
    refs_per_sort: dict   # sort -> count
    signatures: Counter   # merged clauses with symbols replaced by their sort
    n_tokens: int         # closed form of the linearized tree length


def signature(clause: tuple) -> tuple:
    def sym(tok):
        return ("SYM", sort_of(tok)) if tok[:1] in ("b", "p", "x", "e", "t", "s") \
            and tok[1:].isdigit() else tok
    return tuple(sym(t) for t in clause)


def convert_doc(shape: random.Random, words: random.Random, n_clauses: int) -> ConvertDoc:
    doc = large_doc(shape, words, n_clauses)
    clauses = doc.merged_clauses()
    kept = [b for b in doc.boxes.values() if b.target is None]
    refs = Counter(v[0] for b in doc.boxes.values() for v in b.refs)
    kinds = Counter(c[0] for b in doc.boxes.values() for c in b.conds)
    n_rel = len(doc.relations)
    # (SDRS ... ) wraps everything when relations exist; each box is (DRS ... );
    # (REF v ) (C1 p a ) (C2 r a b ) (OP label boxes... ) (REL label Ki Kj )
    n_tokens = (2 if n_rel else 0) + 2 * len(kept) + 3 * sum(refs.values()) \
        + 4 * kinds["U"] + 5 * kinds["B"] + 3 * kinds["O"] + 5 * n_rel
    return ConvertDoc(text=doc.text(), n_boxes=len(kept), refs_per_sort=dict(refs),
                      signatures=Counter(signature(c) for c in clauses),
                      n_tokens=n_tokens)


def convert_pool(seed: int, sizes: tuple[int, ...], rounds: int) -> list[ConvertDoc]:
    """``rounds`` passes over ``sizes`` (clause lines per document), each
    document distinct."""
    shape, words = random.Random("convert"), random.Random(seed)
    return [convert_doc(shape, words, n) for _ in range(rounds) for n in sizes]


# ---------------------------------------------------------------------------
# train: sentence tokens paired with a DRS


def _words(doc: GDoc) -> list[str]:
    """A pseudo-sentence: the lemmas and names of a document, in clause order,
    with a determiner before each noun."""
    out = []
    for box in doc.boxes.values():
        for c in box.conds:
            if c[0] == "U" and c[1] != "time.n.08":
                word, pos = c[1].split(".")[:2]
                out.extend(("the", word) if pos == "n" else (word,))
            elif c[0] == "B" and c[1] == "Name":
                out.append(c[3].strip('"'))
            elif c[0] == "O":
                out.append({"NOT": "not", "POS": "maybe", "NEC": "must",
                            "IMP": "if", "DIS": "or", "DUP": "if"}[c[1]])
    return out + ["."]


def train_pool(seed: int, n: int) -> list[tuple[list[str], str]]:
    shape, words = random.Random("train"), random.Random(seed)
    out = []
    for _ in range(n):
        doc = short_doc(shape, words)
        out.append((_words(doc), doc.text()))
    return out
