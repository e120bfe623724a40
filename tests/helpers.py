"""Shared fixtures and independent oracles for the test suite."""

from __future__ import annotations

from collections import Counter
from dataclasses import fields, is_dataclass
from itertools import permutations, product

import numpy as np

from boxparse.drs import (
    VARIABLE_SORTS,
    AlignmentRecord,
    Binary,
    Box,
    ClauseDocument,
    Condition,
    Drs,
    Operator,
    Unary,
    _in_text_order,
    clauses,
    format_clauses,
    is_constant,
    parse_clauses,
    validate,
    variable_sort,
)
from boxparse.evaluate import Alignment
from boxparse.tree import DrsTree, LinearSeq, Node

# Clause file for the running example: "I sat down and opened my laptop."
# Two event boxes joined by CONTINUATION under an empty top box.
FIG1_CLAUSES = """\
% I sat down and opened my laptop
% 1 sit_down head
% 2 sit_down
% 4 open head
% 6 laptop head
b1 CONTINUATION b2 b3
b2 REF e1
b2 sit_down.v.01 e1
b2 Agent e1 "speaker"
b3 REF e2
b3 REF x1
b3 open.v.01 e2
b3 laptop.n.01 x1
b3 Owner x1 "speaker"
b3 Agent e2 "speaker"
b3 Theme e2 x1
"""

FIG1_TOKENS = ["I", "sat", "down", "and", "opened", "my", "laptop"]
FIG1_LEMMAS = ["I", "sit", "down", "and", "open", "my", "laptop"]

UNARY_POOL = ["laptop", "open", "dog", "run", "sleep", "book", "see", "give",
              "time", "entity", "person"]
ROLE_POOL = ["Agent", "Theme", "Owner", "Patient"]
CONSTANT_POOL = ['"speaker"', '"hearer"', '"now"']
RELATION_POOL = ["CONTINUATION", "CONTRAST", "NARRATION", "RESULT"]
SORT_POOL = ["x", "e", "t", "s"]


class _DrsSampler:
    def __init__(self, rng: np.random.Generator, max_boxes: int, max_conditions: int):
        self.rng = rng
        self.max_boxes = max_boxes
        self.max_conditions = max_conditions
        self.n_boxes = 0
        self.n_conditions = 0
        self.var_counter = 0
        self.boxes: list[Box] = []

    def pick(self, pool):
        return pool[int(self.rng.integers(len(pool)))]

    def fresh_var(self) -> str:
        self.var_counter += 1
        return f"{self.pick(SORT_POOL)}{self.var_counter}"

    def build_box(self, accessible: list[str], depth: int) -> str:
        self.n_boxes += 1
        box_id = f"b{self.n_boxes}"
        refs = []
        for _ in range(int(self.rng.integers(0, 3))):
            refs.append(self.fresh_var())
        scope = accessible + refs
        conds: list = []
        # Nested operator boxes can push n_conditions past max_conditions, so a
        # later sibling may see a negative budget; it then draws no conditions.
        budget = self.max_conditions - self.n_conditions
        for _ in range(int(self.rng.integers(0, min(4, max(0, budget)) + 1))):
            kind = self.rng.random()
            if kind < 0.5:
                if not scope:
                    v = self.fresh_var()
                    refs.append(v)
                    scope.append(v)
                conds.append(Unary(self.pick(UNARY_POOL), self.pick(scope)))
                self.n_conditions += 1
            elif kind < 0.85:
                if not scope:
                    v = self.fresh_var()
                    refs.append(v)
                    scope.append(v)
                a1 = self.pick(scope)
                a2 = self.pick(scope + CONSTANT_POOL)
                conds.append(Binary(self.pick(ROLE_POOL), a1, a2))
                self.n_conditions += 1
            elif depth < 2 and self.n_boxes < self.max_boxes:
                op = self.pick(["NOT", "POS", "NEC", "IMP", "DIS", "DUP"])
                if op in ("NOT", "POS", "NEC"):
                    child = self.build_box(scope, depth + 1)
                    conds.append(Operator(op, (child,)))
                elif self.n_boxes + 1 < self.max_boxes:
                    first = self.build_box(scope, depth + 1)
                    second_scope = scope + (list(self._box(first).referents)
                                            if op in ("IMP", "DUP") else [])
                    second = self.build_box(second_scope, depth + 1)
                    conds.append(Operator(op, (first, second)))
                self.n_conditions += 1
        self.boxes.append(Box(id=box_id, referents=tuple(refs), conditions=tuple(conds)))
        return box_id

    def _box(self, box_id: str) -> Box:
        return next(b for b in self.boxes if b.id == box_id)


def random_draft(rng: np.random.Generator, max_boxes: int = 4,
                 max_conditions: int = 12, allow_relations: bool = True) -> Drs:
    """Random DRS built scope-correct by construction, its boxes in the order
    the sampler finishes them: children before their parent. So ``validate``
    may reject it on box order alone, when a box that hosts no line comes
    before one that does."""
    while True:
        sampler = _DrsSampler(rng, max_boxes, max_conditions)
        use_relations = allow_relations and max_boxes >= 3 and rng.random() < 0.4
        if use_relations:
            top = sampler.build_box([], depth=1)
            top_scope = list(sampler._box(top).referents)
            n_constituents = 2 if max_boxes < 4 or rng.random() < 0.7 else 3
            constituents = [sampler.build_box(top_scope, depth=1)
                            for _ in range(n_constituents)]
            relations = [(sampler.pick(RELATION_POOL), constituents[0], constituents[1])]
            if n_constituents == 3:
                relations.append((sampler.pick(RELATION_POOL), constituents[1],
                                  constituents[2]))
            d = Drs(boxes=tuple(sampler.boxes), relations=tuple(relations))
        else:
            top = sampler.build_box([], depth=0)
            d = Drs(boxes=tuple(sampler.boxes), relations=())
        if not format_clauses(d).strip():
            continue  # single empty box; not representable as clause text
        return d


def random_drs(rng: np.random.Generator, max_boxes: int = 4,
               max_conditions: int = 12, allow_relations: bool = True) -> Drs:
    """Random valid DRS: a ``random_draft`` with its boxes in clause-text
    order, read back from its clause text."""
    d = random_draft(rng, max_boxes, max_conditions, allow_relations)
    return parse_clauses(format_clauses(validate(_in_text_order(d))))


def random_presupposed_drs(rng: np.random.Generator, max_presupposed: int = 3) -> Drs:
    """Random valid DRS with presupposed boxes: a ``random_drs`` whose REF
    lines for some referents move into boxes p1, p2, ..., each of which also
    gets a unary predicate of its referent. Sometimes a presupposed box uses
    an earlier one's referent, and sometimes it holds a NOT box that uses
    its own. The clause blocks come in shuffled order."""
    d = random_drs(rng)
    blocks: dict[str, list[str]] = {b.id: [] for b in d.boxes}
    for c in clauses(d):
        blocks[c[0]].append(" ".join(c))
    n_boxes = len(d.boxes)
    moved: list[str] = []
    for i in range(1, int(rng.integers(1, max_presupposed + 1)) + 1):
        refs = [(box, line) for box, lines in blocks.items() if len(lines) > 1
                for line in lines if line.split()[1] == "REF"]
        if not refs:
            break
        box, line = refs[int(rng.integers(len(refs)))]
        blocks[box].remove(line)
        p, v = f"p{i}", line.split()[2]
        blocks[p] = [f"{p} REF {v}", f"{p} {_pick(rng, UNARY_POOL)} {v}"]
        if moved and rng.random() < 0.3:
            blocks[p].append(f"{p} {_pick(rng, ROLE_POOL)} {v} {_pick(rng, moved)}")
        if rng.random() < 0.3:
            n_boxes += 1
            b = f"b{n_boxes}"
            blocks[p].append(f"{p} NOT {b}")
            blocks[b] = [f"{b} {_pick(rng, UNARY_POOL)} {v}"]
        moved.append(v)
    order = list(blocks.values())
    rng.shuffle(order)
    return parse_clauses("".join(f"{line}\n" for lines in order for line in lines))


def _pick(rng: np.random.Generator, pool: list[str]) -> str:
    return pool[int(rng.integers(len(pool)))]


def _dog(box_id: str, x: str) -> Box:
    return Box(box_id, (x,), (Unary("dog", x),))


_DOG = "b1 REF x1\nb1 dog x1\n"

# Constructions with one field of the wrong type: a value that is no str
# where clause text gives a str, a str that is no Box, or a list where the
# parser gives a tuple (such a DRS would neither read back equal nor hash)
WRONG_TYPES = {
    "unary_int_argument": lambda: Drs((Box("b1", ("x1",), (Unary("dog", 1),)),)),
    "unary_int_predicate": lambda: Drs((Box("b1", ("x1",), (Unary(1, "x1"),)),)),
    "int_referent": lambda: Drs((Box("b1", (1,), ()),)),
    "binary_list_argument": lambda: Drs((Box("b1", ("x1",), (
        Unary("dog", "x1"), Binary("Agent", "x1", ["a"]))),)),
    "int_relation_label": lambda: Drs((_dog("b1", "x1"), _dog("b2", "x2"), _dog("b3", "x3")),
                                      ((1, "b2", "b3"),)),
    "list_relation": lambda: Drs((_dog("b1", "x1"), _dog("b2", "x2"), _dog("b3", "x3")),
                                 (["CONTINUATION", "b2", "b3"],)),
    "str_for_box": lambda: Drs(("b1",)),
    "operator_list_boxes": lambda: Drs((Box("b1", ("x1",), (
        Unary("dog", "x1"), Operator("NOT", ["b2"]))), _dog("b2", "x2"))),
    "box_list_referents": lambda: Drs((Box("b1", ["x1"], (Unary("dog", "x1"),)),)),
    "list_of_boxes": lambda: Drs([_dog("b1", "x1")]),
    # a list where a box id goes, which the nesting would put in a dict
    "relation_list_box": lambda: Drs((_dog("b1", "x1"), _dog("b2", "x2"), _dog("b3", "x3")),
                                     (("CONTINUATION", ["b2"], "b3"),)),
    "operator_list_box": lambda: Drs((Box("b1", ("x1",), (
        Unary("dog", "x1"), Operator("NOT", (["b2"],)))), _dog("b2", "x2"))),
    "list_box_id": lambda: Drs((Box(["b1"], ("x1",), (Unary("dog", "x1"),)), _dog("b2", "x2"))),
    # a relation that is no tuple of str, and values that format_clauses,
    # revert_predicates, delinearize, linearize or from_tree would read
    "none_relation": lambda: Drs(parse_clauses(_DOG).boxes, (None,)),
    "int_comment": lambda: ClauseDocument(parse_clauses(_DOG), comments=(5,)),
    # would write "% a" and "% b", which read back as two comments
    "str_for_comments": lambda: ClauseDocument(parse_clauses(_DOG), comments="ab"),
    "int_alignment_predicate": lambda: AlignmentRecord(1, 5),
    "str_alignment_token": lambda: AlignmentRecord("0", "dog"),
    "none_alignment_token": lambda: AlignmentRecord(None, "dog"),
    "bool_alignment_token": lambda: AlignmentRecord(True, "dog"),
    "none_token": lambda: LinearSeq(("(DRS", None, ")")),
    "str_for_node": lambda: Node("DRS", ("REF",)),
    "int_node_label": lambda: Node(1),
    "str_for_root": lambda: DrsTree("DRS"),
    "alignment_list_image": lambda: Alignment(mapping={"x1": ["a"]}),
}


# Constructions at the edge of the type rules that must build: token 0 and a
# head flag, empty tuples, constants, presupposed boxes and leaf nodes
RIGHT_TYPES = {
    "zero_alignment_token": lambda: AlignmentRecord(0, "dog"),
    "head_alignment": lambda: AlignmentRecord(3, "dog.n.01", True),
    "empty_box": lambda: Box("b1"),
    "presupposed_box": lambda: Box("p1", ("x1",), (Unary("dog", "x1"),)),
    "constant_argument": lambda: Binary("Agent", "e1", '"now"'),
    "operator_two_boxes": lambda: Operator("IMP", ("b2", "b3")),
    "drs_with_relation": lambda: Drs((Box("b1"), _dog("b2", "x2"), _dog("b3", "x3")),
                                     (("CONTINUATION", "b2", "b3"),)),
    "document": lambda: ClauseDocument(parse_clauses(_DOG), (AlignmentRecord(0, "dog", True),),
                                       ("a dog",)),
    "leaf_node": lambda: Node("DRS"),
    "nested_node": lambda: Node("DRS", (Node("REF", (Node("x1"),)),)),
    "leaf_tree": lambda: DrsTree(Node("DRS")),
    "empty_sequence": lambda: LinearSeq(()),
    "alignment_mapping": lambda: Alignment(mapping={"x1": "x2", "b1": "b2"}),
}


def rechecked(value):
    """``value`` built again, field by field, through the checked constructors."""
    if type(value) is tuple:
        return tuple(rechecked(x) for x in value)
    if is_dataclass(value):
        return type(value)(*(rechecked(getattr(value, f.name)) for f in fields(value)))
    return value


def canonicalize_variables(d: Drs) -> Drs:
    """Rename variables to first-use order per sort (x1, x2, ...), and boxes
    in document order to p1, p2, ... if presupposed and b1, b2, ... if not;
    the result is metric-equivalent."""
    counters = {s: 0 for s in (*VARIABLE_SORTS, "b", "p")}
    box_map: dict[str, str] = {}
    for b in d.boxes:
        prefix = "p" if b.presupposed else "b"
        counters[prefix] += 1
        box_map[b.id] = f"{prefix}{counters[prefix]}"
    var_map: dict[str, str] = {}

    def rename_var(v: str) -> str:
        if v not in var_map:
            s = variable_sort(v)
            counters[s] += 1
            var_map[v] = f"{s}{counters[s]}"
        return var_map[v]

    def rename_arg(a: str) -> str:
        return a if is_constant(a) else rename_var(a)

    boxes = []
    for b in d.boxes:
        refs = tuple(rename_var(v) for v in b.referents)
        conds: list[Condition] = []
        for c in b.conditions:
            if isinstance(c, Unary):
                conds.append(Unary(c.predicate, rename_arg(c.argument)))
            elif isinstance(c, Binary):
                conds.append(Binary(c.role, rename_arg(c.first), rename_arg(c.second)))
            else:
                conds.append(Operator(c.op, tuple(box_map[x] for x in c.boxes)))
        boxes.append(Box(id=box_map[b.id], referents=refs, conditions=tuple(conds)))
    relations = tuple((label, box_map[a], box_map[bb]) for label, a, bb in d.relations)
    return Drs(boxes=tuple(boxes), relations=relations)


def count_nodes(t: DrsTree) -> int:
    n = 0
    stack = [t.root]
    while stack:
        node = stack.pop()
        n += 1
        stack.extend(node.children)
    return n


def small_drs_for_alignment(rng: np.random.Generator) -> Drs:
    """Valid DRS with at most 6 alignable symbols (variables + boxes)."""
    while True:
        d = random_drs(rng, max_boxes=2, max_conditions=4, allow_relations=False)
        n_symbols = len(d.boxes) + sum(len(b.referents) for b in d.boxes)
        if n_symbols <= 6:
            return d


# --- independent alignment oracle -----------------------------------------

def _rename(clause: tuple, sorts: dict, mapping: dict) -> tuple:
    return tuple(mapping.get(t, ("unmapped", t)) if t in sorts else t for t in clause)


def oracle_match_count(pred_clauses, pred_sorts, gold_clauses, mapping) -> int:
    gold_counts = Counter(gold_clauses)
    renamed = Counter(_rename(c, pred_sorts, mapping) for c in pred_clauses)
    return sum(min(n, gold_counts[c]) for c, n in renamed.items() if c in gold_counts)


def brute_force_best_match(pred_clauses, pred_sorts, gold_clauses, gold_sorts) -> int:
    """Exhaustive search over every injective sort-respecting symbol map."""
    sorts = sorted(set(pred_sorts.values()) | set(gold_sorts.values()))
    per_sort_choices = []
    for s in sorts:
        ps = sorted(k for k, v in pred_sorts.items() if v == s)
        gs = sorted(k for k, v in gold_sorts.items() if v == s)
        choices = []
        if len(ps) <= len(gs):
            for perm in permutations(gs, len(ps)):
                choices.append(dict(zip(ps, perm)))
        else:
            for sel in permutations(ps, len(gs)):
                choices.append(dict(zip(sel, gs)))
        per_sort_choices.append(choices or [{}])
    best = 0
    for combo in product(*per_sort_choices):
        mapping = {}
        for m in combo:
            mapping.update(m)
        best = max(best, oracle_match_count(pred_clauses, pred_sorts, gold_clauses, mapping))
    return best
