"""Lossless tree form of a DRS and its bracketed linearization.

Node inventory: internal labels are structural markers only —

    SDRS  root when discourse relations are present
    DRS   a box: REF children first, then condition children
    REF   referent declaration, one variable leaf
    C1    unary condition: predicate leaf + argument leaf
    C2    binary condition: role leaf + two argument leaves
    OP    operator leaf (NOT/POS/NEC unary, IMP/DIS/DUP binary) + box subtree(s)
    REL   relation label leaf + two constituent-index leaves (K1, K2, ...)

Leaves are predicates, roles, variables, constants, operator/relation
labels and constituent indices. Re-entrant variables appear once per use;
conversion back re-merges identical variable tokens within one
accessibility scope and renames everything canonically.

Linearization is PTB-style: ``(LABEL`` opens an internal node, ``)``
closes it, leaves stand alone, tokens are space-separated.
"""

from __future__ import annotations

from dataclasses import dataclass

from .drs import (
    BINARY_OPERATORS,
    OPERATORS,
    Binary,
    Box,
    Drs,
    Operator,
    Unary,
    is_constant,
    is_variable,
    validate,
    variable_sort,
)
from .errors import DataError, EmptyInput, MalformedSequence, MalformedTree, UnboundVariable

INTERNAL_LABELS = ("SDRS", "DRS", "REF", "C1", "C2", "OP", "REL")


@dataclass(frozen=True)
class Node:
    label: str
    children: tuple["Node", ...] = ()

    @property
    def is_leaf(self) -> bool:
        return not self.children


@dataclass(frozen=True)
class DrsTree:
    root: Node


@dataclass(frozen=True)
class LinearSeq:
    tokens: tuple[str, ...]


def leaf(label: str) -> Node:
    return Node(label)


def count_nodes(t: DrsTree) -> int:
    n = 0
    stack = [t.root]
    while stack:
        node = stack.pop()
        n += 1
        stack.extend(node.children)
    return n


def to_tree(d: Drs) -> DrsTree:
    """Convert a merged, validated DRS to its tree form (lossless modulo
    variable duplication)."""
    validate(d)
    if any(b.presupposed for b in d.boxes):
        raise DataError("merge presuppositions before tree conversion")

    def box_node(b: Box) -> Node:
        children: list[Node] = [Node("REF", (leaf(v),)) for v in b.referents]
        for c in b.conditions:
            if isinstance(c, Unary):
                children.append(Node("C1", (leaf(c.predicate), leaf(c.argument))))
            elif isinstance(c, Binary):
                children.append(Node("C2", (leaf(c.role), leaf(c.first), leaf(c.second))))
            else:
                kids = [leaf(c.op)] + [box_node(d.box(x)) for x in c.boxes]
                children.append(Node("OP", tuple(kids)))
        return Node("DRS", tuple(children))

    if d.relations:
        constituents: list[str] = []
        for _label, a, b in d.relations:
            for x in (a, b):
                if x not in constituents:
                    constituents.append(x)
        kids = [box_node(d.box(d.top))]
        kids += [box_node(d.box(c)) for c in constituents]
        for label, a, b in d.relations:
            kids.append(Node("REL", (leaf(label),
                                     leaf(f"K{constituents.index(a) + 1}"),
                                     leaf(f"K{constituents.index(b) + 1}"))))
        return DrsTree(Node("SDRS", tuple(kids)))
    return DrsTree(box_node(d.box(d.top)))


class _Builder:
    """Accumulates boxes and canonical variable names during a tree walk."""

    def __init__(self):
        self.boxes: list[Box] = []
        self.counters = {"x": 0, "e": 0, "t": 0, "s": 0}
        self._scopes: dict[str, dict[str, str]] = {}

    def fresh(self, sort: str) -> str:
        self.counters[sort] += 1
        return f"{sort}{self.counters[sort]}"

    def next_box_id(self) -> str:
        return f"b{len(self.boxes) + 1}"

    def read_box(self, node: Node, env: list[dict[str, str]]) -> str:
        if node.label != "DRS":
            raise MalformedTree(f"expected DRS node, got {node.label!r}")
        box_id = self.next_box_id()
        slot = len(self.boxes)
        self.boxes.append(Box(id=box_id))  # reserve creation order
        scope: dict[str, str] = {}
        env = env + [scope]
        referents: list[str] = []
        conditions = []
        seen_condition = False
        for child in node.children:
            if child.is_leaf:
                raise MalformedTree(f"leaf {child.label!r} directly under DRS")
            if child.label == "REF":
                if seen_condition:
                    raise MalformedTree("referent declared after conditions")
                v = self._leaf_token(child, 1)[0]
                if not is_variable(v):
                    raise MalformedTree(f"bad referent token {v!r}")
                if any(v in s for s in env):
                    raise MalformedTree(f"referent {v} shadows an accessible declaration")
                name = self.fresh(variable_sort(v))
                scope[v] = name
                referents.append(name)
            elif child.label == "C1":
                seen_condition = True
                pred, arg = self._leaf_token(child, 2)
                conditions.append(Unary(pred, self._resolve(arg, env)))
            elif child.label == "C2":
                seen_condition = True
                role, a1, a2 = self._leaf_token(child, 3)
                conditions.append(Binary(role, self._resolve(a1, env), self._resolve(a2, env)))
            elif child.label == "OP":
                seen_condition = True
                if len(child.children) < 2 or not child.children[0].is_leaf:
                    raise MalformedTree("OP node needs a label leaf and box subtree(s)")
                op = child.children[0].label
                if op not in OPERATORS:
                    raise MalformedTree(f"unknown operator label {op!r}")
                want = 2 if op in BINARY_OPERATORS else 1
                subs = child.children[1:]
                if len(subs) != want:
                    raise MalformedTree(f"operator {op} takes {want} box(es)")
                if want == 1:
                    child_id = self.read_box(subs[0], env)
                    conditions.append(Operator(op, (child_id,)))
                else:
                    first_id = self.read_box(subs[0], env)
                    antecedent_env = env + ([self._scopes[first_id]]
                                            if op in ("IMP", "DUP") else [])
                    second_id = self.read_box(subs[1], antecedent_env)
                    conditions.append(Operator(op, (first_id, second_id)))
            else:
                raise MalformedTree(f"unexpected node {child.label!r} under DRS")
        self.boxes[slot] = Box(id=box_id, referents=tuple(referents),
                               conditions=tuple(conditions))
        self._scopes[box_id] = scope
        return box_id

    @staticmethod
    def _leaf_token(node: Node, want: int) -> list[str]:
        if len(node.children) != want or any(not c.is_leaf for c in node.children):
            raise MalformedTree(f"{node.label} node needs {want} leaf children")
        return [c.label for c in node.children]

    @staticmethod
    def _resolve(token: str, env: list[dict[str, str]]) -> str:
        if is_constant(token):
            return token
        if not is_variable(token):
            raise MalformedTree(f"argument {token!r} is neither a variable nor a constant")
        for scope in reversed(env):
            if token in scope:
                return scope[token]
        raise UnboundVariable(f"variable {token} used outside any declaring scope")


def from_tree(t: DrsTree) -> Drs:
    """Rebuild a canonical DRS from a tree; inverse of to_tree up to renaming."""
    root = t.root
    builder = _Builder()
    if root.label == "DRS":
        top = builder.read_box(root, [])
        return validate(Drs(boxes=tuple(builder.boxes), relations=(), top=top))
    if root.label != "SDRS":
        raise MalformedTree(f"root must be DRS or SDRS, got {root.label!r}")
    drs_kids = [c for c in root.children if c.label == "DRS"]
    rel_kids = [c for c in root.children if c.label == "REL"]
    if len(drs_kids) + len(rel_kids) != len(root.children):
        raise MalformedTree("SDRS children must be DRS or REL nodes")
    if len(drs_kids) < 3 or not rel_kids:
        raise MalformedTree("SDRS needs a top box, at least two constituents and a relation")
    if root.children[0].label != "DRS":
        raise MalformedTree("first SDRS child must be the top box")
    top = builder.read_box(root.children[0], [])
    constituent_ids = [builder.read_box(c, [builder._scopes[top]]) for c in drs_kids[1:]]
    relations = []
    for rel in rel_kids:
        label, ka, kb = _Builder._leaf_token(rel, 3)
        relations.append((label, _k_index(ka, constituent_ids), _k_index(kb, constituent_ids)))
    d = Drs(boxes=tuple(builder.boxes), relations=tuple(relations), top=top)
    return validate(d)


def _k_index(token: str, constituents: list[str]) -> str:
    if not token.startswith("K"):
        raise MalformedTree(f"expected constituent index, got {token!r}")
    try:
        i = int(token[1:])
    except ValueError:
        raise MalformedTree(f"bad constituent index {token!r}") from None
    if not 1 <= i <= len(constituents):
        raise MalformedTree(f"constituent index {token} out of range")
    return constituents[i - 1]


def linearize(t: DrsTree) -> LinearSeq:
    tokens: list[str] = []

    def walk(node: Node) -> None:
        if node.is_leaf:
            tokens.append(node.label)
            return
        tokens.append(f"({node.label}")
        for c in node.children:
            walk(c)
        tokens.append(")")

    walk(t.root)
    return LinearSeq(tuple(tokens))


def delinearize(s: LinearSeq) -> DrsTree:
    tokens = s.tokens if isinstance(s, LinearSeq) else tuple(s)
    if not tokens:
        raise EmptyInput("empty sequence")
    stack: list[tuple[str, list[Node]]] = []
    root: Node | None = None
    for tok in tokens:
        if root is not None:
            raise MalformedSequence("tokens after the root closed")
        if tok.startswith("("):
            label = tok[1:]
            if not label:
                raise MalformedSequence("bare '(' without a label")
            stack.append((label, []))
        elif tok == ")":
            if not stack:
                raise MalformedSequence("unbalanced ')'")
            label, kids = stack.pop()
            node = Node(label, tuple(kids))
            if stack:
                stack[-1][1].append(node)
            else:
                root = node
        else:
            if not stack:
                raise MalformedSequence(f"leaf {tok!r} outside any node")
            stack[-1][1].append(Node(tok))
    if root is None:
        raise MalformedSequence("sequence ended with open brackets")
    return DrsTree(root)
