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
    VARIABLE_SORTS,
    Binary,
    Box,
    Drs,
    Operator,
    Unary,
    is_variable,
    validate,
    variable_sort,
)
from .errors import DataError, EmptyInput, MalformedSequence, MalformedTree, UnboundVariable


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
    constituents = list(dict.fromkeys(x for _label, a, b in d.relations for x in (a, b)))
    # Boxes breadth-first from the top and the constituents. validate has
    # made the nesting a tree, so in reverse each box follows those it embeds.
    order = [d.top, *constituents]
    for box_id in order:
        order.extend(x for c in d.box(box_id).conditions if isinstance(c, Operator)
                     for x in c.boxes)
    nodes: dict[str, Node] = {}
    for box_id in reversed(order):
        b = d.box(box_id)
        children = [Node("REF", (Node(v),)) for v in b.referents]
        for c in b.conditions:
            if isinstance(c, Unary):
                children.append(Node("C1", (Node(c.predicate), Node(c.argument))))
            elif isinstance(c, Binary):
                children.append(Node("C2", (Node(c.role), Node(c.first), Node(c.second))))
            else:
                children.append(Node("OP", (Node(c.op), *(nodes[x] for x in c.boxes))))
        nodes[box_id] = Node("DRS", tuple(children))
    if not d.relations:
        return DrsTree(nodes[d.top])
    k = {x: Node(f"K{i}") for i, x in enumerate(constituents, start=1)}
    kids = [nodes[x] for x in order[:len(constituents) + 1]]
    kids += [Node("REL", (Node(label), k[a], k[b])) for label, a, b in d.relations]
    return DrsTree(Node("SDRS", tuple(kids)))


class _Builder:
    """Accumulates boxes and canonical variable names during a tree walk.
    It checks only what the tree alone can tell; ``validate`` does the rest."""

    def __init__(self):
        self.boxes: list[Box] = []
        self.counters = {sort: 0 for sort in VARIABLE_SORTS}
        self.scopes: dict[str, dict[str, str]] = {}  # box id -> token -> name
        self.visible: dict[str, str] = {}  # the same, for the boxes open now

    def read(self, node: Node, shared: dict[str, str]) -> str:
        """Read the box under ``node`` and all it embeds; returns its id. Each
        ``read_box`` yields an embedded box and is sent back that box's id."""
        stack = [self.read_box(node, shared)]
        box_id = None
        while stack:
            try:
                sub = stack[-1].send(box_id)
            except StopIteration as done:
                stack.pop()
                box_id = done.value
            else:
                stack.append(self.read_box(*sub))
                box_id = None
        return box_id

    def read_box(self, node: Node, shared: dict[str, str]):
        """``shared`` is a closed box's scope that this box may also use."""
        if node.label != "DRS":
            raise MalformedTree(f"expected DRS node, got {node.label!r}")
        slot = len(self.boxes)
        box_id = f"b{slot + 1}"
        self.boxes.append(Box(id=box_id))  # reserve preorder numbering
        scope = self.scopes[box_id] = {}
        self.visible.update(shared)
        referents: list[str] = []
        conditions = []
        for child in node.children:
            if child.is_leaf:
                raise MalformedTree(f"leaf {child.label!r} directly under DRS")
            if child.label == "REF":
                if conditions:
                    raise MalformedTree("referent declared after conditions")
                v = self._leaf_token(child, 1)[0]
                if v in self.visible:
                    raise MalformedTree(f"referent {v} shadows an accessible declaration")
                sort = variable_sort(v)
                self.counters[sort] += 1
                scope[v] = self.visible[v] = f"{sort}{self.counters[sort]}"
                referents.append(scope[v])
            elif child.label == "C1":
                pred, arg = self._leaf_token(child, 2)
                conditions.append(Unary(pred, self._resolve(arg)))
            elif child.label == "C2":
                role, a1, a2 = self._leaf_token(child, 3)
                conditions.append(Binary(role, self._resolve(a1), self._resolve(a2)))
            elif child.label == "OP":
                op, *subs = child.children
                if not op.is_leaf:
                    raise MalformedTree("OP node needs an operator label leaf first")
                ids: list[str] = []
                for sub in subs:
                    first = self.scopes[ids[0]] if ids and op.label in ("IMP", "DUP") else {}
                    ids.append((yield sub, first))
                conditions.append(Operator(op.label, tuple(ids)))
            else:
                raise MalformedTree(f"unexpected node {child.label!r} under DRS")
        self.boxes[slot] = Box(id=box_id, referents=tuple(referents),
                               conditions=tuple(conditions))
        for v in (*scope, *shared):
            del self.visible[v]
        return box_id

    @staticmethod
    def _leaf_token(node: Node, want: int) -> list[str]:
        if len(node.children) != want or any(not c.is_leaf for c in node.children):
            raise MalformedTree(f"{node.label} node needs {want} leaf children")
        return [c.label for c in node.children]

    def _resolve(self, token: str) -> str:
        if token in self.visible:
            return self.visible[token]
        if is_variable(token):
            raise UnboundVariable(f"variable {token} used outside any declaring scope")
        return token


def from_tree(t: DrsTree) -> Drs:
    """Rebuild a canonical DRS from a tree; inverse of to_tree up to renaming.

    Boxes are numbered b1, b2, ... in preorder and variables x1, e1, ...
    per sort in declaration order. A variable token names the declaration
    of that token in a box open at its use: the box itself, the boxes
    enclosing it, the first box of an IMP/DUP for its later boxes, and the
    top box for the SDRS constituents. No box may redeclare a token that is
    open. ``validate`` then judges the result.
    """
    root = t.root
    builder = _Builder()
    if root.label == "DRS":
        top = builder.read(root, {})
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
    top = builder.read(root.children[0], {})
    k = {f"K{i}": builder.read(c, builder.scopes[top])
         for i, c in enumerate(drs_kids[1:], start=1)}
    relations = []
    for rel in rel_kids:
        label, ka, kb = _Builder._leaf_token(rel, 3)
        if ka not in k or kb not in k:
            raise MalformedTree(f"bad constituent index in ({label} {ka} {kb})")
        relations.append((label, k[ka], k[kb]))
    return validate(Drs(boxes=tuple(builder.boxes), relations=tuple(relations), top=top))


def linearize(t: DrsTree) -> LinearSeq:
    tokens: list[str] = []
    stack = [iter((t.root,))]
    while stack:
        for node in stack[-1]:
            if node.is_leaf:
                tokens.append(node.label)
            else:
                tokens.append(f"({node.label}")
                stack.append(iter(node.children))
                break
        else:
            stack.pop()
            if stack:
                tokens.append(")")
    return LinearSeq(tuple(tokens))


def delinearize(s: LinearSeq) -> DrsTree:
    if not s.tokens:
        raise EmptyInput("empty sequence")
    stack: list[tuple[str, list[Node]]] = []
    root: Node | None = None
    for tok in s.tokens:
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
