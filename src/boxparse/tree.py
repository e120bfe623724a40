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
accessibility scope and renames everything canonically. Nodes are
immutable, so equal leaves may be a single shared object, within one tree
and across trees: ``to_tree`` and ``delinearize`` take every leaf from one
table, which holds one leaf per label for every tree in the process.

Linearization is PTB-style: ``(LABEL`` opens an internal node, ``)``
closes it, leaves stand alone, tokens are space-separated. So no leaf may
start with ``(`` or be ``)``; ``validate`` refuses such labels.

``Node``, ``DrsTree`` and ``LinearSeq`` follow the ``drs`` module's
construction rule: annotated types, checked on every public build, skipped
by ``_build``, through which the conversions here build. ``Node`` is
slotted, and ``drs._slot_init`` derives its ``__init__`` from its fields.
"""

from __future__ import annotations

from dataclasses import dataclass

from .drs import (
    ANTECEDENT_OPERATORS,
    VARIABLE_SORTS,
    Binary,
    Box,
    Drs,
    Operator,
    Unary,
    _build,
    _Checked,
    _in_text_order,
    _slot_init,
    is_variable,
    validate,
    variable_sort,
)
from .errors import DataError, EmptyInput, MalformedSequence, MalformedTree, UnboundVariable


@_slot_init
@dataclass(frozen=True, slots=True, eq=False, repr=False, init=False)
class Node(metaclass=_Checked):
    label: str
    children: tuple[Node, ...] = ()

    def __eq__(self, other: object) -> bool:
        # on an explicit stack, so trees of any depth compare
        if not isinstance(other, Node):
            return NotImplemented
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            if a.label != b.label or len(a.children) != len(b.children):
                return False
            stack.extend(zip(a.children, b.children))
        return True

    def __hash__(self) -> int:
        return hash((self.label, len(self.children)))  # equal trees agree on both

    def __repr__(self) -> str:
        # the dataclass repr, built on an explicit stack of nodes and the
        # text that follows their children, so trees of any depth print
        parts: list[str] = []
        stack: list = [self]
        while stack:
            item = stack.pop()
            if isinstance(item, str):
                parts.append(item)
                continue
            parts.append(f"Node(label={item.label!r}, children=(")
            stack.append(",))" if len(item.children) == 1 else "))")
            for i in reversed(range(len(item.children))):
                stack.append(item.children[i])
                if i:
                    stack.append(", ")
        return "".join(parts)


class _Leaves(dict):
    """Label -> the one leaf node with that label, built on first use. It
    holds one entry per distinct leaf label it has been asked for, and
    never drops one."""

    def __missing__(self, label: str) -> Node:
        node = self[label] = _build(Node, label)
        return node


_LEAVES = _Leaves()  # the leaves of every tree that to_tree and delinearize build


@dataclass(frozen=True)
class DrsTree(metaclass=_Checked):
    root: Node


@dataclass(frozen=True)
class LinearSeq(metaclass=_Checked):
    tokens: tuple[str, ...]


def to_tree(d: Drs) -> DrsTree:
    """Convert a merged, validated DRS to its tree form (lossless modulo
    variable duplication)."""
    validate(d)
    if any(b.presupposed for b in d.boxes):
        raise DataError("merge presuppositions before tree conversion")
    constituents = list(dict.fromkeys(x for _label, a, b in d.relations for x in (a, b)))
    # Boxes breadth-first from the top and the constituents. validate has
    # made the nesting a tree, so in reverse each box follows those it embeds.
    known = d._by_id
    order = [known[x] for x in (d.top, *constituents)]
    for b in order:
        order.extend(known[x] for c in b.conditions if type(c) is Operator
                     for x in c.boxes)
    nodes: dict[str, Node] = {}
    leaf = _LEAVES
    for b in reversed(order):
        children = [_build(Node, "REF", (leaf[v],)) for v in b.referents]
        for c in b.conditions:
            if type(c) is Unary:
                children.append(_build(Node, "C1", (leaf[c.predicate], leaf[c.argument])))
            elif type(c) is Binary:
                children.append(_build(Node, "C2", (leaf[c.role], leaf[c.first], leaf[c.second])))
            else:
                children.append(_build(Node, "OP", (leaf[c.op], *(nodes[x] for x in c.boxes))))
        # an empty box is a leaf, which linearize writes as the bare token DRS
        nodes[b.id] = _build(Node, "DRS", tuple(children)) if children else leaf["DRS"]
    if not d.relations:
        return _build(DrsTree, nodes[d.top])
    k = {x: leaf[f"K{i}"] for i, x in enumerate(constituents, start=1)}
    kids = [nodes[b.id] for b in order[:len(constituents) + 1]]
    kids += [_build(Node, "REL", (leaf[label], k[a], k[b])) for label, a, b in d.relations]
    return _build(DrsTree, _build(Node, "SDRS", tuple(kids)))


def _leaves(node: Node, want: int) -> tuple[Node, ...]:
    """The children of ``node``, which must be ``want`` leaves."""
    kids = node.children
    if len(kids) == want:
        for kid in kids:
            if kid.children:
                break
        else:
            return kids
    raise MalformedTree(f"{node.label} node needs {want} leaf children")


class _Builder:
    """Accumulates boxes and canonical variable names during a tree walk.
    It checks only what the tree alone can tell; ``validate`` does the rest."""

    def __init__(self):
        self.boxes: list[Box | None] = []  # None holds a box's place while it is read
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
        self.boxes.append(None)  # reserve preorder numbering
        scope = self.scopes[box_id] = {}
        self.visible.update(shared)
        referents: list[str] = []
        conditions = []
        for child in node.children:
            if not (kids := child.children):
                raise MalformedTree(f"leaf {child.label!r} directly under DRS")
            if child.label == "C1":
                predicate, argument = _leaves(child, 2)
                conditions.append(_build(Unary, predicate.label, self._resolve(argument.label)))
            elif child.label == "C2":
                role, first, second = _leaves(child, 3)
                conditions.append(_build(Binary, role.label, self._resolve(first.label),
                                         self._resolve(second.label)))
            elif child.label == "REF":
                if conditions:
                    raise MalformedTree("referent declared after conditions")
                v = _leaves(child, 1)[0].label
                if v in self.visible:
                    raise MalformedTree(f"referent {v} shadows an accessible declaration")
                sort = variable_sort(v)
                self.counters[sort] += 1
                scope[v] = self.visible[v] = f"{sort}{self.counters[sort]}"
                referents.append(scope[v])
            elif child.label == "OP":
                op, *subs = kids
                if op.children:
                    raise MalformedTree("OP node needs an operator label leaf first")
                ids: list[str] = []
                for sub in subs:
                    first = self.scopes[ids[0]] if ids and op.label in ANTECEDENT_OPERATORS else {}
                    ids.append((yield sub, first))
                conditions.append(_build(Operator, op.label, tuple(ids)))
            else:
                raise MalformedTree(f"unexpected node {child.label!r} under DRS")
        self.boxes[slot] = _build(Box, box_id, tuple(referents), tuple(conditions))
        for v in (*scope, *shared):
            del self.visible[v]
        return box_id

    def _resolve(self, token: str) -> str:
        name = self.visible.get(token)
        if name is not None:
            return name
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
    open. The boxes come in clause-text order; ``validate`` judges the result.
    """
    root = t.root
    builder = _Builder()
    relations = []
    if root.label == "DRS":
        builder.read(root, {})
    elif root.label == "SDRS":
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
        for rel in rel_kids:
            label, ka, kb = [c.label for c in _leaves(rel, 3)]
            if ka not in k or kb not in k:
                raise MalformedTree(f"bad constituent index in ({label} {ka} {kb})")
            relations.append((label, k[ka], k[kb]))
    else:
        raise MalformedTree(f"root must be DRS or SDRS, got {root.label!r}")
    return validate(_in_text_order(_build(Drs, tuple(builder.boxes), tuple(relations))))


def linearize(t: DrsTree) -> LinearSeq:
    tokens: list[str] = []
    stack = [iter((t.root,))]
    while stack:
        for node in stack[-1]:
            if not node.children:
                tokens.append(node.label)
            else:
                tokens.append(f"({node.label}")
                stack.append(iter(node.children))
                break
        else:
            stack.pop()
            if stack:
                tokens.append(")")
    return _build(LinearSeq, tuple(tokens))


def delinearize(s: LinearSeq) -> DrsTree:
    if not s.tokens:
        raise EmptyInput("empty sequence")
    leaf = _LEAVES
    stack: list[tuple[str, list[Node]]] = []  # the open nodes around the innermost
    label, kids = "", None  # the innermost open node, once one is open
    tokens = iter(s.tokens)
    for tok in tokens:
        if tok == ")":
            if kids is None:
                raise MalformedSequence("unbalanced ')'")
            node = _build(Node, label, tuple(kids))
            if not stack:
                for _ in tokens:  # any token at all
                    raise MalformedSequence("tokens after the root closed")
                return _build(DrsTree, node)
            label, kids = stack.pop()
            kids.append(node)
        elif tok.startswith("("):
            if len(tok) == 1:
                raise MalformedSequence("bare '(' without a label")
            if kids is not None:
                stack.append((label, kids))
            label, kids = tok[1:], []
        elif kids is None:
            raise MalformedSequence(f"leaf {tok!r} outside any node")
        else:
            kids.append(leaf[tok])
    raise MalformedSequence("sequence ended with open brackets")
