"""DRS data model and clause-format operations.

A DRS is a nested box structure: each box declares typed referents
(x entity, e event, t time, s state) and holds unary predicate, binary
role, and box-operator conditions. Boxes are linked either by embedding
under an operator (NOT, POS, NEC, IMP, DIS, DUP) or by labelled discourse
relations hosted at the top box.

Clause file format (UTF-8, LF, one clause per line, whitespace separated):

    % free-form comment (raw sentence text)
    % <tokenIndex> <predicateLabel> [head]      alignment record
    b1 CONTINUATION b2 b3                       discourse relation (host = top)
    b2 REF e1                                   referent declaration
    b2 sit_down.v.01 e1                         unary predicate (may carry sense)
    b2 Agent e1 "speaker"                       binary role; constants are quoted
    b2 NOT b4                                   operator condition

Token conventions: box ids match ``[bp][0-9]+`` ('p' marks a presupposed
box), variables match ``[xets][0-9]+``, constants are quoted, operator and
relation labels are fully uppercase, roles are capitalized, predicates
lowercase, and no label looks like a symbol or a keyword, with or without
a sense suffix. No token holds whitespace. DRSs in one file are separated
by blank lines.

All values are immutable; every operation returns a new structure. A Drs
remembers that it passed ``validate``, and the label-only rewrites
``strip_senses`` and ``revert_predicates`` pass that on to their result.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Union

from .errors import (
    AmbiguousMerge,
    CyclicStructure,
    DataError,
    DuplicateReferent,
    EmptyInput,
    PairingError,
    UnboundVariable,
    UnknownOperator,
)

VARIABLE_SORTS = ("x", "e", "t", "s")
UNARY_OPERATORS = frozenset({"NOT", "POS", "NEC"})
BINARY_OPERATORS = frozenset({"IMP", "DIS", "DUP"})
OPERATORS = UNARY_OPERATORS | BINARY_OPERATORS
ANTECEDENT_OPERATORS = frozenset({"IMP", "DUP"})  # the first box is open for the second

_VAR_RE = re.compile(r"[xets][0-9]+")
_BOX_RE = re.compile(r"[bp][0-9]+")
_SENSE_RE = re.compile(r"([^.]+)\.[a-z]+\.[0-9]+")
_SPACE_RE = re.compile(r"\s")  # what splits a clause line into tokens


def is_variable(token: str) -> bool:
    return _VAR_RE.fullmatch(token) is not None


def is_box_id(token: str) -> bool:
    return _BOX_RE.fullmatch(token) is not None


def is_constant(token: str) -> bool:
    return len(token) >= 2 and token[0] == token[-1] == '"' and not _SPACE_RE.search(token)


def _is_keyword(token: str) -> bool:
    """Whether the parser reads ``token`` as REF, an operator or a relation."""
    return token.isupper() and len(token) > 1


def variable_sort(name: str) -> str:
    if not is_variable(name):
        raise DataError(f"not a variable: {name!r}")
    return name[0]


def strip_sense(label: str) -> str:
    """Remove a trailing ``.pos.NN`` sense suffix; anything else is untouched."""
    m = _SENSE_RE.fullmatch(label)
    return m.group(1) if m else label


def _label_fault(label: str) -> tuple[str, str] | None:
    """Why ``label`` cannot be a predicate, role or lemma, said of one label
    and of several; None if it can. Clause text must read it back as itself:
    one token that, sense stripped, is spelled like no symbol or keyword."""
    if not label or _SPACE_RE.search(label):
        return "is empty or holds whitespace", "empty or holding whitespace"
    stripped = strip_sense(label)
    if is_variable(stripped) or is_box_id(stripped):
        return "is spelled like a symbol", "spelled like symbols"
    if _is_keyword(stripped):
        return "is spelled like a keyword", "spelled like keywords"
    return None


@dataclass(frozen=True, slots=True)
class Unary:
    predicate: str
    argument: str

    @property
    def args(self) -> tuple[str, ...]:
        return (self.argument,)


@dataclass(frozen=True, slots=True)
class Binary:
    role: str
    first: str
    second: str

    @property
    def args(self) -> tuple[str, ...]:
        return (self.first, self.second)


@dataclass(frozen=True, slots=True)
class Operator:
    op: str
    boxes: tuple[str, ...]


Condition = Union[Unary, Binary, Operator]


@dataclass(frozen=True, slots=True)
class Box:
    id: str
    referents: tuple[str, ...] = ()
    conditions: tuple[Condition, ...] = ()
    presupposed: bool = False


@dataclass(frozen=True)
class Drs:
    boxes: tuple[Box, ...]
    relations: tuple[tuple[str, str, str], ...] = ()
    top: str = "b1"

    @cached_property
    def _by_id(self) -> dict[str, Box]:
        # reversed, so that the first of several boxes sharing an id wins
        return {b.id: b for b in reversed(self.boxes)}

    def box(self, box_id: str) -> Box:
        try:
            return self._by_id[box_id]
        except KeyError:
            raise DataError(f"no box {box_id!r}") from None

    @cached_property
    def _valid(self) -> bool:
        _check(self)  # raises, and then nothing is cached
        return True


def parent_map(d: Drs) -> dict[str, str]:
    """Box-nesting parents: operator children and relation constituents.

    Each box has at most one structural parent (operator embedding is
    exclusive; relation constituents hang off the top box and may appear
    in several relations). Presupposed boxes are roots of their own until
    merged.
    """
    operator_embedded: dict[str, str] = {}
    for b in d.boxes:
        for c in b.conditions:
            if not isinstance(c, Operator):
                continue
            for child in c.boxes:
                if child in operator_embedded:
                    raise DataError(f"box {child} embedded under several operators")
                operator_embedded[child] = b.id
    parents = dict(operator_embedded)
    for _label, a, bb in d.relations:
        for child in (a, bb):
            if child in operator_embedded:
                raise DataError(
                    f"box {child} is both operator-embedded and a relation constituent")
            parents[child] = d.top
    return parents


def _ancestor_chain(box_id: str, parents: dict[str, str]) -> list[str]:
    chain = [box_id]
    seen = {box_id}
    cur = box_id
    while cur in parents:
        cur = parents[cur]
        if cur in seen:
            raise CyclicStructure(f"box {cur} is its own ancestor")
        seen.add(cur)
        chain.append(cur)
    return chain


def _argument_fault(c: Unary | Binary, arg: str) -> str | None:
    """Why ``arg`` cannot be an argument of ``c``, or None: an argument is a
    variable or a quoted constant, and a unary predicate takes a variable."""
    if is_variable(arg) or is_constant(arg) and isinstance(c, Binary):
        return None
    if is_constant(arg):
        return f"unary predicate {c.predicate} takes a variable, got constant {arg}"
    return f"argument {arg!r} is neither a variable nor a quoted constant"


def _in_text_order(d: Drs) -> Drs:
    """``d`` with its boxes in the order ``parse_clauses`` reads them back
    from ``format_clauses(d)``: those that host a line in their own order,
    then the others by first mention."""
    if all(b.referents or b.conditions for b in d.boxes):
        return d  # every box hosts a line
    tokens = format_clauses(d).split()
    first = dict(zip(reversed(tokens), range(len(tokens) - 1, -1, -1)))  # token -> position
    boxes = tuple(sorted(d.boxes, key=lambda b: -1 if _hosts_line(d, b)
                         else first.get(b.id, len(tokens))))
    return d if boxes == d.boxes else Drs(boxes, d.relations, d.top)


def _hosts_line(d: Drs, b: Box) -> bool:
    return bool(b.referents or b.conditions or b.id == d.top and d.relations)


def validate(d: Drs) -> Drs:
    """Check every structural invariant; returns ``d`` unchanged on success.

    Scope rule: a condition in box B may use a referent when the box that
    declares it is open at B or is presupposed (presuppositions project
    globally until merged). The open boxes at B are B and its nesting
    ancestors, plus the antecedent of every IMP/DUP whose consequent is
    among them; boxes nested inside an antecedent stay private. Every box
    must descend from the top or a presupposed box, and nesting is acyclic.

    A valid DRS reads back equal from its clause text, up to box order (the
    parser, ``merge_presuppositions`` and ``from_tree`` give the text's).
    So predicate and role labels are single tokens spelled like no symbol or
    keyword, with or without a sense suffix; relation labels are keywords
    other than REF and the operators; the top box is not presupposed; and
    every box hosts a clause or is named by one.

    A Drs that passed is remembered, so checking it again costs nothing. A
    failure is not remembered: the same value raises again.
    """
    d._valid
    return d


def _check(d: Drs) -> None:
    if len({b.id for b in d.boxes}) != len(d.boxes):
        raise DataError("duplicate box ids")
    known = d._by_id
    if d.top not in known:
        raise DataError(f"top box {d.top!r} does not exist")
    if known[d.top].presupposed:
        raise DataError(f"top box {d.top} is presupposed")
    declared: dict[str, str] = {}
    labels: set[str] = set()  # of unary predicates and binary roles
    for b in d.boxes:
        if not is_box_id(b.id) or b.presupposed != (b.id[0] == "p"):  # 'p' marks presupposed
            raise DataError(f"bad box id {b.id!r} for presupposed={b.presupposed}")
        for v in b.referents:
            if not is_variable(v):
                raise DataError(f"bad referent name {v!r} in box {b.id}")
            if v in declared:
                raise DuplicateReferent(f"referent {v} declared in {declared[v]} and {b.id}")
            declared[v] = b.id
        for c in b.conditions:
            if isinstance(c, Operator):
                if c.op not in OPERATORS:
                    raise UnknownOperator(f"unknown operator {c.op!r}")
                want = 1 if c.op in UNARY_OPERATORS else 2
                if len(c.boxes) != want:
                    raise DataError(f"operator {c.op} takes {want} box(es)")
                for ref in c.boxes:
                    if ref not in known:
                        raise DataError(f"operator references unknown box {ref!r}")
            else:
                labels.add(c.predicate if isinstance(c, Unary) else c.role)
    for label in sorted(labels):
        if fault := _label_fault(label):
            bad = sorted(x for x in labels if _label_fault(x) == fault)
            raise DataError(f"labels {fault[1]}: {bad}")
    for label, a, bb in d.relations:
        if not _is_keyword(label) or _SPACE_RE.search(label) or label in ("REF", *OPERATORS):
            raise DataError(f"bad relation label {label!r}")
        for ref in (a, bb):
            if ref not in known:
                raise DataError(f"relation {label} references unknown box {ref!r}")
        if d.top in (a, bb):
            raise DataError("discourse relations may not reference the top box")
    parents = parent_map(d)
    roots = [b for b in d.boxes if b.id not in parents]
    stray = [b.id for b in roots if b.id != d.top and not b.presupposed]
    if stray:
        raise DataError(f"boxes unreachable from top: {sorted(stray)}")
    unnamed = [b.id for b in roots if not _hosts_line(d, b)]
    if unnamed:
        raise DataError(f"boxes that no clause hosts or names: {sorted(unnamed)}")
    children: dict[str, list[str]] = {}
    for child, par in parents.items():
        children.setdefault(par, []).append(child)
    presupposed = {b.id for b in d.boxes if b.presupposed}

    # Depth-first from the roots. A stack entry opens a box (and the
    # antecedent it may see); an entry with an empty id closes what its
    # partner opened once the box's subtree is done.
    open_boxes: set[str] = set()
    visited: set[str] = set()
    stack: list[tuple[str, tuple[str, ...]]] = [(b.id, ()) for b in reversed(roots)]
    while stack:
        box_id, opens = stack.pop()
        if not box_id:
            open_boxes.difference_update(opens)
            continue
        visited.add(box_id)
        opens = (box_id,) + opens
        open_boxes.update(opens)
        stack.append(("", opens))
        b = known[box_id]
        antecedent: dict[str, str] = {}
        for c in b.conditions:
            if isinstance(c, Operator):
                if c.op in ANTECEDENT_OPERATORS:
                    antecedent[c.boxes[1]] = c.boxes[0]
                continue
            for arg in c.args:
                home = declared.get(arg)  # a declared name is a variable
                if home is None and (fault := _argument_fault(c, arg)):
                    raise DataError(fault)
                if home not in open_boxes and home not in presupposed and not is_constant(arg):
                    raise UnboundVariable(f"variable {arg} used in box {b.id} but not accessible")
        for child in reversed(children.get(box_id, ())):
            stack.append((child, (antecedent[child],) if child in antecedent else ()))
    if len(visited) != len(d.boxes):
        # The rest lie on or below a nesting cycle. They are unreachable
        # unless the top or a presupposed box is among them.
        rest = [b for b in d.boxes if b.id not in visited]
        if not any(b.id == d.top or b.presupposed for b in rest):
            raise DataError(f"boxes unreachable from top: {sorted(b.id for b in rest)}")
        _ancestor_chain(rest[0].id, parents)  # raises CyclicStructure


# ---------------------------------------------------------------------------
# clause-file parsing and serialization


@dataclass(frozen=True)
class AlignmentRecord:
    token: int
    predicate: str
    head: bool = False


@dataclass(frozen=True)
class ClauseDocument:
    drs: Drs
    alignments: tuple[AlignmentRecord, ...] = ()
    comments: tuple[str, ...] = ()


_ALIGN_RE = re.compile(r"^%\s+(\d+)\s+(\S+)(\s+head)?\s*$")


def parse_clause_document(text: str) -> ClauseDocument:
    """Parse one clause block into a validated Drs plus alignment records.

    An error caused by one line starts with ``line N:``, counting every
    line of ``text`` from 1.
    """
    return _parse_lines(enumerate(text.splitlines(), start=1))


def _parse_lines(lines: Iterable[tuple[int, str]]) -> ClauseDocument:
    alignments: list[AlignmentRecord] = []
    comments: list[str] = []
    clause_lines: list[list[str]] = []
    numbers: list[int] = []  # of the clause lines, for error messages
    for n, raw in lines:
        line = raw.strip()
        if not line:
            continue
        if line.startswith("%"):
            m = _ALIGN_RE.match(line)
            if m:
                alignments.append(AlignmentRecord(
                    token=int(m.group(1)), predicate=m.group(2), head=bool(m.group(3))))
            else:
                comments.append(line[1:].strip())
            continue
        clause_lines.append(line.split())
        numbers.append(n)
    if not clause_lines:
        raise EmptyInput("no clause lines")

    hosted: dict[str, tuple[list[str], list[Condition]]] = {}
    declared: set[str] = set()  # by REF lines, so variables
    mentioned: dict[str, None] = {}
    embedded: set[str] = set()
    relations: list[tuple[str, str, str]] = []
    relation_hosts: list[tuple[int, str]] = []

    def touch(box_id: str) -> None:
        if box_id not in mentioned:
            if not is_box_id(box_id):
                raise DataError(f"line {n}: bad box id {box_id!r}")
            mentioned[box_id] = None

    for n, toks in zip(numbers, clause_lines):
        if len(toks) < 3:
            raise DataError(f"line {n}: clause too short: {' '.join(toks)!r}")
        host = toks[0]
        touch(host)
        referents, conditions = hosted.setdefault(host, ([], []))
        kw = toks[1]
        args = toks[2:]
        if kw == "REF":
            if len(args) != 1:
                raise DataError(f"line {n}: REF takes one variable")
            if not is_variable(args[0]):
                raise DataError(f"line {n}: bad referent name {args[0]!r}")
            referents.append(args[0])
            declared.add(args[0])
        elif kw in OPERATORS:
            for a in args:
                touch(a)
            embedded.update(args)
            conditions.append(Operator(kw, tuple(args)))
        elif _is_keyword(kw):
            if len(args) == 2 and is_box_id(args[0]) and is_box_id(args[1]):
                for a in args:
                    touch(a)
                embedded.update(args)
                relations.append((kw, args[0], args[1]))
                relation_hosts.append((n, host))
            else:
                raise UnknownOperator(f"line {n}: unknown operator {kw!r}")
        elif len(args) > 2:
            raise DataError(f"line {n}: predicate clause with {len(args)} arguments")
        else:
            c = Unary(kw, args[0]) if len(args) == 1 else Binary(kw, *args)
            for a in args:
                if a not in declared and (fault := _argument_fault(c, a)):
                    raise DataError(f"line {n}: {fault}")
            conditions.append(c)
    for box_id in mentioned:
        hosted.setdefault(box_id, ([], []))

    # the first box that is neither presupposed nor embedded; validate
    # rejects the fallback when it cannot be the top
    top = next((b for b in hosted if not b.startswith("p") and b not in embedded),
               next(iter(hosted)))
    for n, host in relation_hosts:
        if host != top:
            raise DataError(f"line {n}: relation hosted at {host}, expected top box {top}")
    boxes = tuple(Box(id=b, referents=tuple(refs), conditions=tuple(conds),
                      presupposed=b.startswith("p")) for b, (refs, conds) in hosted.items())
    d = _in_text_order(Drs(boxes=boxes, relations=tuple(relations), top=top))
    return ClauseDocument(drs=validate(d), alignments=tuple(alignments),
                          comments=tuple(comments))


def parse_clauses(text: str) -> Drs:
    return parse_clause_document(text).drs


def parse_clause_documents(text: str) -> list[ClauseDocument]:
    """Parse a file holding several DRSs separated by blank lines; error
    line numbers count from the start of the file."""
    blocks: list[list[tuple[int, str]]] = [[]]
    for n, line in enumerate(text.splitlines(), start=1):
        if line.strip():
            blocks[-1].append((n, line))
        elif blocks[-1]:
            blocks.append([])
    docs = [_parse_lines(b) for b in blocks if b]
    if not docs:
        raise EmptyInput("no clause blocks")
    return docs


def box_clauses(box: Box) -> Iterator[tuple[str, ...]]:
    """The clauses a box hosts, in file order: referents, then conditions."""
    for v in box.referents:
        yield (box.id, "REF", v)
    for c in box.conditions:
        if isinstance(c, Unary):
            yield (box.id, c.predicate, c.argument)
        elif isinstance(c, Binary):
            yield (box.id, c.role, c.first, c.second)
        else:
            yield (box.id, c.op, *c.boxes)


def format_clauses(doc: ClauseDocument | Drs) -> str:
    """Canonical clause-file text, the boxes in stored order. ``parse_clauses``
    reads a valid DRS back equal, up to box order (see ``validate``), and
    ``parse_clause_document`` its comments and alignment records. A comment
    or record that would read back as something else raises ``DataError``."""
    if isinstance(doc, Drs):
        doc = ClauseDocument(drs=doc)
    d = doc.drs
    out: list[str] = []
    for c in doc.comments:
        line = f"% {c}"
        if c != c.strip() or len(line.splitlines()) != 1 or _ALIGN_RE.match(line):
            raise DataError(f"comment {c!r} would not read back as this comment")
        out.append(line)
    for rec in doc.alignments:
        if type(rec.token) is not int or rec.token < 0:
            raise DataError(f"alignment token {rec.token!r} is not a whole number")
        if not rec.predicate or _SPACE_RE.search(rec.predicate):
            raise DataError(
                f"alignment predicate {rec.predicate!r} is empty or holds whitespace")
        out.append(f"% {rec.token} {rec.predicate}" + (" head" if rec.head else ""))
    for box in d.boxes:
        if box.id == d.top:  # the top hosts the relations, first in its block
            out.extend(f"{d.top} {label} {a} {b}" for label, a, b in d.relations)
        out.extend(map(" ".join, box_clauses(box)))
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# presupposition merging, sense stripping, predicate reversion


def merge_presuppositions(d: Drs) -> Drs:
    """Dissolve presupposed boxes into the box that consumes their variables.

    A presupposed box with exactly one consumer (or whose consumers form an
    ancestor chain) merges into the consumer nearest the top; one that is
    structurally referenced or consumed by unrelated boxes raises
    AmbiguousMerge. Presupposed boxes merge in document order, and a
    target's referents and conditions are extended in that order.
    Idempotent: a DRS with no presupposed boxes is returned as-is.
    """
    if not any(b.presupposed for b in d.boxes):
        return d
    parents = parent_map(d)
    home = {v: b.id for b in d.boxes for v in b.referents}
    # box id -> boxes declaring the variables its conditions use; a constant
    # gives None, which no box id equals
    uses = {b.id: {home.get(arg) for c in b.conditions if not isinstance(c, Operator)
                   for arg in c.args} for b in d.boxes}
    added: dict[str, tuple[list[str], list[Condition]]] = {}
    for box in d.boxes:
        if not box.presupposed or box.id == d.top:
            continue
        if box.id in parents:
            raise AmbiguousMerge(
                f"presupposed box {box.id} is referenced by an operator or relation")
        consumers = [x for x, used in uses.items() if box.id in used and x != box.id]
        if not consumers:
            target = d.top
        elif len(consumers) == 1:
            target = consumers[0]
        else:
            chains = {c: set(_ancestor_chain(c, parents)) for c in consumers}
            target = None
            for c in consumers:
                if all(c in chains[other] for other in consumers):
                    target = c  # ancestor of every other consumer
            if target is None:
                raise AmbiguousMerge(
                    f"presupposed box {box.id} consumed by unrelated boxes {sorted(consumers)}")
        referents, conditions = added.pop(box.id, ((), ()))
        referents = [*box.referents, *referents]
        conditions = [*box.conditions, *conditions]
        into_referents, into_conditions = added.setdefault(target, ([], []))
        into_referents += referents
        into_conditions += conditions
        for c in conditions:
            if isinstance(c, Operator):
                for child in c.boxes:
                    parents[child] = target
        uses[target] |= uses.pop(box.id)
        for x in consumers:
            uses[x].add(target)  # the box's referents now live in target
    boxes = tuple(b if b.id not in added else Box(b.id, b.referents + tuple(added[b.id][0]),
                                                  b.conditions + tuple(added[b.id][1]))
                  for b in d.boxes if b.id in uses)  # the others merged away
    try:
        return validate(_in_text_order(Drs(boxes, d.relations, d.top)))
    except (UnboundVariable, DataError) as e:
        raise AmbiguousMerge(f"merging presupposed boxes broke accessibility: {e}") from e


def _relabelled(d: Drs, relabel) -> Drs:
    """``d`` with each unary predicate ``p`` renamed ``relabel(p)``.

    The result keeps ``d``'s passed check: validate rejects every label that
    sense stripping turns into a symbol or keyword, and revert_predicates
    every such lemma, so no relabelling can make a valid DRS invalid.
    """
    boxes = tuple(
        Box(b.id, b.referents,
            tuple(Unary(relabel(c.predicate), c.argument) if isinstance(c, Unary) else c
                  for c in b.conditions),
            b.presupposed)
        for b in d.boxes)
    out = Drs(boxes, d.relations, d.top)
    if "_valid" in d.__dict__:
        out.__dict__["_valid"] = True
    return out


def strip_senses(d: Drs) -> Drs:
    """Drop sense suffixes from unary predicate labels; idempotent."""
    return _relabelled(d, strip_sense)


def revert_predicates(d: Drs, annotation) -> tuple[Drs, int]:
    """Replace aligned lexical predicate labels with the aligned token lemma.

    A unary predicate is lexical when it carries a sense suffix or its
    (sense-stripped) label appears in the alignment records. If several
    tokens align to one predicate the head-marked token wins, leftmost on
    ties. Lexical predicates with no alignment keep their label; the count
    of such cases is returned alongside the new DRS. A lemma that is empty,
    holds whitespace or is spelled like a symbol or a keyword raises
    PairingError, since the clause format could not write it back.
    """
    by_pred: dict[str, list[AlignmentRecord]] = {}
    for rec in annotation.alignments:
        by_pred.setdefault(strip_sense(rec.predicate), []).append(rec)
    warnings = 0

    def relabel(predicate: str) -> str:
        nonlocal warnings
        stripped = strip_sense(predicate)
        if stripped == predicate and stripped not in by_pred:
            return predicate
        recs = by_pred.get(stripped)
        if not recs:
            warnings += 1
            return predicate
        heads = [r for r in recs if r.head]
        chosen = min(heads or recs, key=lambda r: r.token)
        if not 0 <= chosen.token < len(annotation.lemmas):
            raise PairingError(f"alignment token {chosen.token} of {predicate} is outside "
                               f"the {len(annotation.lemmas)} lemmas")
        lemma = annotation.lemmas[chosen.token]
        if fault := _label_fault(lemma):
            raise PairingError(f"lemma {lemma!r} of {predicate} {fault[0]}")
        return lemma

    reverted = _relabelled(d, relabel)
    return reverted, warnings


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
        boxes.append(Box(id=box_map[b.id], referents=refs, conditions=tuple(conds),
                         presupposed=b.presupposed))
    relations = tuple((label, box_map[a], box_map[bb]) for label, a, bb in d.relations)
    return Drs(boxes=tuple(boxes), relations=relations, top=box_map[d.top])
