"""DRS data model and clause-format operations.

A DRS is a nested box structure: each box declares typed referents
(x entity, e event, t time, s state) and holds unary predicate, binary
role, and box-operator conditions. Boxes are linked either by embedding
under an operator (NOT, POS, NEC, IMP, DIS, DUP) or by labelled discourse
relations hosted at the top box. A box whose id starts with 'p' is
presupposed. The top is the one plain box that nothing embeds: the roots
of the nesting are exactly the top and the presupposed boxes.

Clause file format (UTF-8, LF, one clause per line, whitespace separated):

    % free-form comment (raw sentence text)
    % <tokenIndex> <predicateLabel> [head]      alignment record
    b1 CONTINUATION b2 b3                       discourse relation (host = top)
    b2 REF e1                                   referent declaration
    b2 sit_down.v.01 e1                         unary predicate (may carry sense)
    b2 Agent e1 "speaker"                       binary role; constants are quoted
    b2 NOT b4                                   operator condition

Token conventions, in brackets the one function that judges a kind: box
ids match ``[bp][0-9]+`` (``is_box_id``; 'p' marks a presupposed box,
``Box.presupposed``), variables match ``[xets][0-9]+`` (``is_variable``),
constants are quoted (``is_constant``), REF, operator and relation labels
are fully uppercase (``_is_keyword``), roles are capitalized, predicates
lowercase, and no label looks like a symbol, a keyword or a bracket of the
tree's linear form (it starts with ``(`` or is ``)``), with or without a
sense suffix (``_label_fault``). No token holds whitespace. DRSs in one
file are separated by blank lines.

All values are immutable; every operation returns a new structure. A Drs
remembers that it passed ``validate``. The parser and ``tree.from_tree``
check untrusted input in full. ``merge_presuppositions`` and the label-only
rewrites ``strip_senses`` and ``revert_predicates`` carry validity: no rule
can fail on what they build from a valid DRS, so they pass its check on to
their result unrun.

Construction rule: a field's type is its annotation. Calling a value type,
here or in ``tree``, raises ``DataError`` unless each field is exactly of
that type, down to the class of each condition and the three parts of each
relation. The parser, the rewrites and the tree conversions, which hold
only values already checked or parsed, build through ``_build``, which
skips the check. The slotted classes (``Unary``, ``Binary``, ``Operator``,
``Box`` and ``tree.Node``) state each field once, in its annotation:
``_slot_init`` derives their slot-setting ``__init__`` from the fields.
"""

from __future__ import annotations

import re
from dataclasses import MISSING, dataclass, fields
from functools import cache, cached_property
from types import GenericAlias, UnionType
from typing import Iterable, Iterator, get_type_hints

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

_SENSE_RE = re.compile(r"([^.]+)\.[a-z]+\.[0-9]+")
_SPACE_RE = re.compile(r"\s")  # what splits a clause line into tokens


@cache
def is_variable(token: str) -> bool:
    """Whether ``token`` is spelled like a variable. Remembered for the life
    of the process: one entry per distinct token."""
    return re.fullmatch(r"[xets][0-9]+", token) is not None


@cache
def is_box_id(token: str) -> bool:
    """Whether ``token`` is spelled like a box id. Remembered for the life of
    the process: one entry per distinct token."""
    return re.fullmatch(r"[bp][0-9]+", token) is not None


def is_constant(token: str) -> bool:
    return len(token) >= 2 and token[0] == token[-1] == '"' and not _SPACE_RE.search(token)


def _is_keyword(token: str) -> bool:
    """Whether the parser reads ``token`` as REF, an operator or a relation."""
    return token.isupper() and len(token) > 1


def variable_sort(name: str) -> str:
    if not is_variable(name):
        raise DataError(f"not a variable: {name!r}")
    return name[0]


@cache
def strip_sense(label: str) -> str:
    """Remove a trailing ``.pos.NN`` sense suffix; anything else is untouched.
    Remembered for the life of the process: one entry per distinct label."""
    m = _SENSE_RE.fullmatch(label)
    return m.group(1) if m else label


@cache
def _label_fault(label: str) -> tuple[str, str] | None:
    """Why ``label`` cannot be a predicate, role or lemma, said of one label
    and of several; None if it can. Clause text and the tree's linear form
    must read it back as itself: one token that, sense stripped, is spelled
    like no symbol, keyword or bracket. Remembered for the life of the
    process, verdicts of both kinds: one entry per distinct label."""
    if not label or _SPACE_RE.search(label):
        return "is empty or holds whitespace", "empty or holding whitespace"
    stripped = strip_sense(label)
    if is_variable(stripped) or is_box_id(stripped):
        return "is spelled like a symbol", "spelled like symbols"
    if _is_keyword(stripped):
        return "is spelled like a keyword", "spelled like keywords"
    if stripped[0] == "(" or stripped == ")":
        return "is spelled like a bracket", "spelled like brackets"
    return None


class _Checked(type):
    """Calling a class checks each field of the value built against the
    field's annotation."""

    def __call__(cls, *args, **kwargs):
        value = super().__call__(*args, **kwargs)
        for name, kind in _field_types(cls):
            if not _is(field := getattr(value, name), kind):
                raise DataError(f"{cls.__name__}.{name} is {field!r}, "
                                f"not {cls.__annotations__[name]}")
        return value


@cache
def _field_types(cls: type) -> tuple[tuple[str, object], ...]:
    """Each field's name and annotated type. Read on the first checked call,
    not when the class is made, as ``Node``'s annotation names ``Node``."""
    hints = get_type_hints(cls)
    return tuple((f.name, hints[f.name]) for f in fields(cls))


def _is(value, kind) -> bool:
    """Whether ``value`` is exactly a ``kind``: a class, a union of classes,
    ``tuple[item, ...]`` or a ``tuple`` of fixed length."""
    if type(kind) is UnionType:
        return type(value) in kind.__args__
    if type(kind) is not GenericAlias:
        return type(value) is kind
    args = kind.__args__
    if type(value) is not tuple:
        return False
    if args[-1] is ...:
        return all(_is(x, args[0]) for x in value)
    return len(value) == len(args) and all(map(_is, value, args))


_build = type.__call__  # builds a value without the check


def _slot_init(cls: type) -> type:
    """Give a frozen slotted dataclass an ``__init__`` that sets each slot
    through its member descriptor: the frozen dataclass's own ``__init__``
    pays for ``object.__setattr__`` on every field, and a document builds
    thousands of these values. Compiled from the class's fields, as
    ``dataclasses`` compiles its own: the parameters are the fields in
    order, each with its field's default."""
    fs = fields(cls)
    namespace = {f"_set_{f.name}": getattr(cls, f.name).__set__ for f in fs}
    exec(f"def __init__(self, {', '.join(f.name for f in fs)}):"
         + "".join(f"\n    _set_{f.name}(self, {f.name})" for f in fs), namespace)
    init = cls.__init__ = namespace["__init__"]
    init.__defaults__ = tuple(f.default for f in fs if f.default is not MISSING)
    init.__module__, init.__qualname__ = cls.__module__, f"{cls.__qualname__}.__init__"
    return cls


@_slot_init
@dataclass(frozen=True, slots=True, init=False)
class Unary(metaclass=_Checked):
    predicate: str
    argument: str


@_slot_init
@dataclass(frozen=True, slots=True, init=False)
class Binary(metaclass=_Checked):
    role: str
    first: str
    second: str


@_slot_init
@dataclass(frozen=True, slots=True, init=False)
class Operator(metaclass=_Checked):
    op: str
    boxes: tuple[str, ...]


Condition = Unary | Binary | Operator


@_slot_init
@dataclass(frozen=True, slots=True, init=False)
class Box(metaclass=_Checked):
    id: str
    referents: tuple[str, ...] = ()
    conditions: tuple[Condition, ...] = ()

    @property
    def presupposed(self) -> bool:
        return self.id.startswith("p")


@dataclass(frozen=True)
class Drs(metaclass=_Checked):
    boxes: tuple[Box, ...]
    relations: tuple[tuple[str, str, str], ...] = ()

    @property
    def top(self) -> str | None:
        """The first box that is neither presupposed nor embedded, if any."""
        return self._nesting[0]

    @cached_property
    def _nesting(self) -> tuple[str | None, dict[str, str]]:
        """The top and each embedded box's parent: the box whose operator
        embeds it, or the top for a relation constituent. Operator embedding
        is exclusive; a constituent may appear in several relations."""
        parents: dict[str, str] = {}
        for b in self.boxes:
            for c in b.conditions:
                if type(c) is not Operator:
                    continue
                for child in c.boxes:
                    if child in parents:
                        raise DataError(f"box {child} embedded under several operators")
                    parents[child] = b.id
        constituents = dict.fromkeys(x for _label, a, b in self.relations for x in (a, b))
        for child in constituents:
            if child in parents:
                raise DataError(
                    f"box {child} is both operator-embedded and a relation constituent")
        top = next((b.id for b in self.boxes if not b.presupposed and b.id not in parents
                    and b.id not in constituents), None)
        parents.update(dict.fromkeys(constituents, top))
        return top, parents

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


def _argument_fault(c: Unary | Binary, arg: str) -> str | None:
    """Why ``arg`` cannot be an argument of ``c``, or None: an argument is a
    variable or a quoted constant, and a unary predicate takes a variable."""
    if is_variable(arg) or is_constant(arg) and type(c) is Binary:
        return None
    if is_constant(arg):
        return f"unary predicate {c.predicate} takes a variable, got constant {arg}"
    return f"argument {arg!r} is neither a variable nor a quoted constant"


def _argument_error(c: Unary | Binary, arg: str, box_id: str) -> DataError:
    """The error for an argument of ``c`` in box ``box_id`` that is neither
    a variable open there nor a constant that ``c`` may take."""
    if fault := _argument_fault(c, arg):
        return DataError(fault)
    return UnboundVariable(f"variable {arg} used in box {box_id} but not accessible")


def _in_text_order(d: Drs) -> Drs:
    """``d`` with its boxes in the order ``parse_clauses`` reads them back
    from ``format_clauses(d)``: those that host a line in their own order,
    then the others by first mention."""
    if all(b.referents or b.conditions for b in d.boxes):
        return d  # every box hosts a line
    tokens = [t for c in clauses(d) for t in c]
    first = dict(zip(reversed(tokens), range(len(tokens) - 1, -1, -1)))  # token -> position
    boxes = tuple(sorted(d.boxes, key=lambda b: -1 if _hosts_line(d, b)
                         else first.get(b.id, len(tokens))))
    return d if boxes == d.boxes else _build(Drs, boxes, d.relations)


def _hosts_line(d: Drs, b: Box) -> bool:
    return bool(b.referents or b.conditions or b.id == d.top and d.relations)


def validate(d: Drs) -> Drs:
    """Check every structural invariant; returns ``d`` unchanged on success.

    Scope rule: a condition in box B may use a referent when the box that
    declares it is open at B or is presupposed (presuppositions project
    globally until merged). The open boxes at B are B and its nesting
    ancestors, plus the antecedent of every IMP/DUP whose consequent is
    among them; boxes nested inside an antecedent stay private. Root rule:
    the roots of the nesting are exactly the top and the presupposed boxes,
    so a DRS whose every plain box is embedded has no top, no operator or
    relation embeds a presupposed box, and every other box descends from
    one root. Nesting is acyclic.

    A valid DRS reads back equal from its clause text. So its boxes come in
    the text's order, as the parser, ``merge_presuppositions`` and
    ``from_tree`` give them: those that host a line, then the others by
    first mention. Predicate and role labels are single tokens spelled like
    no symbol, keyword or bracket, with or without a sense suffix; relation
    labels are keywords other than REF and the operators, and start with no
    ``(``; and every box hosts a clause or is named by one. A bracket is a
    token that starts with ``(`` or is ``)``, which the tree's linear form
    could not read back as a label. Construction refuses a relation that is
    no (label, box, box) triple and a condition of no condition class.

    A Drs that passed is remembered, so checking it again costs nothing. A
    failure is not remembered: the same value raises again.
    """
    d._valid
    return d


def _passed_on(out: Drs, source: Drs) -> Drs:
    """``out``, remembered as passed if ``source`` passed ``validate``: for a
    step that builds only valid DRSs from a valid one."""
    if "_valid" in source.__dict__:
        out.__dict__["_valid"] = True
    return out


def _check(d: Drs) -> None:
    known = d._by_id
    if len(known) != len(d.boxes):
        raise DataError("duplicate box ids")
    declared: dict[str, str] = {}
    labels: set[str] = set()  # of unary predicates and binary roles
    presupposed: set[str] = set()
    for b in d.boxes:
        if not is_box_id(b.id):
            raise DataError(f"bad box id {b.id!r}")
        if b.presupposed:
            presupposed.add(b.id)
        for v in b.referents:
            if not is_variable(v):
                raise DataError(f"bad referent name {v!r} in box {b.id}")
            if v in declared:
                raise DuplicateReferent(f"referent {v} declared in {declared[v]} and {b.id}")
            declared[v] = b.id
        for c in b.conditions:  # of exactly these classes, as construction admits no other
            if type(c) is Unary:
                labels.add(c.predicate)
            elif type(c) is Binary:
                labels.add(c.role)
            else:
                if c.op not in OPERATORS:
                    raise UnknownOperator(f"unknown operator {c.op!r}")
                want = 1 if c.op in UNARY_OPERATORS else 2
                if len(c.boxes) != want:
                    raise DataError(f"operator {c.op} takes {want} box(es)")
                for ref in c.boxes:
                    if ref not in known:
                        raise DataError(f"operator references unknown box {ref!r}")
    for label in sorted(labels):
        if fault := _label_fault(label):
            bad = sorted(x for x in labels if _label_fault(x) == fault)
            raise DataError(f"labels {fault[1]}: {bad}")
    top, parents = d._nesting
    relation_labels: set[str] = set()  # those that passed
    for label, a, bb in d.relations:
        if label not in relation_labels:
            if (not _is_keyword(label) or label[0] == "(" or _SPACE_RE.search(label)
                    or label in ("REF", *OPERATORS)):
                raise DataError(f"bad relation label {label!r}")
            relation_labels.add(label)
        for ref in (a, bb):
            if ref not in known:
                raise DataError(f"relation {label} references unknown box {ref!r}")
    if top is None:
        raise DataError("no top box: every box is presupposed or embedded")
    if embedded := sorted(p for p in presupposed if p in parents):
        raise DataError(f"presupposed box embedded by an operator or relation: {embedded}")
    roots = [b for b in d.boxes if b.id not in parents]
    stray = [b.id for b in roots if b.id != top and not b.presupposed]
    if stray:
        raise DataError(f"boxes unreachable from top: {sorted(stray)}")
    unnamed = [b.id for b in roots if not _hosts_line(d, b)]
    if unnamed:
        raise DataError(f"boxes that no clause hosts or names: {sorted(unnamed)}")
    children: dict[str, list[str]] = {}
    for child, par in parents.items():
        children.setdefault(par, []).append(child)

    # Depth-first from the roots. A stack entry opens a box (and the
    # antecedent it may see); an entry with an empty id closes what its
    # partner opened once the box's subtree is done. An argument that no
    # REF declares must be a quoted constant of a binary role; ``constants``
    # holds the arguments already found to be one.
    constants: set[str] = set()
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
            if type(c) is Unary:
                home = declared.get(c.argument)
                if home not in open_boxes and home not in presupposed:
                    raise _argument_error(c, c.argument, box_id)
            elif type(c) is Binary:
                for arg in (c.first, c.second):
                    home = declared.get(arg)
                    if home in open_boxes or home in presupposed or arg in constants:
                        continue
                    if home is not None or not is_constant(arg):
                        raise _argument_error(c, arg, box_id)
                    constants.add(arg)
            elif c.op in ANTECEDENT_OPERATORS:
                antecedent[c.boxes[1]] = c.boxes[0]
        for child in reversed(children.get(box_id, ())):
            stack.append((child, (antecedent[child],) if child in antecedent else ()))
    if len(visited) != len(d.boxes):
        # every root was walked, so the rest lie on or below a nesting cycle:
        # go up from one of them until a box comes round again
        box_id, seen = next(b.id for b in d.boxes if b.id not in visited), set()
        while box_id not in seen:
            seen.add(box_id)
            box_id = parents[box_id]
        raise CyclicStructure(f"box {box_id} is its own ancestor")
    if _in_text_order(d) is not d:
        raise DataError("boxes not in clause-text order: those that host a line, "
                        "then the others by first mention")


# ---------------------------------------------------------------------------
# clause-file parsing and serialization


@dataclass(frozen=True)
class AlignmentRecord(metaclass=_Checked):
    token: int
    predicate: str
    head: bool = False


@dataclass(frozen=True)
class ClauseDocument(metaclass=_Checked):
    drs: Drs
    alignments: tuple[AlignmentRecord, ...] = ()
    comments: tuple[str, ...] = ()


_ALIGN_RE = re.compile(r"^%\s+(\d+)\s+(\S+)(\s+head)?\s*$")


def parse_clause_document(text: str) -> ClauseDocument:
    """Parse one clause block into a validated Drs plus alignment records.

    The parser reports what one line shows alone, in a message that starts
    with ``line N:``, counting every line of ``text`` from 1: a clause of
    fewer than three tokens, a bad box id, a REF line that names no one
    variable, a predicate or role with more than two arguments, an argument
    that is neither a variable nor a quoted constant, a constant argument
    of a unary predicate, an uppercase label that is no REF, operator or
    relation (``UnknownOperator``), and a relation hosted elsewhere than at
    the top. Text with no clause line raises ``EmptyInput``. The rest is
    left to ``validate``, whose messages name no line: labels, operator
    arity and boxes, duplicate referents, scope, the nesting and box order.
    """
    return _parse_lines(enumerate(_lines(text), start=1))


def _lines(text: str) -> list[str]:
    # clause text is data, so text that is not a str is a DataError
    if not isinstance(text, str):
        raise DataError(f"clause text is a str, not {type(text).__name__}")
    return text.splitlines()


def _parse_lines(lines: Iterable[tuple[int, str]]) -> ClauseDocument:
    alignments: list[AlignmentRecord] = []
    comments: list[str] = []
    hosted: dict[str, tuple[list[str], list[Condition]]] = {}
    declared: set[str] = set()  # by REF lines, so variables
    mentioned: dict[str, None] = {}  # box ids, in order of first mention
    relations: list[tuple[str, str, str]] = []
    relation_hosts: list[tuple[int, str]] = []
    host = None  # of the clause line before, whose lists are at hand
    for n, raw in lines:
        toks = raw.split()
        if not toks:
            continue
        if toks[0][0] == "%":
            line = raw.strip()
            if m := _ALIGN_RE.match(line):
                alignments.append(_build(AlignmentRecord, int(m.group(1)), m.group(2),
                                         bool(m.group(3))))
            else:
                comments.append(line[1:].strip())
            continue
        if len(toks) < 3:
            raise DataError(f"line {n}: clause too short: {' '.join(toks)!r}")
        if toks[0] != host:
            host = toks[0]
            if host not in mentioned:
                if not is_box_id(host):
                    raise DataError(f"line {n}: bad box id {host!r}")
                mentioned[host] = None
            referents, conditions = hosted.setdefault(host, ([], []))
        kw = toks[1]
        if not _is_keyword(kw):  # a predicate or a role
            if len(toks) > 4:
                raise DataError(f"line {n}: predicate clause with {len(toks) - 2} arguments")
            c = (_build(Unary, kw, toks[2]) if len(toks) == 3
                 else _build(Binary, kw, toks[2], toks[3]))
            for a in toks[2:]:
                if a not in declared and (fault := _argument_fault(c, a)):
                    raise DataError(f"line {n}: {fault}")
            conditions.append(c)
        elif kw == "REF":
            if len(toks) != 3:
                raise DataError(f"line {n}: REF takes one variable")
            if not is_variable(v := toks[2]):
                raise DataError(f"line {n}: bad referent name {v!r}")
            referents.append(v)
            declared.add(v)
        elif kw in OPERATORS:
            for a in toks[2:]:
                if a not in mentioned:
                    if not is_box_id(a):
                        raise DataError(f"line {n}: bad box id {a!r}")
                    mentioned[a] = None
            conditions.append(_build(Operator, kw, tuple(toks[2:])))
        elif len(toks) == 4 and is_box_id(toks[2]) and is_box_id(toks[3]):
            mentioned[toks[2]] = mentioned[toks[3]] = None
            relations.append((kw, toks[2], toks[3]))
            relation_hosts.append((n, host))
        else:
            raise UnknownOperator(f"line {n}: unknown operator {kw!r}")
    if host is None:
        raise EmptyInput("no clause lines")
    for box_id in mentioned:
        hosted.setdefault(box_id, ([], []))

    draft = _build(Drs, tuple(_build(Box, b, tuple(refs), tuple(conds))
                              for b, (refs, conds) in hosted.items()), tuple(relations))
    top = draft.top  # with no top, validate says so
    for n, host in relation_hosts:
        if top is not None and host != top:
            raise DataError(f"line {n}: relation hosted at {host}, expected top box {top}")
    d = _in_text_order(draft)
    return _build(ClauseDocument, validate(d), tuple(alignments), tuple(comments))


def parse_clauses(text: str) -> Drs:
    return parse_clause_document(text).drs


def parse_clause_documents(text: str) -> list[ClauseDocument]:
    """Parse a file holding several DRSs separated by blank lines; error
    line numbers count from the start of the file."""
    blocks: list[list[tuple[int, str]]] = [[]]
    for n, line in enumerate(_lines(text), start=1):
        if line.strip():
            blocks[-1].append((n, line))
        elif blocks[-1]:
            blocks.append([])
    docs = [_parse_lines(b) for b in blocks if b]
    if not docs:
        raise EmptyInput("no clause blocks")
    return docs


def clauses(d: Drs) -> Iterator[tuple[str, ...]]:
    """The lines of ``d``'s clause text as token tuples, in file order: box
    by box, its referents, then its conditions, the top's block led by the
    relations it hosts, as ``(top, label, a, b)``. ``d`` is not validated,
    but relations with no top to host them raise ``DataError``."""
    top = d.top if d.relations else None
    if d.relations and top is None:
        raise DataError("no top box to host the relations")
    for box in d.boxes:
        if box.id == top:
            yield from ((top, *r) for r in d.relations)
        yield from ((box.id, "REF", v) for v in box.referents)
        for c in box.conditions:
            if type(c) is Unary:
                yield (box.id, c.predicate, c.argument)
            elif type(c) is Binary:
                yield (box.id, c.role, c.first, c.second)
            else:
                yield (box.id, c.op, *c.boxes)


def format_clauses(doc: ClauseDocument | Drs) -> str:
    """Canonical clause-file text, the boxes in stored order. ``parse_clauses``
    reads a valid DRS back equal, and ``parse_clause_document`` its comments
    and alignment records. A comment or record that would read back as
    something else raises ``DataError``."""
    if isinstance(doc, Drs):
        doc = _build(ClauseDocument, doc)
    d = doc.drs
    out: list[str] = []
    for c in doc.comments:
        line = f"% {c}"
        if c != c.strip() or len(line.splitlines()) != 1 or _ALIGN_RE.match(line):
            raise DataError(f"comment {c!r} would not read back as this comment")
        out.append(line)
    for rec in doc.alignments:
        if rec.token < 0:
            raise DataError(f"alignment token {rec.token!r} is not a whole number")
        if not rec.predicate or _SPACE_RE.search(rec.predicate):
            raise DataError(
                f"alignment predicate {rec.predicate!r} is empty or holds whitespace")
        out.append(f"% {rec.token} {rec.predicate}" + (" head" if rec.head else ""))
    out.extend(map(" ".join, clauses(d)))
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# presupposition merging, sense stripping, predicate reversion


def merge_presuppositions(d: Drs) -> Drs:
    """Dissolve presupposed boxes into the box that consumes their variables.

    Presupposed boxes merge in document order. The consumers of a
    presupposed box P are the boxes whose conditions use a referent of P or
    of a box already merged into P, except P and the boxes nested in it,
    which move with it. P merges into the consumer that holds all the
    others, or into the top box if it has no consumer. Consumers of which
    none holds all the others raise AmbiguousMerge. A target's referents and
    conditions are extended in merge order, each merged box's own before
    those merged into it. Idempotent: a DRS with no presupposed boxes is
    returned as-is. An invalid ``d`` raises what ``validate`` raises; by the
    root rule, no P is embedded and none holds the top box.

    The result is valid, and it is returned marked as passed, unchecked.
    Each rule of ``validate`` that ``d`` met still holds after a merge:

    - Box ids, referent names, labels, operator arity, relation labels and
      constants are copied unchanged. Each merged box lands in exactly one
      surviving box, through ``taken``, so no box, referent or condition is
      duplicated.
    - Root rule: no operator or relation embeds a presupposed box. So no
      plain box changes between embedded and root, the top stays the top
      and keeps its lines, and every presupposed box is removed.
    - No cycles: the target is never nested in P, because consumers nested
      in P are left out of the choice.
    - Scope: the target is a nesting ancestor of every consumer, or the
      consumer itself, so it is open at each one; the boxes nested in P move
      with it under the target. P's own conditions can use only P's
      referents, presupposed referents or constants, because only P is open
      at a root. A presupposed box they use joins P's group if it comes
      earlier. If it comes later, it merges into an ancestor of P's target,
      or into that target itself.
    - Text order: ``_in_text_order`` puts the boxes back in text order.
    """
    validate(d)
    if not any(b.presupposed for b in d.boxes):
        return d
    top, parents = d._nesting
    home = {v: b.id for b in d.boxes for v in b.referents}
    # box -> the boxes whose conditions use its referents, as the input has them
    users: dict[str | None, set[str]] = {}
    for b in d.boxes:  # a constant's home is None, which no box id equals
        used = {home.get(a) for c in b.conditions if type(c) is not Operator
                for a in ((c.argument,) if type(c) is Unary else (c.first, c.second))}
        for y in used:
            users.setdefault(y, set()).add(b.id)
    into: dict[str, str] = {}  # merged box -> the box it merged into
    taken: dict[str, list[str]] = {}  # box -> all boxes merged into it, in output order

    def alive(x: str) -> str:
        while x in into:
            x = into[x]
        return x

    def chain(x: str) -> list[str]:  # x and the boxes that hold it, innermost first
        line = [x]
        while x in parents:
            x = alive(parents[x])
            line.append(x)
        return line

    for p in [b.id for b in d.boxes if b.presupposed]:
        group = [p, *taken.pop(p, ())]
        consumers = {alive(x) for y in group for x in users.get(y, ())}
        # consumers nested in p move with it; with none left, the top stands in
        chains = [c for c in map(chain, consumers) if p not in c] or [[top]]
        target = min(chains, key=len)[0]  # one that holds all others has the shortest chain
        if not all(target in c for c in chains):
            raise AmbiguousMerge(
                f"presupposed box {p} consumed by unrelated boxes {sorted(c[0] for c in chains)}")
        into[p] = target
        taken.setdefault(target, []).extend(group)
    known = d._by_id
    boxes = tuple(b if b.id not in taken else _build(
        Box, b.id, sum((known[x].referents for x in taken[b.id]), b.referents),
        sum((known[x].conditions for x in taken[b.id]), b.conditions))
        for b in d.boxes if b.id not in into)
    return _passed_on(_in_text_order(_build(Drs, boxes, d.relations)), d)


def _relabelled(d: Drs, relabel) -> Drs:
    """``d`` with each unary predicate ``p`` renamed ``relabel(p)``.

    The result keeps ``d``'s passed check: validate rejects every label that
    sense stripping turns into a symbol or keyword, and revert_predicates
    every such lemma, so no relabelling can make a valid DRS invalid.
    """
    boxes = tuple(
        _build(Box, b.id, b.referents,
               tuple(_build(Unary, relabel(c.predicate), c.argument) if type(c) is Unary
                     else c for c in b.conditions))
        for b in d.boxes)
    return _passed_on(_build(Drs, boxes, d.relations), d)


def strip_senses(d: Drs) -> Drs:
    """Drop sense suffixes from unary predicate labels; idempotent."""
    return _relabelled(d, strip_sense)


def revert_predicates(d: Drs, annotation) -> tuple[Drs, int]:
    """Replace aligned lexical predicate labels with the aligned token lemma.

    A unary predicate is lexical when it carries a sense suffix or its
    (sense-stripped) label appears in the alignment records. If several
    tokens align to one predicate the head-marked token wins, leftmost on
    ties. Lexical predicates with no alignment keep their label; the count
    of such cases is returned alongside the new DRS. A lemma that is no str,
    is empty, holds whitespace or is spelled like a symbol, a keyword or a
    bracket raises PairingError, since the clause format or the tree's
    linear form could not write it back.
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
        if type(lemma) is not str:
            raise PairingError(f"lemma {lemma!r} of {predicate} is not a str")
        if fault := _label_fault(lemma):
            raise PairingError(f"lemma {lemma!r} of {predicate} {fault[0]}")
        return lemma

    reverted = _relabelled(d, relabel)
    return reverted, warnings

