"""The contracts: any input, however malformed, either goes through or
raises a ``BoxparseError`` subclass; every DRS that validates reads back
equal from its clause text and, merged, from its tree's linear form; and
the outcome of each of a fixed set of edited inputs is pinned.

Inputs are valid documents from the random-DRS generator with up to three
edits applied, so most of them are near misses that reach deep into the
pipeline before anything can reject them, and DRSs built in code from
drawn labels, constants, box ids and relation labels.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import RELATION_POOL, random_drs, random_presupposed_drs, rechecked

from boxparse.drs import (
    OPERATORS,
    UNARY_OPERATORS,
    Binary,
    Box,
    Drs,
    Operator,
    Unary,
    format_clauses,
    merge_presuppositions,
    parse_clauses,
    strip_senses,
    validate,
)
from boxparse.errors import AmbiguousMerge, BoxparseError, DataError
from boxparse.evaluate import score
from boxparse.tree import LinearSeq, delinearize, from_tree, linearize, to_tree

SEEDS = st.integers(min_value=0, max_value=10_000)
INDEX = st.integers(min_value=0, max_value=1_000)
LINE_EDITS = ("swap_token", "drop", "duplicate", "move", "insert_operator",
              "insert_relation")
TOKEN_EDITS = ("swap", "drop", "duplicate", "move")

# Parts for the round-trip property: spellings that clause text reads back
# as themselves, and odd ones (blank, spaced, or spelled like a symbol, a
# keyword or a bracket) that it does not.
PARTS = {
    "label": (["dog", "sit_down.v.01", "Agent", "A", "dog)", ")x"],
              ["", "sit down", "x2", "b1.n.01", "REF", "NOT.n.01", "EQU", "(dog", ")"]),
    "constant": (['"now"', '""'], ['"a b"', '"a\nb"', "dog"]),
    "box_id": (["b1", "b2", "b3", "b01", "p1", "p2"], ["foo", "b4\n", "q1"]),
    "relation": (["CONTINUATION", "RESULT"],
                 ["continuation", "REF", "NOT", "A", "CON TINUATION", "(CONT"]),
}
LEAVES = [*PARTS["label"][0], *PARTS["label"][1], *PARTS["constant"][1]]
# Odd shapes of a whole part, which construction refuses: a relation that
# is not a (label, box, box) triple, and a condition that is no condition class.
SHAPES = {
    "relation_shape": [("CONTINUATION", "b2"), ("CONTINUATION", "b2", "b3", "b1")],
    "condition_shape": ["dog", ("dog", "x1"), None],
}
# SHA-256 of the repr of the outcomes of seeded edits, 2,000 each: for
# clause text, edited by line and within lines, format_clauses of the
# parsed, merged DRS or the (error class, message) raised; for token
# sequences, the same of from_tree. A change in what the parser or the tree
# reader accepts, in their messages or which fault wins, or in the order of
# the boxes shows here.
PINNED_PARSE = "c4c79b43f37d12dbb4587ff20273938ce6bef863dec8e3f13021bf84734ea206"
PINNED_TREE = "44dd60c3ae1f4e906e5f79646498f6e9cdf6bda028596faf1aa2a386fb831d39"
PIN_LEAVES = ("dog", "Agent", "x1", "e2", "b1", '"now"', "REF", "NOT", "K1", "C1", "DRS", "")
LINKS = ["NOT", "POS", "NEC", "relation", "relation", "relation", "root"]  # how a box hangs


def edits(kinds):
    return st.lists(st.tuples(st.sampled_from(kinds), INDEX, INDEX, INDEX), max_size=3)


def edit_lines(lines: list[str], kind: str, i: int, j: int, k: int) -> None:
    """Apply one edit in place; the indices are taken modulo what they index."""
    boxes = sorted({line.split()[0] for line in lines}) + [f"b{len(lines) + 1}", "p1"]

    def box(n: int) -> str:
        return boxes[n % len(boxes)]

    if kind == "insert_operator":
        op = sorted(OPERATORS)[j % len(OPERATORS)]
        args = [box(k)] if op in UNARY_OPERATORS else [box(k), box(k + 1)]
        lines.insert(i % (len(lines) + 1), " ".join([box(i), op, *args]))
    elif kind == "insert_relation":
        label = RELATION_POOL[i % len(RELATION_POOL)]
        lines.insert(j % (len(lines) + 1), f"{box(i)} {label} {box(j)} {box(k)}")
    elif kind == "swap_token":
        tokens = [t for line in lines for t in line.split()]
        toks = lines[i % len(lines)].split()
        toks[j % len(toks)] = tokens[k % len(tokens)]
        lines[i % len(lines)] = " ".join(toks)
    else:
        edit_tokens(lines, kind, i, j, k)


def edit_tokens(seq: list, kind: str, i: int, j: int, k: int) -> None:
    """Swap one item for another of the sequence, or drop, duplicate or
    move one, in place."""
    if not seq:
        return
    i %= len(seq)
    if kind == "swap":
        seq[i] = seq[j % len(seq)]
    elif kind == "drop":
        del seq[i]
    elif kind == "duplicate":
        seq.insert(i, seq[i])
    else:
        seq.insert(j % len(seq), seq.pop(i))


@given(SEEDS, edits(LINE_EDITS))
@settings(max_examples=100, deadline=None)
def test_edited_clause_text_raises_only_boxparse_errors(seed, line_edits):
    rng = np.random.default_rng(seed)
    d = random_presupposed_drs(rng) if seed % 2 else random_drs(rng)
    lines = format_clauses(d).splitlines()
    for edit in line_edits:
        if lines:
            edit_lines(lines, *edit)
    try:
        merged = merge_presuppositions(parse_clauses("\n".join(lines)))
    except BoxparseError:
        return
    validate(rechecked(merged))  # merged carries the parse's check; a fresh copy runs its own
    try:
        merged = strip_senses(merged)
        back = from_tree(delinearize(linearize(to_tree(merged))))
        score(back, merged)
    except BoxparseError:
        pass


@given(SEEDS, edits(TOKEN_EDITS))
@settings(max_examples=100, deadline=None)
def test_edited_token_sequence_raises_only_boxparse_errors(seed, token_edits):
    tokens = list(linearize(to_tree(random_drs(np.random.default_rng(seed)))).tokens)
    for edit in token_edits:
        edit_tokens(tokens, *edit)
    try:
        from_tree(delinearize(LinearSeq(tuple(tokens))))
    except BoxparseError:
        pass


def outcome(convert) -> str | tuple[str, str]:
    """``format_clauses`` of the DRS ``convert()`` returns, or what it raised."""
    try:
        return format_clauses(convert())
    except BoxparseError as e:
        return type(e).__name__, str(e)


def seeded_edits(rng: np.random.Generator, kinds) -> list[tuple]:
    """One to three edits: a kind and three indices each."""
    return [(kinds[rng.integers(len(kinds))], *map(int, rng.integers(0, 1_000, 3)))
            for _ in range(rng.integers(1, 4))]


def test_parse_outcomes_are_pinned():
    outcomes = []
    for seed in range(2_000):
        rng = np.random.default_rng(seed)
        d = random_presupposed_drs(rng) if seed % 2 else random_drs(rng)
        lines = format_clauses(d).splitlines()
        for edit in seeded_edits(rng, LINE_EDITS):
            if lines:
                edit_lines(lines, *edit)
        if seed % 4 == 3 and lines:  # and one edit within a line
            kind, i, j, k = seeded_edits(rng, TOKEN_EDITS)[0]
            toks = lines[i % len(lines)].split()
            edit_tokens(toks, kind, j, k, 0)
            lines[i % len(lines)] = " ".join(toks)
        text = "\n".join(lines)
        outcomes.append(outcome(lambda: merge_presuppositions(parse_clauses(text))))
    assert hashlib.sha256(repr(outcomes).encode()).hexdigest() == PINNED_PARSE


def test_tree_outcomes_are_pinned():
    outcomes = []
    for seed in range(2_000):
        rng = np.random.default_rng(seed)
        tokens = list(linearize(to_tree(random_drs(rng))).tokens)
        for kind, i, j, _k in seeded_edits(rng, ("drop", "relabel")):
            edit_tree_tokens(tokens, kind, i, PIN_LEAVES[j % len(PIN_LEAVES)])
        if seed % 2:
            for edit in seeded_edits(rng, TOKEN_EDITS):
                edit_tokens(tokens, *edit)
        seq = LinearSeq(tuple(tokens))
        outcomes.append(outcome(lambda: from_tree(delinearize(seq))))
    assert hashlib.sha256(repr(outcomes).encode()).hexdigest() == PINNED_TREE


@pytest.mark.parametrize("tokens", [("",), ("(DRS", "", ")"), ("(DRS", "(REF", "", ")", ")")],
                         ids=["alone", "under_drs", "under_ref"])
def test_an_empty_token_raises_a_boxparse_error(tokens):
    with pytest.raises(BoxparseError):
        from_tree(delinearize(LinearSeq(tokens)))


@st.composite
def drawn_drs(draw) -> Drs:
    """A DRS built in code, with at most one kind of part drawn with an odd
    spelling. The first box is a root; each other box hangs under an
    operator of an earlier box, is a relation constituent, or is a root;
    every box declares one referent; and the boxes come in any order."""
    odd = draw(st.sampled_from([None, None, *PARTS]))

    def part(kind: str) -> str:
        return draw(st.sampled_from(PARTS[kind][kind == odd]))

    ids = list(dict.fromkeys(part("box_id") for _ in range(draw(st.integers(1, 4)))))
    conditions: list[list] = [[] for _ in ids]
    constituents = []
    for i, box_id in enumerate(ids):
        own = f"x{i + 1}"
        for _ in range(draw(st.integers(0, 2))):
            arg = draw(st.sampled_from([own, "x1", part("constant")]))
            conditions[i].append(Unary(part("label"), own) if arg == own
                                 else Binary(part("label"), own, arg))
        link = draw(st.sampled_from(LINKS)) if i else "root"
        if link == "relation":
            constituents.append(box_id)
        elif link != "root":
            conditions[draw(st.integers(0, i - 1))].append(Operator(link, (box_id,)))
    relations = [(part("relation"), a, b) for a, b in zip(constituents, constituents[1:])]
    if len(constituents) == 1:  # a lone constituent relates to itself
        relations.append((part("relation"), constituents[0], constituents[0]))
    boxes = [Box(box_id, (f"x{i + 1}",), tuple(conditions[i])) for i, box_id in enumerate(ids)]
    return Drs(tuple(draw(st.permutations(boxes))), tuple(relations))


@given(drawn_drs())
@settings(max_examples=300, deadline=None)
def test_valid_drs_built_in_code_reads_back_equal(d):
    try:
        validate(d)
    except BoxparseError:
        return
    assert parse_clauses(format_clauses(d)) == d


@given(drawn_drs())
@settings(max_examples=300, deadline=None)
def test_valid_merged_drs_survives_the_linear_form(d):
    try:
        validate(d)
    except BoxparseError:
        return
    try:
        merged = merge_presuppositions(d)
    except AmbiguousMerge:
        return
    validate(rechecked(merged))  # merged carries d's check; a fresh copy runs its own
    t = to_tree(merged)
    assert delinearize(linearize(t)) == t


@given(drawn_drs(), st.sampled_from(sorted(SHAPES)), st.data())
@settings(max_examples=100, deadline=None)
def test_odd_shapes_are_refused_where_built(d, odd, data):
    shape = data.draw(st.sampled_from(SHAPES[odd]))
    if odd == "relation_shape":
        i = data.draw(st.integers(0, len(d.relations)))
        with pytest.raises(DataError):
            Drs(d.boxes, (*d.relations[:i], shape, *d.relations[i:]))
    else:
        box = data.draw(st.sampled_from(d.boxes))
        i = data.draw(st.integers(0, len(box.conditions)))
        with pytest.raises(DataError):
            Box(box.id, box.referents, (*box.conditions[:i], shape, *box.conditions[i:]))


def edit_tree_tokens(tokens: list[str], kind: str, i: int, label: str) -> None:
    """Drop a subtree other than the root, or relabel a leaf, in place. Both
    keep balanced brackets balanced, unless a leaf was relabelled like a
    bracket; a drop then runs at most to the end."""
    if kind == "relabel":
        leaves = [j for j, tok in enumerate(tokens) if tok != ")" and not tok.startswith("(")]
        if leaves:
            tokens[leaves[i % len(leaves)]] = label
        return
    starts = [j for j, tok in enumerate(tokens) if tok.startswith("(")][1:]
    if not starts:
        return
    start = starts[i % len(starts)]
    end, depth = start + 1, 1
    while depth and end < len(tokens):
        depth += tokens[end].startswith("(") - (tokens[end] == ")")
        end += 1
    del tokens[start:end]


@given(SEEDS, st.lists(st.tuples(st.sampled_from(["drop", "relabel"]), INDEX,
                                 st.sampled_from(LEAVES)), max_size=3))
@example(seed=0, tree_edits=[("relabel", 0, "(dog"), ("relabel", 0, "(dog"),
                             ("drop", 0, "dog")])  # a drop past the last ")"
@settings(max_examples=150, deadline=None)
def test_valid_drs_from_an_edited_tree_reads_back_equal(seed, tree_edits):
    tokens = list(linearize(to_tree(random_drs(np.random.default_rng(seed)))).tokens)
    for edit in tree_edits:
        edit_tree_tokens(tokens, *edit)
    try:
        d = from_tree(delinearize(LinearSeq(tuple(tokens))))
    except BoxparseError:
        return
    assert parse_clauses(format_clauses(d)) == d
