"""The error contract: any input, however malformed, either goes through or
raises a ``BoxparseError`` subclass.

Inputs are valid documents from the random-DRS generator with up to three
edits applied, so most of them are near misses that reach deep into the
pipeline before anything can reject them.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import RELATION_POOL, random_drs

from boxparse.drs import (
    OPERATORS,
    UNARY_OPERATORS,
    format_clauses,
    merge_presuppositions,
    parse_clauses,
    strip_senses,
)
from boxparse.errors import BoxparseError
from boxparse.evaluate import score
from boxparse.tree import LinearSeq, delinearize, from_tree, linearize, to_tree

SEEDS = st.integers(min_value=0, max_value=10_000)
INDEX = st.integers(min_value=0, max_value=1_000)
LINE_EDITS = ("swap_token", "drop", "duplicate", "move", "insert_operator",
              "insert_relation")
TOKEN_EDITS = ("swap", "drop", "duplicate", "move")


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
    lines = format_clauses(random_drs(np.random.default_rng(seed))).splitlines()
    for edit in line_edits:
        if lines:
            edit_lines(lines, *edit)
    try:
        merged = strip_senses(merge_presuppositions(parse_clauses("\n".join(lines))))
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
