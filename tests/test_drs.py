import re
from collections import Counter
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    FIG1_CLAUSES,
    FIG1_LEMMAS,
    FIG1_TOKENS,
    RIGHT_TYPES,
    WRONG_TYPES,
    canonicalize_variables,
    random_draft,
    random_drs,
    random_presupposed_drs,
    rechecked,
)

from boxparse import drs as drs_module
from boxparse.drs import (
    AlignmentRecord,
    Binary,
    Box,
    ClauseDocument,
    Drs,
    Operator,
    Unary,
    format_clauses,
    merge_presuppositions,
    parse_clause_document,
    parse_clause_documents,
    parse_clauses,
    revert_predicates,
    strip_sense,
    strip_senses,
    validate,
)
from boxparse.errors import (
    AmbiguousMerge,
    CyclicStructure,
    DataError,
    DuplicateReferent,
    EmptyInput,
    UnboundVariable,
    PairingError,
    UnknownOperator,
)
from boxparse.evaluate import to_clauses
from boxparse.tree import DrsTree, LinearSeq, Node, delinearize, from_tree, linearize, to_tree


class SimpleAnnotation:
    def __init__(self, tokens, lemmas, alignments):
        self.tokens = tokens
        self.lemmas = lemmas
        self.alignments = tuple(alignments)


class TestParseClauses:
    def test_running_example_structure(self, fig1_drs):
        # The figure shows 3 boxes, 3 referents, 7 predicate/role conditions
        # and one CONTINUATION relation.
        assert len(fig1_drs.boxes) == 3
        assert fig1_drs.top == "b1"
        assert fig1_drs.relations == (("CONTINUATION", "b2", "b3"),)
        n_conditions = sum(len(b.conditions) for b in fig1_drs.boxes)
        assert n_conditions == 7
        referents = [v for b in fig1_drs.boxes for v in b.referents]
        assert sorted(referents) == ["e1", "e2", "x1"]

    def test_box_contents(self, fig1_drs):
        b3 = fig1_drs.box("b3")
        assert b3.referents == ("e2", "x1")
        assert Binary("Theme", "e2", "x1") in b3.conditions
        assert Unary("open.v.01", "e2") in b3.conditions
        with pytest.raises(DataError, match="no box 'b9'"):
            fig1_drs.box("b9")

    def test_alignments_parsed(self, fig1_doc):
        preds = {r.predicate for r in fig1_doc.alignments}
        assert preds == {"sit_down", "open", "laptop"}
        heads = [r for r in fig1_doc.alignments if r.head]
        assert len(heads) == 3

    def test_empty_file(self):
        with pytest.raises(EmptyInput):
            parse_clauses("")
        with pytest.raises(EmptyInput, match="no clause blocks"):
            parse_clause_documents("\n\n")

    @pytest.mark.parametrize("parse", [parse_clause_document, parse_clauses,
                                       parse_clause_documents])
    @pytest.mark.parametrize("text", [None, b"b1 REF x1\n", 1, ["b1 REF x1"]],
                             ids=["none", "bytes", "int", "list"])
    def test_text_that_is_no_str_raises_data_error(self, parse, text):
        with pytest.raises(DataError, match="clause text is a str"):
            parse(text)

    def test_comment_only_file(self):
        with pytest.raises(EmptyInput):
            parse_clauses("% just a comment\n")

    def test_unbound_variable(self):
        with pytest.raises(UnboundVariable):
            parse_clauses("b1 REF e1\nb1 Agent e1 x9\n")

    def test_unknown_operator(self):
        with pytest.raises(UnknownOperator):
            parse_clauses("b1 FROB b2\n")

    def test_cyclic_boxes(self):
        text = "b1 NOT b2\nb2 NOT b1\n"
        with pytest.raises((CyclicStructure, DataError)):
            parse_clauses(text)

    def test_duplicate_referent_in_box(self):
        with pytest.raises(DuplicateReferent):
            parse_clauses("b1 REF x1\nb1 REF x1\n")

    def test_duplicate_referent_across_boxes(self):
        with pytest.raises(DuplicateReferent):
            parse_clauses("b1 REF x1\nb1 NOT b2\nb2 REF x1\n")

    def test_unquoted_constant_rejected(self):
        with pytest.raises(DataError):
            parse_clauses("b1 REF e1\nb1 Agent e1 speaker\n")

    def test_unary_with_constant_rejected(self):
        with pytest.raises(DataError):
            parse_clauses('b1 person "speaker"\n')

    def test_operator_arity_enforced(self):
        with pytest.raises(DataError):
            parse_clauses("b1 NOT b2 b3\n")
        with pytest.raises(DataError):
            parse_clauses("b1 REF e1\nb1 IMP b2\n")

    def test_relation_must_be_hosted_at_top(self):
        text = "b1 NOT b2\nb2 CONTINUATION b3 b4\n"
        with pytest.raises(DataError):
            parse_clauses(text)

    @pytest.mark.parametrize("bad, message", [
        ("b1 dog", "clause too short"),
        ("q1 dog x1", "bad box id 'q1'"),
        ("b1 REF x1 x2", "REF takes one variable"),
        ("b1 REF dog", "bad referent name 'dog'"),
        ("b1 FROB x1", "unknown operator 'FROB'"),
        ("b1 dog x1 x1 x1", "predicate clause with 3 arguments"),
        ("b2 CONTINUATION b3 b4", "relation hosted at b2"),
        ("b1 Agent x1 dog", "argument 'dog' is neither a variable nor a quoted constant"),
        ('b1 person "speaker"', 'unary predicate person takes a variable, got constant "speaker"'),
    ])
    def test_line_errors_name_the_line(self, bad, message):
        # comment and blank lines count: the bad clause is line 5
        text = f"% a dog\n% 1 dog\n\nb1 REF x1\n{bad}\nb1 dog x1\n"
        with pytest.raises(DataError, match=f"^line 5: {re.escape(message)}"):
            parse_clauses(text)

    def test_line_errors_count_from_the_start_of_the_file(self, fig1_doc):
        first = format_clauses(fig1_doc)
        text = first + "\nb1 REF e1\nb1 run e1 e1 e1\n"
        line = first.count("\n") + 3
        with pytest.raises(DataError, match=f"^line {line}: predicate clause"):
            parse_clause_documents(text)

    @pytest.mark.parametrize("text", [
        "b1 REF x1\nb1 x2 x1\n",
        "b1 REF x1\nb1 b1 x1\n",
        "b1 REF e1\nb1 REF x1\nb1 p2 e1 x1\n",
        "b1 REF x1\nb1 REF x2\nb1 x2.n.01 x1\n",
    ])
    def test_symbol_like_labels_rejected(self, text):
        with pytest.raises(DataError, match="spelled like symbols"):
            parse_clauses(text)

    @pytest.mark.parametrize("text", [
        "b1 REF x1\nb1 REF.n.01 x1\n",
        "b1 REF x1\nb1 NOT.n.01 x1\n",
        "b1 REF x1\nb1 REF x2\nb1 CONTINUATION.v.02 x1 x2\n",
    ])
    def test_keyword_like_labels_rejected(self, text):
        with pytest.raises(DataError, match="spelled like keywords"):
            parse_clauses(text)

    @pytest.mark.parametrize("text", [
        "b1 REF x1\nb1 (dog x1\n",
        "b1 REF x1\nb1 ) x1\n",
        "b1 REF x1\nb1 (dog.n.01 x1\n",
        "b1 REF x1\nb1 ).n.01 x1\n",
        "b1 REF x1\nb1 REF x2\nb1 (Role x1 x2\n",
    ], ids=["open", "close", "open_sense", "close_sense", "role"])
    def test_bracket_like_labels_rejected(self, text):
        # the tree's linear form would read such a leaf as a bracket
        with pytest.raises(DataError, match="spelled like brackets"):
            parse_clauses(text)

    def test_bracket_like_relation_label_rejected(self):
        text = "b1 (CONT b2 b3\nb2 REF x1\nb2 dog x1\nb3 REF x2\nb3 cat x2\n"
        with pytest.raises(DataError, match=r"bad relation label '\(CONT'"):
            parse_clauses(text)

    @pytest.mark.parametrize("label", ["dog)", ")x", "Re(f"])
    def test_labels_that_only_hold_a_bracket_survive_the_linear_form(self, label):
        d = parse_clauses(f"b1 REF x1\nb1 REF x2\nb1 {label} x1 x2\n")
        t = to_tree(d)
        assert delinearize(linearize(t)) == t
        assert from_tree(t) == d

    def test_format_parse_round_trip(self, fig1_doc):
        text = format_clauses(fig1_doc)
        again = parse_clause_document(text)
        assert again.drs == fig1_doc.drs
        assert again.alignments == fig1_doc.alignments
        assert format_clauses(again) == text
        out = format_clauses(from_tree(to_tree(parse_clauses(FORMAT_PROBE))))
        assert format_clauses(parse_clauses(out)) == out

    def test_comments_and_records_read_back_equal(self, fig1_drs):
        doc = ClauseDocument(fig1_drs, alignments=(AlignmentRecord(0, "head", head=True),
                                                   AlignmentRecord(3, "dog.n.01")),
                             comments=("", "a  b", "% x", "1", "1 dog cat"))
        assert parse_clause_document(format_clauses(doc)) == doc

    @pytest.mark.parametrize("comments, alignments, field", [
        (("a\nb1 REF x9",), (), "comment"),
        ((" a dog",), (), "comment"),
        (("1 dog",), (), "comment"),
        (("1 dog head",), (), "comment"),
        ((), (AlignmentRecord(1, ""),), "alignment predicate"),
        ((), (AlignmentRecord(1, "sit down", head=True),), "alignment predicate"),
        ((), (AlignmentRecord(-1, "dog"),), "alignment token"),
    ], ids=["line_break", "surrounding_space", "record_like", "head_record_like",
            "empty_predicate", "spaced_predicate", "negative_token"])
    def test_format_rejects_what_reads_back_otherwise(self, fig1_drs, comments,
                                                      alignments, field):
        doc = ClauseDocument(fig1_drs, alignments=alignments, comments=comments)
        with pytest.raises(DataError, match=f"^{field} "):
            format_clauses(doc)

    def test_canonicalized_presupposition_round_trips(self):
        d = parse_clauses("b1 REF x1\nb1 Owner x1 x2\np1 REF x2\np1 cat x2\n")
        renamed = parse_clauses("b3 REF x5\nb3 Owner x5 x7\np4 REF x7\np4 cat x7\n")
        assert canonicalize_variables(renamed) == d
        assert parse_clauses(format_clauses(canonicalize_variables(d))) == d

    def test_top_is_first_box_nothing_embeds(self):
        d = parse_clauses("p1 REF x2\np1 cat x2\nb1 REF x1\nb1 dog x1\nb1 Owner x1 x2\n")
        assert d.top == "b1"
        assert [b.id for b in d.boxes] == ["p1", "b1"]

    def test_multi_document_file(self, fig1_doc):
        text = format_clauses(fig1_doc) + "\n" + "b1 REF e1\nb1 run.v.01 e1\n"
        docs = parse_clause_documents(text)
        assert len(docs) == 2
        assert docs[0].drs == fig1_doc.drs
        assert len(docs[1].drs.boxes) == 1

    def test_random_drs_round_trip_through_text(self, rng):
        for _ in range(25):
            d = random_drs(rng)
            assert parse_clauses(format_clauses(d)) == d


# A discourse whose second constituent follows a box nested in the first:
# from_tree numbers the boxes b1 b2 b3 b4, while b4 is mentioned before b3.
FORMAT_PROBE = """\
b1 CONTINUATION b2 b4
b1 REF x1
b1 Name x1 "tom"
b2 NOT b3
b3 REF e1
b3 sleep.v.01 e1
b3 Agent e1 x1
b4 REF e2
b4 run.v.01 e2
b4 Agent e2 x1
"""

PRESUPPOSED = """\
b1 CONTINUATION b2 b3
b2 REF e1
b2 sit_down.v.01 e1
b2 Agent e1 "speaker"
b3 REF e2
b3 open.v.01 e2
b3 Agent e2 "speaker"
b3 Theme e2 x1
p1 REF x1
p1 laptop.n.01 x1
p1 Owner x1 "speaker"
"""


NEGATED_RELATIVE = """\
b1 REF e1
b1 leave.v.01 e1
b1 Agent e1 x1
p1 REF x1
p1 man.n.01 x1
p1 NOT b2
b2 REF e2
b2 sleep.v.01 e2
b2 Agent e2 x1
"""


class TestMergePresuppositions:
    def test_no_presuppositions_is_identity(self, fig1_drs):
        assert merge_presuppositions(fig1_drs) is fig1_drs

    def test_single_consumer_merges(self):
        d = parse_clauses(PRESUPPOSED)
        assert len(d.boxes) == 4
        merged = merge_presuppositions(d)
        assert len(merged.boxes) == 3
        assert not any(b.presupposed for b in merged.boxes)
        b3 = merged.box("b3")
        assert "x1" in b3.referents
        assert Unary("laptop.n.01", "x1") in b3.conditions
        assert Binary("Owner", "x1", '"speaker"') in b3.conditions

    def test_idempotent(self):
        merged = merge_presuppositions(parse_clauses(PRESUPPOSED))
        assert merge_presuppositions(merged) == merged

    def test_sibling_consumers_ambiguous(self):
        text = (
            "b1 CONTINUATION b2 b3\n"
            "b2 REF e1\nb2 Agent e1 x1\n"
            "b3 REF e2\nb3 Theme e2 x1\n"
            "p1 REF x1\np1 laptop.n.01 x1\n"
        )
        with pytest.raises(AmbiguousMerge):
            merge_presuppositions(parse_clauses(text))

    def test_ancestor_consumer_wins(self):
        # both the outer box and a box nested under it consume x1: merge high
        text = (
            "b1 REF e1\nb1 Agent e1 x1\n"
            "b1 NOT b2\n"
            "b2 REF e2\nb2 Theme e2 x1\n"
            "p1 REF x1\np1 laptop.n.01 x1\n"
        )
        merged = merge_presuppositions(parse_clauses(text))
        assert len(merged.boxes) == 2
        assert "x1" in merged.box("b1").referents

    def test_unconsumed_merges_into_top(self):
        text = "b1 REF e1\nb1 run.v.01 e1\np1 REF x1\np1 laptop.n.01 x1\n"
        merged = merge_presuppositions(parse_clauses(text))
        assert len(merged.boxes) == 1
        assert set(merged.box("b1").referents) == {"e1", "x1"}

    def test_merge_puts_the_boxes_back_in_text_order(self):
        # p1's NOT b2 moves behind b1's NOT b3, so b3 is now named first
        text = ("p1 REF x1\np1 man.n.01 x1\np1 NOT b2\n"
                "b1 REF e1\nb1 leave.v.01 e1\nb1 NOT b3\n")
        d = parse_clauses(text)
        assert [b.id for b in d.boxes] == ["p1", "b1", "b2", "b3"]
        merged = merge_presuppositions(d)
        assert [b.id for b in merged.boxes] == ["b1", "b3", "b2"]
        validate(rechecked(merged))
        assert parse_clauses(format_clauses(merged)) == merged

    def test_structurally_referenced_presupposed_box(self):
        # the root rule rejects it before any merge
        d = Drs((Box("b1", ("e1",), (Unary("run", "e1"), Operator("NOT", ("p1",)))),
                 Box("p1", ("x1",), (Unary("laptop", "x1"),))))
        with pytest.raises(DataError, match="presupposed box embedded"):
            merge_presuppositions(d)

    def test_invalid_argument_raises_data_error(self):
        d = parse_clauses(PRESUPPOSED)
        with pytest.raises(DataError, match="Drs.relations is"):
            Drs(d.boxes, (("CONTINUATION", "b2"),))

    def test_box_nested_in_a_presupposed_box_moves_with_it(self):
        # "the man who didn't sleep left": b2 uses x1 from inside p1, so only
        # b1 consumes p1
        merged = merge_presuppositions(parse_clauses(NEGATED_RELATIVE))
        assert format_clauses(merged) == (
            "b1 REF e1\nb1 REF x1\nb1 leave.v.01 e1\nb1 Agent e1 x1\n"
            "b1 man.n.01 x1\nb1 NOT b2\n"
            "b2 REF e2\nb2 sleep.v.01 e2\nb2 Agent e2 x1\n")

    def test_box_that_moved_counts_where_it_went(self):
        # p1's only user is b2, nested in it, so p1 merges into the top; b2
        # then lies under b1, which holds both consumers of p2
        text = NEGATED_RELATIVE.replace("b1 Agent e1 x1\n", "b1 Theme e1 x2\n") + (
            "b2 Location e2 x2\np2 REF x2\np2 city.n.01 x2\n")
        merged = merge_presuppositions(parse_clauses(text))
        assert [b.id for b in merged.boxes] == ["b1", "b2"]
        assert merged.box("b1").referents == ("e1", "x1", "x2")
        assert merged.box("b1").conditions[-3:] == (
            Unary("man.n.01", "x1"), Operator("NOT", ("b2",)), Unary("city.n.01", "x2"))

    def test_chained_merge_order(self):
        # p1 is used only by p2, and p2 only by b1: p1 merges into p2 first,
        # and both land in b1, each box's own clauses before those merged into it
        text = ("b1 REF e1\nb1 leave.v.01 e1\nb1 Agent e1 x2\n"
                "p1 REF x1\np1 city.n.01 x1\n"
                "p2 REF x2\np2 man.n.01 x2\np2 Location x2 x1\n")
        merged = merge_presuppositions(parse_clauses(text))
        assert merged.boxes == (Box("b1", ("e1", "x2", "x1"), (
            Unary("leave.v.01", "e1"), Binary("Agent", "e1", "x2"), Unary("man.n.01", "x2"),
            Binary("Location", "x2", "x1"), Unary("city.n.01", "x1"))),)

    def test_unconsumed_box_that_holds_the_top_raises(self):
        # p1 embeds the only plain box, so nothing can be the top
        text ="b1 REF x1\nb1 dog.n.01 x1\nb1 Owner x1 x2\np1 NOT b1\np2 REF x2\np2 man.n.01 x2\n"
        with pytest.raises(DataError, match="no top box"):
            parse_clauses(text)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=300, deadline=None)
    def test_merge_keeps_every_clause_or_raises_ambiguous_merge(self, seed):
        d = random_presupposed_drs(np.random.default_rng(seed))
        try:
            merged = merge_presuppositions(d)
        except AmbiguousMerge:
            return
        validate(rechecked(merged))  # merged carries d's check; a fresh copy runs its own
        assert not any(b.presupposed for b in merged.boxes)
        for field in ("referents", "conditions"):
            assert (Counter(x for b in merged.boxes for x in getattr(b, field))
                    == Counter(x for b in d.boxes for x in getattr(b, field)))


class TestStripSenses:
    def test_sense_suffix_removed(self):
        d = parse_clauses("b1 REF e2\nb1 open.v.01 e2\n")
        stripped = strip_senses(d)
        assert stripped.box("b1").conditions == (Unary("open", "e2"),)

    def test_no_suffix_is_noop(self):
        d = parse_clauses("b1 REF x1\nb1 laptop x1\n")
        assert strip_senses(d) == d

    def test_idempotent(self, fig1_drs):
        once = strip_senses(fig1_drs)
        assert strip_senses(once) == once

    def test_roles_untouched(self, fig1_drs):
        stripped = strip_senses(fig1_drs)
        assert Binary("Agent", "e1", '"speaker"') in stripped.box("b2").conditions

    @given(st.from_regex(r"[a-z_]{1,8}", fullmatch=True),
           st.from_regex(r"[a-z]{1,3}", fullmatch=True),
           st.integers(min_value=0, max_value=99))
    @settings(max_examples=50, deadline=None)
    def test_strip_matches_regex_oracle(self, lemma, pos, num):
        label = f"{lemma}.{pos}.{num:02d}"
        assert strip_sense(label) == re.sub(r"\.[a-z]+\.[0-9]+$", "", label)
        assert strip_sense(lemma) == lemma


class TestRevertPredicates:
    def test_italian_lemma_substituted(self):
        d = parse_clauses("b1 REF e1\nb1 open.v.01 e1\n")
        ann = SimpleAnnotation(
            tokens=["Gianni", "apre", "la", "porta"],
            lemmas=["Gianni", "aprire", "il", "porta"],
            alignments=[AlignmentRecord(1, "open", head=True)],
        )
        reverted, warnings = revert_predicates(d, ann)
        assert reverted.box("b1").conditions == (Unary("aprire", "e1"),)
        assert warnings == 0

    def test_non_lexical_untouched(self):
        d = parse_clauses("b1 REF e1\nb1 REF t1\nb1 time t1\nb1 Agent e1 \"speaker\"\n")
        ann = SimpleAnnotation(["a"], ["a"], [])
        reverted, warnings = revert_predicates(d, ann)
        assert reverted == d
        assert warnings == 0

    def test_multi_token_alignment_uses_head(self):
        d = parse_clauses("b1 REF e1\nb1 sit_down.v.01 e1\n")
        ann = SimpleAnnotation(
            tokens=FIG1_TOKENS, lemmas=FIG1_LEMMAS,
            alignments=[AlignmentRecord(2, "sit_down"),
                        AlignmentRecord(1, "sit_down", head=True)],
        )
        reverted, _ = revert_predicates(d, ann)
        assert reverted.box("b1").conditions == (Unary("sit", "e1"),)

    def test_tie_breaks_leftmost(self):
        d = parse_clauses("b1 REF e1\nb1 sit_down.v.01 e1\n")
        ann = SimpleAnnotation(
            tokens=FIG1_TOKENS, lemmas=FIG1_LEMMAS,
            alignments=[AlignmentRecord(2, "sit_down"), AlignmentRecord(1, "sit_down")],
        )
        reverted, _ = revert_predicates(d, ann)
        assert reverted.box("b1").conditions == (Unary("sit", "e1"),)

    def test_unaligned_lexical_counts_warning(self):
        d = parse_clauses("b1 REF e1\nb1 open.v.01 e1\n")
        ann = SimpleAnnotation(["a"], ["a"], [])
        reverted, warnings = revert_predicates(d, ann)
        assert reverted.box("b1").conditions == (Unary("open.v.01", "e1"),)
        assert warnings == 1

    def test_alignment_past_lemmas_raises_pairing_error(self):
        d = parse_clauses("b1 REF e1\nb1 open.v.01 e1\n")
        ann = SimpleAnnotation(["a"], ["a"], [AlignmentRecord(1, "open", head=True)])
        with pytest.raises(PairingError):
            revert_predicates(d, ann)

    def test_symbol_like_lemma_raises_pairing_error(self):
        d = parse_clauses("b1 REF e1\nb1 open.v.01 e1\n")
        ann = SimpleAnnotation(["x1"], ["x1"], [AlignmentRecord(0, "open", head=True)])
        with pytest.raises(PairingError, match="spelled like a symbol"):
            revert_predicates(d, ann)

    @pytest.mark.parametrize("lemma", ["REF", "NOT.n.01"])
    def test_keyword_like_lemma_raises_pairing_error(self, lemma):
        d = parse_clauses("b1 REF e1\nb1 open.v.01 e1\n")
        ann = SimpleAnnotation([lemma], [lemma], [AlignmentRecord(0, "open", head=True)])
        with pytest.raises(PairingError, match="spelled like a keyword"):
            revert_predicates(d, ann)

    @pytest.mark.parametrize("lemma", ["(dog", ")"])
    def test_bracket_like_lemma_raises_pairing_error(self, lemma):
        d = parse_clauses("b1 REF e1\nb1 open.v.01 e1\n")
        ann = SimpleAnnotation([lemma], [lemma], [AlignmentRecord(0, "open", head=True)])
        with pytest.raises(PairingError, match="spelled like a bracket"):
            revert_predicates(d, ann)

    @pytest.mark.parametrize("lemma", [5, ["dog"], b"dog"], ids=["int", "list", "bytes"])
    def test_lemma_that_is_no_str_raises_pairing_error(self, lemma):
        d = parse_clauses("b1 REF e1\nb1 open.v.01 e1\n")
        ann = SimpleAnnotation(["a"], [lemma], [AlignmentRecord(0, "open", head=True)])
        with pytest.raises(PairingError, match="is not a str"):
            revert_predicates(d, ann)

    @pytest.mark.parametrize("lemma", ["sit down", ""])
    def test_blank_lemma_raises_pairing_error(self, lemma):
        # format_clauses would write "b1 sit down e1", which does not re-parse
        d = parse_clauses("b1 REF e1\nb1 sit.v.01 e1\n")
        ann = SimpleAnnotation([lemma], [lemma], [AlignmentRecord(0, "sit", head=True)])
        with pytest.raises(PairingError, match="empty or holds whitespace"):
            revert_predicates(d, ann)


# Predicate labels and lemmas for the relabelling property: plain,
# sense-suffixed, and spelled like keywords or symbols.
LABELS = ["dog", "dog.n.01", "A.n.01", "Ref.n.01", "REF.n.01", "NOT.n.01",
          "CONTINUATION.v.02", "EQU", "x2.n.01"]
LEMMAS = ["aprire", "A", "REF", "NOT.n.01", "NARRATION", "x1", "b2.n.01"]


class TestValidate:
    def test_random_drs_validate(self, rng):
        for _ in range(30):
            d = random_drs(rng)
            assert validate(d) is d

    def test_variable_sorts_checked(self):
        bad = Drs(boxes=(Box("b1", ("q1",), ()),))
        with pytest.raises(DataError):
            validate(bad)

    def test_imp_antecedent_accessible_in_consequent(self):
        text = "b1 IMP b2 b3\nb2 REF x1\nb2 dog x1\nb3 REF e1\nb3 Agent e1 x1\n"
        d = parse_clauses(text)
        assert len(d.boxes) == 3

    def test_dis_branches_do_not_share_scope(self):
        text = "b1 DIS b2 b3\nb2 REF x1\nb2 dog x1\nb3 REF e1\nb3 Agent e1 x1\n"
        with pytest.raises(UnboundVariable):
            parse_clauses(text)

    def test_unreachable_box(self):
        d = Drs(boxes=(Box("b1", ("e1",), (Unary("run", "e1"),)), Box("b2")))
        with pytest.raises(DataError):
            validate(d)

    @pytest.mark.parametrize("boxes, relations, message", [
        ((Box("b1", ("x1",), (Unary("dog", "x1"),)), Box("b1", ("x2",), (Unary("cat", "x2"),))),
         (), "duplicate box ids"),
        ((Box("b1", ("x1",), (Unary("dog", "x1"), Operator("NOT", ("b9",)))),),
         (), "operator references unknown box 'b9'"),
        ((Box("b1"), Box("b2", ("x1",), (Unary("dog", "x1"),))),
         (("CONTINUATION", "b2", "b9"),), "relation CONTINUATION references unknown box 'b9'"),
    ], ids=["duplicate", "operator", "relation"])
    def test_each_box_id_names_one_box(self, boxes, relations, message):
        with pytest.raises(DataError, match=message):
            validate(Drs(boxes, relations))

    def test_failed_check_raises_again(self):
        bad = Drs(boxes=(Box("b1", ("q1",), ()),))
        for _ in range(2):
            with pytest.raises(DataError, match="bad referent name"):
                validate(bad)

    @given(st.integers(min_value=0, max_value=10_000),
           st.lists(st.sampled_from(LABELS), min_size=1, max_size=4),
           st.sampled_from(LEMMAS))
    @settings(max_examples=100, deadline=None)
    def test_label_rewrites_keep_validity(self, seed, labels, lemma):
        d = random_drs(np.random.default_rng(seed))
        names = iter(labels)
        d = Drs(tuple(replace(b, conditions=tuple(
            Unary(next(names, c.predicate), c.argument) if isinstance(c, Unary) else c
            for c in b.conditions)) for b in d.boxes), d.relations)
        try:
            validate(d)
        except DataError:
            return
        ann = SimpleAnnotation([lemma], [lemma],
                               [AlignmentRecord(0, label) for label in labels])
        for rewrite in (strip_senses, lambda x: revert_predicates(x, ann)[0]):
            try:
                out = rewrite(d)
            except PairingError:
                continue
            # the result passes on d's check; a fresh copy must pass its own
            validate(Drs(out.boxes, out.relations))
            assert parse_clauses(format_clauses(out)) == out

    @pytest.mark.parametrize("text, checks", [(PRESUPPOSED, 2), (FORMAT_PROBE, 2)],
                             ids=["presupposed", "no_presupposed"])
    def test_round_trip_checks_each_new_drs_once(self, monkeypatch, text, checks):
        # parse and from_tree check the DRSs they build from text; merge and
        # strip_senses carry their input's check over, and to_tree reuses it
        calls = []
        check = drs_module._check
        monkeypatch.setattr(drs_module, "_check", lambda d: calls.append(d) or check(d))
        merged = strip_senses(merge_presuppositions(parse_clauses(text)))
        from_tree(delinearize(linearize(to_tree(merged))))
        assert len(calls) == checks

    @pytest.mark.parametrize("condition", [
        Unary("sit down", "e1"), Unary("", "e1"), Binary("Agent", "e1", '"a b"')])
    def test_blank_labels_and_spaced_constants_rejected(self, condition):
        # format_clauses would write a line that splits into other tokens
        d = Drs(boxes=(Box("b1", ("e1",), (condition,)),))
        with pytest.raises(DataError):
            validate(d)

    def test_spaced_tree_leaf_rejected(self):
        t = to_tree(parse_clauses("b1 REF e1\nb1 sit e1\n"))
        spaced = DrsTree(Node("DRS", (t.root.children[0], Node("C1", (Node("sit down"),
                                                                       Node("e1"))))))
        with pytest.raises(DataError, match="empty or holding whitespace"):
            from_tree(spaced)

    @pytest.mark.parametrize("label", ["x2.n.01", "NOT.n.01", "(dog"])
    def test_refused_label_is_refused_again(self, label):
        # _label_fault remembers its verdicts, refusals too, and validate
        # remembers no failure: a second parse or check fails as the first
        text = f"b1 REF x1\nb1 REF x2\nb1 {label} x1\n"
        d = Drs(boxes=(Box("b1", ("x1",), (Unary(label, "x1"),)),))
        for call in (lambda: parse_clauses(text), lambda: validate(d)):
            errors = []
            for _ in range(2):
                with pytest.raises(DataError) as caught:
                    call()
                errors.append((type(caught.value), str(caught.value)))
            assert errors[0] == errors[1]

    @pytest.mark.parametrize("box_id, referent", [("foo", "x1"), ("b1\n", "x1"),
                                                  ("b1", "x1\n")])
    def test_names_spelled_as_the_parser_reads_them(self, box_id, referent):
        d = Drs(boxes=(Box(box_id, (referent,), (Unary("dog", referent),)),))
        with pytest.raises(DataError):
            validate(d)

    def test_top_box_is_not_presupposed(self):
        with pytest.raises(DataError, match="no top box"):
            parse_clauses("p1 REF x1\np1 dog x1\n")

    def test_top_nested_under_a_presupposed_box(self):
        with pytest.raises(DataError, match="no top box"):
            parse_clauses("b1 REF x1\nb1 dog x1\np1 NOT b1\n")

    @pytest.mark.parametrize("text", [
        "b1 REF x1\nb1 dog x1\nb1 NOT p1\np1 REF x2\np1 cat x2\n",
        "b1 CONTINUATION b2 p1\nb2 REF x1\nb2 dog x1\np1 REF x2\np1 cat x2\n",
    ], ids=["operator", "relation"])
    def test_embedded_presupposed_box(self, text):
        with pytest.raises(DataError, match="presupposed box embedded"):
            parse_clauses(text)

    def test_cycle_away_from_the_top(self):
        with pytest.raises(CyclicStructure, match="its own ancestor"):
            parse_clauses("b1 REF x1\nb1 dog x1\nb2 NOT b3\nb3 NOT b2\n")

    @pytest.mark.parametrize("label", ["continuation", "REF", "NOT", "A", "CON TINUATION",
                                       "(CONT"])
    def test_relation_labels_are_keywords(self, label):
        d = parse_clauses(PRESUPPOSED)
        with pytest.raises(DataError, match="bad relation label"):
            validate(Drs(d.boxes, ((label, "b2", "b3"),)))

    @pytest.mark.parametrize("boxes", [
        (Box("b1"),),
        (Box("b1", ("x1",), (Unary("dog", "x1"),)), Box("p1")),
        (Box("b1"), Box("p1", ("x1",), (Unary("dog", "x1"),))),
    ], ids=["no_clause", "empty_presupposed", "empty_top"])
    def test_every_box_hosts_or_is_named_by_a_clause(self, boxes):
        with pytest.raises(DataError, match="no clause hosts or names"):
            validate(Drs(boxes=boxes))

    @pytest.mark.parametrize("make", [
        # the top box comes second, as in the text
        lambda: parse_clauses("p1 REF x2\np1 cat x2\nb1 REF x1\nb1 dog x1\nb1 Owner x1 x2\n"),
        # an empty box is numbered before a sibling that hosts lines
        lambda: from_tree(delinearize(LinearSeq(tuple(
            "(DRS (REF x1 ) (C1 dog x1 ) (OP NOT (DRS ) ) (OP POS (DRS (REF e1 ) "
            "(C1 run e1 ) ) ) )".split())))),
    ], ids=["parsed", "from_tree"])
    def test_boxes_read_back_in_their_order(self, make):
        d = make()
        assert parse_clauses(format_clauses(d)) == d

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=100, deadline=None)
    def test_every_accepted_drs_reads_back_equal(self, seed):
        # about one draft in eleven has an empty box before one that hosts a line
        draft = random_draft(np.random.default_rng(seed))
        ordered = validate(drs_module._in_text_order(draft))
        assert parse_clauses(format_clauses(ordered)) == ordered
        if ordered is not draft:
            with pytest.raises(DataError, match="clause-text order"):
                validate(draft)

    def test_boxes_out_of_text_order_raise(self):
        # b2 hosts no line, so the text names it after b3, which hosts two
        b1 = Box("b1", (), (Operator("NOT", ("b2",)), Operator("NOT", ("b3",))))
        b2, b3 = Box("b2"), Box("b3", ("x1",), (Unary("dog", "x1"),))
        with pytest.raises(DataError, match="clause-text order"):
            validate(Drs(boxes=(b1, b2, b3)))
        d = Drs(boxes=(b1, b3, b2))
        assert parse_clauses(format_clauses(validate(d))) == d

    @pytest.mark.parametrize("relation", [("CONTINUATION", "b2"), ("CONTINUATION",),
                                          ("CONTINUATION", "b2", "b3", "b2")])
    def test_relation_that_is_not_a_triple(self, fig1_drs, relation):
        # refused where built, so no reader meets it
        with pytest.raises(DataError, match="Drs.relations is"):
            Drs(fig1_drs.boxes, (relation,))

    @pytest.mark.parametrize("condition", ["dog", ("dog", "x1"), None])
    def test_condition_of_no_condition_class(self, condition):
        # refused where built, so no reader meets it
        with pytest.raises(DataError, match="Box.conditions is"):
            Box("b1", ("x1",), (Unary("dog", "x1"), condition))

    def test_relations_with_no_top_to_host_them_raise(self):
        # p1 is presupposed and b2 and b3 are constituents, so no box can
        # host the relation line; neither reader validates, nor drops it
        d = Drs((Box("p1", ("x1",), (Unary("dog", "x1"),)),
                 Box("b2", ("e1",), (Unary("run", "e1"),)),
                 Box("b3", ("e2",), (Unary("sleep", "e2"),))), (("CONTINUATION", "b2", "b3"),))
        for read in (format_clauses, to_clauses):
            with pytest.raises(DataError, match="no top box to host the relations"):
                read(d)

    def test_presupposed_flag_preserved_in_replace(self):
        b = Box("p1", ("x1",), ())
        assert replace(b, referents=("x2",)).presupposed


def _aligned_document(d: Drs) -> ClauseDocument:
    preds = sorted({c.predicate for b in d.boxes for c in b.conditions if isinstance(c, Unary)})
    alignments = tuple(AlignmentRecord(i, p, i % 2 == 0) for i, p in enumerate(preds))
    return ClauseDocument(d, alignments, ("a comment",))


def _reverted(d: Drs) -> Drs:
    doc = _aligned_document(d)
    lemmas = [f"{rec.predicate}o" for rec in doc.alignments]
    return revert_predicates(d, SimpleAnnotation(lemmas, lemmas, doc.alignments))[0]


# Each public path that builds values through the unchecked ``_build``, on a
# random valid DRS: one with presupposed boxes for merge_presuppositions
UNCHECKED_BUILDERS = {
    "parse_clause_document": lambda d: parse_clause_document(format_clauses(_aligned_document(d))),
    "merge_presuppositions": merge_presuppositions,
    "strip_senses": strip_senses,
    "revert_predicates": _reverted,
    "to_tree": to_tree,
    "from_tree": lambda d: from_tree(to_tree(d)),
    "linearize": lambda d: linearize(to_tree(d)),
    "delinearize": lambda d: delinearize(linearize(to_tree(d))),
}


VALUES = [Unary("dog", "x1"), Binary("Agent", "e1", '"now"'), Operator("IMP", ("b2", "b3")),
          Box("p1", ("x1",), (Unary("dog", "x1"),))]


class TestValues:
    @pytest.mark.parametrize("make", WRONG_TYPES.values(), ids=WRONG_TYPES)
    def test_wrong_typed_field_raises_data_error(self, make):
        with pytest.raises(DataError):
            make()

    def test_every_checked_field_has_a_wrong_type(self):
        refused = set()
        for make in WRONG_TYPES.values():
            with pytest.raises(DataError) as e:
                make()
            if m := re.match(r"(\w+)\.(\w+) is ", str(e.value)):
                refused.add(m.groups())
        checked = (Unary, Binary, Operator, Box, Drs, AlignmentRecord, ClauseDocument,
                   Node, DrsTree, LinearSeq)
        assert refused == {(c.__name__, f.name) for c in checked for f in fields(c)}

    @pytest.mark.parametrize("make", RIGHT_TYPES.values(), ids=RIGHT_TYPES)
    def test_right_typed_fields_build(self, make):
        assert make() == make()

    @pytest.mark.parametrize("name", UNCHECKED_BUILDERS)
    def test_unchecked_builds_pass_the_check(self, name, rng):
        sample = random_presupposed_drs if name == "merge_presuppositions" else random_drs
        built = 0
        for _ in range(20):
            try:
                value = UNCHECKED_BUILDERS[name](sample(rng))
            except AmbiguousMerge:
                continue  # a random presupposed box may have no one host
            assert rechecked(value) == value
            built += 1
        assert built >= 10

    @pytest.mark.parametrize("value", VALUES, ids=lambda v: type(v).__name__)
    def test_fields_cannot_be_assigned(self, value):
        for name in value.__dataclass_fields__:
            before = getattr(value, name)
            with pytest.raises(FrozenInstanceError):
                setattr(value, name, before)
            with pytest.raises(FrozenInstanceError):
                delattr(value, name)
            assert getattr(value, name) == before

    @pytest.mark.parametrize("value", VALUES, ids=lambda v: type(v).__name__)
    def test_replace_with_no_change_is_equal(self, value):
        copy = replace(value)
        assert copy == value and hash(copy) == hash(value) and copy is not value
        assert repr(copy) == repr(value)

    def test_replace_gives_equal_hashing_values(self):
        b = Box("b1", ("x1",), (Unary("dog", "x1"),))
        changed = replace(b, conditions=(replace(b.conditions[0], predicate="cat"),))
        want = Box("b1", ("x1",), (Unary("cat", "x1"),))
        assert changed == want and hash(changed) == hash(want)
        assert replace(Unary("dog", "x1"), argument="x2") == Unary("dog", "x2")
        assert hash(replace(Unary("dog", "x1"), argument="x2")) == hash(Unary("dog", "x2"))

    def test_keyword_and_default_construction(self):
        assert Box(id="b1") == Box("b1", (), ())
        assert Binary(role="Agent", first="e1", second="x1") == Binary("Agent", "e1", "x1")
        assert repr(Box("b1")) == "Box(id='b1', referents=(), conditions=())"
        assert Drs(boxes=(Box("b1"),)) == Drs((Box("b1"),), ())
        assert repr(Drs((Box("b1"),))) == \
            "Drs(boxes=(Box(id='b1', referents=(), conditions=()),), relations=())"
