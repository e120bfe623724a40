import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import FIG1_CLAUSES, FIG1_LEMMAS, FIG1_TOKENS, random_drs

from boxparse import drs as drs_module
from boxparse.drs import (
    AlignmentRecord,
    Binary,
    Box,
    ClauseDocument,
    Drs,
    Operator,
    Unary,
    canonicalize_variables,
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

    def test_alignments_parsed(self, fig1_doc):
        preds = {r.predicate for r in fig1_doc.alignments}
        assert preds == {"sit_down", "open", "laptop"}
        heads = [r for r in fig1_doc.alignments if r.head]
        assert len(heads) == 3

    def test_empty_file(self):
        with pytest.raises(EmptyInput):
            parse_clauses("")

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

    def test_structurally_referenced_presupposed_box(self):
        d = Drs(
            boxes=(
                Box("b1", ("e1",), (Unary("run", "e1"), Operator("NOT", ("p1",)))),
                Box("p1", ("x1",), (Unary("laptop", "x1"),), presupposed=True),
            ),
            top="b1",
        )
        with pytest.raises(AmbiguousMerge):
            merge_presuppositions(validate(d))


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
        bad = Drs(boxes=(Box("b1", ("q1",), ()),), top="b1")
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
        d = Drs(boxes=(Box("b1", ("e1",), (Unary("run", "e1"),)), Box("b2")), top="b1")
        with pytest.raises(DataError):
            validate(d)

    def test_failed_check_raises_again(self):
        bad = Drs(boxes=(Box("b1", ("q1",), ()),), top="b1")
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
            for c in b.conditions)) for b in d.boxes), d.relations, d.top)
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
            validate(Drs(out.boxes, out.relations, out.top))
            assert parse_clauses(format_clauses(out)) == out

    @pytest.mark.parametrize("text, checks", [(PRESUPPOSED, 3), (FORMAT_PROBE, 2)],
                             ids=["presupposed", "no_presupposed"])
    def test_round_trip_checks_each_new_drs_once(self, monkeypatch, text, checks):
        # parse, merge (only with a presupposed box) and from_tree build new
        # DRSs; strip_senses passes its input's check on, and to_tree reuses it
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
        d = Drs(boxes=(Box("b1", ("e1",), (condition,)),), top="b1")
        with pytest.raises(DataError):
            validate(d)

    def test_spaced_tree_leaf_rejected(self):
        t = to_tree(parse_clauses("b1 REF e1\nb1 sit e1\n"))
        spaced = DrsTree(Node("DRS", (t.root.children[0], Node("C1", (Node("sit down"),
                                                                       Node("e1"))))))
        with pytest.raises(DataError, match="empty or holding whitespace"):
            from_tree(spaced)

    @pytest.mark.parametrize("box_id, referent", [("foo", "x1"), ("b1\n", "x1"),
                                                  ("b1", "x1\n")])
    def test_names_spelled_as_the_parser_reads_them(self, box_id, referent):
        d = Drs(boxes=(Box(box_id, (referent,), (Unary("dog", referent),)),), top=box_id)
        with pytest.raises(DataError):
            validate(d)

    @pytest.mark.parametrize("boxes", [
        # a b-box flagged presupposed re-parses as an unreachable plain box
        (Box("b1", ("x1",), (Unary("dog", "x1"),)),
         Box("b2", ("x2",), (Unary("cat", "x2"),), presupposed=True)),
        # a p-box not flagged presupposed re-parses as presupposed
        (Box("b1", (), (Operator("NOT", ("p2",)),)),
         Box("p2", ("x1",), (Unary("dog", "x1"),))),
    ], ids=["b_presupposed", "p_not_presupposed"])
    def test_presupposed_exactly_when_the_id_says_so(self, boxes):
        with pytest.raises(DataError, match="bad box id"):
            validate(Drs(boxes=boxes, top="b1"))

    def test_top_box_is_not_presupposed(self):
        with pytest.raises(DataError, match="top box p1 is presupposed"):
            parse_clauses("p1 REF x1\np1 dog x1\n")

    @pytest.mark.parametrize("label", ["continuation", "REF", "NOT", "A", "CON TINUATION"])
    def test_relation_labels_are_keywords(self, label):
        d = parse_clauses(PRESUPPOSED)
        with pytest.raises(DataError, match="bad relation label"):
            validate(Drs(d.boxes, ((label, "b2", "b3"),), d.top))

    @pytest.mark.parametrize("boxes", [
        (Box("b1"),),
        (Box("b1", ("x1",), (Unary("dog", "x1"),)), Box("p1", presupposed=True)),
        (Box("b1"), Box("p1", ("x1",), (Unary("dog", "x1"),), presupposed=True)),
    ], ids=["no_clause", "empty_presupposed", "empty_top"])
    def test_every_box_hosts_or_is_named_by_a_clause(self, boxes):
        with pytest.raises(DataError, match="no clause hosts or names"):
            validate(Drs(boxes=boxes, top="b1"))

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

    def test_presupposed_flag_preserved_in_replace(self):
        b = Box("p1", ("x1",), (), presupposed=True)
        assert replace(b, referents=("x2",)).presupposed
