import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import random_drs

from boxparse.drs import Binary, Box, Drs, Operator, Unary, parse_clauses, strip_senses
from boxparse.errors import (
    DataError,
    EmptyInput,
    MalformedSequence,
    MalformedTree,
    UnboundVariable,
    UnknownOperator,
)
from boxparse.evaluate import score
from boxparse.tree import (
    DrsTree,
    LinearSeq,
    Node,
    count_nodes,
    delinearize,
    from_tree,
    leaf,
    linearize,
    to_tree,
)


def leaves(node, out=None):
    if out is None:
        out = []
    if node.is_leaf:
        out.append(node.label)
    for c in node.children:
        leaves(c, out)
    return out


def condition_leaves(node, out=None, in_condition=False):
    """Leaf tokens appearing inside C1/C2 condition nodes only."""
    if out is None:
        out = []
    if node.is_leaf and in_condition:
        out.append(node.label)
    for c in node.children:
        condition_leaves(c, out, in_condition or node.label in ("C1", "C2"))
    return out


def closed_form_node_count(d: Drs) -> int:
    """Independent count of tree nodes from DRS statistics."""
    n = 0
    for b in d.boxes:
        n += 1 + 2 * len(b.referents)
        for c in b.conditions:
            if isinstance(c, Unary):
                n += 3
            elif isinstance(c, Binary):
                n += 4
            else:
                n += 2  # OP node + label leaf; embedded boxes counted above
    if d.relations:
        n += 1 + 4 * len(d.relations)
    return n


class TestToTree:
    def test_reentrant_variable_duplicated(self, fig1_drs):
        t = to_tree(fig1_drs)
        # x1 is used in laptop, Owner and Theme: three occurrences inside
        # conditions, plus its REF declaration leaf.
        assert condition_leaves(t.root).count("x1") == 3
        assert leaves(t.root).count("x1") == 4

    def test_minimal_box_depth(self):
        d = parse_clauses("b1 REF x1\nb1 laptop x1\n")
        t = to_tree(d)
        assert t.root.label == "DRS"
        assert [c.label for c in t.root.children] == ["REF", "C1"]
        assert leaves(t.root) == ["x1", "laptop", "x1"]

    def test_relations_make_sdrs_root(self, fig1_drs):
        t = to_tree(fig1_drs)
        assert t.root.label == "SDRS"
        kinds = [c.label for c in t.root.children]
        assert kinds == ["DRS", "DRS", "DRS", "REL"]
        rel = t.root.children[3]
        assert leaves(rel) == ["CONTINUATION", "K1", "K2"]

    def test_node_count_matches_closed_form(self, rng):
        for _ in range(20):
            d = random_drs(rng)
            assert count_nodes(to_tree(d)) == closed_form_node_count(d)

    def test_presupposed_boxes_rejected(self):
        d = Drs(boxes=(Box("b1", ("e1",), (Unary("run", "e1"),)),
                       Box("p1", ("x1",), (Unary("dog", "x1"),), presupposed=True)),
                top="b1")
        with pytest.raises(DataError, match="merge presuppositions"):
            to_tree(d)

    def test_sorts_preserved_end_to_end(self, rng):
        for _ in range(20):
            d = random_drs(rng)
            back = from_tree(to_tree(d))
            orig = sorted(v[0] for b in d.boxes for v in b.referents)
            got = sorted(v[0] for b in back.boxes for v in b.referents)
            assert orig == got


class TestLinearize:
    def test_minimal_round_trip(self):
        t = DrsTree(Node("root", (leaf("leafy"),)))
        seq = linearize(t)
        assert seq.tokens == ("(root", "leafy", ")")
        assert delinearize(seq) == t

    def test_fig1_round_trip_byte_equal(self, fig1_drs):
        t = to_tree(fig1_drs)
        seq = linearize(t)
        again = linearize(delinearize(seq))
        assert again == seq
        assert delinearize(seq) == t

    def test_unbalanced_open(self):
        with pytest.raises(MalformedSequence):
            delinearize(LinearSeq(("(", "(")))

    def test_unclosed(self):
        with pytest.raises(MalformedSequence):
            delinearize(LinearSeq(("(DRS",)))

    def test_stray_close(self):
        with pytest.raises(MalformedSequence):
            delinearize(LinearSeq((")",)))

    def test_leaf_outside_node(self):
        with pytest.raises(MalformedSequence):
            delinearize(LinearSeq(("x1",)))

    def test_tokens_after_root(self):
        with pytest.raises(MalformedSequence):
            delinearize(LinearSeq(("(DRS", ")", "x1")))

    def test_empty(self):
        with pytest.raises(EmptyInput):
            delinearize(LinearSeq(()))

    def test_random_round_trips(self, rng):
        for _ in range(30):
            t = to_tree(random_drs(rng))
            assert delinearize(linearize(t)) == t

    @given(st.integers(min_value=0, max_value=10_000))
    @example(seed=383)   # these seeds once drove the generator to a negative
    @example(seed=2299)  # condition budget; pin them in every run
    @settings(max_examples=30, deadline=None)
    def test_round_trip_property(self, seed):
        import numpy as np

        t = to_tree(random_drs(np.random.default_rng(seed)))
        assert delinearize(linearize(t)) == t


class TestFromTree:
    def test_minimal_one_condition(self):
        t = DrsTree(Node("DRS", (Node("REF", (leaf("x1"),)),
                                 Node("C1", (leaf("dog"), leaf("x1"))))))
        d = from_tree(t)
        assert len(d.boxes) == 1
        assert d.box(d.top).conditions == (Unary("dog", "x1"),)

    def test_round_trip_scores_perfectly(self, rng):
        for _ in range(50):
            d = strip_senses(random_drs(rng))
            back = from_tree(to_tree(d))
            assert score(back, d).f1 == 1.0

    def test_condition_under_no_box(self):
        t = DrsTree(Node("C1", (leaf("dog"), leaf("x1"))))
        with pytest.raises(MalformedTree):
            from_tree(t)

    def test_leaf_where_box_required(self):
        t = DrsTree(Node("DRS", (Node("OP", (leaf("NOT"), leaf("x1"))),)))
        with pytest.raises(MalformedTree):
            from_tree(t)

    def test_symbol_like_label_rejected(self):
        # (DRS (REF x1) (C1 x2 x1))
        t = DrsTree(Node("DRS", (Node("REF", (leaf("x1"),)),
                                 Node("C1", (leaf("x2"), leaf("x1"))))))
        with pytest.raises(DataError, match="spelled like symbols"):
            from_tree(t)

    def test_unbound_argument(self):
        t = DrsTree(Node("DRS", (Node("C1", (leaf("dog"), leaf("x9"))),)))
        with pytest.raises(UnboundVariable):
            from_tree(t)

    def test_reentrancy_remerges(self, fig1_drs):
        back = from_tree(to_tree(fig1_drs))
        # x1's three uses re-merge into a single referent
        all_refs = [v for b in back.boxes for v in b.referents]
        assert len(all_refs) == 3

    def test_unrelated_scopes_stay_distinct(self):
        # same surface token declared in two sibling boxes: two referents
        t = DrsTree(Node("DRS", (
            Node("OP", (leaf("NOT"), Node("DRS", (Node("REF", (leaf("x1"),)),
                                                  Node("C1", (leaf("dog"), leaf("x1"))))))),
            Node("OP", (leaf("POS"), Node("DRS", (Node("REF", (leaf("x1"),)),
                                                  Node("C1", (leaf("cat"), leaf("x1"))))))),
        )))
        d = from_tree(t)
        refs = [v for b in d.boxes for v in b.referents]
        assert len(refs) == 2
        assert len(set(refs)) == 2

    @pytest.mark.parametrize("text, error", [
        ("(DRS (OP FOO (DRS ) ) )", UnknownOperator),
        ("(DRS (OP NOT (DRS ) (DRS ) ) )", DataError),
        ("(DRS (REF dog ) )", DataError),
        ("(DRS (REF x1 ) (C1 dog cat ) )", DataError),
        ("(SDRS (DRS ) (DRS ) (DRS ) (REL CONTINUATION K1 K9 ) )", MalformedTree),
        ("(SDRS (DRS ) (DRS ) (DRS ) (REL CONTINUATION K01 K2 ) )", MalformedTree),
    ])
    def test_bad_trees_rejected(self, text, error):
        with pytest.raises(error):
            from_tree(delinearize(LinearSeq(tuple(text.split()))))

    def test_deep_not_chain_round_trips(self):
        depth = 5000
        text = "".join(f"b{i} REF x{i}\nb{i} dog x{i}\nb{i} NOT b{i + 1}\n"
                       for i in range(1, depth))
        d = parse_clauses(text + f"b{depth} REF x{depth}\nb{depth} dog x{depth}\n")
        seq = linearize(to_tree(d))
        # Node equality recurses per level, so compare DRSs and token tuples
        assert from_tree(delinearize(seq)) == d
        assert linearize(delinearize(seq)) == seq

    def test_shadowing_rejected(self):
        t = DrsTree(Node("DRS", (
            Node("REF", (leaf("x1"),)),
            Node("OP", (leaf("NOT"), Node("DRS", (Node("REF", (leaf("x1"),)),)))),
        )))
        with pytest.raises(MalformedTree):
            from_tree(t)

    def test_shared_constituent_between_relations(self):
        text = (
            "b1 CONTINUATION b2 b3\n"
            "b1 CONTRAST b3 b4\n"
            "b2 REF e1\nb2 run e1\n"
            "b3 REF e2\nb3 sleep e2\n"
            "b4 REF e3\nb4 see e3\n"
        )
        d = parse_clauses(text)
        t = to_tree(d)
        assert [c.label for c in t.root.children] == ["DRS"] * 4 + ["REL"] * 2
        back = from_tree(t)
        assert len(back.relations) == 2
        assert score(back, d).f1 == 1.0

    def test_delinearize_then_from_tree_from_text(self, fig1_drs):
        tokens = " ".join(linearize(to_tree(fig1_drs)).tokens)
        back = from_tree(delinearize(LinearSeq(tuple(tokens.split()))))
        assert score(back, fig1_drs).f1 == 1.0
