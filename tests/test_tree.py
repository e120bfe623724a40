import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import FIG1_CLAUSES, count_nodes, random_drs

from boxparse import drs, tree
from boxparse.drs import (
    Binary,
    Box,
    Drs,
    Operator,
    Unary,
    format_clauses,
    merge_presuppositions,
    parse_clauses,
    strip_senses,
)
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
    delinearize,
    from_tree,
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


def leaf_nodes(node):
    """Every leaf occurrence under ``node``, in preorder."""
    out, stack = [], [node]
    while stack:
        n = stack.pop()
        if n.is_leaf:
            out.append(n)
        stack.extend(reversed(n.children))
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
                       Box("p1", ("x1",), (Unary("dog", "x1"),))))
        with pytest.raises(DataError, match="merge presuppositions"):
            to_tree(d)

    def test_one_leaf_object_per_label(self, fig1_drs):
        found = leaf_nodes(to_tree(fig1_drs).root)
        assert len({id(n) for n in found}) == len({n.label for n in found}) < len(found)

    def test_sorts_preserved_end_to_end(self, rng):
        for _ in range(20):
            d = random_drs(rng)
            back = from_tree(to_tree(d))
            orig = sorted(v[0] for b in d.boxes for v in b.referents)
            got = sorted(v[0] for b in back.boxes for v in b.referents)
            assert orig == got


class TestNode:
    def test_equality_compares_labels_and_shape(self):
        t = Node("C1", (Node("dog"), Node("x1")))
        assert t == Node("C1", (Node("dog"), Node("x1")))
        assert hash(t) == hash(Node("C1", (Node("dog"), Node("x1"))))
        assert t != Node("C1", (Node("dog"), Node("x2")))
        assert t != Node("C1", (Node("dog"), Node("x1"), Node("x1")))
        assert t != Node("C2", (Node("dog"), Node("x1")))
        assert t != "C1"

    @pytest.mark.parametrize("other", [("x", ()), "x", None, 0, ["x"]])
    def test_never_equals_a_non_node(self, other):
        assert Node("x") != other
        assert not Node("x") == other

    @pytest.mark.parametrize("field", ["label", "children"])
    def test_fields_cannot_be_assigned(self, field):
        t = Node("C1", (Node("dog"), Node("x1")))
        with pytest.raises(AttributeError):
            setattr(t, field, ())
        assert t == Node("C1", (Node("dog"), Node("x1")))

    def test_repr_of_deep_not_chain(self):
        depth = 5000
        text = "".join(f"b{i} NOT b{i + 1}\n" for i in range(1, depth))
        t = to_tree(parse_clauses(text + f"b{depth} REF x1\nb{depth} dog x1\n"))
        rendered = repr(t)
        assert rendered.startswith("DrsTree(root=Node(label='DRS', children=(Node(label='OP', ")
        assert rendered.count("Node(label='NOT'") == depth - 1

    def test_repr_is_the_field_repr(self):
        assert repr(Node("REF", (Node("x1"),))) == \
            "Node(label='REF', children=(Node(label='x1', children=()),))"
        t = Node("C2", (Node("Agent"), Node("e1"), Node('"now"')))
        assert repr(t) == ("Node(label='C2', children=(Node(label='Agent', children=()), "
                           "Node(label='e1', children=()), "
                           "Node(label='\"now\"', children=())))")


class TestLinearize:
    def test_minimal_round_trip(self):
        t = DrsTree(Node("root", (Node("leafy"),)))
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

    def test_one_leaf_object_per_label(self, fig1_drs):
        found = leaf_nodes(delinearize(linearize(to_tree(fig1_drs))).root)
        assert len({id(n) for n in found}) == len({n.label for n in found}) < len(found)

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


class TestSharedLeaves:
    def test_delinearize_returns_the_leaves_to_tree_built(self, fig1_drs):
        t = to_tree(fig1_drs)
        built = {n.label: n for n in leaf_nodes(t.root)}
        back = leaf_nodes(delinearize(linearize(t)).root)
        assert all(n is built[n.label] for n in back)

    def test_converting_again_adds_no_entry(self, rng):
        # a label no other test uses, so the first pass must add entries
        probe = "b1 REF x1\nb1 shared_leaf_probe.n.01 x1\n"
        texts = [probe, FIG1_CLAUSES]
        texts += [format_clauses(random_drs(rng)) for _ in range(5)]

        def convert():
            for text in texts:
                d = strip_senses(merge_presuppositions(parse_clauses(text)))
                format_clauses(from_tree(delinearize(linearize(to_tree(d)))))

        def sizes():
            return (len(tree._LEAVES), drs._label_fault.cache_info().currsize,
                    drs.strip_sense.cache_info().currsize)

        before = sizes()
        convert()
        once = sizes()
        assert all(b < o for b, o in zip(before, once))
        convert()
        assert sizes() == once


class TestFromTree:
    def test_minimal_one_condition(self):
        t = DrsTree(Node("DRS", (Node("REF", (Node("x1"),)),
                                 Node("C1", (Node("dog"), Node("x1"))))))
        d = from_tree(t)
        assert len(d.boxes) == 1
        assert d.box(d.top).conditions == (Unary("dog", "x1"),)

    def test_round_trip_scores_perfectly(self, rng):
        for _ in range(50):
            d = strip_senses(random_drs(rng))
            back = from_tree(to_tree(d))
            assert score(back, d).f1 == 1.0

    def test_condition_under_no_box(self):
        t = DrsTree(Node("C1", (Node("dog"), Node("x1"))))
        with pytest.raises(MalformedTree):
            from_tree(t)

    def test_leaf_where_box_required(self):
        t = DrsTree(Node("DRS", (Node("OP", (Node("NOT"), Node("x1"))),)))
        with pytest.raises(MalformedTree):
            from_tree(t)

    def test_symbol_like_label_rejected(self):
        # (DRS (REF x1) (C1 x2 x1))
        t = DrsTree(Node("DRS", (Node("REF", (Node("x1"),)),
                                 Node("C1", (Node("x2"), Node("x1"))))))
        with pytest.raises(DataError, match="spelled like symbols"):
            from_tree(t)

    def test_unbound_argument(self):
        t = DrsTree(Node("DRS", (Node("C1", (Node("dog"), Node("x9"))),)))
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
            Node("OP", (Node("NOT"), Node("DRS", (Node("REF", (Node("x1"),)),
                                                  Node("C1", (Node("dog"), Node("x1"))))))),
            Node("OP", (Node("POS"), Node("DRS", (Node("REF", (Node("x1"),)),
                                                  Node("C1", (Node("cat"), Node("x1"))))))),
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
        ("(DRS (REF x1 ) (REF x2 ) (C2 EQU x1 x2 ) )", DataError),
        ("(SDRS (DRS ) (DRS ) (DRS ) (REL CONTINUATION K1 K9 ) )", MalformedTree),
        ("(SDRS (DRS ) (DRS ) (DRS ) (REL CONTINUATION K01 K2 ) )", MalformedTree),
        ("(DRS (OP NOT (DRS ) ) (REF x1 ) )", MalformedTree),
        ("(DRS (OP (DRS (REF x1 ) ) (DRS ) ) )", MalformedTree),
    ])
    def test_bad_trees_rejected(self, text, error):
        with pytest.raises(error):
            from_tree(delinearize(LinearSeq(tuple(text.split()))))

    def test_sdrs_opens_with_its_top_box(self):
        text = "(SDRS (REL CONTINUATION K1 K2 ) (DRS ) (DRS ) (DRS ) )"
        with pytest.raises(MalformedTree, match="first SDRS child must be the top box"):
            from_tree(delinearize(LinearSeq(tuple(text.split()))))

    def test_deep_not_chain_round_trips(self):
        depth = 5000
        text = "".join(f"b{i} REF x{i}\nb{i} dog x{i}\nb{i} NOT b{i + 1}\n"
                       for i in range(1, depth))
        d = parse_clauses(text + f"b{depth} REF x{depth}\nb{depth} dog x{depth}\n")
        t = to_tree(d)
        seq = linearize(t)
        assert delinearize(seq) == t
        assert hash(delinearize(seq).root) == hash(t.root)
        assert from_tree(delinearize(seq)) == d
        assert linearize(delinearize(seq)) == seq

    def test_shadowing_rejected(self):
        t = DrsTree(Node("DRS", (
            Node("REF", (Node("x1"),)),
            Node("OP", (Node("NOT"), Node("DRS", (Node("REF", (Node("x1"),)),)))),
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
